"""Line-oriented instance files: one (S, A, beta) triple per file.

Sections are [semigroup], [ring], [action].  The semigroup is
either an explicit table (with optional zero) or a generators+relations
presentation saturated on load; the ring is an ordered atom list; the
action lists one map per element as an atom matching with twist powers
(domain and image supports may be stated for cross-checking, everything
else is recomputed by validation).  Errors carry line positions.
"""

from __future__ import annotations

from .actions import validate_action
from .rings import Atom, FiniteRing, StructuredIso
from .semigroups import saturate_presentation, validate_table


class ParseError(Exception):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_SECTIONS = ("semigroup", "ring", "action")


def _split_sections(text):
    """Each section's (line number, line) pairs; unknown sections are
    reported on the line of the first unknown header."""
    sections = {}
    unknown = {}  # unknown section -> line of its first header
    current = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            if current not in _SECTIONS:
                unknown.setdefault(current, no)
            continue
        if current is None:
            raise ParseError(no, f"content before any section header: {line!r}")
        sections[current].append((no, line))
    if unknown:
        raise ParseError(min(unknown.values()), f"unknown sections: {sorted(unknown)}")
    return sections


def _parse_word(token_list, gen_index, line_no):
    word = []
    for tok in token_list:
        if tok == "1":
            continue
        inv = tok.endswith("'")
        name = tok[:-1] if inv else tok
        if name not in gen_index:
            raise ParseError(line_no, f"unknown generator {name!r}")
        g = gen_index[name]
        word.append(g + len(gen_index) if inv else g)
    return tuple(word)


def _check_generator_names(generators, line_no):
    """Each name once, none a word cannot spell (`1` is the empty word and a
    trailing `'` marks an inverse), and none with a `*`, which joins the
    letters of an element's name."""
    seen = set()
    for name in generators:
        if name == "1" or name.endswith("'"):
            raise ParseError(line_no, f"generator name {name!r} cannot be written in a word")
        if "*" in name:
            raise ParseError(line_no, f"generator name {name!r} cannot be written in an element name")
        if name in seen:
            raise ParseError(line_no, f"generator {name!r} given twice")
        seen.add(name)


def _parse_semigroup(lines):
    generators = None
    relations = []
    elements = None
    table_rows = []
    zero = None
    seen = set()  # the single-valued keys read so far
    for no, line in lines:
        if "=" not in line and not table_rows and elements is None:
            raise ParseError(no, f"expected key = value, got {line!r}")
        if elements is not None and "=" not in line:
            table_rows.append((no, line.split()))
            continue
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key in ("generators", "elements", "zero"):
            if key in seen:
                raise ParseError(no, f"{key} given twice")
            seen.add(key)
        if key == "generators":
            generators = val.split()
            _check_generator_names(generators, no)
        elif key == "relation":
            if ":" not in val:
                raise ParseError(no, "relation needs the form  word : word")
            lhs, rhs = val.split(":", 1)
            relations.append((no, lhs.split(), rhs.split()))
        elif key == "elements":
            elements = val.split()
        elif key == "row":
            table_rows.append((no, val.split()))
        elif key == "zero":
            zero = (no, val)
        else:
            raise ParseError(no, f"unknown semigroup key {key!r}")
    if generators is not None:
        if elements is not None or table_rows:
            raise ParseError(lines[0][0], "give either a presentation or a table, not both")
        gen_index = {g: i for i, g in enumerate(generators)}
        rels = [(_parse_word(l, gen_index, no), _parse_word(r, gen_index, no))
                for no, l, r in relations]
        if zero is not None:
            raise ParseError(zero[0], "zero is only available with explicit tables")
        return saturate_presentation(generators, rels)
    if elements is None:
        raise ParseError(lines[0][0] if lines else 1, "semigroup needs elements or generators")
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise ParseError(lines[0][0], "duplicate element names")
    n = len(elements)
    if len(table_rows) != n:
        raise ParseError(lines[-1][0], f"expected {n} table rows, got {len(table_rows)}")
    table = []
    for no, row in table_rows:
        if len(row) != n:
            raise ParseError(no, f"row has {len(row)} entries, expected {n}")
        try:
            table.append([index[x] for x in row])
        except KeyError as exc:
            raise ParseError(no, f"unknown element {exc.args[0]!r} in row") from None
    zidx = None
    if zero is not None:
        no, val = zero
        if val not in index:
            raise ParseError(no, f"unknown zero element {val!r}")
        zidx = index[val]
    return validate_table(table, zero=zidx, names=elements)


def _parse_ring(lines):
    atoms = []
    for no, line in lines:
        key, _, val = line.partition("=")
        if key.strip().lower() != "atom":
            raise ParseError(no, f"unknown ring key {key.strip()!r}")
        parts = val.split()
        if not parts:
            raise ParseError(no, "empty atom spec")
        kind = parts[0].lower()
        if kind not in ("zmod", "gf"):
            raise ParseError(no, f"unknown atom kind {kind!r}")
        if len(parts) < (3 if kind == "gf" else 2):
            missing = "p" if len(parts) < 2 else "k"
            raise ParseError(no, f"bad atom spec: {kind} atom needs {missing}")
        poly = None
        for token in parts[3:]:
            if kind != "gf" or not token.startswith("poly="):
                raise ParseError(no, f"unexpected atom token {token!r}")
            if poly is not None:
                raise ParseError(no, "poly= given twice")
            poly = token[5:]
        try:
            if kind == "zmod":
                p, k = int(parts[1]), int(parts[2]) if len(parts) > 2 else 1
                atoms.append(Atom.zmod(p, k))
            else:
                p, k = int(parts[1]), int(parts[2])
                atoms.append(Atom.gf(p, k, None if poly is None else tuple(int(c) for c in poly.split(","))))
        except Exception as exc:
            raise ParseError(no, f"bad atom spec: {exc}") from None
    if not atoms:
        raise ParseError(lines[0][0] if lines else 1, "ring needs at least one atom")
    return FiniteRing(atoms)


def _parse_action(lines, S, A):
    isos = {}
    name_index = {S.names[i]: i for i in range(S.n)}
    for no, line in lines:
        key, _, val = line.partition("=")
        if key.strip().lower() != "map":
            raise ParseError(no, f"unknown action key {key.strip()!r}")
        if ":" not in val:
            raise ParseError(no, "map needs the form  element : pairs")
        name, spec = val.split(":", 1)
        name = name.strip()
        if name not in name_index:
            raise ParseError(no, f"unknown element {name!r}")
        matching = {}
        twist = {}
        dom_stated = im_stated = None
        for tok in spec.split():
            if tok.startswith("dom="):
                if dom_stated is not None:
                    raise ParseError(no, "dom= given twice")
                dom_stated = _atom_set(tok[4:], no)
                continue
            if tok.startswith("im="):
                if im_stated is not None:
                    raise ParseError(no, "im= given twice")
                im_stated = _atom_set(tok[3:], no)
                continue
            if tok == "empty":
                continue
            if "->" not in tok:
                raise ParseError(no, f"bad matching token {tok!r}")
            src, dst = tok.split("->", 1)
            tw = 0
            if ":" in dst:
                dst, tw = dst.split(":", 1)
            try:
                i, j, tw = int(src), int(dst), int(tw)
            except ValueError:
                raise ParseError(no, f"bad matching token {tok!r}") from None
            if not (0 <= i < len(A.atoms) and 0 <= j < len(A.atoms)):
                raise ParseError(no, f"atom index out of range in {tok!r}")
            if i in matching:
                raise ParseError(no, f"source atom {i} given twice")
            matching[i] = j
            twist[i] = tw
        try:
            iso = StructuredIso(A, matching, twist)
        except Exception as exc:
            raise ParseError(no, f"bad map for {name!r}: {exc}") from None
        if dom_stated is not None and iso.dom_support != dom_stated:
            raise ParseError(no, f"stated dom {sorted(dom_stated)} differs from "
                                 f"matching domain {sorted(iso.dom_support)}")
        if im_stated is not None and iso.im_support != im_stated:
            raise ParseError(no, f"stated im {sorted(im_stated)} differs from "
                                 f"matching image {sorted(iso.im_support)}")
        if name in isos:
            raise ParseError(no, f"duplicate map for {name!r}")
        isos[name] = iso
    missing = [S.names[i] for i in range(S.n) if S.names[i] not in isos]
    if missing:
        raise ParseError(lines[-1][0] if lines else 1,
                         f"missing maps for elements: {', '.join(missing)}")
    return [isos[S.names[i]] for i in range(S.n)]


def _atom_set(text, no):
    if not text:
        return frozenset()
    try:
        return frozenset(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(no, f"bad atom set {text!r}") from None


def parse_instance_text(text):
    """The `Action` (S, A, beta) an instance text describes, validated.

    A presentation is saturated into a table here, and the saturation is
    bounded only by the work budget: call this inside `budget.limit(n)`, as
    the command line does with `--budget`.  Outside any limit block a
    `spend` is free, so a presentation whose closure is infinite
    (`generators = a b` with no relation) saturates until memory runs out."""
    sections = _split_sections(text)
    for name in _SECTIONS:
        if name not in sections:
            raise ParseError(1, f"missing [{name}] section")
    S = _parse_semigroup(sections["semigroup"])
    A = _parse_ring(sections["ring"])
    isos = _parse_action(sections["action"], S, A)
    return validate_action(S, A, isos)


def instance_text(data):
    """The text of an instance file's bytes, which must be UTF-8 and not blank;
    a bad byte is reported on its line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; a character appended to them
        # falls on the bad byte's line
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line_no, f"not UTF-8 text: byte 0x{data[exc.start]:02x}") from None
    if not text.strip():
        raise ParseError(1, "empty instance file")
    return text


def parse_instance(path):
    with open(path, "rb") as fh:
        return parse_instance_text(instance_text(fh.read()))


def action_to_instance_text(beta, comment=None):
    """Serialize a validated action back into the file format."""
    S, A = beta.S, beta.A
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("[semigroup]")
    lines.append("elements = " + " ".join(S.names))
    for row in S.table:
        lines.append("row = " + " ".join(S.names[x] for x in row))
    if S.zero is not None:
        lines.append(f"zero = {S.names[S.zero]}")
    lines.append("")
    lines.append("[ring]")
    for a in A.atoms:
        if a.kind == "zmod":
            lines.append(f"atom = zmod {a.p} {a.k}")
        else:
            lines.append(f"atom = gf {a.p} {a.k} poly={','.join(map(str, a.poly))}")
    lines.append("")
    lines.append("[action]")
    for s in range(S.n):
        spec = " ".join(f"{i}->{v[0]}:{v[1]}" for i, v in enumerate(beta.isos[s].atom_map) if v)
        lines.append(f"map = {S.names[s]} : {spec or 'empty'}")
    return "\n".join(lines) + "\n"
