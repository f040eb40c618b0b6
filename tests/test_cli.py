import ast
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from semigalois import instance as inst

REPO = Path(__file__).resolve().parent.parent
INSTANCES = REPO / "instances"


def run_cli(args):
    """(exit code, stdout, stderr) of one CLI run."""
    proc = subprocess.run([sys.executable, "-m", "semigalois.cli", *args],
                          capture_output=True, cwd=REPO)
    return proc.returncode, proc.stdout, proc.stderr


def _assert_usage_error(code, err, message):
    assert code == 2
    assert b"usage: semigalois" in err and message in err
    assert b"Traceback" not in err


def test_bad_seed_setting_is_a_usage_error():
    code, _, err = run_cli(["galois", "instances/c2_swap.sgi", "--seed", "abc"])
    _assert_usage_error(code, err, b"argument --seed: invalid int value: 'abc'")


def test_bad_guard_setting_is_a_usage_error():
    """--budget, which replaced the guard setting, is validated like it."""
    code, _, err = run_cli(["galois", "instances/c2_swap.sgi", "--budget", "x"])
    _assert_usage_error(code, err, b"argument --budget: invalid int value: 'x'")


def test_unknown_format_setting_is_a_usage_error():
    code, out, err = run_cli(["galois", "instances/c2_swap.sgi", "--format", "xml"])
    _assert_usage_error(code, err, b"argument --format: invalid choice: 'xml'")
    assert out == b""


def test_guard_flag_below_one_is_a_usage_error():
    """--budget, which replaced --guard-max-order, must be at least 1 as well."""
    code, _, err = run_cli(["galois", "instances/c2_swap.sgi", "--budget", "0"])
    _assert_usage_error(code, err, b"argument --budget: must be at least 1, got 0")


def test_old_guard_spellings_are_unknown(tmp_path):
    code, _, err = run_cli(["galois", "instances/c2_swap.sgi", "--guard-max-order", "5"])
    _assert_usage_error(code, err, b"unrecognized arguments: --guard-max-order 5")
    p = tmp_path / "old.sgi"
    p.write_text((INSTANCES / "c2_swap.sgi").read_text() + "\n[options]\nguard-max-order = 5\n")
    line_no = p.read_text().splitlines().index("[options]") + 1
    _assert_input_error(*run_cli(["galois", str(p)]),
                        f"error: line {line_no}: unknown sections: ['options']".encode())


def test_small_budget_is_a_reported_verdict():
    """A trip inside the command ends the report with FAIL budget and exits 3.
    correspond solves no coordinate system, so its first charged work is the
    insertion of A^beta's generators into a canonical basis."""
    code, out, err = run_cli(["correspond", "instances/c2_swap.sgi", "--budget", "5"])
    assert code == 3 and err == b""
    lines = out.decode().splitlines()
    assert lines[-2:] == ["FAIL budget  quantity=echelon_entries  spent=6  limit=5",
                          "# result: FAIL"]


def test_budget_trip_while_loading_is_an_error_line():
    """S7 is given by a presentation, and its first charge, the 4-symbol row
    of the first scan, already costs more than 1."""
    code, out, err = run_cli(["validate", "instances/s7_f9cubed.sgi", "--budget", "1"])
    assert code == 3 and out == b""
    assert err == b"error: budget: quantity=coset_steps  spent=4  limit=1\n"


@pytest.mark.parametrize("atom", ["zmod 2305843009213693951 1", "zmod 2 2000000000"])
def test_huge_atom_is_refused_before_any_arithmetic(tmp_path, atom):
    """Bounds on p and k come before the primality test and before p ** k."""
    p = tmp_path / "huge.sgi"
    p.write_text(f"[semigroup]\nelements = 1\nrow = 1\n[ring]\natom = {atom}\n"
                 "[action]\nmap = 1 : 0->0:0\n")
    t0 = time.monotonic()
    code, out, err = run_cli(["validate", str(p)])
    assert time.monotonic() - t0 < 5
    assert code == 2 and out == b""
    assert err.startswith(b"error: line 5: bad atom spec: atom order ") and b"out of range" in err


def test_shipped_fixture_parses():
    parsed = inst.parse_instance(INSTANCES / "s7_f9cubed.sgi")
    assert parsed.S.n == 7
    assert parsed.A.size == 729


def test_empty_file_positioned_error(tmp_path):
    p = tmp_path / "empty.sgi"
    p.write_text("")
    with pytest.raises(inst.ParseError) as err:
        inst.parse_instance(p)
    assert err.value.line_no == 1


def _assert_input_error(code, out, err, message):
    """Exit 2, nothing on stdout, and one `error: ...` line on stderr."""
    assert code == 2 and out == b""
    assert err.startswith(b"error: ") and err.count(b"\n") == 1 and message in err
    assert b"Traceback" not in err


def test_non_utf8_file_names_the_line_of_the_first_bad_byte(tmp_path):
    text = (INSTANCES / "c2_swap.sgi").read_bytes().splitlines(keepends=True)
    p = tmp_path / "latin1.sgi"
    p.write_bytes(b"".join(text[:2]) + b"# caf\xe9 \xff\n" + b"".join(text[2:]))
    _assert_input_error(*run_cli(["galois", str(p)]), b"error: line 3: not UTF-8 text: byte 0xe9")
    with pytest.raises(inst.ParseError, match="not UTF-8") as exc:
        inst.parse_instance(p)
    assert exc.value.line_no == 3


@pytest.mark.parametrize("data,line_no", [(b"\xff", 1), (b"[ring]\r\n\x80", 2), (b"a\rb\n\n\xc3(", 4)])
def test_bad_byte_line_counts_line_breaks_as_the_parser_does(data, line_no):
    with pytest.raises(inst.ParseError) as exc:
        inst.instance_text(data)
    assert exc.value.line_no == line_no


def test_unreadable_path_is_an_error_line(tmp_path):
    _assert_input_error(*run_cli(["galois", str(tmp_path)]),
                        f"error: cannot read {tmp_path}: ".encode())
    _assert_input_error(*run_cli(["galois", str(tmp_path / "missing.sgi")]),
                        b"error: no such file: ")


def test_cli_import_loads_no_dataclasses():
    """A fresh `import semigalois.cli` loads this list of package modules,
    which the benchmark's tracer wraps, and not `dataclasses`, which no
    module under src/ names."""
    from test_golden_reports import _src_env
    probe = ("import sys; before = set(sys.modules); import semigalois.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, cwd=REPO,
                          env=_src_env(), check=True)
    loaded = proc.stdout.decode().split()
    assert "dataclasses" not in loaded
    assert not [p for p in (REPO / "src").rglob("*.py") if "dataclasses" in p.read_text()]
    assert [m for m in loaded if m.split(".")[0] == "semigalois"] == [
        "semigalois", "semigalois.actions", "semigalois.budget", "semigalois.cli",
        "semigalois.correspondence", "semigalois.galois", "semigalois.instance",
        "semigalois.isopu", "semigalois.linalg", "semigalois.rings", "semigalois.semigroups",
        "semigalois.zerocase"]


# Modules a command never needs; each costs import time in every process.
_HEAVY_IMPORTS = ("typing", "dataclasses", "inspect", "ast", "dis", "tokenize", "numpy", "random")


def test_cli_import_in_a_bare_interpreter_loads_no_heavy_module():
    """The command line starts one process per decision, so `import
    semigalois.cli` stays lean.  `python -S` skips site-packages and the
    `.pth` files that may preload some of these modules."""
    from test_golden_reports import _src_env
    probe = "import sys, semigalois.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, cwd=REPO,
                          env=_src_env(), check=True)
    loaded = set(proc.stdout.decode().split())
    assert "semigalois.cli" in loaded
    assert sorted(loaded & set(_HEAVY_IMPORTS)) == []


def _readers(name):
    """(module, innermost enclosing def or class) of each place a module under
    src/ reads `name`, as a variable or an attribute; imports and the
    definition itself do not count."""
    readers = []

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name, module)
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name):
                readers.append((module, scope))
            visit(child, scope, module)

    for path in sorted((REPO / "src").rglob("*.py")):
        visit(ast.parse(path.read_text()), None, path.stem)
    return readers


def test_one_fixed_point_solve_and_one_iso_application():
    """The fixed ring of a family of maps has one construction, `fixed_ring`,
    from the orbits and stabilizers of the atom maps, so nothing under src/
    reads `kernel_gens`; an iso is applied only through its plan, which
    only `apply_vec` reads."""
    from semigalois.linalg import Matrix
    from semigalois.rings import StructuredIso
    assert _readers("kernel_gens") == []
    assert _readers("fixed_ring") == [("actions", "invariant_ring"),
                                      ("correspondence", "fixed_subalgebra")]
    assert _readers("application_plan") == [("rings", "apply_vec")]
    assert not hasattr(StructuredIso, "matrix") and not hasattr(Matrix, "__sub__")


def test_one_iso_representation():
    """An iso is its `atom_map`, one entry per atom, which every composite,
    inverse, join, plan and report reads; `matching` and `twist` are dict
    views built from it for the constructor's callers, tests and oracles.
    A module under src/ other than rings.py that read them would build a
    second representation beside the tuple and pay a dict per read, so no
    such module reads either attribute."""
    readers = [f"{path.name}:{node.lineno}" for path in sorted((REPO / "src").rglob("*.py"))
               if path.name != "rings.py" for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr in ("matching", "twist")]
    assert readers == []


def test_one_lattice_engine():
    """Canonical bases, kernels, solves and Smith invariants come from one
    elimination, `_insert`, which only `_insert_and_reduce` reads; no `_echelon`
    is left under src/."""
    assert not [p for p in (REPO / "src").rglob("*.py") if "_echelon" in p.read_text()]
    assert _readers("_insert") == [("linalg", "_insert_and_reduce")]


def test_one_quotient_builder_and_one_round_trip():
    """S/sigma, S/tau and P' are `InverseSemigroup`s from `quotient`, the one
    reader of `quotient_table`; `zero` strips and re-adjoins the zero only
    inside `zerocase.round_trips`."""
    from semigalois import semigroups
    assert not hasattr(semigroups, "QuotientGroup")
    assert _readers("quotient_table") == [("semigroups", "quotient")]
    modules = {module for name in ("primitive_to_groupoid", "groupoid_to_primitive")
                 for module, _ in _readers(name)}
    assert "cli" not in modules


def test_one_action_type():
    """Every action is an `Action`: each reading has one validator, the one
    place its `check_action_axioms` row runs, and a closed set of isos acts on
    its composition table only through `iso_action`."""
    from semigalois import actions, corpus, galois, zerocase
    gone = [(actions, "UnitalAction"), (actions, "PartialGroupAction"),
            (zerocase, "PartialSemigroupAction"), (zerocase, "PartialGroupoidAction"),
            (galois, "_partial_action_system"), (corpus, "tautological_action")]
    assert [name for module, name in gone if hasattr(module, name)] == []
    assert sorted(_readers("check_action_axioms")) == [
        ("actions", "validate_action"), ("actions", "validate_partial_group_action"),
        ("zerocase", "validate_partial_groupoid_action"),
        ("zerocase", "validate_partial_semigroup_action")]
    assert _readers("composition_table") == [("actions", "iso_action")]


def test_zero_round_trips_with_the_zero_in_the_middle(tmp_path):
    """C2 with its zero adjoined as the middle element: both round trips hold
    up to the relabeling that puts the zero last."""
    p = tmp_path / "c2_zero_middle.sgi"
    p.write_text("""
[semigroup]
elements = b0 b1 b2
row = b0 b1 b2
row = b1 b1 b1
row = b2 b1 b0
zero = b1

[ring]
atom = gf 2 2 poly=1,1,1

[action]
map = b0 : 0->0:0
map = b1 : empty
map = b2 : 0->0:1
""")
    code, out, err = run_cli(["zero", str(p)])
    assert code == 0, out
    assert b"ok   groupoid_round_trip  groupoid_size=2  identities=[b0]" in out
    assert b"ok   action_conversion_round_trip" in out


def test_non_associative_table_names_the_failure(tmp_path):
    p = tmp_path / "bad.sgi"
    p.write_text("""
[semigroup]
elements = a b c
row = a b c
row = b a a
row = c a b

[ring]
atom = zmod 3

[action]
map = a : 0->0:0
map = b : 0->0:0
map = c : 0->0:0
""")
    code, out, err = run_cli(["validate", str(p)])
    assert code == 2
    assert b"error" in err


def test_unknown_generator_errors(tmp_path):
    p = tmp_path / "gen.sgi"
    p.write_text("""
[semigroup]
generators = s
relation = s s : q

[ring]
atom = zmod 2

[action]
map = 1 : 0->0:0
""")
    code, out, err = run_cli(["validate", str(p)])
    assert code == 2 and b"unknown generator" in err


def test_zero_beside_a_presentation_is_refused_before_saturation(tmp_path):
    """`zero =` is a positioned error (exit 2) before the presentation is
    saturated: under a budget of 1 no `coset_steps` charge trips, where a
    saturation's first charge already exceeds it."""
    p = tmp_path / "zero_pres.sgi"
    p.write_text("""
[semigroup]
generators = a
zero = a

[ring]
atom = zmod 2

[action]
map = a : 0->0:0
""")
    for flags in ([], ["--budget", "1"]):
        code, out, err = run_cli(["validate", str(p), *flags])
        assert (code, out) == (2, b"")
        assert err == b"error: line 4: zero is only available with explicit tables\n"


def test_determinism_identical_bytes():
    code1, out1, _ = run_cli(["galois", "instances/c2_swap.sgi"])
    code2, out2, _ = run_cli(["galois", "instances/c2_swap.sgi"])
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run_cli(["correspond", "instances/s7_f9cubed.sgi",
                              "--format", "json-lines"])
    code4, out4, _ = run_cli(["correspond", "instances/s7_f9cubed.sgi",
                              "--format", "json-lines"])
    assert code3 == code4 == 0
    assert out3 == out4


def test_exit_code_contract_on_failing_verdict(tmp_path):
    p = tmp_path / "nongalois.sgi"
    p.write_text("""
# C2 swapping two F_2 atoms and fixing a third: not Galois
[semigroup]
elements = 1 g
row = 1 g
row = g 1

[ring]
atom = zmod 2
atom = zmod 2
atom = zmod 2

[action]
map = 1 : 0->0:0 1->1:0 2->2:0
map = g : 0->1:0 1->0:0 2->2:0
""")
    code, out, err = run_cli(["galois", str(p)])
    assert code == 1
    assert b"FAIL" in out


def test_json_lines_schema_and_round_trip():
    code, out, _ = run_cli(["galois", "instances/s7_f9cubed.sgi",
                            "--format", "json-lines"])
    assert code == 0
    lines = [json.loads(line) for line in out.decode().splitlines()]
    assert lines[0]["type"] == "header"
    assert lines[0]["schema"] == "semigalois-report"
    assert lines[0]["version"] == 1
    assert lines[-1]["type"] == "summary" and lines[-1]["ok"]
    checks = {l["name"]: l for l in lines if l["type"] == "check"}
    assert checks["criterion_coordinates"]["verdict"]
    # certificate fields survive the round trip
    assert "pairs" in checks["coordinates"]["data"]
    assert checks["psi_orders"]["data"] == {"pa": 531441, "image": 531441}


def test_zero_command_on_b2():
    code, out, _ = run_cli(["zero", "instances/b2_f3f3.sgi"])
    assert code == 0
    assert b"groupoid_round_trip" in out


def test_zero_command_rejects_zero_free():
    code, out, err = run_cli(["zero", "instances/c2_swap.sgi"])
    assert code == 1
    assert b"precondition" in out


def test_correspond_rejects_declared_zero():
    code, out, err = run_cli(["correspond", "instances/b2_f3f3.sgi"])
    assert code == 1
    assert b"precondition" in out


def test_analyze_flags():
    code, out, _ = run_cli(["analyze", "instances/b2_f3f3.sgi"])
    assert code == 0
    assert b"tau_classes" in out and b"zero_e_unitary" in out


def test_brute_force_flag_adds_the_scan():
    code, out, _ = run_cli(["correspond", "instances/c2_swap.sgi",
                            "--brute-force-subalgebras"])
    assert code == 0 and b"brute_force_match" in out


def test_instance_serialization_round_trip():
    from semigalois.corpus import f9_cubed_fixture
    beta = f9_cubed_fixture()
    text = inst.action_to_instance_text(beta, comment="round trip")
    parsed = inst.parse_instance_text(text)
    assert parsed.S.table == beta.S.table
    assert parsed.A == beta.A
    assert list(parsed.isos) == list(beta.isos)


def test_selftest_runs_clean():
    code, out, _ = run_cli(["selftest"])
    assert code == 0
    assert b"result: PASS" in out


def test_analyze_on_a_group():
    code, out, _ = run_cli(["analyze", "instances/c2_swap.sgi"])
    assert code == 0
    assert b"e_unitary" in out
    assert b"sigma_classes  classes=[[1],[g]]" in out


@pytest.mark.parametrize("atom,message", [
    ("gf 3 2 polly=1,0,1", "unexpected atom token 'polly=1,0,1'"),
    ("zmod 3 1 junk", "unexpected atom token 'junk'"),
    ("zmod 3 1 whatever=7", "unexpected atom token 'whatever=7'"),
    ("gf 3 2 poly=1,0,1 poly=2,1,1", "poly= given twice"),
])
def test_unknown_atom_token_is_a_positioned_error(tmp_path, atom, message):
    """Each line would otherwise parse, the last with either polynomial."""
    p = tmp_path / "atom.sgi"
    p.write_text(f"[semigroup]\nelements = 1\nrow = 1\n\n[ring]\natom = {atom}\n\n"
                 "[action]\nmap = 1 : 0->0:0\n")
    with pytest.raises(inst.ParseError, match=re.escape(message)) as err:
        inst.parse_instance(p)
    assert err.value.line_no == 6
    _assert_input_error(*run_cli(["galois", str(p)]), f"line 6: {message}".encode())


_GENERATED = ("[semigroup]\ngenerators = {}\nrelation = a a : 1\nrelation = a' : 1\n\n"
              "[ring]\natom = zmod 2\n\n[action]\nmap = 1 : 0->0\nmap = a : 0->0\n")
_ONE_ATOM = "[semigroup]\nelements = 1\nrow = 1\n\n[ring]\natom = {}\n\n[action]\nmap = 1 : 0->0:0\n"


@pytest.mark.parametrize("text,line_no,message", [
    (_GENERATED.format("a a"), 2, "generator 'a' given twice"),
    (_GENERATED.format("a' b"), 2, "generator name \"a'\" cannot be written in a word"),
    (_GENERATED.format("1 a"), 2, "generator name '1' cannot be written in a word"),
    (_GENERATED.format("a b a*b"), 2,
     "generator name 'a*b' cannot be written in an element name"),
    (_ONE_ATOM.format("gf 2"), 6, "bad atom spec: gf atom needs k"),
    (_ONE_ATOM.format("gf"), 6, "bad atom spec: gf atom needs p"),
    (_ONE_ATOM.format("zmod"), 6, "bad atom spec: zmod atom needs p"),
], ids=["repeated-generator", "primed-generator", "generator-1", "starred-generator", "gf-no-k",
        "gf-no-p", "zmod-no-p"])
def test_a_generator_or_atom_line_that_cannot_be_read_is_a_positioned_error(
        tmp_path, capsysbinary, text, line_no, message):
    """`generators = a a` parsed to a two-element monoid, `a'` inverting the
    first `a` while `a` read the second; `a' b` ran the saturation out of
    budget; `a b a*b` named the element a times the generator `a*b` as
    `a*a*b`, and two elements `a*b` and `a*b_`; an atom line without p, or
    a gf line without k, printed an IndexError's text."""
    from semigalois import cli
    p = tmp_path / "bad.sgi"
    p.write_text(text)
    code = cli.main(["analyze", str(p)])  # under the default budget, before the unbounded parse
    _assert_input_error(code, *capsysbinary.readouterr(), f"line {line_no}: {message}".encode())
    with pytest.raises(inst.ParseError, match=re.escape(message)) as err:
        inst.parse_instance(p)
    assert err.value.line_no == line_no


_C2_RING_AND_ACTION = ("[ring]\natom = zmod 3\natom = zmod 3\n\n[action]\n"
                       "map = 1 : 0->0:0 1->1:0\nmap = g : 0->1:0 1->0:0\n")


@pytest.mark.parametrize("key,text,second", [
    ("generators", "[semigroup]\ngenerators = s\ngenerators = g\nrelation = g g : 1\n\n"
     + _C2_RING_AND_ACTION, "generators = g"),
    ("elements", "[semigroup]\nelements = a b\nelements = 1 g\nrow = 1 g\nrow = g 1\n\n"
     + _C2_RING_AND_ACTION, "elements = 1 g"),
    ("zero", "[semigroup]\nelements = 1 0\nrow = 1 0\nrow = 0 0\nzero = 1\nzero = 0\n\n"
     "[ring]\natom = zmod 3\n\n[action]\nmap = 1 : 0->0:0\nmap = 0 : empty\n", "zero = 0"),
], ids=["generators", "elements", "zero"])
def test_repeated_single_valued_key_is_a_positioned_error(tmp_path, key, text, second):
    """Each file would otherwise parse, with the second value silently winning."""
    line_no = text.splitlines().index(second) + 1
    p = tmp_path / "repeated.sgi"
    p.write_text(text)
    message = f"{key} given twice"
    with pytest.raises(inst.ParseError, match=re.escape(message)) as err:
        inst.parse_instance(p)
    assert err.value.line_no == line_no
    _assert_input_error(*run_cli(["galois", str(p)]), f"line {line_no}: {message}".encode())


@pytest.mark.parametrize("line,message", [
    ("map = g : 0->0 0->1 1->0", "source atom 0 given twice"),
    ("map = g : dom=0 dom=0,1 0->1 1->0", "dom= given twice"),
    ("map = g : im=0,1 0->1 im=1 1->0", "im= given twice"),
], ids=["source", "dom", "im"])
def test_repeated_map_token_is_a_positioned_error(tmp_path, line, message):
    """Each line would otherwise parse, the first as the swap with the last
    value for atom 0 winning, the others with either stated set."""
    good = "map = g : 0->1:0 1->0:0"
    text = (INSTANCES / "c2_swap.sgi").read_text()
    line_no = text.splitlines().index(good) + 1
    p = tmp_path / "repeated.sgi"
    p.write_text(text.replace(good, line))
    with pytest.raises(inst.ParseError, match=re.escape(message)) as err:
        inst.parse_instance(p)
    assert err.value.line_no == line_no
    _assert_input_error(*run_cli(["galois", str(p)]), f"line {line_no}: {message}".encode())


_C2_SWAP = (INSTANCES / "c2_swap.sgi").read_text()  # line 1 a comment, headers on 3, 8 and 12
_MAP_G = "map = g : 0->1:0 1->0:0"


def _c2(old, new):
    """c2_swap.sgi with its first `old` replaced by `new`."""
    assert old in _C2_SWAP
    return _C2_SWAP.replace(old, new, 1)


@pytest.mark.parametrize("text,line_no,message", [
    ("[semigroup]\ngenerators = a\nrelation = a a\n\n[ring]\natom = zmod 2\n\n"
     "[action]\nmap = 1 : 0->0:0\n", 3, "relation needs the form  word : word"),
    (_c2("elements = 1 g", "elements = 1 1"), 4, "duplicate element names"),
    (_c2("row = g 1", "row = g h"), 6, "unknown element 'h' in row"),
    (_c2("atom = zmod 3", "atom ="), 9, "empty atom spec"),
    (_c2("atom = zmod 3", "atom = zz 3"), 9, "unknown atom kind 'zz'"),
    (_c2(_MAP_G, "map = g 0->1 1->0"), 14, "map needs the form  element : pairs"),
    (_c2(_MAP_G, "map = g : 0-1 1->0:0"), 14, "bad matching token '0-1'"),
    (_c2(_MAP_G, "map = g : 0->x 1->0:0"), 14, "bad matching token '0->x'"),
    (_c2(_MAP_G, "map = g : dom=0 0->1:0 1->0:0"), 14,
     "stated dom [0] differs from matching domain [0, 1]"),
    (_c2(_MAP_G, "map = g : im=1 0->1:0 1->0:0"), 14,
     "stated im [1] differs from matching image [0, 1]"),
    (_c2(_MAP_G, f"{_MAP_G}\n{_MAP_G}"), 15, "duplicate map for 'g'"),
    (_c2(_MAP_G, "map = g : dom=0,x 0->1:0 1->0:0"), 14, "bad atom set '0,x'"),
    (_c2("row = 1 g\nrow = g 1", "1 g\ng 1"), 5, "expected key = value, got '1 g'"),
    (_c2("elements = 1 g\nrow = 1 g\nrow = g 1\n", ""), 3,
     "semigroup needs elements or generators"),
    (_c2("atom = zmod 3\natom = zmod 3\n", ""), 8, "ring needs at least one atom"),
    (_c2("map = 1 : 0->0:0 1->1:0\n" + _MAP_G, ""), 12, "missing maps for elements: 1, g"),
], ids=["relation-form", "duplicate-elements", "unknown-row-element", "empty-atom",
        "unknown-atom-kind", "map-form", "matching-without-arrow", "matching-not-integer",
        "stated-dom", "stated-im", "duplicate-map", "bad-atom-set", "bare-table-row",
        "empty-semigroup",
        "empty-ring", "empty-action"])
def test_every_parse_error_names_its_line(tmp_path, capsysbinary, text, line_no, message):
    """Each error the parser can raise on a section's lines names that line,
    and an empty section's error names the section's header: it named line
    1, here a comment, whatever was written there."""
    from semigalois import cli
    p = tmp_path / "bad.sgi"
    p.write_text(text)
    code = cli.main(["validate", str(p)])
    out, err = capsysbinary.readouterr()
    assert (code, out, err) == (2, b"", f"error: line {line_no}: {message}\n".encode())


def test_twist_on_zmod_atom_is_a_positioned_error(tmp_path):
    good = "map = g : 0->1:0 1->0:0"
    text = (INSTANCES / "c2_swap.sgi").read_text()
    line_no = text.splitlines().index(good) + 1
    p = tmp_path / "twisted.sgi"
    p.write_text(text.replace(good, "map = g : 0->1:1 1->0:0"))
    with pytest.raises(inst.ParseError) as err:
        inst.parse_instance(p)
    assert err.value.line_no == line_no
    code, out, err = run_cli(["galois", str(p)])
    assert code == 2 and out == b""
    assert f"line {line_no}:".encode() in err and b"admits no twist" in err


@pytest.mark.parametrize("command,name", [("correspond", "c2_swap"), ("zero", "b2_f3f3")])
def test_both_correspondence_commands_print_failure_lines(monkeypatch, command, name):
    """A T list missing its first T fails the brute-force match on both commands."""
    from semigalois import cli, correspondence, zerocase
    route = (correspondence, "enumerate_beta_complete") if command == "correspond" \
        else (zerocase, "enumerate_beta_maximal")
    all_ts = getattr(*route)
    monkeypatch.setattr(*route, lambda beta: all_ts(beta)[1:])
    beta = inst.parse_instance(INSTANCES / f"{name}.sgi")
    report = cli.Report(command, "-", 0)
    getattr(cli, f"cmd_{command}")(beta, report, brute_force_subalgebras=True)
    lines = cli.emit_report(report).decode().splitlines()
    assert lines[-4:] == ["FAIL bijection", "FAIL brute_force_match",
                          "failure  detail=[brute-force subalgebra scan mismatch]",
                          "# result: FAIL"]


def test_documented_settings_match_the_parser():
    """The command line is the one source of settings: docs/format.md names
    exactly the parser's flags, no SEMIGALOIS_* variable and no [options]
    section, and no flag has a string default for its `type` to convert."""
    from semigalois import cli
    doc = (REPO / "docs" / "format.md").read_text()
    options = [a for a in cli.build_parser()._actions if a.option_strings and a.dest != "help"]
    flags = {o for a in options for o in a.option_strings}
    assert flags == {"--format", "--seed", "--budget", "--brute-force-subalgebras", "--timing"}
    assert not [a.dest for a in options if isinstance(a.default, str)]
    assert set(re.findall(r"`(--[a-z][a-z-]*)", doc)) == flags
    assert "SEMIGALOIS_" not in doc and "[options]" not in doc


def test_documented_atom_lines_parse_to_their_labels():
    """Each `atom =` line of docs/format.md's [ring] example block parses to
    the atom its comment names, and each line its prose rejects is rejected."""
    section = (REPO / "docs" / "format.md").read_text().split("## `[ring]`", 1)[1].split("\n## ", 1)[0]
    _, block, prose = section.split("```", 2)
    examples = [line.split("#") for line in block.splitlines() if line.startswith("atom =")]
    assert len(examples) >= 3
    for spec, comment in examples:
        ring = inst._parse_ring(1, [(1, spec)])
        assert [a.label() for a in ring.atoms] == [comment.split(":")[0].strip()], spec
    rejected = re.findall(r"`(atom = [^`]*)`", " ".join(prose.split()))
    assert len(rejected) == 3
    for spec in rejected:
        with pytest.raises(inst.ParseError):
            inst._parse_ring(1, [(1, spec)])


def test_one_parser_and_no_environment(monkeypatch, capsysbinary):
    """cli.main reuses one parser, and SEMIGALOIS_* variables, once read as
    settings, leave a golden case's bytes and exit code unchanged."""
    from semigalois import cli
    golden = REPO / "tests" / "golden"
    parser = cli.parser()
    monkeypatch.setenv("SEMIGALOIS_BUDGET", "1")
    monkeypatch.setenv("SEMIGALOIS_FORMAT", "json-lines")
    code = cli.main(["galois", str(INSTANCES / "c2_swap.sgi")])
    assert code == json.loads((golden / "exit_codes.json").read_text())["c2_swap.galois.text"]
    assert capsysbinary.readouterr().out == (golden / "c2_swap.galois.text.out").read_bytes()
    assert cli.parser() is parser


def test_one_source_of_settings():
    """No module under src/ reads `os.environ` or calls `os.getenv`, so the
    command line stays the one source of settings."""
    readers = [f"{path.name}:{node.lineno}" for path in sorted((REPO / "src").rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
               or isinstance(node, ast.alias) and node.name in ("environ", "getenv")]
    assert readers == []


def test_unknown_section_is_reported_on_its_header_line(tmp_path):
    """An [options] header below line 1 is an unknown section, reported on
    its own line."""
    text = (INSTANCES / "c2_swap.sgi").read_text() + "\n[options]\nseed = 3\n"
    line_no = text.splitlines().index("[options]") + 1
    assert line_no > 1
    p = tmp_path / "options.sgi"
    p.write_text(text)
    with pytest.raises(inst.ParseError) as err:
        inst.parse_instance(p)
    assert err.value.line_no == line_no
    _assert_input_error(*run_cli(["galois", str(p)]),
                        f"error: line {line_no}: unknown sections: ['options']".encode())


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
@pytest.mark.parametrize("command,name,timing", [
    ("galois", "c2_swap", "cross_check"),
    ("correspond", "c2_swap", "correspondence"),
    ("zero", "b2_f3f3", "zero_correspondence"),
])
def test_timing_adds_only_its_own_lines(capsysbinary, fmt, command, name, timing):
    """--timing adds one timing line, named for the command's timed stage;
    without it the report is the same bytes as a run without --timing."""
    from semigalois import cli
    args = [command, str(INSTANCES / f"{name}.sgi"), "--format", fmt]
    plain_code = cli.main(args)
    plain = capsysbinary.readouterr().out
    timed_code = cli.main(args + ["--timing"])
    timed = capsysbinary.readouterr().out.splitlines(keepends=True)
    if fmt == "text":
        times = [line for line in timed if line.startswith(b"time ")]
        assert [line.split()[1] for line in times] == [timing.encode()]
    else:
        times = [line for line in timed if json.loads(line)["type"] == "timing"]
        assert [json.loads(line)["name"] for line in times] == [timing]
    assert timed_code == plain_code == 0
    assert b"".join(line for line in timed if line not in times) == plain


def test_correspond_on_a_non_injective_action_takes_the_general_route(tmp_path):
    """Both idempotents of the two-element semilattice act as Id_A, so the
    action is not injective and the E-unitary route does not apply."""
    from fixtures import collapsing_semilattice_fixture
    from semigalois.instance import action_to_instance_text
    p = tmp_path / "collapsing.sgi"
    p.write_text(action_to_instance_text(collapsing_semilattice_fixture()))
    code, out, err = run_cli(["correspond", str(p)])
    assert code == 0 and err == b""
    assert b"\ncorrespondence_kind  kind=general  objects=1\n" in out


def test_a_command_without_an_instance_is_an_error_line():
    code, out, err = run_cli(["galois"])
    assert (code, out, err) == (2, b"", b"error: this command needs an instance file\n")
