"""Canonical fixtures and the seeded random instance corpus.

The flagship fixture is the 7-element inverse monoid acting on three copies
of GF(9), with the Frobenius square standing in for complex conjugation;
it exhibits a non-invariant plain trace while the sigma-twisted trace stays
invariant.  Random instances are built by closing a few random structured
partial isomorphisms inside Iso_pu(A): the closure is automatically an
injective unital action of its own abstract table.
"""

from __future__ import annotations

import random

from . import isopu
from .actions import iso_action, validate_action
from .rings import Atom, FiniteRing, StructuredIso, TooLarge
from .semigroups import saturate_presentation, validate_table


def s7_presentation():
    """Generators and relations of the 7-element monoid, ready to saturate."""
    s, t, si, ti = 0, 1, 2, 3
    relations = [
        ((t,), (s, t, ti)),
        ((t,), (si, t, ti)),
        ((t,), (ti,)),
        ((s, s), (t, ti)),
        ((si, si), (t, ti)),
    ]
    return ["s", "t"], relations


def s7_monoid():
    gens, rels = s7_presentation()
    return saturate_presentation(gens, rels)


def f9_cubed_ring():
    gf9 = Atom.gf(3, 2, (1, 0, 1))
    return FiniteRing([gf9, gf9, gf9])


def f9_cubed_fixture():
    """The flagship instance: the 7-element monoid acting on GF(9)^3.

    beta_s moves the first atom to the third and twists the middle one by
    Frobenius; beta_t is the Frobenius twist on the middle atom alone.
    """
    S = s7_monoid()
    A = f9_cubed_ring()
    by_name = {S.names[i]: i for i in range(S.n)}
    beta = {
        by_name["1"]: StructuredIso.identity_on(A, {0, 1, 2}),
        by_name["s"]: StructuredIso(A, {0: 2, 1: 1}, {1: 1}),
        by_name["s'"]: StructuredIso(A, {2: 0, 1: 1}, {1: 1}),
        by_name["t"]: StructuredIso(A, {1: 1}, {1: 1}),
        by_name["s*t"]: StructuredIso.identity_on(A, {1}),
        by_name["s*s'"]: StructuredIso.identity_on(A, {1, 2}),
        by_name["s'*s"]: StructuredIso.identity_on(A, {0, 1}),
    }
    return validate_action(S, A, [beta[i] for i in range(S.n)])


def c2_table():
    return validate_table([[0, 1], [1, 0]], names=["1", "g"])


def c2_swap_fixture():
    """C2 swapping the two factors of F_3 x F_3."""
    S = c2_table()
    A = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    swap = StructuredIso(A, {0: 1, 1: 0}, {})
    return validate_action(S, A, [StructuredIso.identity_on(A, {0, 1}), swap])


def b2_table():
    """The combinatorial Brandt semigroup: 2x2 matrix units with zero."""
    # elements: 0=E11, 1=E12, 2=E21, 3=E22, 4=zero
    z = 4
    table = [[z] * 5 for _ in range(5)]
    prod = {(0, 0): 0, (0, 1): 1, (1, 2): 0, (1, 3): 1,
            (2, 0): 2, (2, 1): 3, (3, 2): 2, (3, 3): 3}
    for (a, b), c in prod.items():
        table[a][b] = c
    return validate_table(table, zero=z, names=["e11", "e12", "e21", "e22", "0"])


def b2_swap_fixture():
    """B2 acting on F_3 x F_3 by the matrix-unit partial swaps."""
    S = b2_table()
    A = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    by_name = {S.names[i]: i for i in range(S.n)}
    isos = {
        by_name["e11"]: StructuredIso.identity_on(A, {0}),
        by_name["e22"]: StructuredIso.identity_on(A, {1}),
        by_name["e12"]: StructuredIso(A, {1: 0}, {}),
        by_name["e21"]: StructuredIso(A, {0: 1}, {}),
        by_name["0"]: StructuredIso.empty(A),
    }
    return validate_action(S, A, [isos[i] for i in range(S.n)])


# -- random corpus -----------------------------------------------------------

ATOM_PALETTE = [
    ("zmod", 2, 1), ("zmod", 3, 1), ("zmod", 2, 2), ("zmod", 5, 1),
    ("zmod", 3, 2), ("zmod", 7, 1), ("zmod", 2, 3),
    ("gf", 2, 2), ("gf", 3, 2), ("gf", 2, 3),
]
_PALETTE_ATOMS = {}  # palette entry -> its atom, validated on its first draw


def random_ring(rng: random.Random, max_atoms=3):
    n = rng.randint(1, max_atoms)
    atoms = []
    for _ in range(n):
        kind, p, k = entry = rng.choice(ATOM_PALETTE)
        if entry not in _PALETTE_ATOMS:
            _PALETTE_ATOMS[entry] = Atom.zmod(p, k) if kind == "zmod" else Atom.gf(p, k)
        atoms.append(_PALETTE_ATOMS[entry])
    return FiniteRing(atoms)


def random_structured_iso(rng: random.Random, ring):
    atoms = ring.atoms
    by_type = {}
    for i, a in enumerate(atoms):
        by_type.setdefault(a, []).append(i)
    dom = [i for i in range(len(atoms)) if rng.random() < 0.7]
    matching = {}
    used = set()
    for i in dom:
        pool = [j for j in by_type[atoms[i]] if j not in used]
        j = rng.choice(pool)
        matching[i] = j
        used.add(j)
    twist = {i: rng.randrange(atoms[i].k) if atoms[i].kind == "gf" else 0
             for i in matching}
    return StructuredIso(ring, matching, twist)


def close_isos(seed_isos, cap=24, allow_empty=True):
    """Closure of a set of partial isos under composition and inverse, in
    order of discovery; None once the empty iso is found, unless
    `allow_empty`.  An iso taken off the frontier is composed both ways with
    each iso found so far but those taken off since it was found, which
    composed the pair already."""
    seen, frontier, empty = {}, [], StructuredIso.empty(seed_isos[0].ring)
    met = {}  # iso -> how many isos were found when it was taken off

    def note(f):
        if f not in seen:
            seen[f] = len(seen)
            frontier.append(f)
            if len(seen) > cap:
                raise TooLarge("iso closure exceeded the corpus cap")

    for f in seed_isos:
        note(f)
        note(f.inverse())
    while frontier and (allow_empty or empty not in seen):
        f, found = frontier.pop(), list(seen)
        for g in found:
            if met.get(g, 0) <= seen[f]:
                note(isopu.compose(f, g))
                note(isopu.compose(g, f))
        met[f] = len(found)
        note(f.inverse())
    if empty in seen and not allow_empty:
        return None
    return list(seen)


def random_instance(rng: random.Random, cap=14, with_zero=False):
    """One random closed instance, or None when the draw violates a guard.

    The identity of A is always among the generators, so the cover axiom
    holds; instances whose closure creates the empty iso are kept only when
    `with_zero` (the empty iso is the zero of Iso_pu).
    """
    ring = random_ring(rng)
    gens = [StructuredIso.identity_on(ring, range(len(ring.atoms)))]
    for _ in range(2):
        gens.append(random_structured_iso(rng, ring))
    try:
        closed = close_isos(gens, cap=cap, allow_empty=with_zero)
    except TooLarge:
        return None
    empty = StructuredIso.empty(ring)
    if closed is None or (empty in closed) != with_zero:
        return None
    zero = closed.index(empty) if with_zero else None
    return iso_action(closed, [f"b{i}" for i in range(len(closed))], zero)


def corpus(seed, count, predicate=None, max_draws=50_000, **kw):
    """A deterministic stream of `count` random instances passing `predicate`."""
    rng = random.Random(seed)
    out = []
    for _ in range(max_draws):
        if len(out) >= count:
            break
        beta = random_instance(rng, **kw)
        if beta is None:
            continue
        if predicate is None or predicate(beta):
            out.append(beta)
    if len(out) < count:
        raise TooLarge(f"corpus generation stalled at {len(out)}/{count}")
    return out
