"""Test-only instances: the named fixtures and the zero-case corpus.

The fixtures the library's own self-test and the benchmark build stay in
`semigalois.corpus` (`f9_cubed_fixture`, `c2_swap_fixture`,
`b2_swap_fixture` and the random `corpus`); these are the ones only the
tests read, one builder per family of instances several test modules take
(`c2_swap`, `cyclic_shift`, `s7_on`), the two families that scale the
correspondences (`brandt`, `c2_power_regular`), the groupoid builders
(`connected_groupoid`, `disjoint_union`, `random_groupoid`) that only they
use, `derivations`,
which counts the derivations of `remembered` facts, and `admissible`, the
preconditions of the Galois cross-check.
"""

import collections
import contextlib
import random
import sys

from semigalois.actions import AxiomFail, is_injective, validate_action
from semigalois.corpus import c2_table, s7_monoid
from semigalois.rings import Atom, FiniteRing, StructuredIso, TooLarge
from semigalois.semigroups import is_e_unitary, validate_table


def admissible(beta):
    """The preconditions of `galois.cross_check_equivalences`."""
    return (beta.S.zero is None and is_e_unitary(beta.S) and is_injective(beta)
            and beta.all_ideals_nonzero())


def c2_fixed_atom_fixture():
    """C2 swapping two F_2 atoms while fixing a third: injective but not Galois.

    The trace doubles (hence kills) the fixed characteristic-2 atom, so the
    trace image is a proper subring of the invariants.
    """
    S = c2_table()
    A = FiniteRing([Atom.zmod(2), Atom.zmod(2), Atom.zmod(2)])
    g = StructuredIso(A, {0: 1, 1: 0, 2: 2}, {})
    return validate_action(S, A, [StructuredIso.identity_on(A, {0, 1, 2}), g])


def chain_semilattice_fixture():
    """The 2-chain semilattice acting by identities on F_3 x F_3."""
    S = validate_table([[0, 1], [1, 1]], names=["1", "e"])
    A = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    return validate_action(S, A, [StructuredIso.identity_on(A, {0, 1}),
                                  StructuredIso.identity_on(A, {0})])


def collapsing_semilattice_fixture():
    """Both idempotents act as Id_A: valid but not injective."""
    S = validate_table([[0, 1], [1, 1]], names=["1", "e"])
    A = FiniteRing([Atom.zmod(3)])
    ident = StructuredIso.identity_on(A, {0})
    return validate_action(S, A, [ident, ident])


def non_e_unitary_monoid():
    """{1, g, e} with g^2 = 1 and ge = eg = e: e <= g breaks E-unitarity."""
    return validate_table([[0, 1, 2], [1, 0, 2], [2, 2, 2]], names=["1", "g", "e"])


def trace_gap_fixture():
    """C2 on Z/5 x GF(9) by identity x Frobenius: not Galois, yet the trace
    image equals the invariants (2 is invertible mod 5, so doubling the
    fixed atom stays surjective).  The minimal witness that the trace-image
    test alone cannot decide Galois-ness."""
    S = c2_table()
    A = FiniteRing([Atom.zmod(5), Atom.gf(3, 2, (1, 0, 1))])
    g = StructuredIso(A, {0: 0, 1: 1}, {1: 1})
    return validate_action(S, A, [StructuredIso.identity_on(A, {0, 1}), g])


def group_with_zero_fixture():
    """C2 with an adjoined zero acting on F_3 x F_3 (swap), zero on 0."""
    S = validate_table([[0, 1, 2], [1, 0, 2], [2, 2, 2]], zero=2, names=["1", "g", "0"])
    A = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    isos = [StructuredIso.identity_on(A, {0, 1}),
            StructuredIso(A, {0: 1, 1: 0}, {}),
            StructuredIso.empty(A)]
    return validate_action(S, A, isos)


def c2_swap(atoms):
    """C2 swapping the two copies of each atom in atoms[0]^2 x atoms[1]^2 x ...:
    Galois, with the diagonal as A^beta."""
    A = FiniteRing([a for a in atoms for _ in range(2)])
    m = len(A.atoms)
    return validate_action(c2_table(), A, [StructuredIso.identity_on(A, range(m)),
                                           StructuredIso(A, {i: i ^ 1 for i in range(m)}, {})])


def cyclic_shift(atom, n):
    """C_n = {1, g1, ..., g(n-1)} shifting n copies of `atom` cyclically, g
    taking copy i to i + g: Galois, with the diagonal as A^beta."""
    S = validate_table([[(i + j) % n for j in range(n)] for i in range(n)],
                       names=["1"] + [f"g{i}" for i in range(1, n)])
    A = FiniteRing([atom] * n)
    return validate_action(S, A, [StructuredIso(A, {i: (i + g) % n for i in range(n)}, {})
                                  for g in range(n)])


def s7_on(atom, fixed=()):
    """The 7-element monoid on atom^3 (GF(p^k), k even): orbits {0, 2} and
    {1}, and one more for each atom of `fixed`, put after them and fixed
    by every map."""
    S = s7_monoid()
    A = FiniteRing([atom] * 3 + list(fixed))
    tw = atom.k // 2
    kept = {a: a for a in range(3, len(A.atoms))}

    def iso(matching, twist=()):
        return StructuredIso(A, {**matching, **kept}, dict(twist))

    by_name = {
        "1": iso({0: 0, 1: 1, 2: 2}),
        "s": iso({0: 2, 1: 1}, {1: tw}),
        "s'": iso({2: 0, 1: 1}, {1: -tw}),
        "t": iso({1: 1}, {1: tw}),
        "s*t": iso({1: 1}),
        "s*s'": iso({1: 1, 2: 2}),
        "s'*s": iso({0: 0, 1: 1}),
    }
    return validate_action(S, A, [by_name[S.names[i]] for i in range(S.n)])


def brandt(n):
    """Brandt B_n acting on GF(4)^n: the n x n matrix units (i, j), with
    (i, j)(j, l) = (i, l) and every other product the zero; (i, j) maps
    atom j to atom i untwisted, and the zero acts as the empty iso.  Its
    full inverse subsemigroups are the equivalence relations on n points,
    so `zero` has Bell(n) objects."""
    units = [(i, j) for i in range(n) for j in range(n)]
    zero = len(units)
    table = [[i * n + l if j == k else zero for k, l in units] + [zero] for i, j in units]
    S = validate_table(table + [[zero] * (zero + 1)], zero=zero,
                       names=[f"e{i}_{j}" for i, j in units] + ["0"])
    A = FiniteRing([Atom.gf(2, 2)] * n)
    return validate_action(S, A, [StructuredIso(A, {j: i}, {}) for i, j in units]
                           + [StructuredIso.empty(A)])


def c2_power_regular(k):
    """(C2)^k acting regularly on (Z/2)^(2^k): the table is g XOR h, and g
    takes atom a to atom a XOR g.  Galois, and `correspond` has one object
    per subgroup of (C2)^k."""
    n = 1 << k
    S = validate_table([[g ^ h for h in range(n)] for g in range(n)])
    A = FiniteRing([Atom.zmod(2)] * n)
    return validate_action(S, A, [StructuredIso(A, {a: a ^ g for a in range(n)}, {})
                                  for g in range(n)])


# -- zero-case corpus ---------------------------------------------------------

SMALL_GROUPS = {
    "C1": [[0]],
    "C2": [[0, 1], [1, 0]],
    "C3": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
}


def connected_groupoid(group_table, objects, names=None):
    """The groupoid (objects x objects) x Gamma: (g,i,j)(h,j,k) = (gh,i,k)."""
    from semigalois.zerocase import validate_groupoid
    m = len(group_table)
    elems = [(g, i, j) for g in range(m) for i in range(objects) for j in range(objects)]
    index = {e: k for k, e in enumerate(elems)}
    n = len(elems)
    product = [[None] * n for _ in range(n)]
    for a, (g, i, j) in enumerate(elems):
        for b, (h, j2, k) in enumerate(elems):
            if j == j2:
                product[a][b] = index[(group_table[g][h], i, k)]
    if names is None:
        names = [f"({g};{i}->{j})" for g, i, j in elems]
    return validate_groupoid(n, product, names)


def disjoint_union(comps, prefix):
    """The disjoint union of groupoids, numbered component by component and
    named prefix + index, as `validate_groupoid` returns it."""
    from semigalois.zerocase import validate_groupoid
    n = sum(g.n for g in comps)
    product = [[None] * n for _ in range(n)]
    offset = 0
    for g in comps:
        for a in range(g.n):
            for b in range(g.n):
                if g.table[a][b] is not None:
                    product[offset + a][offset + b] = offset + g.table[a][b]
        offset += g.n
    return validate_groupoid(n, product, [f"{prefix}{i}" for i in range(n)])


def random_groupoid(rng: random.Random):
    """A disjoint union of one or two connected groupoids (pair groupoid on
    one to three objects x small group)."""
    comps = []
    for _ in range(rng.randint(1, 2)):
        gname = rng.choice(list(SMALL_GROUPS))
        objects = rng.randint(1, 3)
        comps.append(connected_groupoid(SMALL_GROUPS[gname], objects))
    return disjoint_union(comps, "c")


def random_primitive_semigroup(rng: random.Random):
    from semigalois.zerocase import groupoid_to_primitive
    return groupoid_to_primitive(random_groupoid(rng))


def random_orthogonal_groupoid_action(rng: random.Random):
    """A validated (orthogonal, possibly partial) groupoid action on atoms.

    Each connected component gets one atom type and one atom per object;
    morphisms match atoms positionally with coboundary twists, which makes
    composition exact; with probability 0.6 everything is restricted to a
    random central idempotent.
    """
    from semigalois.zerocase import validate_partial_groupoid_action
    kinds = [("zmod", 3, 1), ("zmod", 2, 2), ("gf", 3, 2), ("gf", 2, 2), ("zmod", 5, 1)]
    comps = []
    atom_list = []
    iso_specs = []
    for _ in range(rng.randint(1, 2)):
        gname = rng.choice(list(SMALL_GROUPS))
        gtab = SMALL_GROUPS[gname]
        objects = rng.randint(1, 2)
        kind, p, k = rng.choice(kinds)
        atom = Atom.zmod(p, k) if kind == "zmod" else Atom.gf(p, k)
        twist_mod = k if kind == "gf" else 1
        f = [rng.randrange(twist_mod) for _ in range(objects)]
        comps.append(connected_groupoid(gtab, objects))
        base = len(atom_list)
        atom_list.extend([atom] * objects)
        # element order inside connected_groupoid: (g, i, j) lexicographic
        elems = [(g, i, j) for g in range(len(gtab)) for i in range(objects)
                 for j in range(objects)]
        for (g, i, j) in elems:
            iso_specs.append(({base + i: base + j},
                              {base + i: (f[j] - f[i]) % twist_mod} if twist_mod > 1 else {}))
    ring = FiniteRing(atom_list)
    G = disjoint_union(comps, "g")
    isos = [StructuredIso(ring, m, t) for m, t in iso_specs]
    if rng.random() < 0.6:
        keep = frozenset(i for i in range(len(ring.atoms)) if rng.random() < 0.7)
        restricted = []
        for iso in isos:
            matching = {i: j for i, j in iso.matching.items() if i in keep and j in keep}
            twist = {i: iso.twist[i] for i in matching}
            restricted.append(StructuredIso(ring, matching, twist))
        isos = restricted
    try:  # a restriction may break the PGr0 cover axiom or the PGr range axiom
        return validate_partial_groupoid_action(G, ring, isos)
    except AxiomFail:
        return None


def groupoid_action_corpus(seed, count, max_draws=10_000):
    rng = random.Random(seed)
    out = []
    for _ in range(max_draws):
        if len(out) >= count:
            break
        gamma = random_orthogonal_groupoid_action(rng)
        if gamma is not None:
            out.append(gamma)
    if len(out) < count:
        raise TooLarge(f"groupoid action corpus stalled at {len(out)}/{count}")
    return out


def non_categorical_semilattice():
    """A meet semilattice with zero violating categoricity: e^f, f^g nonzero
    but e^f^g = 0."""
    # elements: 0, m1, m2, e, f, g with m1 <= e, f and m2 <= f, g
    order = ["0", "m1", "m2", "e", "f", "g"]
    below = {
        "0": {"0"},
        "m1": {"0", "m1"}, "m2": {"0", "m2"},
        "e": {"0", "m1", "e"}, "g": {"0", "m2", "g"},
        "f": {"0", "m1", "m2", "f"},
    }

    def meet(x, y):
        common = below[x] & below[y]
        best = [c for c in common if all(o in below[c] for o in common)]
        (m,) = best
        return m

    idx = {x: i for i, x in enumerate(order)}
    table = [[idx[meet(x, y)] for y in order] for x in order]
    return validate_table(table, zero=0, names=order)


@contextlib.contextmanager
def derivations(*facts):
    """Count the derivations of the `remembered` facts given (functions, or
    a property's `fget`) while the block runs: a Counter of (fact name,
    id of the object, *arguments), the arguments of a keyed fact, over the
    calls of each fact's own body, its `__wrapped__`, seen by a trace
    function, so nothing is patched.  The objects are held until the block
    ends, so no two share an id."""
    codes = {fact.__wrapped__.__code__: fact.__name__ for fact in facts}
    counts, held = collections.Counter(), []

    def trace(frame, event, arg):
        name = codes.get(frame.f_code)
        if name is not None:
            code = frame.f_code
            obj, *args = (frame.f_locals[v] for v in code.co_varnames[:code.co_argcount])
            held.append(obj)
            counts[(name, id(obj), *args)] += 1

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        yield counts
    finally:
        sys.settrace(previous)
