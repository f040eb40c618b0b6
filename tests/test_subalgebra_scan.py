"""The subalgebra scan closes one prime-order coset per orbit of the units of A^beta.

`enumerate_subalgebras_over` must list what the scan that closed every
coset (`oracles.subalgebras_by_coset_scan`) lists, bases and order, on the
shipped instances, the fixtures, six actions with |A| up to 5184 (three of
them on Z/p^k atoms, one with two primes) and two seeded corpora of actions
with two or more orbits (one of them with zero), and spend no more on each
draw of those corpora.  Its walk of the q-torsion must yield what filtering
every coset yields (`oracles.torsion_reps_by_product`) on every subalgebra
it visits.  Every coset it closes has prime order in A/B, and its closures
on C3 over (Z/8)^3 are pinned.  The orbit skip rests on
cur.adjoin(u*w) == cur.adjoin(w) for every unit u of A^beta, checked on
seeded draws; each orbit the scan marks, on every prime-order coset, is
checked against the products with every unit, and the units
(`oracles.is_unit_vec`) against an inverse search.
"""

import random
from pathlib import Path

import pytest
import sympy

from fixtures import c2_swap, collapsing_semilattice_fixture, cyclic_shift, s7_on
from semigalois import budget
from semigalois import correspondence as co
from semigalois import rings as rg
from semigalois.actions import invariant_ring
from semigalois.corpus import b2_swap_fixture, c2_swap_fixture, corpus, f9_cubed_fixture
from semigalois.instance import parse_instance
from semigalois.linalg import lattice_reduce
from semigalois.rings import Atom, FiniteRing
from oracles import is_unit_vec, subalgebras_by_coset_scan, torsion_reps_by_product

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def _shipped(name):
    return lambda: parse_instance(INSTANCES / f"{name}.sgi")


def _two_orbits(b):
    return len(b.orbits) >= 2 and b.A.size <= 2000


CORPORA = {
    "two_orbits": corpus(3, 30, predicate=_two_orbits),
    "two_orbits_zero": corpus(5, 30, predicate=_two_orbits, with_zero=True),
}

CASES = {
    **{name: _shipped(name) for name in ("b2_f3f3", "c2_swap", "s7_f9cubed", "trace_gap_c2")},
    "f9_cubed": f9_cubed_fixture,
    "c2_swap_fixture": c2_swap_fixture,
    "b2_zero": b2_swap_fixture,
    "non_injective": collapsing_semilattice_fixture,
    "c3_z8^3": lambda: cyclic_shift(Atom.zmod(2, 3), 3),
    "c2_gf16^2": lambda: c2_swap([Atom.gf(2, 4)]),
    "s7_gf9^3": lambda: s7_on(Atom.gf(3, 2)),
    "c2_z256^2": lambda: c2_swap([Atom.zmod(2, 8)]),
    "c3_z27^3": lambda: cyclic_shift(Atom.zmod(3, 3), 3),
    "c2_z8^2xz9^2": lambda: c2_swap([Atom.zmod(2, 3), Atom.zmod(3, 2)]),
}


def _units_of_invariants(beta):
    """Every unit of A^beta, by enumerating A^beta."""
    A = beta.A
    return [u for u in invariant_ring(beta).element_vectors() if is_unit_vec(A, u)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_lists_what_the_coset_scan_lists(case):
    beta = CASES[case]()
    base = invariant_ring(beta)
    got = co.enumerate_subalgebras_over(beta, base)
    assert [B.basis for B in got] == [B.basis for B in subalgebras_by_coset_scan(beta, base)]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_scan_lists_what_the_coset_scan_lists_on_corpora(name):
    batch = CORPORA[name]
    assert all(len(b.orbits) >= 2 for b in batch)
    assert any(b.S.zero is not None for b in batch) == name.endswith("zero")
    for beta in batch:
        base = invariant_ring(beta)
        got = co.enumerate_subalgebras_over(beta, base)
        assert [B.basis for B in got] == [B.basis for B in subalgebras_by_coset_scan(beta, base)]


def _spend(scan, beta):
    """What `scan` spends listing the subalgebras over A^beta, derived before."""
    base = invariant_ring(beta)
    with budget.limit(10 ** 7):
        scan(beta, base)
        return budget.spent()


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_scan_spends_no_more_than_the_coset_scan_on_corpora(name):
    for beta in CORPORA[name]:
        assert _spend(co.enumerate_subalgebras_over, beta) <= _spend(subalgebras_by_coset_scan, beta)


def _primes(beta):
    return sorted({a.p for a in beta.A.atoms})


@pytest.mark.parametrize("case", sorted(CASES) + sorted(CORPORA))
def test_torsion_walk_yields_what_filtering_every_coset_yields(case):
    """For each prime of an atom and each subalgebra the scan visits."""
    for beta in CORPORA[case] if case in CORPORA else [CASES[case]()]:
        for cur in co.enumerate_subalgebras_over(beta, invariant_ring(beta)):
            for q in _primes(beta):
                assert co._torsion_reps(cur.basis, q) == torsion_reps_by_product(cur.basis, q)


def _scan_closures(monkeypatch, beta):
    """The (B, w) of each closure the scan takes; the first adjoins 1 to A^beta."""
    closures, real_close = [], rg.Subalgebra.close_extension

    def close_extension(spanned, sub, vec):
        closures.append((sub, vec))
        return real_close(spanned, sub, vec)

    monkeypatch.setattr(rg.Subalgebra, "close_extension", close_extension)
    base = invariant_ring(beta)
    co.enumerate_subalgebras_over(beta, base)
    assert closures[0] == (base, beta.A.one_vec)
    return closures


def _coset_order(B, w):
    """The order of w + B in A/B, by trying each multiple of w in turn."""
    n = 1
    while not B.member_vec([n * x for x in w]):
        n += 1
    return n


@pytest.mark.parametrize("case", ["c3_z8^3", "c2_z256^2", "c3_z27^3", "c2_z8^2xz9^2",
                                  "s7_f9cubed", "b2_zero"])
def test_every_closed_coset_has_prime_order(monkeypatch, case):
    closures = _scan_closures(monkeypatch, CASES[case]())[1:]
    orders = {_coset_order(B, w) for B, w in closures}
    assert closures and all(sympy.isprime(n) for n in orders), orders


@pytest.mark.parametrize("case,closures", [
    ("c3_z8^3", 36), ("c2_z256^2", 9), ("c3_z27^3", 65), ("c2_z8^2xz9^2", 12),
])
def test_scan_closes_only_the_prime_order_cosets(monkeypatch, case, closures):
    """Pinned closures of the scan (148, 37, 309 and 49 while cosets of every
    order were closed; 55, 9, 90 and 18 while a coset whose additive
    extension was a found subalgebra was closed again)."""
    assert len(_scan_closures(monkeypatch, CASES[case]())) == closures


def test_a_unit_of_the_invariants_keeps_the_closure():
    """cur.adjoin(u*w) == cur.adjoin(w) for seeded subalgebras cur >= A^beta,
    vectors w of A and units u of A^beta."""
    rng = random.Random(15)
    moved = 0
    for case in ("c3_z8^3", "c2_gf16^2", "s7_gf9^3", "b2_zero"):
        beta = CASES[case]()
        A = beta.A
        subs = co.enumerate_subalgebras_over(beta, invariant_ring(beta))
        units = _units_of_invariants(beta)
        for _ in range(40):
            cur, u = rng.choice(subs), rng.choice(units)
            w = tuple(rng.randrange(m) for m in A.coord_moduli)
            uw = A.mul_vec(u, w)
            moved += not cur.member_vec(w) and not cur.member_vec(A.sub_vec(uw, w))
            assert cur.adjoin(uw) == cur.adjoin(w)
    assert moved > 20  # u*w and w mostly lie in different cosets


@pytest.mark.parametrize("case", ["c3_z8^3", "c2_gf16^2", "s7_gf9^3", "c2_swap", "b2_zero",
                                  "c3_z27^3", "c2_z8^2xz9^2"])
def test_each_marked_orbit_is_the_orbit_under_every_unit(case):
    """The nonzero residue-field multiples of the block parts, put together
    over the orbits of beta, are the set of u*w reduced modulo cur, over all
    units u, for every prime-order coset w + cur of every subalgebra cur the
    scan finds: the cosets it asks the orbit of."""
    beta = CASES[case]()
    A, base = beta.A, invariant_ring(beta)
    units = _units_of_invariants(beta)
    for cur in co.enumerate_subalgebras_over(beta, base):
        for q in _primes(beta):
            for w in torsion_reps_by_product(cur.basis, q)[1:]:  # the first is the zero coset
                want = {lattice_reduce(cur.basis, A.mul_vec(u, w)) for u in units}
                got = co._unit_orbit(beta, co._residue_lifts(beta, base), cur, w)
                assert len(got) == len(set(got)) and set(got) == want


@pytest.mark.parametrize("atoms", [
    [Atom.gf(2, 2), Atom.zmod(3)], [Atom.zmod(2, 3), Atom.zmod(3, 2)],
    [Atom.gf(3, 2), Atom.zmod(5)], [Atom.zmod(2), Atom.gf(2, 3)],
], ids=["gf4xz3", "z8xz9", "gf9xz5", "z2xgf8"])
def test_is_unit_vec_finds_exactly_the_invertible_elements(atoms):
    A = FiniteRing(atoms)
    one = A.one_vec
    elements = [e.vec() for e in A.elements()]
    for v in elements:
        assert is_unit_vec(A, v) == any(A.mul_vec(v, x) == one for x in elements)


def test_scan_charges_no_elements(monkeypatch):
    """On s7_f9cubed (two orbits, GF(9) atoms) the scan enumerates no
    elements: each unit orbit is read off the residue field of its block."""
    beta = _shipped("s7_f9cubed")()
    base = invariant_ring(beta)
    assert len(beta.orbits) == 2
    charged, real_spend = [], rg.spend

    def spend(quantity, amount):
        if quantity == "elements":
            charged.append(amount)
        real_spend(quantity, amount)

    monkeypatch.setattr(rg, "spend", spend)
    with budget.limit(10 ** 6):
        co.enumerate_subalgebras_over(beta, base)
    assert not charged


@pytest.mark.parametrize("atom", [Atom.zmod(2, 8), Atom.zmod(3, 6)], ids=["z256", "z729"])
def test_scan_spends_less_than_the_coset_scan_on_long_chains(atom):
    """C2 swapping two copies of Z/p^k: A^beta is the diagonal, with p^(k-1)(p-1)
    units, and the subalgebras form a chain of k + 1.  Orbits read off the
    residue field F_p, with no product, keep the scan below the coset scan;
    multiplying each closed coset by every unit would not (9 861 against
    7 455 on Z/256)."""
    spends = []
    for scan in (co.enumerate_subalgebras_over, subalgebras_by_coset_scan):
        beta = c2_swap([atom])
        with budget.limit(10 ** 6):
            assert len(scan(beta, invariant_ring(beta))) == atom.k + 1
            spends.append(budget.spent())
    assert spends[0] < spends[1]
