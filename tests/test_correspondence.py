import random

import pytest

from fixtures import (admissible, chain_semilattice_fixture, collapsing_semilattice_fixture,
                      cyclic_shift, derivations, s7_on)
from semigalois import budget
from semigalois import correspondence as co
from semigalois.actions import invariant_ring
from semigalois.corpus import b2_swap_fixture, c2_swap_fixture, corpus, f9_cubed_fixture
from semigalois.galois import compute_S_B, is_galois
from semigalois.rings import Atom, Subalgebra
from semigalois.semigroups import SubSemigroup, enumerate_full_inverse_subsemigroups
from oracles import (element_product, iso_apply_by_polynomials, subalgebras_by_element_scan,
                     subring_closure)


def test_beta_complete_enumeration_on_fixture():
    beta = f9_cubed_fixture()
    names = {beta.S.names[i]: i for i in range(beta.S.n)}
    ts = co.enumerate_beta_complete(beta)
    expected = [
        frozenset(beta.S.idempotents),
        frozenset(beta.S.idempotents) | {names["t"]},
        frozenset(range(beta.S.n)),
    ]
    assert sorted((t.members for t in ts), key=sorted) == sorted(expected, key=sorted)


def test_every_subgroup_of_a_group_is_beta_complete():
    beta = c2_swap_fixture()
    ts = co.enumerate_beta_complete(beta)
    assert [sorted(t.members) for t in ts] == [[0], [0, 1]]


def test_semilattice_has_single_beta_complete():
    beta = chain_semilattice_fixture()
    ts = co.enumerate_beta_complete(beta)
    assert len(ts) == 1


def test_non_full_is_not_beta_complete():
    beta = c2_swap_fixture()
    # a non-full subsemigroup cannot be built through SubSemigroup for {g};
    # the empty-idempotent check is the fullness flag itself
    T = SubSemigroup(beta.S, frozenset({0}))
    assert T.is_full  # {1} contains E = {1}
    assert co.is_beta_complete(beta, T)


def test_fixed_subalgebra_orders():
    beta = f9_cubed_fixture()
    names = {beta.S.names[i]: i for i in range(beta.S.n)}
    E = frozenset(beta.S.idempotents)
    f_all = co.fixed_subalgebra(beta, SubSemigroup(beta.S, frozenset(range(beta.S.n))))
    f_mid = co.fixed_subalgebra(beta, SubSemigroup(beta.S, E | {names["t"]}))
    f_e = co.fixed_subalgebra(beta, SubSemigroup(beta.S, E))
    assert (f_all.order, f_mid.order, f_e.order) == (27, 243, 729)


def test_fixed_subalgebra_reads_the_remembered_invariants():
    """A^beta is derived once per action however many fixed rings are taken,
    each fixed ring once per T however often it is asked, and the
    containment check still raises (on a wrong A^beta planted as the one a
    fresh beta remembers, before any fixed ring is derived)."""
    beta = f9_cubed_fixture()
    ts = enumerate_full_inverse_subsemigroups(beta.S)
    with derivations(invariant_ring, co.fixed_subalgebra) as derived:
        for T in ts + ts:
            co.fixed_subalgebra(beta, T)
    assert derived.pop(("invariant_ring", id(beta))) == 1
    assert derived == {("fixed_subalgebra", id(beta), T): 1 for T in ts}
    beta = f9_cubed_fixture()
    beta.facts["invariant_ring"] = Subalgebra.full(beta.A)
    with pytest.raises(AssertionError, match="contain the full invariants"):
        co.fixed_subalgebra(beta, enumerate_full_inverse_subsemigroups(beta.S)[-1])


def test_fixed_subalgebra_is_antitone():
    beta = f9_cubed_fixture()
    ts = enumerate_full_inverse_subsemigroups(beta.S)
    fixed = {t.members: co.fixed_subalgebra(beta, t) for t in ts}
    for t1 in ts:
        for t2 in ts:
            if t1.members <= t2.members:
                assert fixed[t2.members].order <= fixed[t1.members].order
                assert fixed[t1.members].contains(fixed[t2.members])


def test_s_b_is_beta_complete_for_random_subalgebras():
    rng = random.Random(8)
    checked = 0
    for beta in corpus(77, 12, predicate=admissible):
        A = beta.A
        if A.size > 729:
            continue
        inv = invariant_ring(beta)
        pool = [a.vec() for a in A.elements()]
        for _ in range(9):
            gens = list(inv.gen_vectors) + [rng.choice(pool), rng.choice(pool)]
            B = Subalgebra(A, gens).closure_under_mul()
            sb = compute_S_B(beta, B)
            assert co.is_beta_complete(beta, sb)
            checked += 1
    assert checked >= 100


def test_e_unitary_correspondence_fixture():
    beta = f9_cubed_fixture()
    rep = co.verify_e_unitary_correspondence(beta)
    assert rep.bijective and len(rep.pairs) == 3
    orders = sorted(p.subalgebra_order for p in rep.pairs)
    assert orders == [27, 243, 729]
    for p in rep.pairs:
        assert p.separable and p.strong and p.round_trip_t and p.round_trip_b


def test_e_unitary_correspondence_c2():
    rep = co.verify_e_unitary_correspondence(c2_swap_fixture())
    assert rep.bijective and len(rep.pairs) == 2
    assert sorted(p.subalgebra_order for p in rep.pairs) == [3, 9]


def test_e_unitary_correspondence_semilattice():
    rep = co.verify_e_unitary_correspondence(chain_semilattice_fixture())
    assert rep.bijective and len(rep.pairs) == 1


def test_correspondence_requires_galois():
    from fixtures import c2_fixed_atom_fixture
    from semigalois.galois import PreconditionFail
    with pytest.raises(PreconditionFail):
        co.verify_e_unitary_correspondence(c2_fixed_atom_fixture())


def test_brute_force_flag_on_fixture():
    rep = co.verify_e_unitary_correspondence(f9_cubed_fixture(),
                                             brute_force_subalgebras=True)
    assert rep.bijective and rep.brute_force_match


def test_brute_force_guard():
    """The scan pays for its candidates through their products and
    eliminations, so a small budget stops it: it spends 297 units here
    (351 while its closures multiplied generator pairs on disjoint atoms)."""
    beta = f9_cubed_fixture()
    inv = invariant_ring(beta)
    with budget.limit(250), pytest.raises(budget.BudgetExceeded) as exc:
        co.enumerate_subalgebras_over(beta, inv)
    assert exc.value.quantity in ("ring_products", "echelon_entries")
    with budget.limit(10 ** 6):
        assert len(co.enumerate_subalgebras_over(beta, inv)) > 1


def test_beta_maximal_injective_reduces_to_beta_complete():
    for beta in (f9_cubed_fixture(), c2_swap_fixture(), chain_semilattice_fixture()):
        complete = {t.members for t in co.enumerate_beta_complete(beta)}
        maximal = {t.members for t in enumerate_full_inverse_subsemigroups(beta.S)
                   if co.is_beta_maximal(beta, t)}
        assert complete == maximal


def test_beta_maximal_needs_preimage_closure():
    beta = collapsing_semilattice_fixture()
    # both elements act identically; T = {1} misses the beta-twin e
    T = SubSemigroup(beta.S, frozenset({0, 1}))
    assert co.is_beta_maximal(beta, T)
    # the twin-closed subsemigroup is the only maximal one
    maximal = [t for t in enumerate_full_inverse_subsemigroups(beta.S)
               if co.is_beta_maximal(beta, t)]
    assert [sorted(t.members) for t in maximal] == [[0, 1]]


def test_general_correspondence_on_injective_agrees():
    beta = f9_cubed_fixture()
    rep_g = co.verify_general_correspondence(beta)
    rep_e = co.verify_e_unitary_correspondence(beta)
    assert rep_g.bijective and rep_e.bijective
    assert sorted(p.subalgebra_order for p in rep_g.pairs) == \
        sorted(p.subalgebra_order for p in rep_e.pairs)


def test_general_correspondence_with_collapse():
    rep = co.verify_general_correspondence(collapsing_semilattice_fixture())
    assert rep.bijective and len(rep.pairs) == 1
    assert rep.pairs[0].members == (0, 1)


def test_general_correspondence_on_galois_corpus():
    count = 0
    for beta in corpus(88, 25, predicate=lambda b: b.S.zero is None
                       and b.all_ideals_nonzero() and b.S.n <= 10):
        if not is_galois(beta):
            continue
        rep = co.verify_general_correspondence(beta)
        assert rep.bijective, rep.failures
        count += 1
    assert count >= 8


SCAN_CASES = {
    "c2_gf4^2": lambda: cyclic_shift(Atom.gf(2, 2), 2),
    "s7_gf4^3": lambda: s7_on(Atom.gf(2, 2)),
    "c3_z4^3": lambda: cyclic_shift(Atom.zmod(2, 2), 3),
    "b2_zero": b2_swap_fixture,
}


def _element_mul(A):
    """Products by the oracle's per-atom polynomial arithmetic, not `mul_vec`."""
    return lambda u, v: element_product(A.from_vec(u), A.from_vec(v)).vec()


def _fixed_points(beta):
    """A^beta by brute force, each iso applied atom by atom through the
    oracle's Frobenius, not the iso's matrix."""
    return [a.vec() for a in beta.A.elements()
            if all(iso_apply_by_polynomials(iso, a.mask(iso.dom_support)) == a.mask(iso.im_support)
                   for iso in beta.isos)]


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_subalgebra_scan_matches_element_scan(case):
    beta = SCAN_CASES[case]()
    A = beta.A
    got = co.enumerate_subalgebras_over(beta, invariant_ring(beta))
    assert len(set(got)) == len(got)
    got_sets = {frozenset(B.element_vectors()) for B in got}
    expected = subalgebras_by_element_scan(
        A.coord_moduli, _element_mul(A), _fixed_points(beta) + [A.one_vec])
    assert got_sets == expected
    assert [B.order for B in got] == sorted(len(e) for e in expected)


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_closure_under_mul_matches_element_closure(case):
    A = SCAN_CASES[case]().A
    rng = random.Random(case)
    pool = [a.vec() for a in A.elements()]
    mul = _element_mul(A)
    for _ in range(25):
        gens = rng.sample(pool, rng.randrange(1, 4))
        span = Subalgebra(A, gens)
        closed = span.closure_under_mul()
        expected, _ = subring_closure(A.coord_moduli, mul, gens)
        assert frozenset(closed.element_vectors()) == expected
        assert closed.closed_under_mul()
        assert span.closed_under_mul() == (span.order == len(expected))
