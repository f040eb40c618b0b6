from pathlib import Path
from types import SimpleNamespace

import pytest

from fixtures import (admissible, c2_fixed_atom_fixture, chain_semilattice_fixture,
                      collapsing_semilattice_fixture)
from oracles import (extend_scalars_by_loops, scalar_extension_is_galois_by_loops,
                     validate_action_by_own_loops, verify_class_join_group)
from semigalois import actions as ac
from semigalois.corpus import c2_swap_fixture, corpus, f9_cubed_fixture
from semigalois.instance import parse_instance
from semigalois.rings import Atom, FiniteRing, StructuredIso
from semigalois.semigroups import SubSemigroup, is_e_unitary, validate_table

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def test_validate_action_rejects_bad_hom():
    S = validate_table([[0, 1], [1, 0]], names=["1", "g"])
    A = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    swap = StructuredIso(A, {0: 1, 1: 0}, {})
    with pytest.raises(ac.HomFail):
        # g * g = 1 must act as the full identity, not the swap again
        ac.validate_action(S, A, [StructuredIso.identity_on(A, {0, 1}),
                                  StructuredIso.identity_on(A, {0})])


def test_validate_action_rejects_bad_cover():
    L = validate_table([[0]], names=["e"])
    A = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    with pytest.raises(ac.CoverFail):
        ac.validate_action(L, A, [StructuredIso.identity_on(A, {0})])


def test_trivial_semilattice_action_valid():
    L = validate_table([[0, 1], [1, 1]], names=["1", "e"])
    A = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    beta = ac.validate_action(L, A, [StructuredIso.identity_on(A, {0, 1}),
                                     StructuredIso.identity_on(A, {0})])
    assert ac.invariant_ring(beta).order == 9


def test_is_injective():
    assert ac.is_injective(f9_cubed_fixture())
    assert ac.is_injective(c2_swap_fixture())
    assert not ac.is_injective(collapsing_semilattice_fixture())


def test_invariant_ring_fixture_values():
    beta = f9_cubed_fixture()
    inv = ac.invariant_ring(beta)
    A = beta.A
    assert inv.order == 27
    assert inv.member_vec(A.element([(1, 0), (0, 0), (1, 0)]).vec())
    assert inv.member_vec(A.element([(0, 1), (0, 0), (0, 1)]).vec())
    assert inv.member_vec(A.element([(0, 0), (1, 0), (0, 0)]).vec())
    assert not inv.member_vec(A.element([(0, 0), (0, 1), (0, 0)]).vec())
    assert ac.invariant_ring(c2_swap_fixture()).order == 3


def test_plain_trace_not_invariant_but_sigma_trace_is():
    beta = f9_cubed_fixture()
    A = beta.A
    inv = ac.invariant_ring(beta)
    xe2 = A.element([(0, 0), (0, 1), (0, 0)])
    assert ac.trace_map(beta, xe2) == xe2
    assert not inv.member_vec(xe2.vec())
    for a in A.elements():
        assert inv.member_vec(ac.sigma_trace(beta, a).vec())


def test_sigma_trace_on_c2_swap():
    beta = c2_swap_fixture()
    A = beta.A
    assert ac.sigma_trace(beta, A.from_vec(A.one_vec)) == A.element([2, 2])
    assert ac.sigma_trace(beta, A.element([1, 0])) == A.from_vec(A.one_vec)


def test_semilattice_sigma_trace_is_identity():
    beta = chain_semilattice_fixture()
    alpha = ac.induce_partial_group_action(beta)
    assert alpha.S.n == 1
    for a in beta.A.elements():
        assert ac.sigma_trace(beta, a) == a


def test_induced_action_on_group_is_itself():
    beta = c2_swap_fixture()
    alpha = ac.induce_partial_group_action(beta)
    assert alpha.S.n == 2
    assert list(alpha.isos) == list(beta.isos)


def test_induce_requires_e_unitary_and_injective():
    from fixtures import non_e_unitary_monoid
    S = non_e_unitary_monoid()
    A = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    beta = ac.validate_action(S, A, [
        StructuredIso.identity_on(A, {0, 1}),
        StructuredIso(A, {0: 1, 1: 0}, {}),
        StructuredIso.identity_on(A, set()),
    ])
    with pytest.raises(ac.NotEUnitary):
        ac.induce_partial_group_action(beta)
    with pytest.raises(ac.NotInjective):
        ac.induce_partial_group_action(collapsing_semilattice_fixture())


def test_invariants_equal_for_beta_and_alpha_on_corpus():
    for beta in corpus(31, 40, predicate=admissible):
        alpha = ac.induce_partial_group_action(beta)
        inv = ac.invariant_ring(beta)
        # direct alpha-invariant computation by exhaustive scan
        A = beta.A
        candidates = [a for a in A.elements()
                      if all(alpha.isos[g].apply(a.mask(alpha.isos[g].dom_support))
                             == a.mask(alpha.isos[g].im_support)
                             for g in range(alpha.S.n))] \
            if A.size <= 729 else None
        if candidates is not None:
            assert len(candidates) == inv.order
            assert all(inv.member_vec(a.vec()) for a in candidates)


def test_sigma_trace_invariance_property_on_corpus():
    for beta in corpus(32, 15, predicate=admissible):
        if beta.A.size > 729:
            continue
        inv = ac.invariant_ring(beta)
        for s in range(beta.S.n):
            iso = beta.isos[s]
            for a in list(beta.A.elements())[:40]:
                a_dom = a.mask(iso.dom_support)
                lhs = ac.sigma_trace(beta, iso.apply(a_dom))
                rhs = ac.sigma_trace(beta, a_dom)
                assert lhs == rhs
        # bimodule property over the invariants
        gens = inv.generators()
        for b in gens[:3]:
            for a in list(beta.A.elements())[:20]:
                assert ac.sigma_trace(beta, b * a) == b * ac.sigma_trace(beta, a)


def test_sigma_trace_image_lands_in_invariants_on_corpus():
    for beta in corpus(33, 25, predicate=admissible):
        inv = ac.invariant_ring(beta)
        img = ac.sigma_trace_image(beta)
        assert inv.contains(img)


def test_restrict_to_idempotents_gives_semilattice_action():
    beta = f9_cubed_fixture()
    T = SubSemigroup(beta.S, frozenset(beta.S.idempotents))
    restricted, order = ac.restrict_action(beta, T)
    assert sorted(restricted.S.idempotents) == list(range(restricted.S.n))
    assert ac.invariant_ring(restricted).order == beta.A.size


def test_restrict_to_middle_subsemigroup():
    beta = f9_cubed_fixture()
    names = {beta.S.names[i]: i for i in range(beta.S.n)}
    members = frozenset(beta.S.idempotents) | {names["t"]}
    restricted, _ = ac.restrict_action(beta, SubSemigroup(beta.S, members))
    inv = ac.invariant_ring(restricted)
    assert inv.order == 243


def test_restrict_requires_full():
    beta = f9_cubed_fixture()
    with pytest.raises(ac.NotFullSub):
        ac.restrict_action(beta, SubSemigroup(beta.S, frozenset({0})))


def test_image_action_injective_is_isomorphic():
    beta = f9_cubed_fixture()
    beta_img, proj = ac.image_action(beta)
    assert beta_img.S.n == beta.S.n
    assert sorted(proj) == list(range(beta.S.n))


def test_image_action_collapses_and_preserves_invariants():
    beta = collapsing_semilattice_fixture()
    beta_img, proj = ac.image_action(beta)
    assert beta_img.S.n == 1
    assert ac.invariant_ring(beta_img) == ac.invariant_ring(beta)
    assert ac.is_injective(beta_img)


def test_image_action_of_galois_is_e_unitary_on_corpus():
    from semigalois.galois import is_galois
    count = 0
    for beta in corpus(34, 60, predicate=lambda b: b.S.zero is None
                       and b.all_ideals_nonzero()):
        if not is_galois(beta):
            continue
        beta_img, _ = ac.image_action(beta)
        assert is_e_unitary(beta_img.S)
        count += 1
    assert count >= 10


def _passes_the_unital_axioms(beta):
    """`validate_action` and the oracle's own loops accept beta's isos on its table."""
    for validate in (ac.validate_action, validate_action_by_own_loops):
        assert validate(beta.S, beta.A, beta.isos).isos == beta.isos


@pytest.mark.parametrize("count, with_zero", [(200, False), (100, True)])
def test_iso_action_passes_the_unital_axioms_on_the_corpus(count, with_zero):
    for beta in corpus(2408, count, with_zero=with_zero):
        _passes_the_unital_axioms(beta)


def test_image_actions_pass_the_unital_axioms():
    betas = [parse_instance(p).action for p in sorted(INSTANCES.glob("*.sgi"))]
    for beta in [*betas, collapsing_semilattice_fixture()]:
        _passes_the_unital_axioms(ac.image_action(beta)[0])


def test_iso_action_refuses_idempotents_that_miss_an_atom():
    """The identity on atom 0 is closed and its table valid, but its one
    idempotent's ideal misses atom 1."""
    A = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    with pytest.raises(ac.CoverFail, match=r"cover atoms \[0\] only"):
        ac.iso_action([StructuredIso.identity_on(A, {0})], ["e"])


def test_scalar_extension_base_cases():
    beta = c2_swap_fixture()
    R = FiniteRing([Atom.zmod(3)])
    ext = extend_scalars_by_loops(beta, R, [R.from_vec(R.one_vec)])
    assert ext.pres.order() == beta.A.size
    R2 = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    ext2 = extend_scalars_by_loops(beta, R2, [R2.from_vec(R2.one_vec)])
    assert ext2.pres.order() == 81


def test_scalar_extension_rejects_non_galois():
    """Over its own invariants the non-Galois fixture extends to itself, and
    the base-change re-test fails: the trace kills the fixed F_2 atom."""
    ext = extend_scalars_by_loops(c2_fixed_atom_fixture())
    assert ext.pres.order() == ext.beta.A.size
    assert not scalar_extension_is_galois_by_loops(ext)


Z3 = FiniteRing([Atom.zmod(3)])


@pytest.mark.parametrize("R, images, error", [
    (Z3, [Z3.element([2])], ac.ActionError),  # 1 must map to 1
], ids=["not-unital"])
def test_scalar_extension_structural_map_checked(R, images, error):
    with pytest.raises(error):
        extend_scalars_by_loops(c2_swap_fixture(), R, images)


def cut_first_join(joins):
    """The class joins with the first one restricted to one atom fewer."""
    first = joins[0]
    keep = sorted(first.matching)[:-1]
    cut = StructuredIso(first.ring, {i: first.matching[i] for i in keep},
                        {i: first.twist[i] for i in keep})
    return [cut, *joins[1:]]


def test_class_joins_form_quotient_group(monkeypatch):
    for beta in (f9_cubed_fixture(), c2_swap_fixture(), chain_semilattice_fixture()):
        assert verify_class_join_group(beta)
    # with the identity class's join cut down, g g^-1 lies below no join
    induce = ac.induce_partial_group_action
    monkeypatch.setattr(ac, "induce_partial_group_action",
                        lambda beta: SimpleNamespace(S=induce(beta).S,
                                                     isos=cut_first_join(induce(beta).isos)))
    for beta in (f9_cubed_fixture(), c2_swap_fixture()):
        with pytest.raises(AssertionError, match="sits below"):
            verify_class_join_group(beta)
