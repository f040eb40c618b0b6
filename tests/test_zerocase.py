import random

import pytest

from fixtures import (group_with_zero_fixture, groupoid_action_corpus, non_categorical_semilattice,
                      random_orthogonal_groupoid_action, random_primitive_semigroup)
from oracles import meet
from semigalois import isopu
from semigalois import zerocase as zc
from semigalois.corpus import b2_swap_fixture, b2_table, corpus
from semigalois.semigroups import SemigroupError, ZeroRequired, validate_table
from semigalois.zerocase import _require_zero, strongly_compatible


# Properties of tau and of strongly compatible pairs that no decision reads.


class NotStronglyCompatible(SemigroupError):
    pass


def is_zero_restricted_partition(S, projection):
    z_class = projection[S.zero]
    return sum(1 for s in range(S.n) if projection[s] == z_class) == 1


def meet_formulas_check(S, s, t):
    """For strongly compatible nonzero s, t: s^t = ss^{-1}t with the
    displayed idempotent identities."""
    _require_zero(S)
    if not strongly_compatible(S, s, t) or s == S.zero:
        raise NotStronglyCompatible(f"{S.names[s]}, {S.names[t]}")
    w = S.table[S.table[s][S.inv[s]]][t]
    if w == S.zero:
        return False
    if meet(S, s, t) != w:
        return False
    lhs1 = S.table[w][S.inv[w]]
    rhs1 = S.table[S.table[s][S.inv[s]]][S.table[t][S.inv[t]]]
    lhs2 = S.table[S.inv[w]][w]
    rhs2 = S.table[S.table[S.inv[s]][s]][S.table[S.inv[t]][t]]
    return lhs1 == rhs1 and lhs2 == rhs2


def test_strong_compatibility_cases():
    B2 = b2_table()
    z = B2.zero
    assert zc.strongly_compatible(B2, z, z)
    for e in zc.nonzero_idempotents(B2):
        assert zc.strongly_compatible(B2, e, e)
    # the two nonzero idempotents are not strongly compatible
    assert not zc.strongly_compatible(B2, 0, 3)


def test_strong_compatibility_needs_zero():
    S = validate_table([[0, 1], [1, 0]])
    with pytest.raises(ZeroRequired):
        zc.strongly_compatible(S, 0, 1)


def test_zero_e_unitary_and_categorical():
    B2 = b2_table()
    assert zc.is_0_e_unitary(B2)
    assert zc.is_categorical_at_zero(B2)
    gz = group_with_zero_fixture().S
    assert zc.is_0_e_unitary(gz)
    assert zc.is_categorical_at_zero(gz)
    bad = non_categorical_semilattice()
    assert zc.is_0_e_unitary(bad)
    assert not zc.is_categorical_at_zero(bad)


def test_tau_on_b2_and_chain():
    B2 = b2_table()
    classes, proj = zc.tau_partition(B2)
    assert sorted(len(c) for c in classes) == [1, 1, 1, 1, 1]
    # chain semilattice with zero: all nonzero idempotents share lower bounds
    chain = validate_table([[0, 0, 0], [0, 1, 1], [0, 1, 2]], zero=0,
                           names=["0", "m", "e"])
    classes2, proj2 = zc.tau_partition(chain)
    assert sorted(len(c) for c in classes2) == [1, 2]


def test_tau_equals_strong_compatibility_exactly_under_hypotheses():
    rng = random.Random(5)
    for _ in range(25):
        S = random_primitive_semigroup(rng)
        classes, proj = zc.tau_partition(S)  # asserts tau == strong compat inside
        for s in range(S.n):
            for t in range(S.n):
                assert (proj[s] == proj[t]) == zc.strongly_compatible(S, s, t)


def test_tau_quotient_is_primitive_and_zero_restricted():
    rng = random.Random(6)
    cases = [b2_table(), group_with_zero_fixture().S]
    for _ in range(10):
        cases.append(random_primitive_semigroup(rng))
    for S in cases:
        if not (zc.is_0_e_unitary(S) and zc.is_categorical_at_zero(S)):
            continue
        quotient, proj = zc.tau_quotient(S)
        assert zc.is_primitive(quotient)
        assert is_zero_restricted_partition(S, proj)


def test_meet_formulas():
    B2 = b2_table()
    for s in range(B2.n):
        for t in range(B2.n):
            if s == B2.zero or t == B2.zero:
                continue
            if zc.strongly_compatible(B2, s, t):
                assert meet_formulas_check(B2, s, t)
    rng = random.Random(9)
    for _ in range(15):
        S = random_primitive_semigroup(rng)
        for s in range(S.n):
            for t in range(S.n):
                if s != S.zero and t != S.zero and zc.strongly_compatible(S, s, t):
                    assert meet_formulas_check(S, s, t)


def test_meet_formulas_rejects_incompatible():
    B2 = b2_table()
    with pytest.raises(NotStronglyCompatible):
        meet_formulas_check(B2, 0, 3)


def primitive_corpus():
    """The primitive actions of the zero corpora of seeds 2408, 3, 5 and 7:
    274 of them, 18 with the zero elsewhere than last."""
    return [beta for seed in (2408, 3, 5, 7) for beta in corpus(seed, 100, with_zero=True)
            if zc.is_primitive(beta.S)]


def test_groupoid_round_trips_on_corpus():
    rng = random.Random(11)
    count = 0
    seen_b2 = False
    cases = [b2_table()]
    while len(cases) < 50:
        cases.append(random_primitive_semigroup(rng))
    betas = primitive_corpus()
    cases += [beta.S for beta in betas]
    assert any(S.zero != S.n - 1 for S in cases)
    for S in cases:
        G, order = zc.primitive_to_groupoid(S)
        back = zc.groupoid_to_primitive(G)
        # back is S relabeled: the nonzero elements in order, then the zero
        relabel = order + [S.zero]
        assert [[relabel[x] for x in row] for row in back.table] == \
            [[S.table[s][t] for t in relabel] for s in relabel]
        assert relabel[back.zero] == S.zero
        # groupoid -> primitive -> groupoid is also the identity
        G2, _ = zc.primitive_to_groupoid(back)
        assert G2.table == G.table
        assert (G2.d, G2.r, G2.inv) == (G.d, G.r, G.inv)
        count += 1
        if S.table == b2_table().table:
            seen_b2 = True
    assert count >= 50 + 274 and seen_b2
    for beta in betas:
        alpha = zc.validate_partial_semigroup_action(beta.S, beta.A, beta.isos)
        assert zc.round_trips(alpha)[1:] == (True, True)


def test_b2_is_the_matrix_unit_groupoid():
    G, order = zc.primitive_to_groupoid(b2_table())
    assert G.n == 4
    assert sorted(G.idempotents) == sorted([order.index(0), order.index(3)])


def test_group_with_zero_is_one_object_groupoid():
    S = group_with_zero_fixture().S
    G, order = zc.primitive_to_groupoid(S)
    assert len(G.idempotents) == 1
    assert G.n == 2


def test_primitive_to_groupoid_requires_primitive():
    chain = validate_table([[0, 0, 0], [0, 1, 1], [0, 1, 2]], zero=0)
    with pytest.raises(zc.NotPrimitive):
        zc.primitive_to_groupoid(chain)


def test_groupoid_axiom_validation_rejects_garbage():
    # a product with a non-associative defined pattern
    with pytest.raises(zc.GroupoidError):
        zc.validate_groupoid(2, [[0, None], [None, None]])


def test_action_conversion_round_trips_on_corpus():
    gammas = groupoid_action_corpus(123, 20)
    for gamma in gammas:
        alpha = zc.groupoid_action_to_semigroup(gamma)
        gamma2, order = zc.semigroup_action_to_groupoid(alpha)
        assert gamma2.S.table == gamma.S.table
        assert list(gamma2.isos) == list(gamma.isos)
        assert zc.convert_round_trip_ok(alpha)


def test_action_conversion_on_b2_fixture():
    beta = b2_swap_fixture()
    alpha = zc.validate_partial_semigroup_action(beta.S, beta.A, beta.isos)
    (gamma, order) = zc.semigroup_action_to_groupoid(alpha)
    # A = A_{e11} + A_{e22} as a direct sum
    ids = gamma.S.idempotents
    supports = [gamma.isos[e].im_support for e in ids]
    assert frozenset().union(*supports) == frozenset({0, 1})
    assert not (supports[0] & supports[1])
    assert zc.convert_round_trip_ok(alpha)


def test_pis_axiom_errors_are_tagged():
    beta = b2_swap_fixture()
    from semigalois.rings import StructuredIso
    bad = list(beta.isos)
    bad[beta.S.zero] = StructuredIso.identity_on(beta.A, {0})
    with pytest.raises(zc.AxiomFail) as err:
        zc.validate_partial_semigroup_action(beta.S, beta.A, bad)
    assert err.value.tag == "PIS0"


def test_groupoid_action_draws_reject_only_axiom_failures(monkeypatch):
    """A draw whose restriction fails an action axiom is rejected (None); any
    other error in validation propagates rather than passing for a rejection."""
    def broken(G, A, isos):
        raise RuntimeError("validation bug")

    monkeypatch.setattr(zc, "validate_partial_groupoid_action", broken)
    with pytest.raises(RuntimeError, match="validation bug"):
        random_orthogonal_groupoid_action(random.Random(123))


def test_pgr_orthogonality_is_checked():
    gammas = groupoid_action_corpus(123, 5)
    gamma = gammas[0]
    with_overlap = list(gamma.isos)
    from semigalois.rings import StructuredIso
    ids = gamma.S.idempotents
    if len(ids) >= 2:
        # force the second identity ideal onto the first: overlap
        first = with_overlap[ids[0]]
        with_overlap[ids[1]] = first
        with pytest.raises(zc.AxiomFail):
            zc.validate_partial_groupoid_action(gamma.S, gamma.A, with_overlap)


def test_p_prime_on_primitive_is_isomorphic():
    beta = b2_swap_fixture()
    P, joins, proj = zc.p_prime_construction(beta)
    assert P.n == beta.S.n
    assert zc.is_primitive(P)


def test_p_prime_on_group_with_zero():
    beta = group_with_zero_fixture()
    P, joins, proj = zc.p_prime_construction(beta)
    assert P.n == 3  # (C2)^0
    assert zc.is_primitive(P)


@pytest.mark.parametrize("fixture", [b2_swap_fixture, group_with_zero_fixture])
def test_p_prime_rejects_a_cut_class_join(fixture, monkeypatch):
    from test_actions import cut_first_join
    class_joins = isopu.class_joins
    monkeypatch.setattr(isopu, "class_joins", lambda *a: cut_first_join(class_joins(*a)))
    with pytest.raises(AssertionError, match="sits below"):
        zc.p_prime_construction(fixture())


def test_p_prime_matches_sigma_machinery_on_adjoined_zero():
    """E-unitary S with adjoined zero: P' = (S/sigma) with zero."""
    from semigalois.corpus import f9_cubed_fixture
    from semigalois.rings import StructuredIso
    from semigalois.semigroups import sigma_partition
    beta = f9_cubed_fixture()
    S = beta.S
    n = S.n
    table = [list(row) + [n] for row in S.table]
    table.append([n] * (n + 1))
    S0 = validate_table(table, zero=n, names=list(S.names) + ["0"])
    isos = list(beta.isos) + [StructuredIso.empty(beta.A)]
    from semigalois.actions import validate_action
    beta0 = validate_action(S0, beta.A, isos)
    P, joins, proj = zc.p_prime_construction(beta0)
    assert P.n == sigma_partition(S)[0].n + 1


def test_zero_correspondence_on_fixtures():
    rep = zc.verify_zero_correspondence(b2_swap_fixture(), brute_force_subalgebras=True)
    assert rep.bijective and rep.brute_force_match
    assert sorted(p.subalgebra_order for p in rep.pairs) == [3, 9]
    rep2 = zc.verify_zero_correspondence(group_with_zero_fixture())
    assert rep2.bijective
    assert sorted(p.subalgebra_order for p in rep2.pairs) == [3, 9]


def test_zero_correspondence_semilattice_with_zero():
    from semigalois.actions import validate_action
    from semigalois.rings import Atom, FiniteRing, StructuredIso
    S = validate_table([[0, 0], [0, 1]], zero=0, names=["0", "e"])
    A = FiniteRing([Atom.zmod(3)])
    beta = validate_action(S, A, [StructuredIso.empty(A),
                                  StructuredIso.identity_on(A, {0})])
    rep = zc.verify_zero_correspondence(beta)
    assert rep.bijective and len(rep.pairs) == 1
