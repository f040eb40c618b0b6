"""The one correspondence engine against the three loops it replaced.

`tests/oracles.py` keeps the E-unitary, general and zero routes as they
were, each with its own pair loop and brute-force matcher; every route here
must give the same pairs, verdicts and brute-force match.  The fixed ring
A^{beta|T} of every T the routes take, solved on beta's own isos, is held to
the invariants of the restricted action it replaced, at the same spend.
"""

from pathlib import Path

import pytest

from fixtures import collapsing_semilattice_fixture, derivations, group_with_zero_fixture
from semigalois import actions, budget
from semigalois import correspondence as co
from semigalois import galois
from semigalois import zerocase as zc
from semigalois.actions import image_action, is_injective, validate_action
from semigalois.corpus import b2_swap_fixture, corpus
from semigalois.galois import PreconditionFail, is_galois
from semigalois.instance import parse_instance
from semigalois.rings import Atom, FiniteRing, StructuredIso
from semigalois.semigroups import SubSemigroup, is_e_unitary, validate_table
from oracles import (e_unitary_correspondence_by_own_loop, fixed_ring_by_all_kernels,
                     general_correspondence_by_image_verifier, zero_correspondence_by_own_loop)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def c2_swap_with_identity():
    """C2 = {e, g} swapping GF(4)^2, with an adjoined identity 1 acting like e."""
    S = validate_table([[0, 1, 2], [1, 1, 2], [2, 2, 1]], names=["1", "e", "g"])
    A = FiniteRing([Atom.gf(2, 2)] * 2)
    ident = StructuredIso.identity_on(A, {0, 1})
    return validate_action(S, A, [ident, ident, StructuredIso(A, {0: 1, 1: 0}, {})])


def c2_times_chain():
    """C2 x {1 > f} swapping (Z/4)^2 through the projection onto C2."""
    # elements (c, k) at index 2k + c: 1, g, f, gf
    S = validate_table([[(c1 ^ c2) | ((k1 | k2) << 1) for k2 in (0, 1) for c2 in (0, 1)]
                        for k1 in (0, 1) for c1 in (0, 1)], names=["1", "g", "f", "gf"])
    A = FiniteRing([Atom.zmod(2, 2)] * 2)
    ident = StructuredIso.identity_on(A, {0, 1})
    swap = StructuredIso(A, {0: 1, 1: 0}, {})
    return validate_action(S, A, [ident, swap, ident, swap])


def semilattice_with_zero():
    S = validate_table([[0, 0], [0, 1]], zero=0, names=["0", "e"])
    A = FiniteRing([Atom.zmod(3)])
    return validate_action(S, A, [StructuredIso.empty(A), StructuredIso.identity_on(A, {0})])


NON_INJECTIVE = {
    "collapsing_semilattice": collapsing_semilattice_fixture,
    "c2_gf4^2_with_identity": c2_swap_with_identity,
    "c2xchain_z4^2": c2_times_chain,
}
ZERO_CASES = {
    "b2_swap": b2_swap_fixture,
    "group_with_zero": group_with_zero_fixture,
    "semilattice_with_zero": semilattice_with_zero,
}


def _shipped(name):
    return parse_instance(str(INSTANCES / f"{name}.sgi"))


def _decide(verify, beta, brute):
    try:
        return verify(beta, brute_force_subalgebras=brute)
    except PreconditionFail as exc:
        return f"precondition: {exc}"


def _failing_ts(rep):
    return {f[1] for f in rep.failures if len(f) > 1}


def _assert_same(got, want, failures="exact"):
    if isinstance(want, str):
        assert got == want
        return
    assert got.pairs == want.pairs
    assert (got.bijective, got.brute_force_match) == (want.bijective, want.brute_force_match)
    if failures == "exact":
        assert got.failures == want.failures
    elif failures == "ts":
        assert _failing_ts(got) == _failing_ts(want)


def _zero_free_routes(beta, brute):
    if is_injective(beta) and is_e_unitary(beta.S):
        _assert_same(_decide(co.verify_e_unitary_correspondence, beta, brute),
                     _decide(e_unitary_correspondence_by_own_loop, beta, brute))
    _assert_same(_decide(co.verify_general_correspondence, beta, brute),
                 _decide(general_correspondence_by_image_verifier, beta, brute),
                 failures=None)


@pytest.mark.parametrize("name", ["c2_swap", "s7_f9cubed", "trace_gap_c2", "b2_f3f3"])
@pytest.mark.parametrize("brute", [False, True])
def test_shipped_instances_match_the_old_loops(name, brute):
    beta = _shipped(name)
    if beta.S.zero is None:
        _zero_free_routes(beta, brute)
    else:
        _assert_same(_decide(zc.verify_zero_correspondence, beta, brute),
                     _decide(zero_correspondence_by_own_loop, beta, brute), failures="ts")


@pytest.mark.parametrize("name", sorted(ZERO_CASES))
@pytest.mark.parametrize("brute", [False, True])
def test_zero_fixtures_match_the_old_loop(name, brute):
    beta = ZERO_CASES[name]()
    got = zc.verify_zero_correspondence(beta, brute_force_subalgebras=brute)
    _assert_same(got, zero_correspondence_by_own_loop(beta, brute), failures="ts")
    assert got.bijective and got.pairs


@pytest.mark.parametrize("name", sorted(NON_INJECTIVE))
@pytest.mark.parametrize("brute", [False, True])
def test_non_injective_fixtures_match_the_old_general_route(name, brute):
    beta = NON_INJECTIVE[name]()
    assert not is_injective(beta)
    got = co.verify_general_correspondence(beta, brute_force_subalgebras=brute)
    _assert_same(got, general_correspondence_by_image_verifier(beta, brute), failures=None)
    assert got.bijective and not got.failures
    assert brute is (got.brute_force_match is True)


def test_non_injective_fixtures_reach_the_pair_loop():
    """Both fixtures reach the pair loop with Ts whose elements beta collapses."""
    rep = co.verify_general_correspondence(c2_swap_with_identity())
    assert [p.members for p in rep.pairs] == [(0, 1), (0, 1, 2)]
    assert [p.subalgebra_order for p in rep.pairs] == [16, 4]
    rep = co.verify_general_correspondence(c2_times_chain())
    assert [p.members for p in rep.pairs] == [(0, 2), (0, 1, 2, 3)]


def test_galois_corpus_matches_the_old_general_route():
    count = 0
    for beta in corpus(88, 25, predicate=lambda b: b.S.zero is None
                       and b.all_ideals_nonzero() and b.S.n <= 10):
        if not is_galois(beta):
            continue
        _zero_free_routes(beta, brute=beta.A.size <= 256)
        count += 1
    assert count >= 8


# -- failure paths --------------------------------------------------------------


def test_t_that_is_not_beta_maximal_fails_the_round_trip():
    beta = c2_times_chain()
    # {1, f, gf} is full, but g has the same iso as gf and is missing
    T = SubSemigroup(beta.S, frozenset({0, 2, 3}))
    rep = co.verify_pairs(beta, [T])
    assert rep.failures == [("S_B != T", (0, 2, 3), (0, 1, 2, 3))]
    assert not rep.bijective and not rep.pairs[0].round_trip_t
    assert rep.pairs[0].round_trip_b


def test_two_ts_with_one_fixed_algebra_are_duplicates():
    beta = c2_times_chain()
    full = SubSemigroup(beta.S, frozenset(range(4)))
    T = SubSemigroup(beta.S, frozenset({0, 2, 3}))
    rep = co.verify_pairs(beta, [full, T])
    assert rep.failures == [("duplicate fixed algebra", (0, 2, 3), (0, 1, 2, 3)),
                            ("S_B != T", (0, 2, 3), (0, 1, 2, 3))]
    rep = co.verify_pairs(beta, [full, full])
    assert rep.failures == [("duplicate fixed algebra", (0, 1, 2, 3), (0, 1, 2, 3))]


def test_missing_t_is_a_brute_force_mismatch():
    beta = c2_times_chain()
    full = SubSemigroup(beta.S, frozenset(range(4)))
    rep = co.verify_pairs(beta, [full], brute_force_subalgebras=True)
    assert rep.failures == [("brute-force subalgebra scan mismatch",)]
    assert rep.brute_force_match is False and not rep.bijective
    assert rep.pairs[0].separable and rep.pairs[0].strong
    # the scan finds each subalgebra once, so a repeated T is a mismatch too
    E = SubSemigroup(beta.S, frozenset({0, 2}))
    rep = co.verify_pairs(beta, [E, full], brute_force_subalgebras=True)
    assert rep.brute_force_match and rep.bijective
    rep = co.verify_pairs(beta, [E, full, full], brute_force_subalgebras=True)
    assert rep.failures == [("duplicate fixed algebra", (0, 1, 2, 3), (0, 1, 2, 3)),
                            ("brute-force subalgebra scan mismatch",)]


# -- work done per T ------------------------------------------------------------


def _s_b_derivations(derived):
    """The objects S_B was derived on, one per derivation."""
    return [obj for (_, obj, _), count in derived.items() for _ in range(count)]


def test_e_unitary_route_computes_s_b_once_per_t():
    beta = _shipped("s7_f9cubed")
    ts = co.enumerate_beta_complete(beta)
    with derivations(galois.compute_S_B) as derived:
        rep = co.verify_e_unitary_correspondence(beta)
    assert len(rep.pairs) == len(ts) == 3
    assert _s_b_derivations(derived) == [id(beta)] * len(ts)


@pytest.mark.parametrize("route", ["general", "zero"])
def test_other_routes_compute_s_b_once_per_t(route):
    beta = c2_times_chain() if route == "general" else b2_swap_fixture()
    ts = co.enumerate_beta_maximal(beta)
    verify = (co.verify_general_correspondence if route == "general"
              else zc.verify_zero_correspondence)
    with derivations(galois.compute_S_B) as derived:
        assert len(verify(beta).pairs) == len(ts)
    assert _s_b_derivations(derived) == [id(beta)] * len(ts)


def test_s_b_on_beta_is_the_pullback_of_s_b_on_the_image():
    """Why the engine needs no image: membership in S_B reads only beta_s."""
    for beta in [c2_times_chain(), c2_swap_with_identity(), b2_swap_fixture()]:
        beta_img, proj = image_action(beta)
        for T in co.enumerate_beta_maximal(beta):
            B = co.fixed_subalgebra(beta, T)
            pulled = co.pull_back(beta.S, proj, galois.compute_S_B(beta_img, B).members)
            assert pulled == galois.compute_S_B(beta, B).members


def test_brute_force_verification_computes_the_invariants_once():
    beta = _shipped("c2_swap")
    with derivations(actions.invariant_ring) as derived:
        rep = co.verify_e_unitary_correspondence(beta, brute_force_subalgebras=True)
    assert rep.brute_force_match
    assert derived[("invariant_ring", id(beta))] == 1


@pytest.mark.parametrize("name", ["c2_swap", "s7_f9cubed", "trace_gap_c2"])
def test_correspond_fixes_each_member_set_and_checks_each_subalgebra_once(
        monkeypatch, capsysbinary, name):
    """One `correspond`: A^{beta|T} once per distinct member set (the round trip
    reuses B when S_B is T), and `closed_under_mul` at most once per object."""
    from semigalois import cli
    from semigalois.rings import Subalgebra
    fixed, closed = [], []
    original_fixed = co.fixed_subalgebra
    original_closed = Subalgebra.closed_under_mul

    def counted_fixed(beta, T):
        fixed.append(T.members)
        return original_fixed(beta, T)

    def counted_closed(self):
        closed.append(self)  # held, so no two objects share an id
        return original_closed(self)

    monkeypatch.setattr(co, "fixed_subalgebra", counted_fixed)
    monkeypatch.setattr(Subalgebra, "closed_under_mul", counted_closed)
    cli.main(["correspond", str(INSTANCES / f"{name}.sgi")])
    capsysbinary.readouterr()
    assert len(fixed) == len(set(fixed))
    assert len(closed) == len({id(sub) for sub in closed})
    if name != "trace_gap_c2":  # not Galois: no pairs to fix
        assert fixed


def _assert_reverses_inclusion(beta, rep):
    """On every two pairs of a report, T <= T' iff A^{beta|T} contains A^{beta|T'}."""
    fixed = {frozenset(p.members): co.fixed_subalgebra(beta, SubSemigroup(beta.S, frozenset(p.members)))
             for p in rep.pairs}
    for t1, b1 in fixed.items():
        for t2, b2 in fixed.items():
            assert (t1 <= t2) == b1.contains(b2), (sorted(t1), sorted(t2))


def _printed_correspondence(beta):
    """The report `correspond` (or `zero`, with a declared zero) prints pairs from, or None."""
    if beta.S.zero is not None:
        verify = zc.verify_zero_correspondence
    elif is_injective(beta) and is_e_unitary(beta.S):
        verify = co.verify_e_unitary_correspondence
    else:
        verify = co.verify_general_correspondence
    rep = _decide(verify, beta, False)
    return None if isinstance(rep, str) else rep


ORDER_CASES = {**{name: lambda name=name: _shipped(name)
                   for name in ["c2_swap", "s7_f9cubed", "trace_gap_c2", "b2_f3f3"]},
               **NON_INJECTIVE, **ZERO_CASES}


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_correspondences_reverse_inclusion(name):
    beta = ORDER_CASES[name]()
    rep = _printed_correspondence(beta)
    if name == "trace_gap_c2":  # not Galois
        assert rep is None
    else:
        assert rep.bijective and rep.pairs
        _assert_reverses_inclusion(beta, rep)


@pytest.mark.parametrize("seed,with_zero", [(88, False), (7, True)])
def test_corpus_correspondences_reverse_inclusion(seed, with_zero):
    several = 0
    for beta in corpus(seed, 60, with_zero=with_zero,
                       predicate=lambda b: b.all_ideals_nonzero() and b.S.n > 1 and b.A.size <= 2000):
        rep = _printed_correspondence(beta)
        if rep is not None and rep.bijective:
            _assert_reverses_inclusion(beta, rep)
            several += len(rep.pairs) > 1
    assert several >= 5


def _route_ts(beta):
    """Every T a correspondence route takes on beta: the beta-complete Ts
    (E-unitary route), the pullbacks of the image's beta-complete Ts (general
    route) and the beta-maximal Ts (general and zero routes), by member set."""
    ts = co.enumerate_beta_complete(beta) + co.enumerate_beta_maximal(beta)
    beta_img, proj = image_action(beta)
    ts += [SubSemigroup(beta.S, co.pull_back(beta.S, proj, T.members))
           for T in co.enumerate_beta_complete(beta_img)]
    return list({T.members: T for T in ts}.values())


def _fixed_ring_cases(source):
    if source == "shipped":
        return [_shipped(path.stem) for path in sorted(INSTANCES.glob("*.sgi"))]
    if source == "brute-rungs":
        from test_bench_library_calls import workloads
        return [rung.beta for rung in workloads.brute_rungs()]
    return corpus(2408, 60, with_zero=source == "corpus-with-zero")


@pytest.mark.parametrize("source", ["corpus", "corpus-with-zero", "shipped", "brute-rungs"])
def test_fixed_subalgebra_matches_the_restricted_action(source):
    """A^{beta|T} from beta's own isos on T has the canonical basis of the
    invariants of the restricted action, at the same budget spend, and of
    the ring the kernel route fixes on T's isos."""
    ts = 0
    for beta in _fixed_ring_cases(source):
        actions.invariant_ring(beta)  # remembered, so neither route below pays for it
        for T in _route_ts(beta):
            with budget.limit(10 ** 12):
                got = co.fixed_subalgebra(beta, T)
                spent = budget.spent()
            with budget.limit(10 ** 12):
                want = actions.invariant_ring(actions.restrict_action(beta, T)[0])
                assert budget.spent() == spent
            assert got.basis == want.basis
            isos = [beta.isos[t] for t in sorted(T.members)]
            assert got.basis == fixed_ring_by_all_kernels(beta.A, isos).basis
            ts += 1
    assert ts >= 9
