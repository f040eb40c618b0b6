"""The five per-atom and per-element tests against the power-set scans they replaced.

`tests/oracles.py` keeps the old scans.  Each is compared with its
replacement on seeded corpora, the zero fixtures, the two semilattices,
the shipped instances and one non-injective action.  Two test-only
fixtures, C10 and a 10-chain acting on (Z/2)^10, trip any scan that goes
back to 2^atoms or 2^|class| work.
"""

import collections
import functools
from pathlib import Path

import pytest

from fixtures import (c2_swap, chain_semilattice_fixture, collapsing_semilattice_fixture,
                      cyclic_shift, group_with_zero_fixture)
from oracles import (beta_complete_by_subset_scan, beta_maximal_by_subset_scan,
                     beta_strong_by_support_scan, boolean_sum_by_inclusion_exclusion,
                     direct_product, full_inverse_subsemigroups_by_power_set, is_separable_whole,
                     verify_coordinates_by_elements)
from semigalois import actions, correspondence, galois as gl
from semigalois.actions import invariant_ring, validate_action
from semigalois.correspondence import (fixed_subalgebra, is_beta_complete, is_beta_maximal,
                                       verify_e_unitary_correspondence)
from semigalois.corpus import b2_swap_fixture, c2_table, corpus, f9_cubed_fixture
from semigalois.instance import parse_instance
from semigalois.rings import Atom, FiniteRing, StructuredIso, Subalgebra
from semigalois.semigroups import (enumerate_full_inverse_subsemigroups, sigma_partition,
                                   validate_table)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def c2_times_chain_collapsed():
    """C2 x {1 > f} swapping F_3 x F_3 through the C2 factor: not injective.

    T = E(S) + {(g, f)} has (g, f) <= (g, 1) outside T with the same iso,
    but the join in S of {(g, f)} is (g, f) itself, so T stays complete.
    """
    S = direct_product(c2_table(), validate_table([[0, 1], [1, 1]], names=["1", "f"]))
    A = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    swap = StructuredIso(A, {0: 1, 1: 0}, {})
    ident = StructuredIso.identity_on(A, {0, 1})
    return validate_action(S, A, [ident, ident, swap, swap])


CORPUS_SEEDS = [1, 7, 88, 2408]
FIXTURES = {
    "b2": b2_swap_fixture,
    "group_with_zero": group_with_zero_fixture,
    "chain": chain_semilattice_fixture,
    "collapsing": collapsing_semilattice_fixture,
    "c2_times_chain_collapsed": c2_times_chain_collapsed,
    **{p.stem: (lambda p=p: parse_instance(p)) for p in sorted(INSTANCES.glob("*.sgi"))},
}


def compare_scans(beta):
    """Compare all five rewrites with their oracles on one action.

    Returns (not-complete count, not-maximal count, not-strong count).
    """
    S = beta.S
    ts = enumerate_full_inverse_subsemigroups(S)
    assert [t.members for t in ts] == \
        [t.members for t in full_inverse_subsemigroups_by_power_set(S)]
    counts = [0, 0, 0]
    for T in ts:
        complete = is_beta_complete(beta, T)
        assert complete == beta_complete_by_subset_scan(beta, T)
        counts[0] += not complete
        maximal = is_beta_maximal(beta, T)
        assert maximal == beta_maximal_by_subset_scan(beta, T)
        counts[1] += not maximal
        B = fixed_subalgebra(beta, T)
        got = gl.is_beta_strong(beta, B)
        assert got == beta_strong_by_support_scan(beta, B)
        counts[2] += not got[0]
    if S.zero is None:
        for cls in sigma_partition(S)[1]:
            ones = [beta.ideal_one(s) for s in cls]
            assert actions._boolean_sum(beta.A, ones) == boolean_sum_by_inclusion_exclusion(
                beta.A, [beta.A.from_vec(e) for e in ones]).vec()
    return tuple(counts)


@functools.cache
def corpus_counts(seed):
    """Summed (not complete, not maximal, not strong) counts over one corpus."""
    return tuple(map(sum, zip(*(compare_scans(beta) for beta in corpus(seed, 160)))))


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_rewrites_match_power_set_scans_on_corpus(seed):
    assert corpus_counts(seed)[2] > 0


def test_corpus_meets_both_verdicts():
    not_complete, not_maximal, _ = map(sum, zip(*map(corpus_counts, CORPUS_SEEDS)))
    assert not_complete > 0 and not_maximal > 0


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_rewrites_match_power_set_scans_on_fixtures(name):
    compare_scans(FIXTURES[name]())


def test_strongness_failure_on_separable_f9_subalgebra():
    """F9(e1+e3) + F9 e2 is separable but not strong; both scans fail on one atom."""
    beta = f9_cubed_fixture()
    A = beta.A
    B = Subalgebra(A, [
        A.element([(1, 0), (0, 0), (1, 0)]).vec(),
        A.element([(0, 1), (0, 0), (0, 1)]).vec(),
        A.element([(0, 0), (1, 0), (0, 0)]).vec(),
        A.element([(0, 0), (0, 1), (0, 0)]).vec(),
    ])
    assert is_separable_whole(B, invariant_ring(beta)) is not None
    got = gl.is_beta_strong(beta, B)
    assert got == beta_strong_by_support_scan(beta, B)
    ok, (s, t, supp) = got
    assert not ok and len(supp) == 1


@pytest.mark.parametrize("name", sorted(p.stem for p in INSTANCES.glob("*.sgi")))
def test_coordinate_check_matches_element_route(name):
    """verify_coordinates on the coordinate kernel agrees with the element
    route on solved coordinates and on perturbed ones."""
    beta = FIXTURES[name]()
    A = beta.A
    coords = gl.solve_galois_coordinates(beta) or [(A.one_vec, A.one_vec)]
    (x0, y0), rest = coords[0], coords[1:]
    candidates = [coords, [(x0, A.add_vec(y0, A.one_vec))] + rest,
                  [(A.add_vec(x0, x0), y0)] + rest, rest]
    verdicts = [gl.verify_coordinates(beta, c) for c in candidates]
    assert verdicts == [verify_coordinates_by_elements(beta, c) for c in candidates]
    assert not all(verdicts)


# -- tripwires: polynomial work on instances a power-set scan cannot finish


# C_n rotating the n atoms of (Z/2)^n: Galois, A^beta = {0, 1}
cyclic_shift_on_z2 = functools.partial(cyclic_shift, Atom.zmod(2))


def chain_on_z2(n):
    """The chain e0 > e1 > ... of n idempotents, e_k the identity on the
    first n - k atoms of (Z/2)^n: Galois, A^beta = A."""
    S = validate_table([[max(i, j) for j in range(n)] for i in range(n)],
                       names=[f"e{i}" for i in range(n)])
    A = FiniteRing([Atom.zmod(2)] * n)
    return validate_action(S, A, [StructuredIso.identity_on(A, range(n - k)) for k in range(n)])


@pytest.mark.parametrize("make,n,invariants,pairs", [
    # one pair per subgroup of C_n
    pytest.param(cyclic_shift_on_z2, 10, 2, 4, id="cyclic_shift_on_z2-2-4"),
    pytest.param(cyclic_shift_on_z2, 20, 2, 6, id="cyclic_shift_on_z2-20-2-6"),
    # E(S) = S is the only full subsemigroup
    pytest.param(chain_on_z2, 10, 1024, 1, id="chain_on_z2-1024-1"),
])
def test_tripwire_answers_known_by_construction(make, n, invariants, pairs):
    """C20 was refused by the size guards (more than 16 non-idempotents, a
    tensor of |A|^2 = 2^40); without them it takes about a second."""
    beta = make(n)
    report = gl.cross_check_equivalences(beta)
    assert report.galois and report.invariants_order == invariants
    corr = verify_e_unitary_correspondence(beta)
    assert corr.bijective and len(corr.pairs) == pairs


@pytest.mark.parametrize("atoms,invariants", [
    ((Atom.gf(2, 4), Atom.gf(2, 2)), 64),
    ((Atom.gf(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)), ), 256),
], ids=["gf16^2xgf4^2", "gf256^2"])
def test_tensor_guard_refusals_decide(atoms, invariants):
    """|A| = 2^12 and 2^16: the tensor guard refused both, and each takes a fraction of a second."""
    beta = c2_swap(atoms)
    report = gl.cross_check_equivalences(beta)
    assert report.galois and report.invariants_order == invariants
    corr = verify_e_unitary_correspondence(beta)
    assert corr.bijective and len(corr.pairs) == 2


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_boolean_sum_takes_one_product_per_idempotent(monkeypatch):
    beta = chain_on_z2(10)
    (cls,) = sigma_partition(beta.S)[1]
    ones = [beta.ideal_one(s) for s in cls]
    products = _counting(monkeypatch, FiniteRing, "mul_vec")
    assert actions._boolean_sum(beta.A, ones) == beta.A.one_vec
    assert len(products) <= len(cls) + 1


@pytest.mark.parametrize("make", [pytest.param(cyclic_shift_on_z2, id="cyclic_shift_on_z2"),
                                  pytest.param(chain_on_z2, id="chain_on_z2")])
def test_strongness_applies_each_iso_once_per_generator(monkeypatch, make):
    """S_B and strongness read one remembered table of moved atoms
    (`galois._moved_atoms`): S_B twists each generator of B at most once per
    beta_s and atom of its domain where the generator lives
    (`Atom.frobenius`), and strongness, after it, twists nothing."""
    beta = make(10)
    A, B = beta.A, Subalgebra.full(beta.A)
    living = collections.Counter(b for g in B.gen_vectors for b in A.chunks(g))
    bound = sum(living[b] for iso in beta.isos for b in iso.dom_support)
    twisted = _counting(monkeypatch, Atom, "frobenius")
    gl.compute_S_B(beta, B)
    assert 0 < len(twisted) <= bound
    before = len(twisted)
    assert gl.is_beta_strong(beta, B) == (True, None)
    assert len(twisted) == before


def test_completeness_takes_one_join_per_element_outside(monkeypatch):
    beta = cyclic_shift_on_z2(10)
    for T in enumerate_full_inverse_subsemigroups(beta.S):
        joins = _counting(monkeypatch, correspondence, "join_of")
        assert is_beta_complete(beta, T)
        assert len(joins) <= beta.S.n - len(T.members)
        monkeypatch.undo()
