"""Strongness by elements against the pair loop it replaced.

`galois.is_beta_strong` decides one element p at a time (its docstring
proves that a pair (s, t) is separated exactly when s^{-1}t is), and maps a
failure back to the first failing pair.  `oracles.beta_strong_by_pairs`
keeps the loop over all pairs (s, t).  Both must give the same verdict and
the same witness (s, t, {i}) on seeded corpora with and without a zero, on
the named fixtures and shipped instances, and on the scale shapes whose
correspondences have a known object count: for each action, on B = A, on
the fixed ring of every full T and, where |A| <= 400, on every subalgebra
over A^beta.
"""

from pathlib import Path

import pytest

from fixtures import (brandt, c2_power_regular, chain_semilattice_fixture,
                      collapsing_semilattice_fixture, group_with_zero_fixture, trace_gap_fixture)
from oracles import beta_strong_by_pairs
from semigalois import zerocase as zc
from semigalois.actions import invariant_ring
from semigalois.correspondence import (enumerate_subalgebras_over, fixed_subalgebra,
                                       verify_e_unitary_correspondence)
from semigalois.corpus import b2_swap_fixture, c2_swap_fixture, corpus, f9_cubed_fixture
from semigalois.galois import is_beta_strong
from semigalois.instance import parse_instance
from semigalois.rings import Subalgebra
from semigalois.semigroups import SubSemigroup, enumerate_full_inverse_subsemigroups

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def assert_same(beta, B):
    """The verdict and witness of `is_beta_strong` on B are the pair loop's."""
    got = is_beta_strong(beta, B)
    assert got == beta_strong_by_pairs(beta, B), (beta, B)
    return got[0]


def subalgebras(beta):
    """A, the fixed ring of every full T and, where |A| <= 400, every
    subalgebra over A^beta."""
    yield Subalgebra.full(beta.A)
    for T in enumerate_full_inverse_subsemigroups(beta.S):
        yield fixed_subalgebra(beta, T)
    if beta.A.size <= 400:
        yield from enumerate_subalgebras_over(beta, invariant_ring(beta))


def verdicts(beta):
    return [assert_same(beta, B) for B in subalgebras(beta)]


@pytest.mark.parametrize("seed, count, kw", [(2408, 1000, {}), (7, 1000, {"with_zero": True})],
                         ids=["corpus-2408", "corpus-7-zero"])
def test_strongness_matches_the_pair_loop_on_corpus(seed, count, kw):
    seen = [v for beta in corpus(seed, count, **kw) for v in verdicts(beta)]
    assert True in seen and False in seen


NAMED = {
    "f9_cubed": f9_cubed_fixture, "c2_swap": c2_swap_fixture, "b2_swap": b2_swap_fixture,
    "chain": chain_semilattice_fixture, "collapsing": collapsing_semilattice_fixture,
    "group_with_zero": group_with_zero_fixture, "trace_gap": trace_gap_fixture,
    **{p.stem: (lambda p=p: parse_instance(p)) for p in sorted(INSTANCES.glob("*.sgi"))},
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_strongness_matches_the_pair_loop_on_fixtures(name):
    verdicts(NAMED[name]())


SCALE = [pytest.param(brandt, 4, 15, id="B4-zero"), pytest.param(brandt, 5, 52, id="B5-zero"),
         pytest.param(c2_power_regular, 3, 16, id="C2^3-correspond"),
         pytest.param(c2_power_regular, 4, 67, id="C2^4-correspond")]


@pytest.mark.parametrize("build, n, objects", SCALE)
def test_scale_shapes_have_their_known_objects(build, n, objects):
    """B_n's `zero` has Bell(n) objects and (C2)^k's `correspond` one per
    subgroup; each correspondence is bijective, and strongness on every
    object's fixed ring is the pair loop's."""
    beta = build(n)
    verify = zc.verify_zero_correspondence if beta.S.zero is not None \
        else verify_e_unitary_correspondence
    report = verify(beta)
    assert report.bijective and len(report.pairs) == objects
    for pair in report.pairs:
        B = fixed_subalgebra(beta, SubSemigroup(beta.S, frozenset(pair.members)))
        assert assert_same(beta, B) and pair.strong
