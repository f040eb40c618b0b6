"""psi on the free generator pairs of each orbit tensor.

A pair of the tensor A e_O (x)_{A^beta e_O} A e_O whose pivot in the
canonical relation lattice is 1 equals a combination of the others, the
free pairs (`oracles.free_pairs`).  psi uses the free pairs alone, each
atom-pair block's own (`galois._psi_block`), which put in place are the
orbit tensor's.  It is held here to the whole-tensor routes, which take every
generator pair of A, by the check test_orbit_blocks.py makes
(`check_orbit_routes_against_whole`): psi's image has the same order (so
the same canonical basis, the free pairs' image lying inside all pairs')
and every pair's image matches the element route.  The same check holds
the separability idempotent, put in place on the whole tensor, to every
generator pair, and the coordinate criterion's verdicts on beta's and
alpha's systems to the whole solve.  The cases
are seeded corpus draws, the shipped instances, the corpus fixtures and
the benchmark's ladder rungs.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (admissible, c2_fixed_atom_fixture, chain_semilattice_fixture,
                      collapsing_semilattice_fixture, trace_gap_fixture)
from semigalois import cli, galois as gl
from semigalois.actions import induce_partial_group_action
from semigalois.corpus import b2_swap_fixture, c2_swap_fixture, corpus, f9_cubed_fixture
from semigalois.instance import action_to_instance_text, parse_instance
from semigalois.linalg import lattice_reduce
from semigalois.rings import Atom
from oracles import free_pairs
from test_bench_library_calls import workloads
from test_orbit_blocks import check_orbit_routes_against_whole

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10 ** 6))
def test_free_pairs_match_all_pairs_on_seeded_draws(seed):
    check_orbit_routes_against_whole(corpus(seed, 1, predicate=admissible)[0])


@pytest.mark.parametrize("path", [p for p in sorted(INSTANCES.glob("*.sgi"))
                                  if admissible(parse_instance(p))], ids=lambda p: p.stem)
def test_free_pairs_match_all_pairs_on_the_shipped_instances(path):
    check_orbit_routes_against_whole(parse_instance(path))


FIXTURES = [fixture for fixture in (b2_swap_fixture, c2_fixed_atom_fixture, c2_swap_fixture,
                                    chain_semilattice_fixture, collapsing_semilattice_fixture,
                                    f9_cubed_fixture, trace_gap_fixture) if admissible(fixture())]


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda f: f.__name__)
def test_free_pairs_match_all_pairs_on_the_corpus_fixtures(fixture):
    check_orbit_routes_against_whole(fixture())


def test_free_pairs_match_all_pairs_on_the_ladder_rungs():
    """Every galois-ladder rung and its probe; on the GF rungs some pairs are
    not free, so the restriction is exercised."""
    counts = [check_orbit_routes_against_whole(rung.beta)
              for rung in workloads.ladder_rungs() + [workloads.ladder_probe()]]
    assert any(free < pairs for pairs, free in counts)


@pytest.mark.parametrize("seed", [3, 2408])
def test_a_pair_rewritten_onto_the_free_pairs_is_the_same_tensor_element(seed):
    """A pair p that is not free equals, in the tensor, minus the entries
    below the pivot 1 of its column of the relations L, all at free pairs
    (`free_pairs`), so every vector rewritten so lies in its own coset of L,
    on the free pairs alone: they generate the tensor, as psi needs."""
    rng = random.Random(seed)
    betas = corpus(seed, 20, predicate=admissible)
    betas += [rung.beta for rung in workloads.ladder_rungs()]
    tensors = [tensor for beta in betas for _, tensor in gl._full_tensor(beta)
               if len(free_pairs(tensor)) < tensor.k * tensor.l]
    assert len(tensors) >= 5
    for tensor in tensors:
        n, free = tensor.k * tensor.l, set(free_pairs(tensor))
        relations = tensor.pres.lattice
        for _ in range(6):
            vec = [rng.randrange(-9, 10) for _ in range(n)]
            in_l = relations.apply([rng.randrange(-3, 4) for _ in range(n)])
            for v in (vec, in_l):
                back = [0] * n
                for q, x in enumerate(v):
                    if q in free:
                        back[q] += x
                    else:
                        for r, c in relations.cols[q].items():
                            if r != q:
                                assert r in free
                                back[r] -= c * x
                assert lattice_reduce(relations, back) == lattice_reduce(relations, v)


def test_alpha_is_checked_on_betas_coordinates(monkeypatch):
    """On the S7 monoid alpha's system differs from beta's; the candidate,
    which depends on A alone, is beta's coordinates and is checked on
    alpha's own system, and a failing check there raises."""
    beta = f9_cubed_fixture()
    alpha = induce_partial_group_action(beta)
    assert gl._galois_system(alpha) != gl._galois_system(beta)
    coords = gl.solve_galois_coordinates(beta)
    assert gl.solve_partial_action_coordinates(beta) == coords
    real = gl.verify_coordinates
    monkeypatch.setattr(gl, "verify_coordinates", lambda a, c: a is not alpha and real(a, c))
    with pytest.raises(gl.CertificateMismatch, match="trace-dual coordinates"):
        gl.cross_check_equivalences(beta)


def test_c32_on_gf4_decides_under_the_default_budget(tmp_path, capsysbinary):
    """C32 rotating GF(4)^32, the one-orbit frontier: `galois` passes under the
    default budget (it ended in `FAIL budget quantity=ring_products`, exit 3,
    when psi multiplied every generator pair by every beta_t)."""
    path = tmp_path / "c32_gf4.sgi"
    path.write_text(action_to_instance_text(workloads.cn_cycle(Atom.gf(2, 2), 32).beta))
    assert cli.main(["galois", str(path)]) == 0
    assert capsysbinary.readouterr().out.endswith(b"# result: PASS\n")
