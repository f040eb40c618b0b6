"""The Galois criteria solved on the free generator pairs of each orbit tensor.

A pair of the tensor A e_O (x)_{A^beta e_O} A e_O whose pivot in the
canonical relation lattice is 1 equals a combination of the others, the
free pairs (`TensorPresentation.free_pairs`).  The coordinate system, psi
and the separability system use the free pairs alone.  They are held here
to the whole-tensor routes, which take every generator pair of A, by the
check test_orbit_blocks.py makes (`check_orbit_routes_against_whole`):
the coordinates are equal byte for byte, psi's image has the same order
(so the same canonical basis, the free pairs' image lying inside all
pairs') and every pair's image matches the element route, and the
separability verdict is the same, with the free-pair idempotent, put in
place on the whole tensor, verifying on every generator pair.  The cases
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
from semigalois.linalg import Matrix, lattice_member, lattice_reduce
from semigalois.rings import Atom
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
    """`onto_free_pairs` moves a vector within its coset of the relations L,
    onto the free pairs, and a vector lies in L exactly when its rewriting
    lies in `free_lattice`."""
    rng = random.Random(seed)
    betas = corpus(seed, 20, predicate=admissible)
    betas += [rung.beta for rung in workloads.ladder_rungs()]
    tensors = [tensor for beta in betas for _, tensor in gl._full_tensor(beta)
               if len(tensor.free_pairs) < tensor.k * tensor.l]
    assert len(tensors) >= 5
    for tensor in tensors:
        n, free = tensor.k * tensor.l, tensor.free_pairs
        relations = tensor.pres.lattice
        for _ in range(6):
            vec = [rng.randrange(-9, 10) for _ in range(n)]
            in_l = relations.apply([rng.randrange(-3, 4) for _ in range(n)])
            for v in (vec, in_l):
                col = tensor.onto_free_pairs(Matrix(n, [dict(enumerate(v))])).cols[0]
                back = [0] * n
                for s, x in col.items():
                    back[free[s]] = x
                assert (lattice_reduce(tensor.pres.lattice, back)
                        == lattice_reduce(tensor.pres.lattice, v))
                on_free = [col.get(s, 0) for s in range(len(free))]
                assert lattice_member(tensor.free_lattice, on_free) == tensor.is_zero(v)


def test_alpha_is_checked_on_betas_coordinates(monkeypatch):
    """On the S7 monoid alpha's system differs from beta's; beta's
    coordinates are checked on it, and a failing check raises."""
    beta = f9_cubed_fixture()
    alpha_system = gl._galois_system(induce_partial_group_action(beta))
    assert alpha_system != gl._galois_system(beta)
    coords = gl.solve_galois_coordinates(beta)
    assert gl.verify_coordinates(beta, coords, alpha_system)
    real = gl.verify_coordinates
    monkeypatch.setattr(gl, "verify_coordinates",
                        lambda b, c, system=None: system is not alpha_system and real(b, c, system))
    with pytest.raises(gl.EquivalenceViolation, match="alpha's system"):
        gl.cross_check_equivalences(beta)


def test_c32_on_gf4_decides_under_the_default_budget(tmp_path, capsysbinary):
    """C32 rotating GF(4)^32, the one-orbit frontier: `galois` passes under the
    default budget (it ended in `FAIL budget quantity=ring_products`, exit 3,
    when psi multiplied every generator pair by every beta_t)."""
    path = tmp_path / "c32_gf4.sgi"
    path.write_text(action_to_instance_text(workloads.cn_cycle(Atom.gf(2, 2), 32).beta))
    assert cli.main(["galois", str(path)]) == 0
    assert capsysbinary.readouterr().out.endswith(b"# result: PASS\n")
