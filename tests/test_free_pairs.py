"""The Galois criteria solved on the free generator pairs of each orbit tensor.

A pair of the tensor A e_O (x)_{A^beta e_O} A e_O whose pivot in the
canonical relation lattice is 1 equals a combination of the others, the
free pairs (`TensorPresentation.free_pairs`).  The coordinate system, psi
and the separability system use the free pairs alone.  They are held here
to the all-pairs routes they replaced (`oracles.solve_coordinates_all_pairs`,
`oracles.psi_image_canons_all_pairs`, `oracles.separable_all_pairs`): the
coordinates are equal byte for byte, psi's image has the same canonical
basis, and the separability verdict is the same, with the free-pair
idempotent verifying on every generator pair of the tensor.  The cases are
seeded corpus draws, the shipped instances, the corpus fixtures and the
benchmark's ladder rungs.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (admissible, c2_fixed_atom_fixture, chain_semilattice_fixture,
                      collapsing_semilattice_fixture, trace_gap_fixture)
from oracles import (psi_image_canons_all_pairs, separable_all_pairs,
                     solve_coordinates_all_pairs, verify_idempotent_by_kron)
from semigalois import cli, galois as gl
from semigalois.actions import induce_partial_group_action
from semigalois.corpus import b2_swap_fixture, c2_swap_fixture, corpus, f9_cubed_fixture
from semigalois.instance import action_to_instance_text, parse_instance
from semigalois.linalg import Matrix, lattice_member, lattice_reduce
from semigalois.rings import Atom
from test_bench_library_calls import workloads

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def assert_free_pairs_match_all_pairs(beta):
    """Returns how many generator pairs the orbit tensors hold, and how many are free."""
    tensors = gl._full_tensor(beta)
    for system in (gl._galois_system(beta), gl._galois_system(induce_partial_group_action(beta))):
        assert gl._solve_coordinates(beta, *system) == solve_coordinates_all_pairs(beta, *system)
    pa = gl.PABetaS(beta)
    got = [part.image_canon(tensor) for (_, tensor), part in zip(tensors, pa.parts)]
    assert got == psi_image_canons_all_pairs(beta)
    z, reference = gl.is_separable(tensors), separable_all_pairs(tensors)
    assert (z is None) == (reference is None)
    if z is not None:
        for (_, tensor), part in zip(tensors, z):
            assert not any(part[p] for p in range(len(part)) if p not in tensor.free_pairs)
            assert verify_idempotent_by_kron(tensor, part)
    return (sum(tensor.k * tensor.l for _, tensor in tensors),
            sum(len(tensor.free_pairs) for _, tensor in tensors))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10 ** 6))
def test_free_pairs_match_all_pairs_on_seeded_draws(seed):
    assert_free_pairs_match_all_pairs(corpus(seed, 1, predicate=admissible)[0])


@pytest.mark.parametrize("path", [p for p in sorted(INSTANCES.glob("*.sgi"))
                                  if admissible(parse_instance(p).action)], ids=lambda p: p.stem)
def test_free_pairs_match_all_pairs_on_the_shipped_instances(path):
    assert_free_pairs_match_all_pairs(parse_instance(path).action)


FIXTURES = [fixture for fixture in (b2_swap_fixture, c2_fixed_atom_fixture, c2_swap_fixture,
                                    chain_semilattice_fixture, collapsing_semilattice_fixture,
                                    f9_cubed_fixture, trace_gap_fixture) if admissible(fixture())]


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda f: f.__name__)
def test_free_pairs_match_all_pairs_on_the_corpus_fixtures(fixture):
    assert_free_pairs_match_all_pairs(fixture())


def test_free_pairs_match_all_pairs_on_the_ladder_rungs():
    """Every galois-ladder rung and its probe; on the GF rungs some pairs are
    not free, so the restriction is exercised."""
    counts = [assert_free_pairs_match_all_pairs(rung.beta)
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
