"""The orbit tensors, psi and the coordinate check by atom-pair blocks, against the whole routes.

Each A e_a is an ideal, so each orbit tensor is the direct sum of its
atom-pair blocks F_a (x)_R F_b (`TensorPresentation.blocks`, reduced once
per distinct key by `Atom.tensor_block`), psi splits the same way and is
checked once per distinct block and join twists (`galois._psi_block`), and
`verify_coordinates` multiplies a pair only on the atoms where both of its
factors live.  Each is held to the route over the whole ring frozen in
`oracles`: the tensor's lattice, free pairs and order to the every-block
build (`WholeTensorPresentation`, by test_tensor_builder.py's check),
psi's orders, verdict and cokernel witness to `psi_check_whole`, and the
coordinate verdict, on the trace-dual pairs and on pairs planted wrong, to
the element route (`verify_coordinates_by_elements`).  The cases are two
seeded corpora, the shipped instances, the galois ladder's rungs and
fixtures whose orbits hold more than one distinct block.
"""

import random
from pathlib import Path

import pytest

from fixtures import admissible, c2_swap
from oracles import psi_check_whole, verify_coordinates_by_elements
from semigalois import galois as gl
from semigalois.actions import induce_partial_group_action, validate_action
from semigalois.corpus import c2_table, corpus, f9_cubed_fixture
from semigalois.instance import parse_instance
from semigalois.rings import Atom, FiniteRing, StructuredIso
from test_bench_library_calls import workloads
from test_tensor_builder import _assert_unskipped

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def twisted_c2_on_gf4_squared():
    """C2 swapping GF(4)^2 with the Frobenius twist on both atoms: A^beta is
    {(u, u^2)}, so the diagonal blocks and the off-diagonal ones differ."""
    A = FiniteRing([Atom.gf(2, 2)] * 2)
    return validate_action(c2_table(), A, [StructuredIso.identity_on(A, range(2)),
                                           StructuredIso(A, {0: 1, 1: 0}, {0: 1, 1: 1})])


def _planted(A, coords, rng):
    """The trace-dual pairs and four wrong variants: one y moved by its x, a
    pair dropped, a pair across two atoms added, and a random pair added."""
    (x, y), *rest = coords
    random_vec = [tuple(rng.randrange(m) for m in A.coord_moduli) for _ in range(2)]
    units = A.basis_vectors()
    return [coords, [(x, A.add_vec(y, x))] + rest, rest,
            coords + [(units[0], units[-1])], coords + [tuple(random_vec)]]


def check_blocks_against_whole(beta, rng):
    """Holds one action's block routes to the whole routes; returns the number
    of distinct tensor blocks its orbit tensors share out."""
    _assert_unskipped(beta)  # moduli, lattice, free pairs and order
    distinct = {id(pair) for _, tensor in gl._full_tensor(beta) for line in tensor.blocks
                for pair in line}
    actions = [beta]
    if admissible(beta):
        psi = gl.psi_check(beta)
        tensor_order, pa_order, image_order, kernel_witness, cokernel_witness = psi_check_whole(beta)
        assert (psi.image_order, psi.pa_order) == (image_order, pa_order)
        assert image_order == tensor_order and kernel_witness is None
        assert psi.bijective == (image_order == pa_order)
        assert psi.cokernel_witness == cokernel_witness
        actions.append(induce_partial_group_action(beta))
    coords = list(gl._trace_dual_pairs(beta.A))
    for action in actions:
        for candidate in _planted(beta.A, coords, rng):
            assert gl.verify_coordinates(action, candidate) == \
                verify_coordinates_by_elements(action, candidate)
    return len(distinct)


@pytest.mark.parametrize("seed,count", [(2408, 300), (3, 200)])
def test_blocks_match_the_whole_routes_on_the_corpus(seed, count):
    rng = random.Random(seed)
    betas = corpus(seed, count)
    assert sum(map(admissible, betas)) > count // 2
    for beta in betas:
        check_blocks_against_whole(beta, rng)


@pytest.mark.parametrize("path", sorted(INSTANCES.glob("*.sgi")), ids=lambda p: p.stem)
def test_blocks_match_the_whole_routes_on_the_shipped_instances(path):
    check_blocks_against_whole(parse_instance(path), random.Random(path.stem))


def test_blocks_match_the_whole_routes_on_the_ladder_rungs():
    rng = random.Random(16)
    for rung in workloads.ladder_rungs():
        check_blocks_against_whole(rung.beta, rng)


@pytest.mark.parametrize("make", [f9_cubed_fixture, twisted_c2_on_gf4_squared,
                                  lambda: c2_swap([Atom.gf(2, 3), Atom.gf(2, 2)])],
                         ids=["s7_f9cubed", "twisted_c2_gf4^2", "c2_gf8^2xgf4^2"])
def test_blocks_match_the_whole_routes_where_an_action_has_several_blocks(make):
    assert check_blocks_against_whole(make(), random.Random(5)) > 1


def test_a_wrong_pair_fails_the_atom_by_atom_check():
    """The planted variants fail on a Galois action, where the trace-dual
    pairs pass: the check still reads every coordinate of every equation."""
    beta = f9_cubed_fixture()
    coords = list(gl._trace_dual_pairs(beta.A))
    verdicts = [gl.verify_coordinates(beta, c) for c in _planted(beta.A, coords, random.Random(1))]
    assert verdicts == [True, False, False, False, False]
