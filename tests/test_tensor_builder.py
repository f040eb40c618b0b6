"""The tensor builder: A (x)_R A on unit-vector pairs, skipping only blocks that are zero.

`TensorPresentation(ring, R)` presents A (x)_R A on the pairs e_i (x) e_j
of the ring's unit vectors and adds, per generator r of R, the columns of
E (x) I - I (x) E, with E the matrix of multiplication by r on the unit
vectors.  When E is c times the identity, every column (i, j) is
(E_ii - E_jj) e_(i,j) = 0, so the block is not built.  The tensor is held to
the frozen whole tensor of the full ring over R, which builds every block
(`oracles.WholeTensorPresentation`, reading the oracles' expansions and
relations): the same moduli, canonical lattice, free pairs and order, on
every orbit tensor of the galois ladder's rungs and of 30 seeded corpus
draws, and on the ladder some blocks are skipped.  On the same tensors the
multiplication matrices, read from the atoms' powers, equal the whole
tensor's, built from `mul_vec` products.  The constructor refuses an R
that is not a unital subalgebra of the ring, also under python -O.
"""

import importlib.util
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from oracles import WholeTensorPresentation, free_pairs, mult_map_vec, mult_matrix
from semigalois import galois
from semigalois.corpus import corpus
from semigalois.rings import Atom, AtomMismatch, FiniteRing, NotSubring, Subalgebra, TensorPresentation

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _ladder_rungs():
    spec = importlib.util.spec_from_file_location("semigalois_bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.ladder_rungs()


def _scalar_blocks(tensor):
    """How many generators r of R give E = c * I."""
    count = 0
    for r in tensor.R.gen_vectors:
        E = mult_matrix(tensor, r)
        c = E.cols[0].get(0)
        count += all(col == {i: c} for i, col in enumerate(E.cols))
    return count


def _whole(tensor):
    """The frozen every-block tensor of the full ring over the tensor's R."""
    return WholeTensorPresentation(Subalgebra.full(tensor.ring), tensor.R)


def _assert_unskipped(beta):
    """Each orbit tensor presents the every-block build of the full ring;
    returns the number of skipped blocks and of generators of R."""
    skipped = gens = 0
    for block, tensor in galois._full_tensor(beta):
        assert tensor.ring is block.ring
        ref = _whole(tensor).pres
        assert tensor.pres.moduli == ref.moduli
        assert tensor.pres.lattice == ref.lattice
        assert free_pairs(tensor) == tuple(p for p, c in enumerate(ref.lattice.cols) if c[p] != 1)
        assert tensor.order() == ref.order()
        skipped += _scalar_blocks(tensor)
        gens += len(tensor.R.gen_vectors)
    return skipped, gens


def test_ladder_tensors_match_the_every_block_build():
    skipped = gens = 0
    for rung in _ladder_rungs():
        s, g = _assert_unskipped(rung.beta)
        skipped, gens = skipped + s, gens + g
    assert 0 < skipped < gens


@pytest.mark.parametrize("seed", [2408, 3])
def test_corpus_tensors_match_the_every_block_build(seed):
    for beta in corpus(seed, 15):
        _assert_unskipped(beta)


def _assert_products_read(beta, rng):
    """Each orbit tensor's multiplication matrices, read from `mul_vec`
    products with unit vectors, equal the whole tensor's, expanded by the
    solve oracle on its generators: `mult_matrix(b)` for each generator of
    R, each unit vector and seeded vectors b, and the multiplication map
    (`oracles.mult_map_vec`), whose column (i, j) is e_i * e_j."""
    for _, tensor in galois._full_tensor(beta):
        ring, whole = tensor.ring, _whole(tensor)
        units = ring.basis_vectors()
        assert mult_map_vec(tensor) == whole.mult_map_vec()
        drawn = [tuple(rng.randrange(m) for m in ring.coord_moduli) for _ in range(3)]
        for b in [*tensor.R.gen_vectors, *units, *drawn]:
            assert mult_matrix(tensor, b) == whole.mult_matrix(b)


def test_ladder_multiplication_matrices_match_the_products():
    rng = random.Random(36)
    for rung in _ladder_rungs():
        _assert_products_read(rung.beta, rng)


def test_corpus_multiplication_matrices_match_the_products():
    rng = random.Random(2408)
    for beta in corpus(2408, 30):
        _assert_products_read(beta, rng)


def _refused():
    """The exception each refused R raises, or None where the constructor took it."""
    A = FiniteRing([Atom.zmod(2, 2), Atom.gf(2, 2)])
    half = Subalgebra(A, [A.idempotent_vec({0})])  # Z/4 e_0: closed, but without 1
    open_ = Subalgebra(A, [A.one_vec, (0, 0, 1)])  # holds 1 and x, not x^2 = x + 1
    other = FiniteRing([Atom.zmod(2, 2)])
    out = []
    for ring, R in ((A, half), (A, open_), (A, Subalgebra.full(other))):
        try:
            TensorPresentation(ring, R)
        except (NotSubring, AtomMismatch) as exc:
            out.append(type(exc).__name__)
        else:
            out.append(None)
    return out


def test_constructor_refuses_what_is_not_a_unital_subalgebra_of_the_ring():
    """An R without 1 and an R not closed under multiplication raise
    NotSubring; an R on a ring with other atoms raises AtomMismatch."""
    assert _refused() == ["NotSubring", "NotSubring", "AtomMismatch"]


_OPTIMIZED_PROBE = textwrap.dedent("""
    import sys
    from test_tensor_builder import _refused
    if __debug__:
        sys.exit(3)
    sys.exit(0 if _refused() == ["NotSubring", "NotSubring", "AtomMismatch"] else 1)
""")


def test_constructor_refusals_survive_optimize():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_PROBE],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
