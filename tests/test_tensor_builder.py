"""The tensor builder skips only blocks that are zero.

`TensorPresentation` adds, per generator r of R, the columns of
E (x) I_l - I_k (x) F, with E and F the matrices of multiplication by r on
M and on N.  When N is M (so F is E) and E is c times the identity, every
column (i, j) is (E_ii - E_jj) e_(i,j) = 0, so the block is not built.  Only
empty columns are skipped, so the relation matrix, and with it the lattice,
is that of the build with every block (`tensor_presentation_every_block`):
this is held on every orbit tensor of the galois ladder's rungs and of 30
seeded corpus draws, and on the ladder some blocks are skipped.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from oracles import tensor_presentation_every_block
from semigalois import galois
from semigalois.corpus import corpus

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _ladder_rungs():
    spec = importlib.util.spec_from_file_location("semigalois_bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.ladder_rungs()


def _scalar_blocks(tensor):
    """How many generators r of R give E is F with E = c * I."""
    count = 0
    for r in tensor.R.gen_vectors:
        E, F = tensor.left_factor(r), tensor.right_factor(r)
        c = E.cols[0].get(0)
        count += E is F and all(col == {i: c} for i, col in enumerate(E.cols))
    return count


def _assert_unskipped(beta):
    """Each orbit tensor's relations are the every-block build's; returns the
    number of skipped blocks and of generators of R."""
    skipped = gens = 0
    for _, tensor in galois._full_tensor(beta):
        ref = tensor_presentation_every_block(tensor.M, tensor.N, tensor.R)
        assert tensor.pres.moduli == ref.moduli
        assert tensor.pres.relations == ref.relations
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
