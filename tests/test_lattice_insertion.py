"""Canonical bases by insertion modulo the diagonal.

`linalg.lattice_canon` inserts each column into a lower-triangular basis
that contains diag(moduli), reducing every entry modulo its row's modulus.
It must give the basis of the echelon route it replaced
(`oracles.lattice_canon_by_echelon`), from diag(moduli) or from a given
canonical basis.  On rings, `Subalgebra.extended` must equal the
subalgebra of all the generators, the generators read off the sparse
columns must be the dense residues, and a tensor's relations, without the
implied columns, must present the same lattice.  The kernel's triangular self-check must raise under python -O.
"""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import chain_semilattice_fixture, trace_gap_fixture
from semigalois import linalg
from semigalois import rings as rg
from semigalois.actions import invariant_ring, is_injective
from semigalois.corpus import b2_swap_fixture, c2_swap_fixture, corpus, f9_cubed_fixture
from semigalois.instance import parse_instance
from semigalois.semigroups import is_e_unitary
from oracles import (gen_vectors_by_dense_residues, lattice_canon_by_echelon, mult_difference,
                     span_relations_by_kernel)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

MODULI = st.sampled_from([1, 2, 3, 4, 8, 9, 12, 27, 2 ** 64])
ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 4, 6, -12, 100, 2 ** 64, 1 - 2 ** 64,
                           2 ** 70 + 3])


@st.composite
def column_sets(draw):
    """(n, moduli, columns, cut): sparse columns with zero and repeated ones."""
    n = draw(st.integers(1, 8))
    moduli = draw(st.lists(MODULI, min_size=n, max_size=n))
    column = st.lists(ENTRIES, min_size=n, max_size=n).map(
        lambda xs: {i: x for i, x in enumerate(xs) if x})
    cols = draw(st.lists(column, max_size=8))
    if cols and draw(st.booleans()):
        cols.append(dict(draw(st.sampled_from(cols))))
    if draw(st.booleans()):
        cols.insert(draw(st.integers(0, len(cols))), {})
    return n, moduli, cols, draw(st.integers(0, len(cols)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(column_sets())
def test_insertion_gives_the_echelon_basis(case):
    """From diag(moduli), and from the canonical basis of the first `cut`
    columns with the rest inserted, the same basis as the echelon route;
    neither the columns nor the given basis change."""
    n, moduli, cols, cut = case
    want = lattice_canon_by_echelon(linalg.Matrix(n, cols), moduli)
    copies = [dict(c) for c in cols]
    assert linalg.lattice_canon(linalg.Matrix(n, cols), moduli) == want
    basis = lattice_canon_by_echelon(linalg.Matrix(n, cols[:cut]), moduli)
    frozen = [dict(c) for c in basis.cols]
    assert linalg.lattice_canon(linalg.Matrix(n, cols[cut:]), moduli, basis) == want
    assert basis.cols == frozen and cols == copies


def _admissible(beta):
    return beta.S.zero is None and is_e_unitary(beta.S) and is_injective(beta)


def _actions():
    shipped = [parse_instance(p).action for p in sorted(INSTANCES.glob("*.sgi"))]
    fixtures = [f9_cubed_fixture(), c2_swap_fixture(), chain_semilattice_fixture(),
                trace_gap_fixture(), b2_swap_fixture()]
    seeded = corpus(3, 25) + corpus(2408, 15, predicate=_admissible)
    return shipped + fixtures + seeded


ACTIONS = _actions()


def _spans(beta, rng):
    """A's subalgebras the library builds (the whole ring, the invariants, a
    closure) and a few random additive spans."""
    A = beta.A
    inv = invariant_ring(beta)
    out = [rg.Subalgebra.full(A), inv]
    draw = [tuple(rng.randrange(m) for m in A.coord_moduli) for _ in range(3)]
    out.append(inv.adjoin(draw[0]))
    out += [rg.Subalgebra(A, draw[:k]) for k in range(4)]
    return out


def test_extended_equals_the_subalgebra_of_all_generators():
    """sub.extended(new) inserts new into sub's basis; it must be the
    subgroup the generators and new span together, and every subgroup's
    generators read off the sparse columns are the dense residues."""
    rng = random.Random(17)
    for beta in ACTIONS:
        A = beta.A
        for sub in _spans(beta, rng):
            assert sub.gen_vectors == gen_vectors_by_dense_residues(sub)
            new = [tuple(rng.randrange(m) * rng.randrange(2) for m in A.coord_moduli)
                   for _ in range(rng.randint(1, 3))]
            grown = sub.extended(new)
            want = rg.Subalgebra(A, list(sub.gen_vectors) + new)
            assert grown == want and grown.order == want.order
            assert grown.gen_vectors == want.gen_vectors == gen_vectors_by_dense_residues(grown)


def test_tensor_drops_only_implied_relation_columns():
    """Without the declared-order side relations and the empty
    middle-linearity columns, the tensor presents the lattice that the
    frozen relation set presented, on fewer relation columns."""
    for beta in ACTIONS:
        A = beta.A
        full, inv = rg.Subalgebra.full(A), invariant_ring(beta)
        tensor = rg.TensorPresentation(A, inv)
        n = tensor.l
        old = []
        for c in span_relations_by_kernel(full):
            old += [{i * n + j: x for i, x in enumerate(c) if x} for j in range(n)]
            old += [{i * n + j: x for j, x in enumerate(c) if x} for i in range(n)]
        for r in inv.gen_vectors:
            old += mult_difference(tensor, r).cols
        assert all(tensor.pres.relations.cols)
        assert len(tensor.pres.relations.cols) < len(old)
        assert tensor.pres.lattice == lattice_canon_by_echelon(
            linalg.Matrix(n * n, old), tensor.pres.moduli)


_OPTIMIZED_PROBE = textwrap.dedent("""
    import sys
    from semigalois import linalg
    if __debug__:
        sys.exit(3)
    no_pivot = linalg.Matrix(2, [{1: 1}, {1: 2}])  # column 0 misses its pivot row
    try:
        linalg.lattice_canon(linalg.Matrix(2, [{1: 1}]), [2, 2], no_pivot)
    except AssertionError:
        sys.exit(0)
    sys.exit(1)
""")


def test_triangular_self_check_survives_optimize():
    """Under python -O a basis that is not triangular still raises."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_PROBE],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    with pytest.raises(AssertionError, match="triangular"):
        linalg.lattice_canon(linalg.Matrix(2, [{1: 1}]), [2, 2],
                             linalg.Matrix(2, [{1: 1}, {1: 2}]))
