import math
import random

import numpy as np
import pytest

from semigalois import linalg
from oracles import (block_diag, dense, hstack, kernel_and_solve_by_echelon, matmul,
                     quotient_order_by_enumeration, scatter_lattice, sparse,
                     subgroup_elements_by_closure, vector_order, vstack)


def _subgroup_order(pres, gens):
    """|(span(gens) + L) / L| = [Z^n : L] / [Z^n : span(gens) + L]."""
    return pres.order() // linalg.lattice_det(pres.subgroup_canon(gens))


def test_lattice_canon_is_triangular_and_canonical():
    basis = linalg.lattice_canon(sparse([[2, 1], [0, 3]]), moduli=[4, 6])
    assert basis.shape == (2, 2)
    b = dense(basis)
    assert b[0, 1] == 0
    assert b[0, 0] > 0 and b[1, 1] > 0
    # same lattice from redundant shuffled generators gives the identical basis
    again = linalg.lattice_canon(sparse([[1, 3, 2], [3, 3, 0]]), moduli=[4, 6])
    assert basis == again


def test_doubling_kernel_on_z4():
    # kernel of x -> 2x on Z/4 is {0, 2}
    pres = linalg.AbelianPresentation([4])
    gens = linalg.kernel_gens(sparse([[2]]), pres.lattice, pres.moduli, pres.moduli)
    canon = pres.subgroup_canon(gens)
    assert _subgroup_order(pres, gens) == 2
    assert linalg.lattice_member(canon, [2])
    assert not linalg.lattice_member(canon, [1])


def test_solve_two_x_equals_one_mod_four_has_no_solution():
    pres = linalg.AbelianPresentation([4])
    assert linalg.solve_cols(sparse([[2]]), pres.lattice, [1], pres.moduli, pres.moduli) is None
    assert linalg.solve_cols(sparse([[2]]), pres.lattice, [2], pres.moduli, pres.moduli) in {(1,), (3,)}


def test_identity_map_kernel_trivial():
    pres = linalg.AbelianPresentation([3, 9, 2])
    gens = linalg.kernel_gens(sparse(np.eye(3, dtype=int)), pres.lattice, pres.moduli,
                               pres.moduli)
    assert _subgroup_order(pres, gens) == 1


@pytest.mark.parametrize("seed", range(8))
def test_solve_and_kernel_round_trip_random_maps(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    src = [rng.choice([2, 3, 4, 5, 9]) for _ in range(n)]
    dst = [rng.choice([2, 3, 4, 9]) for _ in range(m)]
    src_p = linalg.AbelianPresentation(src)
    dst_p = linalg.AbelianPresentation(dst)
    # a well-defined map must kill d_i * e_i; arrange that by scaling columns
    mat = np.zeros((m, n), dtype=object)
    for j in range(n):
        for i in range(m):
            step = dst[i] // __import__("math").gcd(dst[i], src[j])
            mat[i, j] = step * rng.randint(0, 3)
    for j, d in enumerate(src):
        assert linalg.lattice_member(dst_p.lattice, [d * int(mat[i, j]) for i in range(m)])

    for g in linalg.kernel_gens(sparse(mat), dst_p.lattice, src_p.moduli, dst_p.moduli):
        img = [sum(int(mat[i, j]) * g[j] for j in range(n)) for i in range(m)]
        assert linalg.lattice_member(dst_p.lattice, img)

    for _ in range(5):
        x = tuple(rng.randrange(d) for d in src)
        rhs = [sum(int(mat[i, j]) * x[j] for j in range(n)) for i in range(m)]
        sol = linalg.solve_cols(sparse(mat), dst_p.lattice, rhs, src_p.moduli, dst_p.moduli)
        assert sol is not None
        img = [sum(int(mat[i, j]) * sol[j] for j in range(n)) for i in range(m)]
        assert all(linalg.lattice_member(dst_p.lattice, [a - b for a, b in zip(img, rhs)]) for _ in [0])


@pytest.mark.parametrize("seed", range(10))
def test_presentation_order_matches_enumeration_oracle(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(1, 4)
    moduli = [rng.choice([2, 3, 4, 5]) for _ in range(n)]
    cols = []
    for _ in range(rng.randint(0, 4)):
        cols.append([rng.randrange(-3, 4) for _ in range(n)])
    pres = linalg.AbelianPresentation(moduli, relations=cols)
    expected = quotient_order_by_enumeration(moduli, cols)
    assert pres.order() == expected


@pytest.mark.parametrize("seed", range(10))
def test_subgroup_order_matches_closure_oracle(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(1, 4)
    moduli = [rng.choice([2, 3, 4, 9]) for _ in range(n)]
    pres = linalg.AbelianPresentation(moduli)
    gens = [[rng.randrange(d) for d in moduli] for _ in range(rng.randint(1, 3))]
    expected = len(subgroup_elements_by_closure(moduli, gens))
    got = _subgroup_order(pres, [tuple(g) for g in gens])
    assert got == expected
    canon = pres.subgroup_canon([tuple(g) for g in gens])
    for el in subgroup_elements_by_closure(moduli, gens):
        assert linalg.lattice_member(canon, el)


def test_bigint_fallback_gives_same_lattice():
    big = 10**30
    basis = linalg.lattice_canon(sparse([[big, 1], [1, 0]]), moduli=[big * 7, big * 11])
    # the columns (10^30, 1) and (1, 0) alone already span Z^2
    assert linalg.lattice_det(basis) == 1
    assert dense(basis).tolist() == [[1, 0], [0, 1]]


def test_snf_invariants_display():
    pres = linalg.AbelianPresentation([4, 2], relations=sparse([[2], [0]]))
    assert linalg.snf_invariants(pres.lattice) == (2, 2)
    assert pres.order() == 4


BIG = 10**30


def test_solve_with_bigint_moduli():
    # x -> 3x from Z/(2 * 10^30) to Z/(2 * 10^30): image 3Z, kernel trivial
    src = linalg.AbelianPresentation([2 * BIG])
    assert linalg.solve_cols(sparse([[3]]), src.lattice, [6 * BIG - 3], src.moduli,
                             src.moduli) == (2 * BIG - 1,)
    assert _subgroup_order(src, linalg.kernel_gens(sparse([[3]]), src.lattice, src.moduli,
                                                   src.moduli)) == 1
    # x -> 2x has kernel {0, 10^30}
    assert linalg.kernel_gens(sparse([[2]]), src.lattice, src.moduli, src.moduli) == [(BIG,)]
    # input beyond int64 stays exact: gcd(2^63 + 1, 2^64) = 1
    assert dense(linalg.lattice_canon(sparse([[2**63 + 1]]), moduli=[2**64])).tolist() == [[1]]


def _random_lattice(rng):
    n = rng.randint(1, 5)
    moduli = [rng.choice([1, 2, 3, 4, 8, 9, 12, BIG]) for _ in range(n)]
    k = rng.randint(0, 5)
    mat = np.array([[rng.randint(-20, 20) for _ in range(k)] for _ in range(n)],
                   dtype=object).reshape(n, k)
    return mat, moduli


@pytest.mark.parametrize("seed", range(8))
def test_lattice_canon_spans_the_sympy_hermite_lattice(seed):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    mat, moduli = _random_lattice(random.Random(600 + seed))
    n = len(moduli)
    basis = sympy.Matrix(dense(linalg.lattice_canon(sparse(mat), moduli)).tolist())
    stacked = sympy.Matrix.hstack(sympy.Matrix(n, mat.shape[1], mat.ravel().tolist()),
                                  sympy.diag(*moduli))
    hnf = hermite_normal_form(stacked)
    assert hnf.shape == (n, n)
    assert abs(hnf.det()) == basis.det()
    # each basis's columns are integer combinations of the other's
    assert all(x.is_integer for x in basis.inv() * hnf)
    assert all(x.is_integer for x in hnf.inv() * basis)


@pytest.mark.parametrize("seed", range(8))
def test_snf_invariants_match_sympy_invariant_factors(seed):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    mat, moduli = _random_lattice(random.Random(700 + seed))
    n = len(moduli)
    pres = linalg.AbelianPresentation(moduli, relations=sparse(mat))
    stacked = sympy.Matrix.hstack(sympy.Matrix(n, mat.shape[1], mat.ravel().tolist()),
                                  sympy.diag(*moduli))
    expected = sorted(abs(int(d)) for d in invariant_factors(stacked, domain=sympy.ZZ))
    assert linalg.snf_invariants(pres.lattice) == tuple(d for d in expected if d != 1)
    assert pres.order() == math.prod(expected)


@pytest.mark.parametrize("rows,passes", [
    ([[2, 1], [0, 2]], 1),
    ([[6, 4], [4, 6]], 1),
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], 1),
    ([[3, 0, 0], [8, 12, 0], [2, 0, 3]], 4),
    ([[12, 18], [8, 12], [0, 5]], None),
], ids=["z4", "sym", "3x3", "four-passes", "three-passes"])
def test_snf_invariants_over_several_echelon_passes(rows, passes, monkeypatch):
    """The canonical basis of each square input's lattice goes through
    `passes` runs of `lattice_canon` on its transpose before it is diagonal,
    and its invariants are sympy's.  The rank-deficient input has an infinite
    cokernel and no canonical basis: it raises."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    if passes is None:
        with pytest.raises(ValueError):
            linalg.snf_invariants(sparse(rows))
        return
    det = abs(int(sympy.Matrix(rows).det()))
    basis = linalg.lattice_canon(sparse(rows), [det] * len(rows))
    seen = []
    canon = linalg.lattice_canon
    monkeypatch.setattr(linalg, "lattice_canon", lambda *a: seen.append(1) or canon(*a))
    got = linalg.snf_invariants(basis)
    assert len(seen) == passes
    expected = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
    assert got == tuple(sorted(abs(int(d)) for d in expected if abs(int(d)) > 1))


def test_cols_from_vectors_exact_values_and_shapes():
    vectors = [(1, 0, -2), (0, BIG, 3), (np.int64(4), 5, 0)]
    mat = linalg.cols_from_vectors(vectors, 3)
    assert mat.shape == (3, 3)
    assert dense(mat).tolist() == [[1, 0, 4], [0, BIG, 5], [-2, 3, 0]]
    assert all(type(x) is int and x for c in mat.cols for x in c.values())
    assert linalg.cols_from_vectors([], 4).shape == (4, 0)
    with pytest.raises(ValueError):
        linalg.cols_from_vectors([(1, 2), (3,)], 2)


@pytest.mark.parametrize("seed", range(4))
def test_matrix_builders_match_numpy(seed):
    """Stacks, block diagonals, products and matrix-vector products against numpy."""
    rng = random.Random(800 + seed)

    def rand(rows, cols):
        return np.array([[rng.choice([0, 0, 1, -2, 3, BIG]) for _ in range(cols)]
                         for _ in range(rows)], dtype=object).reshape(rows, cols)

    r, k, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
    a, b, d = rand(r, k), rand(k, c), rand(rng.randint(1, 4), k)
    assert dense(matmul(sparse(a), sparse(b))).tolist() == a.dot(b).reshape(r, c).tolist()
    x = [rng.randint(-5, 5) for _ in range(k)]
    assert sparse(a).apply(x) == tuple(a.dot(np.array(x, dtype=object)).reshape(r).tolist())
    assert dense(vstack([sparse(a), sparse(d)])).tolist() == \
        np.concatenate([a, d], axis=0).tolist()
    blocks = [rand(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)]
    want = np.zeros((sum(m.shape[0] for m in blocks), sum(m.shape[1] for m in blocks)),
                    dtype=object)
    i = j = 0
    for m in blocks:
        want[i:i + m.shape[0], j:j + m.shape[1]] = m
        i, j = i + m.shape[0], j + m.shape[1]
    got = block_diag([sparse(m) for m in blocks])
    assert got.shape == want.shape and dense(got).tolist() == want.tolist()
    assert all(v for col in got.cols for v in col.values())
    with pytest.raises(ValueError):
        vstack([sparse(a), sparse(rand(1, k + 1))])


@pytest.mark.parametrize("seed", range(4))
def test_echelon_matches_sorted_scan_oracle(seed):
    """Kernels and solves on the insertion's graph lattice against the frozen
    tracked elimination: on `_random_lattice` targets, BIG moduli included,
    the kernels span one subgroup and the solves agree on solvability; each
    answer solves, and permuting the target's rows, with its canonical basis
    rebuilt, returns the same kernel and the same answer."""
    rng = random.Random(900 + seed)
    solved = unsolved = 0
    for _ in range(100):
        rels, moduli = _random_lattice(rng)
        m, k = len(moduli), rels.shape[1]
        dst = linalg.AbelianPresentation(moduli, relations=sparse(rels))
        cols = [[rng.choice([0, 0, 2, 3, -6, 4, 2 * BIG]) for _ in range(m)]
                for _ in range(rng.randint(1, 4))]
        in_moduli = [vector_order(dst.moduli, c) * rng.choice([1, 2, 3]) for c in cols]
        mat = linalg.cols_from_vectors(cols, m)
        if rng.random() < 0.5:
            b = list(mat.apply([rng.randrange(d) for d in in_moduli]))
        else:
            b = [rng.choice([0, 1]) for _ in range(m)]
        aug = hstack([dst.relations, linalg.diag_cols(moduli)])
        want_kernel, want_x = kernel_and_solve_by_echelon(mat, aug, in_moduli, b)
        kernel = linalg.kernel_gens(mat, dst.lattice, in_moduli, dst.moduli)
        x = linalg.solve_cols(mat, dst.lattice, b, in_moduli, dst.moduli)
        src = linalg.AbelianPresentation(in_moduli)
        assert src.subgroup_canon(kernel) == src.subgroup_canon(want_kernel)
        assert (x is None) == (want_x is None)
        if x is not None:
            assert linalg.lattice_member(dst.lattice, [a - t for a, t in zip(mat.apply(x), b)])
        solved += x is not None
        unsolved += x is None
        perm = rng.sample(range(m), m)
        moved = linalg.AbelianPresentation(
            [moduli[i] for i in perm], [[int(rels[i, j]) for i in perm] for j in range(k)])
        moved_mat = linalg.cols_from_vectors([[c[i] for i in perm] for c in cols], m)
        assert linalg.kernel_gens(moved_mat, moved.lattice, in_moduli, moved.moduli) == kernel
        assert linalg.solve_cols(moved_mat, moved.lattice, [b[i] for i in perm], in_moduli,
                                 moved.moduli) == x
    assert solved > 10 and unsolved > 5


def _random_presentation(rng, n):
    moduli = [rng.choice([1, 2, 3, 4, 8, 9]) for _ in range(n)]
    rels = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    return linalg.AbelianPresentation(moduli, rels)


@pytest.mark.parametrize("seed", range(12))
def test_scattered_blocks_are_the_canonical_basis_of_the_direct_sum(seed):
    """Canonical block lattices put in place on interleaved coordinates, with
    every other coordinate zero, equal the canonical basis of the whole."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    coords = list(range(n))
    rng.shuffle(coords)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    pieces = [sorted(coords[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    parts = [(idx, _random_presentation(rng, len(idx))) for idx in pieces[:-1] or pieces]
    lattice = scatter_lattice(n, [(idx, pres.lattice) for idx, pres in parts])
    moduli, rels = [1] * n, []
    for idx, pres in parts:
        for i, d in zip(idx, pres.moduli):
            moduli[i] = d
        for col in pres.relations.cols:
            rels.append([col.get(idx.index(i), 0) if i in idx else 0 for i in range(n)])
    reference = linalg.AbelianPresentation(moduli, rels)
    assert lattice == reference.lattice
    assert lattice == linalg.lattice_canon(reference.relations, reference.moduli)
    assert linalg.lattice_det(lattice) == math.prod(pres.order() for _, pres in parts)


@pytest.mark.parametrize("seed", range(12))
def test_quotients_are_the_coordinates_on_the_canonical_basis(seed):
    """The membership walk down the triangular basis H meets H c with the
    quotient c_j at each pivot, so it accepts H c; H c + r e_j with
    0 < r < H_jj leaves the remainder r at pivot j, so it is refused.  Any
    vector is accepted exactly when its coset representative is zero."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    lattice = _random_presentation(rng, n).lattice
    for _ in range(40):
        c = [rng.randint(-5, 5) for _ in range(n)]
        member = lattice.apply(c)
        assert linalg.lattice_member(lattice, member)
        j = rng.randrange(n)
        if lattice.cols[j][j] > 1:
            r = rng.randrange(1, lattice.cols[j][j])
            assert not linalg.lattice_member(lattice, [x + r * (i == j) for i, x in enumerate(member)])
        u = [rng.randint(-9, 9) for _ in range(n)]
        zero = all(x == 0 for x in linalg.lattice_reduce(lattice, u))
        assert linalg.lattice_member(lattice, u) == zero


@pytest.mark.parametrize("seed", range(12))
def test_membership_and_equality_match_the_canonical_representatives(seed):
    """lattice_member against the coset representative of a vector, and the
    representative of a vector shifted by a lattice column against its own."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    pres = _random_presentation(rng, n)
    for _ in range(40):
        u = [rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(n)]
        zero = all(x == 0 for x in linalg.lattice_reduce(pres.lattice, u))
        assert linalg.lattice_member(pres.lattice, u) == zero
        shifted = [a + b for a, b in zip(u, pres.lattice.column(rng.randrange(n)))]
        assert linalg.lattice_reduce(pres.lattice, shifted) == linalg.lattice_reduce(pres.lattice, u)
