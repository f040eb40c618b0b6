import math
import random

import numpy as np
import pytest

from semigalois import budget, linalg
from oracles import (dense, dense_run_echelon, quotient_order_by_enumeration, sparse,
                     sparse_echelon_by_sorted_scans, subgroup_elements_by_closure)


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
    gens = linalg.kernel_gens(sparse([[2]]), pres.lattice, pres.moduli)
    canon = pres.subgroup_canon(gens)
    assert pres.subgroup_order(gens) == 2
    assert linalg.lattice_member(canon, [2])
    assert not linalg.lattice_member(canon, [1])


def test_solve_two_x_equals_one_mod_four_has_no_solution():
    pres = linalg.AbelianPresentation([4])
    assert linalg.solve_cols(sparse([[2]]), pres.lattice, [1], pres.moduli) is None
    assert linalg.solve_cols(sparse([[2]]), pres.lattice, [2], pres.moduli) in {(1,), (3,)}


def test_identity_map_kernel_trivial():
    pres = linalg.AbelianPresentation([3, 9, 2])
    gens = linalg.kernel_gens(sparse(np.eye(3, dtype=int)), pres.lattice, pres.moduli)
    assert pres.subgroup_order(gens) == 1


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
        assert dst_p.is_zero([d * int(mat[i, j]) for i in range(m)])

    for g in linalg.kernel_gens(sparse(mat), dst_p.lattice, src_p.moduli):
        img = [sum(int(mat[i, j]) * g[j] for j in range(n)) for i in range(m)]
        assert dst_p.is_zero(img)

    for _ in range(5):
        x = tuple(rng.randrange(d) for d in src)
        rhs = [sum(int(mat[i, j]) * x[j] for j in range(n)) for i in range(m)]
        sol = linalg.solve_cols(sparse(mat), dst_p.lattice, rhs, src_p.moduli)
        assert sol is not None
        img = [sum(int(mat[i, j]) * sol[j] for j in range(n)) for i in range(m)]
        assert all(dst_p.is_zero([a - b for a, b in zip(img, rhs)]) for _ in [0])


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
    got = pres.subgroup_order([tuple(g) for g in gens])
    assert got == expected
    canon = pres.subgroup_canon([tuple(g) for g in gens])
    for el in subgroup_elements_by_closure(moduli, gens):
        assert linalg.lattice_member(canon, el)


def test_bigint_fallback_gives_same_lattice():
    big = 10**30
    basis = linalg.lattice_canon(sparse([[big, 1], [1, 0]]), moduli=[big * 7, big * 11])
    # the columns (10^30, 1) and (1, 0) alone already span Z^2
    assert linalg.lattice_det(basis) == 1
    assert basis.tolist() == [[1, 0], [0, 1]]


def test_snf_invariants_display():
    pres = linalg.AbelianPresentation([4, 2], relations=sparse([[2], [0]]))
    assert pres.invariants() == (2, 2)
    assert pres.order() == 4


BIG = 10**30


def _random_system(rng):
    """A small integer matrix with the shapes the engine meets, plus track moduli.

    Zero columns, zero and repeated rows (rows without a pivot), negative
    entries, entries near 10^30, appended diagonal modulus columns, and
    track moduli that include 1 and 2^40 all occur.  (The dense engine cannot
    take a track modulus beyond int64; `test_solve_with_bigint_moduli` covers
    those.)
    """
    rows = rng.randint(1, 6)
    ncols = rng.randint(0, 7)
    values = [1, -1, 2, -2, 3, -4, 6, 9, -12, rng.randint(-50, 50)]
    if rng.random() < 0.3:
        values += [BIG + rng.randint(-3, 3), -BIG + rng.randint(-3, 3)]
    density = rng.choice([0.2, 0.5, 0.9])
    mat = [[rng.choice(values) if rng.random() < density else 0 for _ in range(ncols)]
           for _ in range(rows)]
    for row in mat:
        if ncols and rng.random() < 0.2:
            row[rng.randrange(ncols)] = 0
    if rows > 1 and rng.random() < 0.3:
        mat[rng.randrange(rows)] = list(mat[rng.randrange(rows)])
    if rng.random() < 0.2:
        mat[rng.randrange(rows)] = [0] * ncols
    n_track = rng.randint(0, ncols) if rng.random() < 0.7 else None
    if rng.random() < 0.5:
        for i in range(rows):
            mat[i] += [rng.choice([1, 2, 4, 9, BIG]) if k == i else 0 for k in range(rows)]
    moduli = None
    if n_track is not None:
        moduli = [rng.choice([1, 1, 2, 3, 4, 8, 9, 1 << 40]) for _ in range(n_track)]
    return np.array(mat, dtype=object).reshape(rows, -1), n_track, moduli


@pytest.mark.parametrize("seed", range(4))
def test_sparse_echelon_matches_dense_oracle(seed):
    rng = random.Random(500 + seed)
    for _ in range(150):
        mat, n_track, moduli = _random_system(rng)
        work, track, pivots = dense_run_echelon(mat, n_track, moduli)
        rows, cols = mat.shape[0], sparse(mat).cols
        sparse_track, sparse_pivots = linalg._echelon(cols, rows, moduli)
        assert sparse_pivots == [(int(r), int(c)) for r, c in pivots]
        assert [[c.get(i, 0) for c in cols] for i in range(rows)] == \
            work.reshape(mat.shape).tolist()
        assert all(v for c in cols for v in c.values())
        if moduli is None:
            assert sparse_track is None
        else:
            reduced = [[c.get(i, 0) % d for c in sparse_track] for i, d in enumerate(moduli)]
            assert reduced == track.tolist()


def test_sparse_echelon_bigint_entries_match_dense_oracle():
    mat = np.array([[BIG, -BIG - 1, 0, 3], [0, 7, -BIG, 0], [0, 0, 0, 0], [5, 0, 2 * BIG, 1]],
                   dtype=object)
    moduli = [1, 1 << 40, 6]
    work, track, pivots = dense_run_echelon(mat, 3, moduli)
    rows, cols = mat.shape[0], sparse(mat).cols
    sparse_track, sparse_pivots = linalg._echelon(cols, rows, moduli)
    assert sparse_pivots == pivots
    assert [[c.get(i, 0) for c in cols] for i in range(rows)] == work.tolist()
    assert [[c.get(i, 0) % d for c in sparse_track] for i, d in enumerate(moduli)] == track.tolist()


def test_solve_with_bigint_moduli():
    # x -> 3x from Z/(2 * 10^30) to Z/(2 * 10^30): image 3Z, kernel trivial
    src = linalg.AbelianPresentation([2 * BIG])
    assert linalg.solve_cols(sparse([[3]]), src.lattice, [6 * BIG - 3], src.moduli) == (2 * BIG - 1,)
    assert src.subgroup_order(linalg.kernel_gens(sparse([[3]]), src.lattice, src.moduli)) == 1
    # x -> 2x has kernel {0, 10^30}
    assert linalg.kernel_gens(sparse([[2]]), src.lattice, src.moduli) == [(BIG,)]
    # input beyond int64 stays exact: gcd(2^63 + 1, 2^64) = 1
    assert linalg.lattice_canon(sparse([[2**63 + 1]]), moduli=[2**64]).tolist() == [[1]]


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
    basis = sympy.Matrix(linalg.lattice_canon(sparse(mat), moduli).tolist())
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
    assert pres.invariants() == tuple(d for d in expected if d != 1)
    assert pres.order() == math.prod(expected)


@pytest.mark.parametrize("rows", [
    [[2, 1], [0, 2]],
    [[6, 4], [4, 6]],
    [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
    [[12, 18], [8, 12], [0, 5]],
], ids=["z4", "sym", "3x3", "three-passes"])
def test_snf_invariants_over_several_echelon_passes(rows, monkeypatch):
    """Inputs on which one column echelon leaves off-diagonal entries."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    passes = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda *a: passes.append(1) or echelon(*a))
    got = linalg.snf_invariants(sparse(rows))
    assert len(passes) > 1
    expected = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
    assert got == tuple(sorted(abs(int(d)) for d in expected if abs(int(d)) > 1))


def test_cols_from_vectors_exact_values_and_shapes():
    vectors = [(1, 0, -2), (0, BIG, 3), (np.int64(4), 5, 0)]
    mat = linalg.cols_from_vectors(vectors, 3)
    assert mat.shape == (3, 3)
    assert mat.tolist() == [[1, 0, 4], [0, BIG, 5], [-2, 3, 0]]
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
    assert dense(sparse(a) @ sparse(b)).tolist() == a.dot(b).reshape(r, c).tolist()
    x = [rng.randint(-5, 5) for _ in range(k)]
    assert sparse(a).apply(x) == tuple(a.dot(np.array(x, dtype=object)).reshape(r).tolist())
    assert dense(linalg.vstack([sparse(a), sparse(d)])).tolist() == \
        np.concatenate([a, d], axis=0).tolist()
    assert linalg.hstack([sparse(a), sparse(rand(r, 2))]).shape == (r, k + 2)
    with pytest.raises(ValueError):
        linalg.hstack([sparse(a), sparse(rand(r + 1, 2))])
    blocks = [rand(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)]
    want = np.zeros((sum(m.shape[0] for m in blocks), sum(m.shape[1] for m in blocks)),
                    dtype=object)
    i = j = 0
    for m in blocks:
        want[i:i + m.shape[0], j:j + m.shape[1]] = m
        i, j = i + m.shape[0], j + m.shape[1]
    got = linalg.block_diag([sparse(m) for m in blocks])
    assert got.shape == want.shape and dense(got).tolist() == want.tolist()
    assert all(v for col in got.cols for v in col.values())
    with pytest.raises(ValueError):
        linalg.vstack([sparse(a), sparse(rand(1, k + 1))])


def _random_sparse_columns(rng):
    """Sparse {row: value} columns with many nonzeros per row, so that a pivot
    row is reduced over several rounds and ties in |value| are common."""
    rows = rng.randint(1, 14)
    ncols = rng.randint(0, 18)
    values = [1, -1, 2, -2, 3, -3, 4, 6, -6, 12, rng.randint(-40, 40), BIG + rng.randint(-2, 2)]
    density = rng.choice([0.1, 0.25, 0.5])
    cols = [{r: v for r in range(rows) if rng.random() < density and (v := rng.choice(values))}
            for _ in range(ncols)]
    if ncols > 1 and rng.random() < 0.3:
        cols[rng.randrange(ncols)] = dict(cols[rng.randrange(ncols)])
    moduli = None
    if ncols and rng.random() < 0.5:
        moduli = [rng.choice([1, 2, 3, 4, 8, 9, 1 << 40]) for _ in range(rng.randint(1, ncols))]
    return rows, cols, moduli


@pytest.mark.parametrize("seed", range(4))
def test_echelon_matches_sorted_scan_oracle(seed):
    """Picking the pivot by (|value|, index) without sorting the row gives the
    frozen sorted-scan engine's columns, transform, pivots and charges."""
    rng = random.Random(900 + seed)
    tracked = 0
    for _ in range(200):
        rows, cols, moduli = _random_sparse_columns(rng)
        tracked += moduli is not None
        want_cols = [dict(c) for c in cols]
        want_track, want_pivots, charges = sparse_echelon_by_sorted_scans(want_cols, rows, moduli)
        with budget.limit(10 ** 12):
            track, pivots = linalg._echelon(cols, rows, moduli)
            assert budget.spent() == sum(charges)
        assert (cols, track, pivots) == (want_cols, want_track, want_pivots)
    assert 50 < tracked < 150


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
    whole = linalg.AbelianPresentation.direct_sum(n, parts)
    moduli, rels = [1] * n, []
    for idx, pres in parts:
        for i, d in zip(idx, pres.moduli):
            moduli[i] = d
        for col in pres.relations.cols:
            rels.append([col.get(idx.index(i), 0) if i in idx else 0 for i in range(n)])
    reference = linalg.AbelianPresentation(moduli, rels)
    assert whole.moduli == reference.moduli and whole.lattice == reference.lattice
    assert whole.lattice == linalg.lattice_canon(whole.relations, whole.moduli)
    assert whole.invariants() == reference.invariants()
    assert whole.order() == math.prod(pres.order() for _, pres in parts)


@pytest.mark.parametrize("seed", range(12))
def test_membership_and_equality_match_the_canonical_representatives(seed):
    """lattice_member on a sequence and on a {coordinate: value} dict, and eq
    by one reduction of the difference, against comparing coset representatives."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    pres = _random_presentation(rng, n)
    for _ in range(40):
        u = [rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(n)]
        v = [rng.randint(-9, 9) for _ in range(n)]
        zero = all(x == 0 for x in linalg.lattice_reduce(pres.lattice, u))
        assert linalg.lattice_member(pres.lattice, u) == zero
        assert linalg.lattice_member(pres.lattice, {i: x for i, x in enumerate(u) if x}) == zero
        assert pres.eq(u, v) == (pres.canon(u) == pres.canon(v))
        assert pres.eq(u, [a + b for a, b in zip(u, pres.lattice.column(rng.randrange(n)))])
