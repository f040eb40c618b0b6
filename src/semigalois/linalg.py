"""Exact integer linear algebra over finite abelian groups.

Everything downstream (invariant subrings, trace images, tensor products,
separability idempotents) reduces to lattice computations in Z^n relative
to per-coordinate moduli: canonical Hermite bases, kernels of maps between
finite abelian groups, and affine solves.  All arithmetic is integer-exact;
there is no floating point anywhere, so every comparison is tolerance-zero.

The workhorse is a column-elimination pass on numpy int64 arrays.  Entry
growth is monitored; on the (rare) overflow the computation restarts with
Python-integer (object dtype) arrays, which are slower but unbounded.
"""

from __future__ import annotations

import math

import numpy as np

# With every entry and every quotient below 2^26, a single column operation
# stays below 2^53 and can never wrap int64.
_INT64_CAP = 1 << 26


class _NeedsBigints(Exception):
    """Internal signal: int64 entries grew past the safe bound."""


def _to_array(mat, rows=None, dtype=np.int64):
    a = np.array(mat, dtype=dtype)
    if a.size == 0:
        a = a.reshape((rows or 0, 0))
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return a


def _colop(work, track, j, j0, q, guard):
    """Column j -= q * column j0, with wraparound-proof bounds on int64."""
    if guard:
        if abs(q) > _INT64_CAP:
            raise _NeedsBigints
        work[:, j] -= q * work[:, j0]
        if np.abs(work[:, j]).max(initial=0) > _INT64_CAP:
            raise _NeedsBigints
        if track is not None:
            track[:, j] -= q * track[:, j0]
            if np.abs(track[:, j]).max(initial=0) > _INT64_CAP:
                raise _NeedsBigints
    else:
        work[:, j] -= q * work[:, j0]
        if track is not None:
            track[:, j] -= q * track[:, j0]


def _echelon(work, track, track_moduli, guard):
    """Column-eliminate `work` in place to a canonical staircase form.

    Column operations (swap, negate, add integer multiples) are mirrored on
    `track` when given; rows of `track` are reduced modulo `track_moduli`
    after every sweep, which is sound whenever the tracked combination only
    matters modulo those moduli.  Returns the pivot list [(row, col), ...].
    """
    rows, cols = work.shape
    if guard and work.size and np.abs(work).max(initial=0) > _INT64_CAP:
        raise _NeedsBigints
    pivots = []
    col = 0
    for row in range(rows):
        if col >= cols:
            break
        while True:
            nz = np.nonzero(work[row, col:])[0]
            if nz.size <= 1:
                break
            nz = nz + col
            j0 = nz[np.argmin(np.abs(work[row, nz]))]
            for j in nz:
                if j == j0:
                    continue
                q = int(work[row, j]) // int(work[row, j0])
                if q != 0:
                    _colop(work, track, j, j0, q, guard)
        nz = np.nonzero(work[row, col:])[0]
        if nz.size == 0:
            continue
        j0 = int(nz[0]) + col
        if j0 != col:
            work[:, [col, j0]] = work[:, [j0, col]]
            if track is not None:
                track[:, [col, j0]] = track[:, [j0, col]]
        if work[row, col] < 0:
            work[:, col] = -work[:, col]
            if track is not None:
                track[:, col] = -track[:, col]
        pivots.append((row, col))
        col += 1
        if track is not None and track_moduli is not None:
            np.remainder(track, track_moduli, out=track)
    # Normalize: reduce earlier pivot columns against each pivot so the
    # staircase is the canonical Hermite representative of the column lattice.
    for row, col in pivots:
        p = int(work[row, col])
        for _, jc in pivots:
            if jc >= col:
                break
            q = int(work[row, jc]) // p
            if q != 0:
                _colop(work, track, jc, col, q, guard)
    if track is not None and track_moduli is not None:
        np.remainder(track, track_moduli, out=track)
    return pivots


def _run_echelon(work_cols, n_track, track_moduli):
    """Echelon with a tracked transform on the first `n_track` original columns.

    Tries int64 first, falls back to Python integers on overflow.
    """
    for dtype, guard in ((np.int64, True), (object, False)):
        try:
            work = _to_array(work_cols, dtype=dtype)
        except OverflowError:
            continue
        cols = work.shape[1]
        track = None
        tm = None
        if n_track is not None:
            track = np.zeros((n_track, cols), dtype=dtype)
            for i in range(min(n_track, cols)):
                track[i, i] = 1
            if track_moduli is not None:
                tm = np.array(track_moduli, dtype=dtype).reshape(n_track, 1)
        try:
            pivots = _echelon(work, track, tm, guard)
            return work, track, pivots
        except _NeedsBigints:
            continue
    raise AssertionError("unreachable")


def _hstack(blocks, rows):
    cols = []
    for b in blocks:
        a = _to_array(b, rows=rows, dtype=object)
        if a.shape[0] != rows:
            raise ValueError("row mismatch in block stack")
        cols.append(a)
    if not cols:
        return np.zeros((rows, 0), dtype=object)
    return np.concatenate(cols, axis=1)


def diag_cols(moduli):
    """Columns d_i * e_i for the declared per-coordinate moduli."""
    n = len(moduli)
    m = np.zeros((n, n), dtype=object)
    for i, d in enumerate(moduli):
        m[i, i] = int(d)
    return m


def block_diag(blocks):
    """Block-diagonal object matrix with the given 2-D blocks in order."""
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=object)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def cols_from_vectors(vectors, n):
    """n x k column matrix from a sequence of k coordinate vectors."""
    m = np.zeros((n, len(vectors)), dtype=object)
    for j, v in enumerate(vectors):
        if len(v) != n:
            raise ValueError("vector length mismatch")
        for i, x in enumerate(v):
            m[i, j] = int(x)
    return m


def lattice_canon(cols, moduli=None):
    """Canonical (column-Hermite) basis of span(cols) + diag(moduli)*Z^n.

    The result is an n x n lower-triangular integer array with positive
    diagonal; it is a complete invariant of the lattice, so subgroup
    equality is array equality.  Requires the lattice to be full rank,
    which the moduli guarantee.
    """
    if moduli is not None:
        n = len(moduli)
        stacked = _hstack([cols, diag_cols(moduli)], rows=n)
    else:
        stacked = _to_array(cols, dtype=object)
        n = stacked.shape[0]
    work, _, pivots = _run_echelon(stacked, None, None)
    if len(pivots) != n:
        raise ValueError("lattice is not full rank")
    basis = work[:, :n]
    for i in range(n):
        if basis[i, i] <= 0 or any(basis[j, i] != 0 for j in range(i)):
            raise AssertionError("echelon did not produce a triangular basis")
    return np.array(basis, dtype=object)


def lattice_det(basis):
    """Index [Z^n : L] for a canonical basis, i.e. the diagonal product."""
    return math.prod(int(basis[i, i]) for i in range(basis.shape[0]))


def lattice_reduce(basis, vec):
    """Canonical coset representative of `vec` modulo the lattice."""
    w = [int(x) for x in vec]
    n = len(w)
    for j in range(n):
        q = w[j] // int(basis[j, j])
        if q:
            for i in range(j, n):
                w[i] -= q * int(basis[i, j])
    return tuple(w)


def lattice_member(basis, vec):
    return all(x == 0 for x in lattice_reduce(basis, vec))


def kernel_gens(mat, aug, in_moduli):
    """Generators of {x mod in_moduli : mat @ x lies in span(aug)}.

    `mat` is r x n, `aug` is a list/array of r-vectors spanning the lattice
    of target elements that count as zero (e.g. diag of target moduli).
    The diagonal in_moduli generators are implicit; callers re-adjoin them
    when canonicalizing the resulting subgroup.
    """
    mat = _to_array(mat, dtype=object)
    r, n = mat.shape
    stacked = _hstack([mat, aug], rows=r)
    work, track, pivots = _run_echelon(stacked, n, in_moduli)
    nonpivot = set(range(stacked.shape[1])) - {c for _, c in pivots}
    gens = []
    for j in sorted(nonpivot):
        if all(work[i, j] == 0 for i in range(r)):
            v = tuple(int(track[i, j]) % int(in_moduli[i]) for i in range(n))
            if any(v):
                gens.append(v)
    return gens


def solve_cols(mat, aug, target, in_moduli):
    """One x (mod in_moduli) with mat @ x = target modulo span(aug), or None."""
    mat = _to_array(mat, dtype=object)
    r, n = mat.shape
    stacked = _hstack([mat, aug], rows=r)
    work, track, pivots = _run_echelon(stacked, n, in_moduli)
    b = [int(t) for t in target]
    if len(b) != r:
        raise ValueError("target length mismatch")
    x = [0] * n
    pivot_by_row = dict(pivots)
    for row in range(r):
        col = pivot_by_row.get(row)
        if col is None:
            if b[row] != 0:
                return None
            continue
        q, rem = divmod(b[row], int(work[row, col]))
        if rem:
            return None
        if q:
            for i in range(r):
                b[i] -= q * int(work[i, col])
            for i in range(n):
                x[i] += q * int(track[i, col])
    if any(b):
        return None
    return tuple(x[i] % int(in_moduli[i]) for i in range(n))


def snf_invariants(mat, rows=None):
    """Invariant factors of coker(mat) via Smith elimination (no transforms).

    Used only for displaying group structure; all decisions elsewhere go
    through the lattice machinery above.
    """
    a = [[int(x) for x in row] for row in np.asarray(_to_array(mat, rows=rows, dtype=object))]
    invs = []
    while a and a[0]:
        # locate smallest nonzero entry and move it to (0, 0)
        best = None
        for i, row in enumerate(a):
            for j, v in enumerate(row):
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, pi, pj = best
        a[0], a[pi] = a[pi], a[0]
        for row in a:
            row[0], row[pj] = row[pj], row[0]
        # clear the pivot row and column, re-pivoting while remainders appear
        while True:
            dirty = False
            p = a[0][0]
            for i in range(1, len(a)):
                q = a[i][0] // p
                if q:
                    for j in range(len(a[i])):
                        a[i][j] -= q * a[0][j]
                if a[i][0]:
                    a[0], a[i] = a[i], a[0]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(1, len(a[0])):
                q = a[0][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[0]
                if a[0][j]:
                    for row in a:
                        row[0], row[j] = row[j], row[0]
                    dirty = True
                    break
            if not dirty:
                break
        invs.append(abs(a[0][0]))
        a = [row[1:] for row in a[1:]]
    # enforce the divisibility chain
    invs = [v for v in invs if v]
    for i in range(len(invs)):
        for j in range(i + 1, len(invs)):
            g = math.gcd(invs[i], invs[j])
            invs[i], invs[j] = g, invs[i] * invs[j] // g if g else 0
    return tuple(v for v in sorted(invs) if v != 1)


class AbelianPresentation:
    """A finite abelian group Z^n / L with L = span(relations) + diag(moduli).

    `moduli` are the declared additive orders of the raw generators; extra
    relation columns come from tensor bilinearity, middle-linearity, etc.
    Elements are raw integer coordinate vectors; `canon` picks the unique
    coset representative, so tuple equality decides group equality.
    """

    def __init__(self, moduli, relations=()):
        self.moduli = tuple(int(d) for d in moduli)
        if any(d < 1 for d in self.moduli):
            raise ValueError("moduli must be positive")
        self.n = len(self.moduli)
        rel = _hstack([relations], rows=self.n) if len(relations) else np.zeros((self.n, 0), dtype=object)
        self.relations = rel
        self.lattice = lattice_canon(rel, self.moduli)

    def order(self):
        return lattice_det(self.lattice)

    def canon(self, vec):
        return lattice_reduce(self.lattice, vec)

    def is_zero(self, vec):
        return lattice_member(self.lattice, vec)

    def eq(self, u, v):
        return self.canon(u) == self.canon(v)

    def zero(self):
        return (0,) * self.n

    def subgroup_canon(self, gens):
        cols = _hstack([cols_from_vectors(list(gens), self.n), self.lattice], rows=self.n)
        return lattice_canon(cols)

    def subgroup_order(self, gens):
        # |(span(gens)+L)/L| = [Z^n : L] / [Z^n : span(gens)+L]
        return self.order() // lattice_det(self.subgroup_canon(gens))

    def subgroup_member(self, subgroup_basis, vec):
        return lattice_member(subgroup_basis, vec)

    def kernel_of_map(self, mat, target):
        """Generators of {x : mat @ x = 0 in `target`} as a subgroup here."""
        return kernel_gens(mat, target.lattice, self.moduli)

    def solve_map(self, mat, target, rhs):
        """One preimage of `rhs` under mat: self -> target, or None."""
        return solve_cols(mat, target.lattice, rhs, self.moduli)

    def assert_map_well_defined(self, mat, target):
        mat = _to_array(mat, rows=target.n, dtype=object)
        for i, d in enumerate(self.moduli):
            img = [d * int(mat[j, i]) for j in range(target.n)]
            if not target.is_zero(img):
                raise ValueError(f"map not well defined on generator {i}")

    def invariants(self):
        cols = _hstack([self.relations, diag_cols(self.moduli)], rows=self.n)
        return snf_invariants(cols, rows=self.n)

    def describe(self):
        invs = self.invariants()
        if not invs:
            return "0"
        return " x ".join(f"Z/{d}" for d in invs)
