"""Exact integer linear algebra over finite abelian groups.

Everything downstream (invariant subrings, trace images, tensor products,
separability idempotents) reduces to lattice computations in Z^n relative
to per-coordinate moduli: canonical Hermite bases, kernels of maps between
finite abelian groups, and affine solves.  All arithmetic is integer-exact;
there is no floating point anywhere, so every comparison is tolerance-zero.

Every matrix is a `Matrix`: a row count and a list of sparse columns, each
a {row: value} dict of its nonzero entries; the systems built here (tensor
relations, block-diagonal lattices) are almost all zeros.  A `Matrix` is
applied (`apply`) and multiplied (`@`), with no `-`.  Canonical bases
come from insertion modulo the diagonal (`lattice_canon`); membership and a
member's coordinates come from one walk down such a basis
(`lattice_quotients`); solves, kernels and Smith invariants come from a
column elimination (`_echelon`) on copies of the columns, whose row index
names the columns nonzero in each row, so a step touches only nonzeros.  A tracked transform, where one is asked for,
is kept modulo its moduli column by column.  Python integers do not
overflow, so entries need no bound.
"""

from __future__ import annotations

import heapq
import math

from .budget import spend


class Matrix:
    """An integer matrix: `rows` and a list of {row: value} columns with no zero stored."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows, cols=()):
        self.rows = rows
        self.cols = list(cols)

    @property
    def shape(self):
        return (self.rows, len(self.cols))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols

    def column(self, j):
        """Column j as a dense tuple."""
        out = [0] * self.rows
        for i, v in self.cols[j].items():
            out[i] = v
        return tuple(out)

    def tolist(self):
        """The dense rows."""
        return [[c.get(i, 0) for c in self.cols] for i in range(self.rows)]

    def apply(self, vec):
        """The product with the integer vector `vec`, as a tuple."""
        out = [0] * self.rows
        for x, c in zip(vec, self.cols):
            if x:
                for i, v in c.items():
                    out[i] += x * v
        return tuple(out)

    def __matmul__(self, other):
        """The product self @ other, column by column of `other`."""
        if other.rows != len(self.cols):
            raise ValueError("inner dimension mismatch")
        cols = []
        for oc in other.cols:
            col = {}
            for k, x in oc.items():
                for i, v in self.cols[k].items():
                    col[i] = col.get(i, 0) + x * v
            cols.append({i: v for i, v in col.items() if v})
        return Matrix(self.rows, cols)


def _echelon(cols, rows, track_moduli=None):
    """Column-eliminate `cols` in place to the canonical staircase form.

    Row by row, the columns from the current one on are reduced by floor
    quotients against the first column of least |value| until at most one
    is nonzero there; that one is swapped into place and made positive.  A
    final pass reduces earlier pivot columns against each pivot, which makes
    the staircase the canonical Hermite representative of the column
    lattice.  With `track_moduli` every operation is mirrored on a transform
    that starts as the identity on the first len(track_moduli) columns; its
    entries are reduced modulo those moduli whenever an operation touches
    them, which is sound whenever the tracked combination only matters
    modulo them.  Each pivot row charges the budget the entries it updated.
    Returns (transform columns or None, [(row, col), ...]).
    """
    index = [set() for _ in range(rows)]
    for j, c in enumerate(cols):
        for r in c:
            index[r].add(j)
    track = None
    if track_moduli is not None:
        track = [{j: 1} if j < len(track_moduli) else {} for j in range(len(cols))]

    def sub(j, j0, q):
        """Column j -= q * column j0; returns the number of entries updated."""
        cj = cols[j]
        for r, v in cols[j0].items():
            x = cj.get(r, 0) - q * v
            if x:
                cj[r] = x
                index[r].add(j)
            else:
                del cj[r]
                index[r].discard(j)
        if track is not None:
            tj = track[j]
            for r, v in track[j0].items():
                x = (tj.get(r, 0) - q * v) % track_moduli[r]
                if x:
                    tj[r] = x
                else:
                    tj.pop(r, None)
        return len(cols[j0]) + (len(track[j0]) if track is not None else 0)

    pivots = []
    col = 0
    for row in range(rows):
        if col >= len(cols):
            break
        updated = 0
        while True:
            nz = [j for j in index[row] if j >= col]
            if len(nz) <= 1:
                break
            # each reduction changes only its own column, so their order is free
            j0 = min(nz, key=lambda j: (abs(cols[j][row]), j))
            p = cols[j0][row]
            for j in nz:
                if j != j0:
                    q = cols[j][row] // p
                    if q:
                        updated += sub(j, j0, q)
        if not nz:
            continue
        j0 = nz[0]
        if j0 != col:
            a, b = cols[col], cols[j0]
            for r in a.keys() - b.keys():
                index[r].discard(col)
                index[r].add(j0)
            for r in b.keys() - a.keys():
                index[r].discard(j0)
                index[r].add(col)
            cols[col], cols[j0] = b, a
            if track is not None:
                track[col], track[j0] = track[j0], track[col]
        if cols[col][row] < 0:
            cols[col] = {r: -v for r, v in cols[col].items()}
            if track is not None:
                track[col] = {r: x for r, v in track[col].items()
                              if (x := -v % track_moduli[r])}
        pivots.append((row, col))
        spend("echelon_entries", updated)
        col += 1
    for row, col in pivots:
        p = cols[col][row]
        updated = 0
        for jc in [j for j in index[row] if j < col]:
            q = cols[jc][row] // p
            if q:
                updated += sub(jc, col, q)
        spend("echelon_entries", updated)
    return track, pivots


def hstack(blocks):
    """The blocks side by side, sharing their column dicts; each must have as
    many rows as the first."""
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise ValueError("row mismatch in block stack")
    return Matrix(rows, [c for b in blocks for c in b.cols])


def vstack(blocks):
    """The blocks one above another; each must have as many columns as the first."""
    cols = [{} for _ in blocks[0].cols]
    offset = 0
    for b in blocks:
        if len(b.cols) != len(cols):
            raise ValueError("column mismatch in block stack")
        for col, c in zip(cols, b.cols):
            for i, v in c.items():
                col[offset + i] = v
        offset += b.rows
    return Matrix(offset, cols)


def kron_difference(E, F):
    """E (x) I_l - I_k (x) F for a k x k matrix E and an l x l matrix F.

    Coordinate (i, j) is row i * l + j, so column (i, j) is
    sum_a E[a, i] e_(a, j) - sum_c F[c, j] e_(i, c).
    """
    l = F.rows
    cols = []
    for i, ec in enumerate(E.cols):
        for j, fc in enumerate(F.cols):
            col = {a * l + j: u for a, u in ec.items()}
            for c, v in fc.items():
                col[i * l + c] = col.get(i * l + c, 0) - v
            cols.append({r: x for r, x in col.items() if x})
    return Matrix(E.rows * l, cols)


def diag_cols(moduli):
    """Columns d_i * e_i for the declared per-coordinate moduli."""
    return Matrix(len(moduli), [{i: int(d)} if d else {} for i, d in enumerate(moduli)])


def block_diag(blocks):
    """Block-diagonal matrix with the given blocks in order."""
    cols = []
    offset = 0
    for b in blocks:
        cols += [{offset + i: v for i, v in c.items()} for c in b.cols]
        offset += b.rows
    return Matrix(offset, cols)


def residues(vectors, moduli):
    """The vectors reduced modulo `moduli`, the zero ones dropped."""
    reduced = (tuple(x % d for x, d in zip(v, moduli)) for v in vectors)
    return [v for v in reduced if any(v)]


def cols_from_vectors(vectors, n):
    """n x k matrix whose columns are the k coordinate vectors."""
    if any(len(v) != n for v in vectors):
        raise ValueError("vector length mismatch")
    return Matrix(n, [{i: int(x) for i, x in enumerate(v) if x} for v in vectors])


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _insert(work, vec, moduli):
    """Insert the column `vec` into `work`, whose column i has pivot row i
    and whose span contains diag(moduli); returns the entries written.

    vec's rows go in increasing order.  A pivot that divides vec's entry
    clears it by a multiple of its column; otherwise an extended-gcd step
    replaces pivot column h and vec by s*h + t*vec (pivot gcd) and the
    combination that vanishes there.  Each entry is reduced modulo its
    row's modulus d_r: the columns from r on span d_r e_r.
    """
    v = {r: x for r, y in vec.items() if (x := y % moduli[r])}
    pending = list(v)
    heapq.heapify(pending)
    written = 0
    while pending:
        i = heapq.heappop(pending)
        b = v.pop(i, 0)
        if not b:
            continue
        h = work[i]
        a = h[i]
        if b % a == 0:
            q = b // a
            for r, y in h.items():
                if r != i:
                    if r not in v:
                        heapq.heappush(pending, r)
                    x = (v.get(r, 0) - q * y) % moduli[r]
                    if x:
                        v[r] = x
                    else:
                        v.pop(r, None)
            written += len(h) - 1
            continue
        g, s, t = _xgcd(a, b)
        a, b = a // g, b // g
        pivot, rest = {i: g}, {}
        for r in h.keys() | v.keys():
            if r != i:
                y, x, m = h.get(r, 0), v.get(r, 0), moduli[r]
                if (z := (s * y + t * x) % m):
                    pivot[r] = z
                if (z := (b * y - a * x) % m):
                    rest[r] = z
        written += len(pivot) + len(rest)
        work[i], v = pivot, rest
        pending = list(v)
        heapq.heapify(pending)
    return written


def _reduce_below_pivots(work):
    """Reduce each entry below a pivot into [0, pivot), by floor quotients
    of the pivot column, which makes the triangular basis the canonical
    Hermite one; returns the number of entries written."""
    written = 0
    for j, c in enumerate(work):
        pending = [r for r in c if r != j]
        heapq.heapify(pending)
        while pending:
            r = heapq.heappop(pending)
            q = c.get(r, 0) // work[r][r]
            if q:
                for i, v in work[r].items():
                    if i not in c:
                        heapq.heappush(pending, i)
                    x = c.get(i, 0) - q * v
                    if x:
                        c[i] = x
                    else:
                        del c[i]
                written += len(work[r])
    return written


def lattice_canon(cols, moduli, basis=None):
    """Canonical (column-Hermite) basis of span(cols) + span(basis).

    `basis` is the canonical basis of a lattice containing diag(moduli)*Z^n,
    by default that diagonal.  Each column is inserted into it (`_insert`)
    and the entries below the pivots are reduced last, each into
    [0, pivot), so the n x n lower-triangular result is a complete
    invariant of the lattice: subgroup equality is matrix equality.  The
    entries written are charged as `echelon_entries`.
    """
    n = cols.rows
    if len(moduli) != n or min(moduli, default=1) < 1:
        raise ValueError("one positive modulus per row")
    work = [dict(c) for c in (basis if basis is not None else diag_cols(moduli)).cols]
    for c in cols.cols:
        spend("echelon_entries", _insert(work, c, moduli))
    spend("echelon_entries", _reduce_below_pivots(work))
    for j, c in enumerate(work):
        if c.get(j, 0) <= 0 or min(c) < j:
            raise AssertionError("insertion did not produce a triangular basis")
    return Matrix(n, work)


def lattice_det(basis):
    """Index [Z^n : L] for a canonical basis, i.e. the diagonal product."""
    return math.prod(c[j] for j, c in enumerate(basis.cols))


def lattice_reduce(basis, vec):
    """Canonical coset representative of `vec` modulo the lattice."""
    w = [int(x) for x in vec]
    for j, c in enumerate(basis.cols):
        q = w[j] // c[j]
        if q:
            for i, v in c.items():
                w[i] -= q * v
    return tuple(w)


def lattice_quotients(basis, vec):
    """The walk of `lattice_reduce` down a canonical basis, stopped at the
    first pivot that leaves a remainder: the quotient at each column, or
    None when vec is off the lattice.

    The basis is lower-triangular, so the quotients are H^-1 vec for the
    basis H, and vec is their combination of its columns.  This is the one
    walk behind membership and a subalgebra's generator coordinates.
    """
    w = [int(x) for x in vec]
    quotients = [0] * len(w)
    for j, c in enumerate(basis.cols):
        if w[j]:
            q, r = divmod(w[j], c[j])
            if r:
                return None
            for i, v in c.items():
                w[i] -= q * v
            quotients[j] = q
    return quotients


def lattice_member(basis, vec):
    """vec lies in the lattice: its `lattice_quotients` walk ends."""
    return lattice_quotients(basis, vec) is not None


def _eliminate_map(mat, aug, in_moduli):
    """Echelon of [mat | aug], tracking the transform on mat's columns mod in_moduli."""
    work = [dict(c) for c in hstack([mat, aug]).cols]
    moduli = [int(d) for d in in_moduli]
    track, pivots = _echelon(work, mat.rows, moduli)
    return work, track, pivots, moduli


def kernel_gens(mat, aug, in_moduli):
    """Generators of {x mod in_moduli : mat @ x lies in span(aug)}.

    `mat` is r x n, `aug` an r-row matrix whose columns span the lattice of
    target elements that count as zero (e.g. diag of target moduli).
    The diagonal in_moduli generators are implicit; callers re-adjoin them
    when canonicalizing the resulting subgroup.
    """
    work, track, pivots, moduli = _eliminate_map(mat, aug, in_moduli)
    zero = [j for j in range(len(pivots), len(work)) if not work[j]]
    return residues([[track[j].get(i, 0) for i in range(len(moduli))] for j in zero], moduli)


def solve_cols(mat, aug, target, in_moduli):
    """One x (mod in_moduli) with mat @ x = target modulo span(aug), or None."""
    b = [int(t) for t in target]
    if len(b) != mat.rows:
        raise ValueError("target length mismatch")
    work, track, pivots, moduli = _eliminate_map(mat, aug, in_moduli)
    x = [0] * len(moduli)
    for row, col in pivots:
        q, rem = divmod(b[row], work[col][row])
        if rem:
            return None
        if q:
            for i, v in work[col].items():
                b[i] -= q * v
            for i, v in track[col].items():
                x[i] += q * v
    if any(b):
        return None
    return tuple(v % d for v, d in zip(x, moduli))


def snf_invariants(mat):
    """Invariant factors of coker(mat), for displaying group structure.

    `_echelon` runs on the columns and on the rows in turn until every
    column has at most one entry; the nonzero entries left then go through
    the gcd/lcm chain.  All decisions go through the lattice machinery above.
    """
    cols, rows = [dict(c) for c in mat.cols], mat.rows
    while True:
        _echelon(cols, rows)
        if all(len(c) <= 1 for c in cols):
            break
        cols, rows = cols_from_vectors(Matrix(rows, cols).tolist(), len(cols)).cols, len(cols)
    invs = [abs(v) for c in cols for v in c.values()]
    for i in range(len(invs)):
        for j in range(i + 1, len(invs)):
            g = math.gcd(invs[i], invs[j])
            invs[i], invs[j] = g, invs[i] * invs[j] // g
    return tuple(v for v in sorted(invs) if v != 1)


class AbelianPresentation:
    """A finite abelian group Z^n / L with L = span(relations) + diag(moduli).

    `moduli` are the declared additive orders of the raw generators; extra
    relation columns come from tensor bilinearity, middle-linearity, etc.,
    given as a `Matrix` or as a sequence of relation vectors.  Elements are
    raw integer coordinate vectors; `canon` picks the unique coset
    representative, so tuple equality decides group equality.
    """

    def __init__(self, moduli, relations=()):
        self.moduli = tuple(int(d) for d in moduli)
        if any(d < 1 for d in self.moduli):
            raise ValueError("moduli must be positive")
        self.n = len(self.moduli)
        if not isinstance(relations, Matrix):
            relations = cols_from_vectors(relations, self.n)
        if relations.rows != self.n:
            raise ValueError("relations need one row per generator")
        self.relations = relations
        # the diagonal alone is already canonical
        self.lattice = (lattice_canon(relations, self.moduli) if relations.cols
                        else diag_cols(self.moduli))

    def order(self):
        return lattice_det(self.lattice)

    def vector_order(self, vec):
        """The order of `vec` modulo the diagonal alone: a multiple of its order."""
        return math.lcm(*(d // math.gcd(x, d) for x, d in zip(vec, self.moduli) if x))

    def generator_vectors(self):
        """The raw generators, as unit vectors."""
        return [tuple(1 if i == j else 0 for j in range(self.n)) for i in range(self.n)]

    def canon(self, vec):
        return lattice_reduce(self.lattice, vec)

    def is_zero(self, vec):
        return lattice_member(self.lattice, vec)

    def eq(self, u, v):
        return self.is_zero([a - b for a, b in zip(u, v)])

    def zero(self):
        return (0,) * self.n

    def subgroup_canon(self, gens, basis=None):
        """Canonical basis of span(gens) + `basis`, a canonical basis of a
        lattice that contains L (L itself by default)."""
        return lattice_canon(cols_from_vectors(list(gens), self.n), self.moduli,
                             self.lattice if basis is None else basis)

    def subgroup_order(self, gens):
        # |(span(gens)+L)/L| = [Z^n : L] / [Z^n : span(gens)+L]
        return self.order() // lattice_det(self.subgroup_canon(gens))

    def invariants(self):
        return snf_invariants(hstack([self.relations, diag_cols(self.moduli)]))
