"""Exact integer linear algebra over finite abelian groups.

Everything downstream (invariant subrings, trace images, tensor products,
separability idempotents) reduces to lattice computations in Z^n relative
to per-coordinate moduli: canonical Hermite bases, kernels of maps between
finite abelian groups, and affine solves.  All arithmetic is integer-exact;
there is no floating point anywhere, so every comparison is tolerance-zero.

Every matrix is a `Matrix`: a row count and a list of sparse columns, each
a {row: value} dict of its nonzero entries; the systems built here (tensor
relations, graph lattices) are almost all zeros.  A `Matrix` is
applied (`apply`); it has no `@` and no `-`.  There is one
elimination: canonical bases come from insertion modulo the diagonal
(`_insert`, behind `lattice_canon`); membership is one walk down such a
basis (`lattice_member`).  Kernels and solves insert a map's columns into
the basis of its graph lattice (`_graph_basis`), and Smith invariants
alternate a canonical basis with that of its transpose.  Python integers do
not overflow, so entries need no bound.
"""

from __future__ import annotations

import heapq
import math

from .budget import spend
from .semigroups import remembered


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

    def apply(self, vec):
        """The product with the integer vector `vec`, as a tuple."""
        out = [0] * self.rows
        for x, c in zip(vec, self.cols):
            if x:
                for i, v in c.items():
                    out[i] += x * v
        return tuple(out)


def diag_cols(moduli):
    """Columns d_i * e_i for the declared per-coordinate moduli."""
    return Matrix(len(moduli), [{i: int(d)} if d else {} for i, d in enumerate(moduli)])


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


def _reduce_below_pivots(work, first):
    """Reduce each entry below a pivot into [0, pivot) in the columns from
    `first` on, by floor quotients of the pivot column, which makes the
    triangular basis of the lattice they span the canonical Hermite one;
    returns the number of entries written."""
    written = 0
    for j in range(first, len(work)):
        c = work[j]
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


def _triangular(basis):
    """`basis` is square and lower-triangular with positive pivots."""
    return (len(basis.cols) == basis.rows
            and all(c.get(j, 0) > 0 and min(c) >= j for j, c in enumerate(basis.cols)))


def _insert_and_reduce(cols, moduli, basis, first=0):
    """`basis`, lower-triangular with positive pivots and spanning a lattice
    that contains diag(moduli)*Z^n, with each of `cols` inserted into it
    (`_insert`) and the entries below the pivots of its columns from `first`
    on reduced last.  The entries written are charged as `echelon_entries`.
    """
    n = cols.rows
    if len(moduli) != n or min(moduli, default=1) < 1:
        raise ValueError("one positive modulus per row")
    work = [dict(c) for c in basis.cols]
    for c in cols.cols:
        spend("echelon_entries", _insert(work, c, moduli))
    spend("echelon_entries", _reduce_below_pivots(work, first))
    result = Matrix(n, work)
    if not _triangular(result):
        raise AssertionError("insertion did not produce a triangular basis")
    return result


def lattice_canon(cols, moduli, basis=None):
    """Canonical (column-Hermite) basis of span(cols) + span(basis).

    `basis` is the canonical basis of a lattice containing diag(moduli)*Z^n,
    by default that diagonal.  Each column is inserted into it and the
    entries below the pivots are reduced last, each into [0, pivot)
    (`_insert_and_reduce`), so the n x n lower-triangular result is a
    complete invariant of the lattice: subgroup equality is matrix equality.
    """
    return _insert_and_reduce(cols, moduli, basis if basis is not None else diag_cols(moduli))


def lattice_det(basis):
    """Index [Z^n : L] for a canonical basis, i.e. the diagonal product."""
    return math.prod(c[j] for j, c in enumerate(basis.cols))


def lattice_reduce(basis, vec):
    """Canonical coset representative of `vec` modulo the lattice."""
    w = list(map(int, vec))
    for j, c in enumerate(basis.cols):
        q = w[j] // c[j]
        if q:
            for i, v in c.items():
                w[i] -= q * v
    return tuple(w)


def lattice_member(basis, vec):
    """vec lies in the lattice: the walk of `lattice_reduce` down the
    canonical basis leaves no remainder at any pivot."""
    w = list(map(int, vec))
    for j, c in enumerate(basis.cols):
        if w[j]:
            q, r = divmod(w[j], c[j])
            if r:
                return False
            for i, v in c.items():
                w[i] -= q * v
    return True


def _graph_basis(mat, aug, in_moduli, aug_moduli):
    """A basis of the graph lattice of `mat`, and mat's row count r.

    The lattice is spanned by the columns (mat_j ; e_j), `aug` (the target's
    canonical basis, containing diag(aug_moduli)) on the top r rows and
    diag(in_moduli) on the bottom rows: it holds (y ; x) exactly when
    y - mat @ x lies in span(aug), for a map that is well defined modulo
    in_moduli.  The basis is triangular; its columns with a pivot in the
    bottom rows are zero on top and reduced below their pivots, so their
    bottom parts are the canonical basis of the kernel.  The top columns are
    left unreduced: a walk down a triangular basis reduces a vector to the
    one representative of its coset with each entry in [0, pivot), whatever
    the entries below the pivots.
    """
    r, n = mat.rows, len(in_moduli)
    if len(mat.cols) != n or aug.rows != r or len(aug_moduli) != r:
        raise ValueError("one input modulus per column and one target modulus per row")
    if not _triangular(aug):
        raise ValueError("the target is not given by its canonical basis")
    graph = Matrix(r + n, [{**c, r + j: 1} for j, c in enumerate(mat.cols)])
    basis = Matrix(r + n, aug.cols + [{r + j: int(d)} for j, d in enumerate(in_moduli)])
    moduli = [*map(int, aug_moduli), *map(int, in_moduli)]
    return _insert_and_reduce(graph, moduli, basis, r), r


def kernel_gens(mat, aug, in_moduli, aug_moduli):
    """Generators of {x mod in_moduli : mat @ x lies in span(aug)}: the residues
    of the kernel's canonical basis, whose diagonal in_moduli columns vanish.

    `mat` is r x n and well defined modulo in_moduli; `aug` is the canonical
    basis of the lattice of target elements that count as zero, containing
    diag(aug_moduli) (e.g. a presentation's `lattice` and `moduli`).
    """
    basis, r = _graph_basis(mat, aug, in_moduli, aug_moduli)
    return residues([[c.get(i, 0) for i in range(r, basis.rows)] for c in basis.cols[r:]],
                    in_moduli)


def solve_cols(mat, aug, target, in_moduli, aug_moduli):
    """The canonical x (mod in_moduli) with mat @ x = target modulo span(aug),
    or None; `mat` and `aug` as for `kernel_gens`.

    (-target ; 0) reduces over the graph lattice to (0 ; x) exactly when x
    solves, and the walk leaves x reduced over the kernel columns: the
    canonical representative of the solution set, whatever the order of
    elimination.
    """
    b = [int(t) for t in target]
    if len(b) != mat.rows:
        raise ValueError("target length mismatch")
    basis, r = _graph_basis(mat, aug, in_moduli, aug_moduli)
    w = lattice_reduce(basis, [-x for x in b] + [0] * len(in_moduli))
    return None if any(w[:r]) else w[r:]


def snf_invariants(basis):
    """Invariant factors of Z^n / L for the canonical basis of L, for
    displaying group structure.

    L's transpose has the same invariants and contains det * Z^n too, so
    `lattice_canon` runs on the transpose modulo the determinant until the
    basis is diagonal; each pass divides the first pivot by the gcd of its
    column, or splits it off.  The diagonal then goes through the gcd/lcm
    chain.
    """
    n = basis.rows
    if not _triangular(basis):
        raise ValueError("not the canonical basis of a full-rank lattice")
    det = lattice_det(basis)
    while any(len(c) > 1 for c in basis.cols):
        rows = [{} for _ in range(n)]
        for j, c in enumerate(basis.cols):
            for i, v in c.items():
                rows[i][j] = v
        basis = lattice_canon(Matrix(n, rows), [det] * n)
    invs = [c[j] for j, c in enumerate(basis.cols)]
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
    raw integer coordinate vectors; `lattice_reduce` on `lattice` picks the
    unique coset representative, so tuple equality decides group equality.
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
        self.facts = {}  # the canonical lattice, reduced on first read (`remembered`)

    @property
    @remembered
    def lattice(self):
        """The canonical basis of L; the diagonal alone is already canonical."""
        if not self.relations.cols:
            return diag_cols(self.moduli)
        return lattice_canon(self.relations, self.moduli)

    def order(self):
        return lattice_det(self.lattice)

    def subgroup_canon(self, gens, basis=None):
        """Canonical basis of span(gens) + `basis`, a canonical basis of a
        lattice that contains L (L itself by default)."""
        return lattice_canon(cols_from_vectors(list(gens), self.n), self.moduli,
                             self.lattice if basis is None else basis)
