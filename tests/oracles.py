"""Independent brute-force oracles shared by the test suite.

These deliberately avoid the library's lattice engine: quotient orders are
counted by union-find enumeration over a coordinate box, and memberships by
exhaustive search.  Slow but obviously correct on small inputs.  The
exceptions are frozen copies of routes the library has since replaced, kept
as references for the current ones: `dense_run_echelon` (the previous
echelon engine), `sparse_echelon_by_sorted_scans` (the sparse engine
before it dropped its per-step sorts), `expand_by_solve` (span expansion
by one exact solve), `separable_all_generators` and
`verify_idempotent_by_kron` (the separability solve and check over every
additive generator, on Kronecker matrices),
`psi_image_by_elements` (the comparison map through ring elements),
`verify_coordinates_by_elements` (the coordinate identity through ring
elements), the three correspondence routes with their own pair loops and
brute-force matchers (`e_unitary_correspondence_by_own_loop`,
`general_correspondence_by_image_verifier`, `zero_correspondence_by_own_loop`)
the five power-set scans that per-atom and per-element tests replaced
(`beta_strong_by_support_scan`, `boolean_sum_by_inclusion_exclusion`,
`full_inverse_subsemigroups_by_power_set`, `beta_complete_by_subset_scan`,
`beta_maximal_by_subset_scan`), the four action-axiom validators with
their own loops (`validate_action_by_own_loops`,
`validate_partial_group_action_by_own_loops`,
`validate_partial_semigroup_action_by_own_loops`,
`validate_partial_groupoid_action_by_own_loops`), and scalar extension on
its own presented base and relation loops (`extend_scalars_by_loops`),
and the polynomial element route (`atom_mul`, `atom_frobenius` and the
element and iso helpers built on them) that the coordinate kernel replaced,
with `verify_iso_extensional` on top of it.  Last, the Galois systems over
the whole of A, as they were solved before each split into one block per
orbit: `WholeTensorPresentation`, `solve_coordinates_whole`,
`pa_subgroup_whole`, `psi_check_whole` and `is_separable_whole`.
`dense` and `sparse` convert between the library's sparse `Matrix` and
numpy object arrays for dense fixtures.
"""

import itertools
import math

import numpy as np

from semigalois.linalg import cols_from_vectors


def dense(mat):
    """A `Matrix` as a 2-D numpy object array of Python ints."""
    return np.array(mat.tolist(), dtype=object).reshape(mat.shape)


def sparse(rows):
    """A 2-D array (or list of rows) as a `Matrix`, with exact integer entries."""
    a = np.array(rows, dtype=object)
    return cols_from_vectors(list(a.T), a.shape[0])


def kron_left(tensor, b_vec):
    """Dense matrix of z -> (b (x) 1) * z: E (x) I_l with E = `left_factor(b)`."""
    return np.kron(dense(tensor.left_factor(b_vec)), np.eye(tensor.l, dtype=object))


def kron_right(tensor, b_vec):
    """Dense matrix of z -> (1 (x) b) * z: I_k (x) F with F = `right_factor(b)`."""
    return np.kron(np.eye(tensor.k, dtype=object), dense(tensor.right_factor(b_vec)))


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            x, p[x] = p[x], p[p[x]]
        return x

    def union(self, x, y):
        x, y = self.find(x), self.find(y)
        if x != y:
            self.parent[y] = x

    def count(self):
        return sum(1 for i, p in enumerate(self.parent) if self.find(i) == i)


def quotient_order_by_enumeration(moduli, relation_cols, limit=300_000):
    """|Z^n / (span(relations) + diag(moduli))| by walking the coordinate box.

    Every residue class has a representative in the box prod [0, d_i); two
    representatives are identified whenever they differ by a relation column
    (reduced back into the box, which only adds diagonal relations).
    """
    box = 1
    for d in moduli:
        box *= d
    if box > limit:
        raise ValueError(f"box of size {box} too large for the enumeration oracle")
    n = len(moduli)
    strides = [1] * n
    for i in range(1, n):
        strides[i] = strides[i - 1] * moduli[i - 1]

    def index(vec):
        return sum((vec[i] % moduli[i]) * strides[i] for i in range(n))

    uf = UnionFind(box)
    cols = [tuple(int(c[i]) for i in range(n)) for c in relation_cols]
    for point in itertools.product(*[range(d) for d in moduli]):
        src = index(point)
        for col in cols:
            uf.union(src, index(tuple(point[i] + col[i] for i in range(n))))
    return uf.count()


def subgroup_elements_by_closure(moduli, gens):
    """All elements of the subgroup of prod Z/d_i generated by `gens`."""
    n = len(moduli)
    zero = (0,) * n

    def add(u, v):
        return tuple((u[i] + v[i]) % moduli[i] for i in range(n))

    seen = {zero}
    frontier = [zero]
    gens = [tuple(g[i] % moduli[i] for i in range(n)) for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def subring_closure(moduli, mul, gens):
    """The smallest subgroup of prod Z/d_i containing `gens` and closed under `mul`.

    Additive spans come from `subgroup_elements_by_closure`; products of
    generator pairs are adjoined until none is new, which suffices because
    `mul` is bilinear.  Returns (elements, generators used).
    """
    gens = [tuple(g[i] % moduli[i] for i in range(len(moduli))) for g in gens]
    while True:
        elems = subgroup_elements_by_closure(moduli, gens)
        new = {mul(u, v) for u in gens for v in gens} - elems
        if not new:
            return frozenset(elems), gens
        gens = gens + sorted(new)


def subalgebras_by_element_scan(moduli, mul, start_gens):
    """Every `mul`-closed subgroup containing `start_gens`, as element sets.

    Starts from the closure of `start_gens` and adjoins every element of the
    ambient box to every subring found, one element at a time.
    """
    start, gens = subring_closure(moduli, mul, start_gens)
    found = {start: gens}
    frontier = [start]
    box = list(itertools.product(*[range(d) for d in moduli]))
    while frontier:
        cur = frontier.pop()
        for v in box:
            if v in cur:
                continue
            bigger, more = subring_closure(moduli, mul, found[cur] + [v])
            if bigger not in found:
                found[bigger] = more
                frontier.append(bigger)
    return set(found)


# The dense column echelon that the library used before its sparse
# Python-int engine, frozen here as the reference the new engine must match
# operation for operation: int64 with a guarded overflow retry on
# object-dtype arrays, tracked transform reduced after every pivot.

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


def dense_run_echelon(work_cols, n_track, track_moduli):
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


# Frozen library routes that faster code replaced, kept as references.


def sparse_echelon_by_sorted_scans(cols, rows, track_moduli=None):
    """`linalg._echelon` as it was with a sorted scan of each pivot row, frozen.

    Eliminates the {row: value} columns `cols` in place and returns
    (transform columns or None, pivots, charges), where `charges` lists the
    entries updated per pivot row, as the engine charges them to the budget.
    """
    index = [set() for _ in range(rows)]
    for j, c in enumerate(cols):
        for r in c:
            index[r].add(j)
    track = None
    if track_moduli is not None:
        track = [{j: 1} if j < len(track_moduli) else {} for j in range(len(cols))]
    charges = []

    def sub(j, j0, q):
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
            nz = sorted(j for j in index[row] if j >= col)
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(cols[j][row]))
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
        charges.append(updated)
        col += 1
    for row, col in pivots:
        p = cols[col][row]
        updated = 0
        for jc in sorted(j for j in index[row] if j < col):
            q = cols[jc][row] // p
            if q:
                updated += sub(jc, col, q)
        charges.append(updated)
    return track, pivots, charges


def expand_by_solve(sub, vec):
    """Coefficients of `vec` over `sub.gen_vectors` from one exact `solve_cols`."""
    from semigalois.linalg import cols_from_vectors, solve_cols
    from semigalois.rings import NotSubring
    ring = sub.ring
    vec = tuple(int(x) % m for x, m in zip(vec, ring.coord_moduli))
    if not sub.gen_vectors:
        if any(vec):
            raise NotSubring(f"vector {vec} is outside the span")
        return ()
    mat = cols_from_vectors(list(sub.gen_vectors), ring.n_coords)
    in_moduli = [ring.vector_order(g) for g in sub.gen_vectors]
    sol = solve_cols(mat, ring.presentation.lattice, vec, in_moduli)
    if sol is None:
        raise NotSubring(f"vector {vec} is outside the span")
    return sol


def separable_all_generators(B, R):
    """(B (x)_R B, z) solving m(z) = 1 and (b (x) 1 - 1 (x) b)z = 0 for every
    additive generator b of B, or None."""
    from semigalois.linalg import block_diag, solve_cols
    from semigalois.rings import TensorPresentation
    tensor = TensorPresentation(B, B, R)
    A = B.ring
    blocks = [dense(tensor.mult_map_vec())]
    augs = [A.presentation.lattice]
    target = list(A.one().vec())
    for b in B.gen_vectors:
        blocks.append(kron_left(tensor, b) - kron_right(tensor, b))
        augs.append(tensor.pres.lattice)
        target.extend([0] * (tensor.k * tensor.l))
    sol = solve_cols(sparse(np.concatenate(blocks, axis=0)), block_diag(augs), target,
                     tensor.pres.moduli)
    return None if sol is None else (tensor, sol)


def verify_idempotent_by_kron(tensor, z):
    """Both defining equations of a separability idempotent, on the full
    Kronecker matrices (b (x) 1) and (1 (x) b) for every generator b."""
    A = tensor.ring
    zcol = np.array(z, dtype=object).reshape(-1, 1)
    mz = dense(tensor.mult_map_vec()).dot(zcol)
    if tuple(int(mz[i, 0]) % d for i, d in enumerate(A.coord_moduli)) != A.one().vec():
        return False
    for b in tensor.M.gen_vectors:
        left = kron_left(tensor, b).dot(zcol)
        right = kron_right(tensor, b).dot(zcol)
        if not tensor.pres.eq(tuple(map(int, left.ravel())), tuple(map(int, right.ravel()))):
            return False
    return True


def psi_image_by_elements(beta, pa, x_vec, y_vec):
    """psi(x (x) y) on PA's maximal coordinates, through `RingElement`
    products and the polynomial `StructuredIso.apply`."""
    A = beta.A
    x, y = A.from_vec(x_vec), A.from_vec(y_vec)
    out = []
    for t in pa.maximal:
        iso = beta.isos[t]
        v = (x * iso.apply(y.mask(iso.dom_support))).vec()
        out.extend(v[i] for i in pa.offsets[t][1])
    return tuple(out)


# The correspondence as three separate pair loops with two brute-force
# matchers, before one engine replaced them.


def _correspondence_core(beta, subsemigroups, s_b_map, pullback):
    from semigalois.actions import invariant_ring
    from semigalois.correspondence import CorrespondencePair, fixed_subalgebra
    from semigalois.galois import is_beta_strong, is_separable
    base = invariant_ring(beta)
    pairs = []
    failures = []
    seen_algebras = {}
    for T in subsemigroups:
        B = fixed_subalgebra(beta, T, base)
        sep = is_separable(B, base) is not None
        strong, fail_at = is_beta_strong(beta, B)
        back = pullback(B)
        round_t = back.members == T.members
        fixed_again = fixed_subalgebra(beta, s_b_map(B), base)
        round_b = fixed_again == B
        if B in seen_algebras:
            failures.append(("duplicate fixed algebra", tuple(sorted(T.members)),
                             tuple(sorted(seen_algebras[B]))))
        seen_algebras[B] = T.members
        pairs.append(CorrespondencePair(
            tuple(sorted(T.members)), B.order,
            [repr(g) for g in B.generators()],
            tuple(sorted(back.members)), sep, strong, round_t, round_b))
        if not sep:
            failures.append(("fixed algebra not separable", tuple(sorted(T.members))))
        if not strong:
            failures.append(("fixed algebra not beta-strong", tuple(sorted(T.members)), fail_at))
        if not round_t:
            failures.append(("S_B != T", tuple(sorted(T.members)), tuple(sorted(back.members))))
        if not round_b:
            failures.append(("A^{beta|S_B} != B", tuple(sorted(T.members))))
    return pairs, failures


def _brute_force_check(beta, t_side_members):
    from semigalois.actions import invariant_ring
    from semigalois.correspondence import enumerate_subalgebras_over
    from semigalois.galois import compute_S_B, is_beta_strong, is_separable
    base = invariant_ring(beta)
    winners = []
    for B in enumerate_subalgebras_over(beta, base):
        if is_separable(B, base) is None:
            continue
        strong, _ = is_beta_strong(beta, B)
        if strong:
            winners.append(B)
    expected = {tuple(members) for members in t_side_members}
    got = {tuple(sorted(compute_S_B(beta, B).members)) for B in winners}
    return len(winners) == len(t_side_members) and got == expected


def e_unitary_correspondence_by_own_loop(beta, brute_force_subalgebras=False):
    """The E-unitary route with S_B computed three times per T."""
    from semigalois.actions import is_injective
    from semigalois.correspondence import CorrespondenceReport, enumerate_beta_complete
    from semigalois.galois import PreconditionFail, compute_S_B, is_galois
    from semigalois.semigroups import is_e_unitary
    S = beta.S
    if S.zero is not None:
        raise PreconditionFail("use the zero-case verifier for semigroups with zero")
    if not is_e_unitary(S):
        raise PreconditionFail("S is not E-unitary")
    if not is_injective(beta):
        raise PreconditionFail("beta is not injective")
    if not beta.all_ideals_nonzero():
        raise PreconditionFail("some A_s is zero")
    if not is_galois(beta):
        raise PreconditionFail("A is not beta-Galois over its invariants")
    pairs, failures = _correspondence_core(
        beta, enumerate_beta_complete(beta),
        s_b_map=lambda B: compute_S_B(beta, B),
        pullback=lambda B: compute_S_B(beta, B))
    report = CorrespondenceReport(not failures, pairs, failures)
    if brute_force_subalgebras:
        report.brute_force_match = _brute_force_check(beta, [p.members for p in pairs])
        if not report.brute_force_match:
            report.bijective = False
            report.failures.append(("brute-force subalgebra scan mismatch",))
    return report


def general_correspondence_by_image_verifier(beta, brute_force_subalgebras=False):
    """The general route running the whole E-unitary route on beta(S)."""
    from semigalois.actions import image_action, invariant_ring
    from semigalois.correspondence import (CorrespondencePair, CorrespondenceReport,
                                           fixed_subalgebra, is_beta_maximal)
    from semigalois.galois import PreconditionFail, is_galois
    from semigalois.semigroups import (SubSemigroup, enumerate_full_inverse_subsemigroups,
                                       is_e_unitary)
    S = beta.S
    if S.zero is not None:
        raise PreconditionFail("use the zero-case verifier for semigroups with zero")
    if not beta.all_ideals_nonzero():
        raise PreconditionFail("some A_s is zero")
    if not is_galois(beta):
        raise PreconditionFail("A is not beta-Galois over its invariants")
    img_S, beta_img, proj = image_action(beta)
    if not is_e_unitary(img_S):
        raise PreconditionFail("image semigroup is not E-unitary (theorem violated?)")
    image_report = e_unitary_correspondence_by_own_loop(beta_img, brute_force_subalgebras)
    failures = list(image_report.failures)
    maximal = [T for T in enumerate_full_inverse_subsemigroups(S) if is_beta_maximal(beta, T)]
    pulled = []
    for pair in image_report.pairs:
        members = frozenset(s for s in range(S.n) if proj[s] in set(pair.members))
        pulled.append(SubSemigroup(S, members))
    pulled_sets = {T.members for T in pulled}
    maximal_sets = {T.members for T in maximal}
    if pulled_sets != maximal_sets:
        failures.append(("beta-maximal pullback mismatch",
                         sorted(map(sorted, pulled_sets)), sorted(map(sorted, maximal_sets))))
    pairs = []
    base = invariant_ring(beta)
    for T, img_pair in zip(pulled, image_report.pairs):
        B = fixed_subalgebra(beta, T, base)
        back = frozenset(s for s in range(S.n) if proj[s] in set(img_pair.s_b_members))
        round_t = back == T.members
        if not round_t:
            failures.append(("pullback round trip failed", tuple(sorted(T.members))))
        pairs.append(CorrespondencePair(
            tuple(sorted(T.members)), B.order, [repr(g) for g in B.generators()],
            tuple(sorted(back)), img_pair.separable, img_pair.strong,
            round_t, img_pair.round_trip_b))
    return CorrespondenceReport(not failures, pairs, failures, image_report.brute_force_match)


def zero_correspondence_by_own_loop(beta, brute_force_subalgebras=False):
    """The zero route with its own pair loop and inline brute-force scan."""
    from semigalois.actions import image_action, invariant_ring
    from semigalois.correspondence import (CorrespondencePair, CorrespondenceReport,
                                           enumerate_subalgebras_over, fixed_subalgebra,
                                           is_beta_maximal)
    from semigalois.galois import (PreconditionFail, compute_S_B, is_beta_strong, is_galois,
                                   is_separable)
    from semigalois.semigroups import SubSemigroup, enumerate_full_inverse_subsemigroups
    from semigalois.zerocase import is_categorical_at_zero, require_zero_action
    S = beta.S
    require_zero_action(beta)
    if not is_categorical_at_zero(S):
        raise PreconditionFail("the zero correspondence assumes categoricity at zero")
    if not all(beta.im_support(s) for s in range(S.n) if s != S.zero):
        raise PreconditionFail("A_s = 0 for a nonzero s")
    if not is_galois(beta):
        raise PreconditionFail("A is not beta-Galois over its invariants")
    img_S, beta_img, proj = image_action(beta)
    base = invariant_ring(beta)
    failures = []
    pairs = []
    maximal = [T for T in enumerate_full_inverse_subsemigroups(S)
               if is_beta_maximal(beta, T)]
    maximal_sets = {T.members for T in maximal}
    seen_algebras = {}
    for T in maximal:
        B = fixed_subalgebra(beta, T, base)
        sep = is_separable(B, base) is not None
        strong, fail_at = is_beta_strong(beta, B)
        img_sb = compute_S_B(beta_img, B)
        back = frozenset(s for s in range(S.n) if proj[s] in img_sb.members)
        round_t = back == T.members
        fixed_again = fixed_subalgebra(beta, SubSemigroup(S, back), base)
        round_b = fixed_again == B
        if B in seen_algebras:
            failures.append(("duplicate fixed algebra", tuple(sorted(T.members))))
        seen_algebras[B] = T
        pairs.append(CorrespondencePair(
            tuple(sorted(T.members)), B.order, [repr(g) for g in B.generators()],
            tuple(sorted(back)), sep, strong, round_t, round_b))
        for flag, tag in ((sep, "fixed algebra not separable"),
                          (strong, "fixed algebra not beta-strong"),
                          (round_t, "pullback of beta(S)_B differs from T"),
                          (round_b, "A^{beta|T} round trip failed")):
            if not flag:
                failures.append((tag, tuple(sorted(T.members)),
                                 fail_at if tag.endswith("strong") else None))
    report = CorrespondenceReport(not failures, pairs, failures)
    if brute_force_subalgebras:
        winners = []
        for B in enumerate_subalgebras_over(beta, base):
            if is_separable(B, base) is None:
                continue
            strong, _ = is_beta_strong(beta, B)
            if strong:
                winners.append(B)
        got = set()
        for B in winners:
            img_sb = compute_S_B(beta_img, B)
            got.add(frozenset(s for s in range(S.n) if proj[s] in img_sb.members))
        report.brute_force_match = (got == maximal_sets and len(winners) == len(maximal))
        if not report.brute_force_match:
            report.bijective = False
            report.failures.append(("brute-force subalgebra scan mismatch",))
    return report


def verify_coordinates_by_elements(beta, coords, isos=None, rhs=None):
    """The coordinate identity sum x f(y 1_dom) = rhs_f, through `RingElement`
    products and the polynomial `StructuredIso.apply`."""
    from semigalois.galois import galois_rhs
    A = beta.A
    if isos is None:
        isos = beta.isos
        rhs = [galois_rhs(beta, s) for s in range(beta.S.n)]
    for iso, want in zip(isos, rhs):
        total = A.zero()
        for x, y in coords:
            total = total + x * iso.apply(y.mask(iso.dom_support))
        if total != want:
            return False
    return True


# The five power-set scans, before each was reduced to a per-atom or
# per-element test.


def _separates(beta, s, t, supp, g_vec):
    A = beta.A
    iso_s, iso_t = beta.isos[s], beta.isos[t]
    lhs = A.mask_vec(iso_s.apply_vec(A.mask_vec(g_vec, iso_s.dom_support)), supp)
    rhs = A.mask_vec(iso_t.apply_vec(A.mask_vec(g_vec, iso_t.dom_support)), supp)
    return lhs != rhs


def beta_strong_by_support_scan(beta, B, s_b=None):
    """(ok, failure) of beta-strongness, trying every nonempty support inside
    im(s) or im(t) in the order (size, members), against the generators of B
    and then every element of B."""
    from semigalois.galois import compute_S_B
    if s_b is None:
        s_b = compute_S_B(beta, B)
    S = beta.S
    for s in range(S.n):
        for t in range(S.n):
            prod = S.table[S.inv[s]][t]
            if any(u != S.zero and S.leq[u][prod] for u in s_b.members):
                continue
            supports = set()
            for base in (beta.im_support(s), beta.im_support(t)):
                for r in range(1, len(base) + 1):
                    for combo in itertools.combinations(sorted(base), r):
                        supports.add(frozenset(combo))
            for supp in sorted(supports, key=lambda f: (len(f), sorted(f))):
                if not any(_separates(beta, s, t, supp, g) for g in B.gen_vectors) and \
                        not any(_separates(beta, s, t, supp, g) for g in B.element_vectors()):
                    return False, (s, t, supp)
    return True, None


def boolean_sum_by_inclusion_exclusion(A, idempotents_list):
    """The join of commuting idempotents as the signed sum over all nonempty subsets."""
    total = A.zero()
    for r in range(1, len(idempotents_list) + 1):
        sign = 1 if r % 2 == 1 else -1
        for combo in itertools.combinations(idempotents_list, r):
            prod = A.one()
            for e in combo:
                prod = prod * e
            total = total + (sign * prod)
    return total


def full_inverse_subsemigroups_by_power_set(S):
    """E(S) plus every subset of S \\ E(S) that closes, sorted by bitmask."""
    from semigalois.semigroups import SubSemigroup
    non_idem = [s for s in range(S.n) if s not in S.idempotents]
    base = frozenset(S.idempotents)
    found = []
    for r in range(len(non_idem) + 1):
        for extra in itertools.combinations(non_idem, r):
            members = base | set(extra)
            if all(S.inv[a] in members for a in extra) and all(
                    S.table[a][b] in members for a in members for b in members):
                found.append(SubSemigroup(S, frozenset(members)))
    return sorted(found, key=lambda t: t.bitmask())


def beta_complete_by_subset_scan(beta, T):
    """beta-completeness over every nonempty compatible subset P of T."""
    from semigalois import isopu
    from semigalois.semigroups import compatible, join_of
    if not T.is_full:
        return False
    S = beta.S
    members = sorted(T.members)
    for r in range(1, len(members) + 1):
        for P in itertools.combinations(members, r):
            if any(not compatible(S, a, b) for a, b in itertools.combinations(P, 2)):
                continue
            u = join_of(S, P)
            if u is None or u in T.members:
                continue
            if isopu.join_sum([beta.isos[p] for p in P]) == beta.isos[u]:
                return False
    return True


def beta_maximal_by_subset_scan(beta, T):
    """beta-maximality over every nonempty compatible family inside beta(T)
    (pairwise compatibility is looked up, computed once per pair)."""
    from semigalois import isopu
    if not T.is_full:
        return False
    image_of_T = {beta.isos[t] for t in T.members}
    image_of_S = {beta.isos[s] for s in range(beta.S.n)}
    for s in range(beta.S.n):
        if beta.isos[s] in image_of_T and s not in T.members:
            return False
    isos = sorted(image_of_T, key=repr)
    compatible = {(f, g): isopu.is_compatible(f, g) for f, g in itertools.combinations(isos, 2)}
    for r in range(1, len(isos) + 1):
        for fam in itertools.combinations(isos, r):
            if not all(compatible[pair] for pair in itertools.combinations(fam, 2)):
                continue
            join = isopu.join_sum(fam)
            if join in image_of_S and join not in image_of_T:
                return False
    return True


# The four action-axiom validators, each with its own loops, before one
# table-driven checker replaced them.  The exception classes are the
# library's, so old and new can be compared by class, tag and message.


def validate_action_by_own_loops(S, A, isos):
    from semigalois import isopu
    from semigalois.actions import (ActionError, CoverFail, HomFail, IdempotentNotIdentity,
                                    UnitalAction)
    isos = list(isos)
    if len(isos) != S.n:
        raise ActionError("one iso per element required")
    for s in range(S.n):
        if isos[s].ring != A:
            raise ActionError("iso on the wrong ring")
    for s in range(S.n):
        for t in range(S.n):
            if isopu.compose(isos[s], isos[t]) != isos[S.table[s][t]]:
                raise HomFail(f"beta_{S.names[s]} beta_{S.names[t]} != beta_{S.names[S.table[s][t]]}")
    covered = set()
    for e in S.idempotents:
        covered |= isos[e].im_support
    if covered != set(range(len(A.atoms))):
        raise CoverFail(f"idempotent ideals cover atoms {sorted(covered)} only")
    for e in S.idempotents:
        f = isos[e]
        if not (f.dom_support == f.im_support and f.is_identity_map()):
            raise IdempotentNotIdentity(S.names[e])
    for s in range(S.n):
        if isos[S.inv[s]] != isos[s].inverse():
            raise HomFail(f"beta_{S.names[S.inv[s]]} is not the inverse map of beta_{S.names[s]}")
    return UnitalAction(S, A, isos)


def validate_partial_group_action_by_own_loops(G, A, isos):
    """The checks `PartialGroupAction` ran on construction."""
    from semigalois import isopu
    from semigalois.actions import PartialActionAxiomFail
    e = G.identity
    if isos[e].dom_support != frozenset(range(len(A.atoms))) or not isos[e].is_identity_map():
        raise PartialActionAxiomFail("P1: identity must act as Id_A on A")
    for g in range(G.size()):
        if isos[G.inverse(g)] != isos[g].inverse():
            raise PartialActionAxiomFail("inverse classes must carry inverse maps")
    for g in range(G.size()):
        for h in range(G.size()):
            comp = isopu.compose(isos[g], isos[h])
            if not isopu.natural_leq_iso(comp, isos[G.table[g][h]]):
                raise PartialActionAxiomFail(f"P2/P3 fail at classes {g}, {h}")


def validate_partial_semigroup_action_by_own_loops(S, A, isos):
    from semigalois import isopu
    from semigalois.zerocase import AxiomFail, PartialSemigroupAction, _require_zero
    isos = tuple(isos)
    if len(isos) != S.n:
        raise AxiomFail("PIS", "one iso per element")
    _require_zero(S)
    if isos[S.zero].dom_support:
        raise AxiomFail("PIS0", "A_0 must be the zero ideal")
    covered = set()
    for e in S.idempotents:
        covered |= isos[e].im_support
        if not isos[e].is_identity_map():
            raise AxiomFail("PIS1", f"idempotent {S.names[e]} must act as an identity")
    if covered != set(range(len(A.atoms))):
        raise AxiomFail("PIS1", "idempotent ideals do not cover A")
    for s in range(S.n):
        if isos[S.inv[s]] != isos[s].inverse():
            raise AxiomFail("PIS", f"inverse of beta_{S.names[s]} mismatched")
        rng = S.table[s][S.inv[s]]
        if not isos[s].im_support <= isos[rng].im_support:
            raise AxiomFail("PIS", f"A_{S.names[s]} must sit inside A_{S.names[rng]}")
    for s in range(S.n):
        for t in range(S.n):
            comp = isopu.compose(isos[s], isos[t])
            target = isos[S.table[s][t]]
            if not comp.dom_support <= target.dom_support:
                raise AxiomFail("PIS2", f"({S.names[s]},{S.names[t]})")
            if not isopu.natural_leq_iso(comp, target):
                raise AxiomFail("PIS3", f"({S.names[s]},{S.names[t]})")
    return PartialSemigroupAction(S, A, isos)


def validate_partial_groupoid_action_by_own_loops(G, d, r, inv, A, isos):
    from semigalois import isopu
    from semigalois.zerocase import AxiomFail, PartialGroupoidAction
    isos = tuple(isos)
    if len(isos) != G.n:
        raise AxiomFail("PGr", "one iso per element")
    covered = set()
    for e in G.identities():
        if not isos[e].is_identity_map():
            raise AxiomFail("PGr1", f"identity {G.names[e]} must act as an identity map")
        if covered & isos[e].im_support:
            raise AxiomFail("PGr0", "identity ideals overlap; the sum is not direct")
        covered |= isos[e].im_support
    if covered != set(range(len(A.atoms))):
        raise AxiomFail("PGr0", "identity ideals do not sum to A")
    for g in range(G.n):
        if isos[inv[g]] != isos[g].inverse():
            raise AxiomFail("PGr", f"inverse of {G.names[g]} mismatched")
        if not isos[g].im_support <= isos[r[g]].im_support:
            raise AxiomFail("PGr", f"A_{G.names[g]} must sit inside A_{G.names[r[g]]}")
    for g in range(G.n):
        for h in range(G.n):
            comp = isopu.compose(isos[g], isos[h])
            if G.defined(g, h):
                target = isos[G.mul(g, h)]
                if not comp.dom_support <= target.dom_support:
                    raise AxiomFail("PGr2", f"({G.names[g]},{G.names[h]})")
                if not isopu.natural_leq_iso(comp, target):
                    raise AxiomFail("PGr3", f"({G.names[g]},{G.names[h]})")
            elif comp.dom_support:
                raise AxiomFail("PGr2", f"undefined product ({G.names[g]},{G.names[h]}) "
                                        "with a nonzero composite")
    return PartialGroupoidAction(G, d, r, inv, A, isos)


# Scalar extension on its own presented base, with its own relation loops,
# before it was built on the tensor relations shared with `TensorPresentation`.


class PresentedBaseByLoops:
    """The scalar ring R as additive generators with relations and structure constants."""

    def __init__(self, gens, orders, relations, mul_expand, one_coeffs):
        from semigalois.linalg import AbelianPresentation
        self.gens = gens
        self.orders = list(orders)
        self.k = len(gens)
        self.pres = AbelianPresentation(self.orders, relations)
        self.mul_expand = mul_expand
        self.one_coeffs = tuple(one_coeffs)
        self.size = self.pres.order()

    @staticmethod
    def from_finite_ring(R):
        gens = R.basis_vectors()
        return PresentedBaseByLoops(gens, R.coord_moduli, (),
                                    lambda i, j: R.mul_vec(gens[i], gens[j]), R.one().vec())

    @staticmethod
    def from_subalgebra(B):
        from semigalois.rings import SpanExpander, _span_relation_lattice
        expander = SpanExpander(B)
        gens = list(B.gen_vectors)
        orders = [B.ring.vector_order(g) for g in gens]
        return PresentedBaseByLoops(
            gens, orders, _span_relation_lattice(B),
            lambda i, j: expander.expand(B.ring.mul_vec(gens[i], gens[j])),
            expander.expand(B.ring.one().vec()))

    def combine(self, coeff_vectors, weights):
        out = [0] * self.k
        for c, vec in zip(weights, coeff_vectors):
            if c:
                for i, x in enumerate(vec):
                    out[i] += c * x
        return tuple(out)

    def mul_coeffs(self, u, v):
        out = [0] * self.k
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                if a and b:
                    for w, x in enumerate(self.mul_expand(i, j)):
                        out[w] += a * b * x
        return tuple(out)


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


class ScalarExtensionByLoops:
    """R (x)_{A^beta} A with hand-written relation, action and mask loops."""

    def __init__(self, beta, base, structural_images, guard=1 << 14):
        from semigalois.actions import ActionError, invariant_ring
        from semigalois.linalg import AbelianPresentation
        from semigalois.rings import TooLarge
        A = beta.A
        if base.size * A.size > guard:
            raise TooLarge("|R| * |A| beyond the scalar-extension guard")
        self.beta, self.base = beta, base
        inv = self.invariants = invariant_ring(beta)
        if len(structural_images) != len(inv.gen_vectors):
            raise ActionError("one image in R per invariant-ring generator")
        self.base_images = [tuple(int(x) for x in img) for img in structural_images]
        for img in self.base_images:
            if len(img) != base.k:
                raise ActionError("structural images are coefficient vectors over R")
        self._check_structural_map()
        self.ag = list(A.basis_vectors())
        self.k, self.l = base.k, len(self.ag)
        moduli = [math.gcd(base.orders[i], A.vector_order(self.ag[j]))
                  for i in range(self.k) for j in range(self.l)]
        rel_cols = []
        for col in base.pres.relations.cols:
            for j in range(self.l):
                out = [0] * (self.k * self.l)
                for i, c in col.items():
                    out[self.index(i, j)] = c
                rel_cols.append(tuple(out))
        for i, d in enumerate(base.orders):
            for j in range(self.l):
                out = [0] * (self.k * self.l)
                out[self.index(i, j)] = d
                rel_cols.append(tuple(out))
        for bvec, img in zip(inv.gen_vectors, self.base_images):
            for i in range(self.k):
                left = base.mul_coeffs(img, _unit(base.k, i))
                for j in range(self.l):
                    right = A.mul_vec(bvec, self.ag[j])
                    col = [0] * (self.k * self.l)
                    for a, u in enumerate(left):
                        col[self.index(a, j)] += u
                    for b, v in enumerate(right):
                        col[self.index(i, b)] -= v
                    rel_cols.append(tuple(col))
        self.pres = AbelianPresentation(moduli, rel_cols)

    def _check_structural_map(self):
        from semigalois.actions import ActionError
        from semigalois.rings import SpanExpander
        base, inv, A = self.base, self.invariants, self.beta.A
        expander = SpanExpander(inv)
        got_one = base.combine(self.base_images, expander.expand(A.one().vec()))
        if not base.pres.eq(got_one, base.one_coeffs):
            raise ActionError("structural map must send 1 to 1")
        for (cu, u) in zip(self.base_images, inv.gen_vectors):
            for (cv, v) in zip(self.base_images, inv.gen_vectors):
                lhs = base.combine(self.base_images, expander.expand(A.mul_vec(u, v)))
                if not base.pres.eq(lhs, base.mul_coeffs(cu, cv)):
                    raise ActionError("structural map is not multiplicative")

    def index(self, i, j):
        return i * self.l + j

    def pure(self, r_coeffs, a_vec):
        col = [0] * (self.k * self.l)
        for i, u in enumerate(r_coeffs):
            for j, v in enumerate(a_vec):
                col[self.index(i, j)] += u * v
        return tuple(col)

    def act(self, iso, z):
        out = [0] * (self.k * self.l)
        A = self.beta.A
        for i in range(self.k):
            for j in range(self.l):
                c = z[self.index(i, j)]
                if c:
                    img = iso.apply_vec(A.mask_vec(self.ag[j], iso.dom_support))
                    for b, v in enumerate(img):
                        out[self.index(i, b)] += c * v
        return tuple(out)

    def _mask(self, z, support):
        out = [0] * (self.k * self.l)
        A = self.beta.A
        for i in range(self.k):
            for j in range(self.l):
                c = z[self.index(i, j)]
                if c:
                    for b, v in enumerate(A.mask_vec(self.ag[j], support)):
                        out[self.index(i, b)] += c * v
        return tuple(out)

    def generator_vectors(self):
        return [_unit(self.k * self.l, i) for i in range(self.k * self.l)]

    def r_image_canon(self):
        gens = [self.pure(_unit(self.k, i), self.beta.A.one().vec()) for i in range(self.k)]
        return self.pres.subgroup_canon(gens)

    def invariants_canon(self):
        from semigalois.linalg import block_diag, kernel_gens, vstack
        rows = []
        for iso in self.beta.isos:
            cols = [tuple(a - b for a, b in zip(self.act(iso, z), self._mask(z, iso.im_support)))
                    for z in self.generator_vectors()]
            rows.append(cols_from_vectors(cols, self.k * self.l))
        aug = block_diag([self.pres.lattice] * self.beta.S.n)
        gens = kernel_gens(vstack(rows), aug, self.pres.moduli)
        return self.pres.subgroup_canon(gens)

    def sigma_trace_vec(self, z, alpha):
        total = (0,) * (self.k * self.l)
        for iso in alpha.isos:
            total = tuple(a + b for a, b in zip(total, self.act(iso, z)))
        return total


def extend_scalars_by_loops(beta, R=None, structural_images=None, guard=1 << 14):
    """The extension as `actions.extend_scalars` built it (the Galois precondition
    is left to the caller)."""
    from semigalois.actions import invariant_ring
    from semigalois.rings import RingElement
    if R is None:
        base = PresentedBaseByLoops.from_subalgebra(invariant_ring(beta))
        return ScalarExtensionByLoops(beta, base, [_unit(base.k, i) for i in range(base.k)], guard)
    images = [img.vec() if isinstance(img, RingElement) else tuple(img)
              for img in structural_images]
    return ScalarExtensionByLoops(beta, PresentedBaseByLoops.from_finite_ring(R), images, guard)


# -- the polynomial element route ---------------------------------------------
#
# Ring arithmetic straight from the definitions: a GF(p^k) component is a
# little-endian coefficient tuple, multiplied as a polynomial and reduced by
# long division against the monic modulus; Frobenius^j is the power p^j.
# The library's coordinate kernel (structure constants and Frobenius
# columns) is checked against these.


def atom_add(atom, a, b):
    if atom.kind == "zmod":
        return (a + b) % atom.order
    return tuple((x + y) % atom.p for x, y in zip(a, b))


def atom_scale(atom, a, n):
    """The integer multiple n * a."""
    if atom.kind == "zmod":
        return n * a % atom.order
    return tuple(n * x % atom.p for x in a)


def atom_mul(atom, a, b):
    if atom.kind == "zmod":
        return a * b % atom.order
    k, p = atom.k, atom.p
    res = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            res[i + j] = (res[i + j] + x * y) % p
    for d in range(2 * k - 2, k - 1, -1):
        c = res[d]
        for t, m in enumerate(atom.poly):
            res[d - k + t] = (res[d - k + t] - c * m) % p
    return tuple(res[:k])


def atom_power(atom, a, e):
    res = atom.one()
    for _ in range(e):
        res = atom_mul(atom, res, a)
    return res


def atom_frobenius(atom, a, j):
    """a ** (p ** j); the identity on a Z/p^k atom."""
    if atom.kind == "zmod":
        return a
    return atom_power(atom, a, atom.p ** (j % atom.k))


def _elementwise(op, x, *rest):
    from semigalois.rings import RingElement
    return RingElement(x.ring, tuple(op(a, *args) for a, *args in
                                     zip(x.ring.atoms, x.comps, *(y.comps for y in rest))))


def element_sum(x, y):
    return _elementwise(atom_add, x, y)


def element_product(x, y):
    return _elementwise(atom_mul, x, y)


def element_multiple(x, n):
    return _elementwise(lambda atom, a: atom_scale(atom, a, n), x)


def iso_apply_by_polynomials(iso, el):
    """The iso applied atom by atom through `atom_frobenius`."""
    from semigalois.rings import RingElement
    comps = [a.zero() for a in iso.ring.atoms]
    for i, j in iso.matching.items():
        comps[j] = atom_frobenius(iso.ring.atoms[i], el.comps[i], iso.twist[i])
    return RingElement(iso.ring, tuple(comps))


def verify_iso_extensional(iso, pair_limit=256):
    """Check that `iso.apply` is a bijective, additive, multiplicative,
    1 -> 1 map of its domain ideal onto its image ideal.

    Every domain element is checked by basis-increment additivity plus
    basis-pair multiplicativity (equivalent to the all-pairs statement by
    additivity); small domains are additionally checked on all pairs.
    Products are taken on the polynomial route above.
    """
    from semigalois.rings import RingElement
    ring = iso.ring
    order = math.prod(ring.atoms[i].order for i in iso.dom_support)

    def dom_elements():
        parts = [list(ring.atoms[i].elements()) if i in iso.dom_support else [ring.atoms[i].zero()]
                 for i in range(len(ring.atoms))]
        for comps in itertools.product(*parts):
            yield RingElement(ring, tuple(comps))

    if iso.apply(ring.idempotent(iso.dom_support)) != ring.idempotent(iso.im_support):
        return False
    basis = [b.mask(iso.dom_support) for b in ring.basis_elements()]
    basis = [b for b in basis if b.support()]
    images = set()
    for x in dom_elements():
        fx = iso.apply(x)
        if not fx.support() <= iso.im_support:
            return False
        images.add(fx)
        for b in basis:
            if iso.apply(element_sum(x, b)) != element_sum(fx, iso.apply(b)):
                return False
    if len(images) != order:
        return False
    for b in basis:
        for c in basis:
            if iso.apply(element_product(b, c)) != element_product(iso.apply(b), iso.apply(c)):
                return False
    if order <= pair_limit:
        els = list(dom_elements())
        for x in els:
            for y in els:
                fx, fy = iso.apply(x), iso.apply(y)
                if iso.apply(element_product(x, y)) != element_product(fx, fy):
                    return False
                if iso.apply(element_sum(x, y)) != element_sum(fx, fy):
                    return False
    return True


# The Galois systems over the whole of A, as they were solved before each
# split into one block per orbit of the action: one tensor generator per
# pair of generators (cross-orbit pairs included) under one relation
# lattice, one coordinate system, one PA constraint kernel, one psi image
# and one separability solve.


class WholeTensorPresentation:
    """M (x)_R N on every pair of canonical generators, with one relation lattice."""

    def __init__(self, M, N, R):
        from semigalois.linalg import AbelianPresentation, Matrix
        from semigalois.rings import SpanExpander, _span_relation_lattice
        ring = M.ring
        self.ring, self.M, self.N, self.R = ring, M, N, R
        self.mg = list(M.gen_vectors)
        self.ng = list(N.gen_vectors)
        self.k, self.l = len(self.mg), len(self.ng)
        self._mexp = SpanExpander(M)
        self._nexp = self._mexp if N is M else SpanExpander(N)
        morders = [ring.vector_order(v) for v in self.mg]
        norders = [ring.vector_order(v) for v in self.ng]
        moduli = [math.gcd(morders[i], norders[j]) for i in range(self.k) for j in range(self.l)]
        m_relations = _span_relation_lattice(M)
        rel_cols = []
        for c in m_relations:
            for j in range(self.l):
                rel_cols.append({self.index(i, j): x for i, x in enumerate(c) if x})
        for c in (m_relations if N is M else _span_relation_lattice(N)):
            for i in range(self.k):
                rel_cols.append({self.index(i, j): x for j, x in enumerate(c) if x})
        for r in R.gen_vectors:
            rel_cols += self.mult_difference(r).cols
        self.pres = AbelianPresentation(moduli, Matrix(self.k * self.l, rel_cols))

    def index(self, i, j):
        return i * self.l + j

    def order(self):
        return self.pres.order()

    def pure(self, m_vec, n_vec):
        u, v = self._mexp.expand(m_vec), self._nexp.expand(n_vec)
        col = [0] * (self.k * self.l)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                col[self.index(i, j)] += a * b
        return tuple(col)

    def mult_map_vec(self):
        return cols_from_vectors([self.ring.mul_vec(u, v) for u in self.mg for v in self.ng],
                                 self.ring.n_coords)

    def left_factor(self, b_vec):
        return self._mexp.mult_matrix(b_vec)

    def right_factor(self, b_vec):
        return self._nexp.mult_matrix(b_vec)

    def mult_difference(self, b_vec):
        from semigalois.linalg import kron_difference
        return kron_difference(self.left_factor(b_vec), self.right_factor(b_vec))

    def is_zero(self, z):
        return self.pres.is_zero(z)


def whole_full_tensor(beta):
    from semigalois.actions import invariant_ring
    from semigalois.rings import Subalgebra
    full = Subalgebra.full(beta.A)
    return WholeTensorPresentation(full, full, invariant_ring(beta))


def solve_coordinates_whole(beta, isos, rhs_vectors):
    """The coordinate system sum_i x_i f(y_i 1) = rhs_f in one solve over A."""
    from semigalois.linalg import block_diag, hstack, solve_cols, vstack
    A = beta.A
    n = A.n_coords
    mult_mats = [A.mult_matrix(v) for v in A.basis_vectors()]
    mat = vstack([hstack([m @ iso.matrix() for m in mult_mats]) for iso in isos])
    aug = block_diag([A.presentation.lattice] * len(isos))
    target = [x for vec in rhs_vectors for x in vec]
    sol = solve_cols(mat, aug, target, list(A.coord_moduli) * n)
    if sol is None:
        return None
    return list(zip(A.basis_elements(), [A.from_vec(sol[i * n:(i + 1) * n]) for i in range(n)]))


def pa_subgroup_whole(beta):
    """(maximal, moduli, canonical subgroup) of PA_beta(S), from one kernel
    over every pairwise meet constraint."""
    from semigalois.linalg import AbelianPresentation, Matrix, diag_cols, kernel_gens
    S, A = beta.S, beta.A
    maximal = [s for s in range(S.n) if not any(t != s and S.leq[s][t] for t in range(S.n))]
    offsets, moduli, pos = {}, [], 0
    for t in maximal:
        coords = [i for i in range(A.n_coords) if A.coord_atom(i) in beta.im_support(t)]
        offsets[t] = (pos, coords)
        moduli.extend(A.coord_moduli[i] for i in coords)
        pos += len(coords)
    supports = {}
    for s in range(S.n):
        above = [t for t in maximal if S.leq[s][t]]
        for pair in itertools.combinations(above, 2):
            supports.setdefault(pair, set()).update(beta.im_support(s))
    rows = []
    for (t1, t2), supp in sorted(supports.items()):
        for i in range(A.n_coords):
            if A.coord_atom(i) in supp:
                (p1, c1), (p2, c2) = offsets[t1], offsets[t2]
                rows.append((p1 + c1.index(i), p2 + c2.index(i), A.coord_moduli[i]))
    if rows:
        cols = [{} for _ in range(pos)]
        for r, (plus, minus, _) in enumerate(rows):
            cols[plus][r] = 1
            cols[minus][r] = -1
        gens = kernel_gens(Matrix(len(rows), cols), diag_cols([d for _, _, d in rows]), moduli)
    else:
        gens = [tuple(1 if j == i else 0 for j in range(pos)) for i in range(pos)]
    ambient = AbelianPresentation(moduli)
    return maximal, offsets, ambient, ambient.subgroup_canon(gens)


def psi_check_whole(beta):
    """(tensor order, PA order, image order, kernel witness, cokernel witness)
    of psi on every generator pair of the whole tensor."""
    from semigalois.linalg import kernel_gens, lattice_det, lattice_member, residues
    tensor = whole_full_tensor(beta)
    maximal, offsets, ambient, subgroup = pa_subgroup_whole(beta)
    A = beta.A
    images = []
    for x in tensor.mg:
        for y in tensor.ng:
            family = {t: A.mul_vec(x, beta.isos[t].apply_vec(y)) for t in maximal}
            images.append(tuple(family[t][i] for t in maximal for i in offsets[t][1]))
    pa_order = ambient.order() // lattice_det(subgroup)
    image_order = ambient.subgroup_order(images)
    kernel_witness = cokernel_witness = None
    if image_order != tensor.order():
        mat = cols_from_vectors(images, len(ambient.moduli))
        kernel_witness = next(g for g in kernel_gens(mat, ambient.lattice, tensor.pres.moduli)
                              if not tensor.is_zero(g))
    if image_order != pa_order:
        img_canon = ambient.subgroup_canon(images)
        elements = residues(map(subgroup.column, range(len(ambient.moduli))), ambient.moduli)
        cokernel_witness = next(c for c in elements if not lattice_member(img_canon, c))
    return tensor.order(), pa_order, image_order, kernel_witness, cokernel_witness


def is_separable_whole(B, R):
    """(B (x)_R B, z) from one solve of m(z) = 1 and (b (x) 1 - 1 (x) b)z = 0
    over the algebra generators b of B, on the whole tensor, or None."""
    from semigalois.linalg import block_diag, solve_cols, vstack
    tensor = WholeTensorPresentation(B, B, R)
    A = B.ring
    mats, augs, target = [tensor.mult_map_vec()], [A.presentation.lattice], list(A.one().vec())
    for b in B.algebra_generators(R):
        mats.append(tensor.mult_difference(b))
        augs.append(tensor.pres.lattice)
        target.extend([0] * (tensor.k * tensor.l))
    sol = solve_cols(vstack(mats), block_diag(augs), target, tensor.pres.moduli)
    return None if sol is None else (tensor, sol)
