"""Independent brute-force oracles shared by the test suite.

These deliberately avoid the library's lattice engine: quotient orders are
counted by union-find enumeration over a coordinate box, and memberships by
exhaustive search.  Slow but obviously correct on small inputs.  The
exceptions are frozen copies of routes the library has since replaced, kept
as references for the current ones: `dense_run_echelon` (the previous
echelon engine), `expand_by_solve` (span expansion by one exact solve),
`separable_all_generators` and `verify_idempotent_by_kron` (the separability
solve and check over every additive generator, on Kronecker matrices),
`psi_image_by_elements` (the comparison map through ring elements),
`verify_coordinates_by_elements` (the coordinate identity through ring
elements), the three correspondence routes with their own pair loops and
brute-force matchers (`e_unitary_correspondence_by_own_loop`,
`general_correspondence_by_image_verifier`, `zero_correspondence_by_own_loop`)
and the five power-set scans that per-atom and per-element tests replaced
(`beta_strong_by_support_scan`, `boolean_sum_by_inclusion_exclusion`,
`full_inverse_subsemigroups_by_power_set`, `beta_complete_by_subset_scan`,
`beta_maximal_by_subset_scan`).  `dense` and `sparse` convert between the
library's sparse `Matrix` and numpy object arrays for dense fixtures.
"""

import itertools

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
