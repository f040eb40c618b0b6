"""Independent references the test suite holds the library to: one per library quantity.

Brute force first: quotient orders by union-find over a coordinate box
(`quotient_order_by_enumeration`), subgroups and subrings by closure, and
subalgebras by an element scan.  Slow but obviously correct on small inputs.

The rest are routes the library has replaced, frozen so that each current
route has one reference that shares none of its shortcuts:

- the lattice engine: the tracked sorted-scan elimination with its canonical
  basis, kernel and solve (`sparse_echelon_by_sorted_scans`,
  `lattice_canon_by_echelon`, `kernel_and_solve_by_echelon`), and a
  subalgebra's relations, generators, expansions, multiplication matrices and
  algebra generators from exact solves (`span_relations_by_kernel`,
  `gen_vectors_by_dense_residues`, `expand_by_solve`, `mult_matrix_by_solve`,
  `algebra_generators_by_adjoining`);
- the Galois systems over the whole of A, before each split into one block
  per orbit and onto the free pairs: the tensor on every generator pair with
  every relation block built (`WholeTensorPresentation`, `whole_full_tensor`),
  the coordinates, PA, psi and separability each in one solve
  (`solve_coordinates_whole`, `pa_subgroup_whole`, `psi_check_whole`,
  `is_separable_whole`, which decides separability of any unital B over R),
  the orbit tensors put in place on the whole tensor (`scatter_lattice`,
  `joined_tensor_lattice`, `joined_tensor_vector`);
- separability idempotents checked on the full Kronecker matrices over every
  additive generator (`verify_idempotent_by_kron`);
- the polynomial element route: atom arithmetic from the definitions
  (`atom_mul`, `atom_frobenius` and the element helpers on them), isos
  applied through it (`iso_apply_by_polynomials`, `iso_matrix_by_polynomials`,
  `verify_iso_extensional`), and psi and the coordinate identity through
  ring elements (`check_psi_images_on_orbits`, `verify_coordinates_by_elements`);
- the three correspondence routes with their own pair loops and brute-force
  matchers, deciding their Galois precondition by `solve_coordinates_whole`
  rather than the library's fixed-atom rule, over the coset scan of
  subalgebras (`subalgebras_by_coset_scan`);
- the scans per-atom and per-element tests replaced (`beta_strong_by_support_scan`,
  `boolean_sum_by_inclusion_exclusion`, `full_inverse_subsemigroups_by_power_set`,
  `beta_complete_by_subset_scan`, `beta_maximal_by_subset_scan`), the natural
  order by idempotents, the iso closure on objects, associativity over all
  n^3 triples, A^beta from one kernel per s (`invariant_ring_by_all_kernels`),
  Iso_pu(A) by enumeration, and the four action-axiom validators with their
  own loops.

Scalar extension R (x)_{A^beta} A lives here alone, on one route
(`extend_scalars_by_loops`, re-tested by `scalar_extension_is_galois_by_loops`):
the paper's base-change statement is a test property, which no command
decides.  So do the paper's properties that no decision reads: the class
joins form S/sigma (`verify_class_join_group`), the meet under the natural
order and the direct product of two tables.

`dense`, `sparse`, `hstack` and `matmul` convert and combine the library's
sparse `Matrix`, and `kron_left`, `kron_right`, `pure`, `mult_difference` and
`factor_generators` read a tensor on every generator pair.
"""

import itertools
import math

import numpy as np

from semigalois.linalg import Matrix, cols_from_vectors, kron_difference
from semigalois.semigroups import remembered


def dense(mat):
    """A `Matrix` as a 2-D numpy object array of Python ints."""
    return np.array([[c.get(i, 0) for c in mat.cols] for i in range(mat.rows)],
                    dtype=object).reshape(mat.shape)


def hstack(blocks):
    """The blocks side by side, sharing their column dicts."""
    return Matrix(blocks[0].rows, [c for b in blocks for c in b.cols])


def matmul(a, b):
    """The product a @ b of two `Matrix`es, column by column of b."""
    if b.rows != len(a.cols):
        raise ValueError("inner dimension mismatch")
    cols = []
    for bc in b.cols:
        col = {}
        for k, x in bc.items():
            for i, v in a.cols[k].items():
                col[i] = col.get(i, 0) + x * v
        cols.append({i: v for i, v in col.items() if v})
    return Matrix(a.rows, cols)


def sparse(rows):
    """A 2-D array (or list of rows) as a `Matrix`, with exact integer entries."""
    a = np.array(rows, dtype=object)
    return cols_from_vectors(list(a.T), a.shape[0])


def kron_left(tensor, b_vec):
    """Dense matrix of z -> (b (x) 1) * z: E (x) I with E = `mult_matrix(b)`."""
    return np.kron(dense(tensor.mult_matrix(b_vec)), np.eye(tensor.l, dtype=object))


def kron_right(tensor, b_vec):
    """Dense matrix of z -> (1 (x) b) * z: I (x) E with E = `mult_matrix(b)`."""
    return np.kron(np.eye(tensor.k, dtype=object), dense(tensor.mult_matrix(b_vec)))


def pure(tensor, m, n):
    """The coordinates of m (x) n on every generator pair of `tensor`."""
    col = [0] * (tensor.k * tensor.l)
    for p, x in tensor.pure_terms(m, n):
        col[p] += x
    return tuple(col)


def mult_difference(tensor, b_vec):
    """The `Matrix` of z -> ((b (x) 1) - (1 (x) b)) * z on every generator pair:
    E (x) I - I (x) E with E = `mult_matrix(b)`."""
    E = tensor.mult_matrix(b_vec)
    return kron_difference(E)


def factor_generators(tensor):
    """The additive generators of a tensor's factor: B's canonical generators
    on a `WholeTensorPresentation`, the ring's unit vectors on the library's
    `TensorPresentation`."""
    return tensor.gens if isinstance(tensor, WholeTensorPresentation) else tensor.ring.basis_vectors()


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


# Frozen library routes that faster code replaced, kept as references.


def sparse_echelon_by_sorted_scans(cols, rows, track_moduli=None):
    """The column elimination `linalg._echelon` once ran, with a sorted scan of
    each pivot row, frozen.

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


def lattice_canon_by_echelon(cols, moduli):
    """`linalg.lattice_canon` as it was, frozen: one echelon of the columns
    beside diag(moduli), on the frozen sorted-scan engine."""
    from semigalois.linalg import Matrix
    n = cols.rows
    work = [dict(c) for c in cols.cols] + [{i: int(d)} for i, d in enumerate(moduli)]
    _, pivots, _ = sparse_echelon_by_sorted_scans(work, n)
    if len(pivots) != n:
        raise ValueError("lattice is not full rank")
    return Matrix(n, work[:n])


def kernel_and_solve_by_echelon(mat, aug, in_moduli, target):
    """`linalg.kernel_gens` and `linalg.solve_cols` as they were, frozen: one
    tracked sorted-scan elimination of [mat | aug], where aug's columns span
    the target's zero lattice, with the transform on mat's columns kept mod
    in_moduli.  Returns (kernel generators, one solution of mat @ x = target
    or None)."""
    from semigalois.linalg import residues
    work = [dict(c) for c in hstack([mat, aug]).cols]
    moduli = [int(d) for d in in_moduli]
    track, pivots, _ = sparse_echelon_by_sorted_scans(work, mat.rows, moduli)
    zero = [j for j in range(len(pivots), len(work)) if not work[j]]
    kernel = residues([[track[j].get(i, 0) for i in range(len(moduli))] for j in zero], moduli)
    b, x = [int(t) for t in target], [0] * len(moduli)
    for row, col in pivots:
        q, rem = divmod(b[row], work[col][row])
        if rem:
            return kernel, None
        for i, v in work[col].items():
            b[i] -= q * v
        for i, v in track[col].items():
            x[i] += q * v
    if any(b):
        return kernel, None
    return kernel, tuple(v % d for v, d in zip(x, moduli))


def span_relations_by_kernel(sub):
    """The relations of a subalgebra's generators as they were once computed,
    frozen: a tracked `kernel_gens` elimination against the ring's lattice,
    then each generator's order."""
    from semigalois.linalg import cols_from_vectors, kernel_gens
    ring = sub.ring
    if not sub.gen_vectors:
        return []
    mat = cols_from_vectors(list(sub.gen_vectors), ring.n_coords)
    in_moduli = [ring.presentation.vector_order(g) for g in sub.gen_vectors]
    gens = kernel_gens(mat, ring.presentation.lattice, in_moduli, ring.coord_moduli)
    for i, d in enumerate(in_moduli):
        gens.append(tuple(d if t == i else 0 for t in range(len(in_moduli))))
    return gens


def gen_vectors_by_dense_residues(sub):
    """`Subalgebra.gen_vectors` as it was read, frozen: every basis column
    made dense and reduced modulo the ring's moduli, the zero ones dropped."""
    from semigalois.linalg import residues
    ring = sub.ring
    return tuple(residues(map(sub.basis.column, range(ring.n_coords)), ring.coord_moduli))


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
    in_moduli = [ring.presentation.vector_order(g) for g in sub.gen_vectors]
    sol = solve_cols(mat, ring.presentation.lattice, vec, in_moduli, ring.coord_moduli)
    if sol is None:
        raise NotSubring(f"vector {vec} is outside the span")
    return sol


def mult_matrix_by_solve(sub, b_vec):
    """Matrix of m -> b*m on `sub.gen_vectors`: column j expands b times
    generator j by `expand_by_solve`."""
    return cols_from_vectors([expand_by_solve(sub, sub.ring.mul_vec(b_vec, g)) for g in sub.gen_vectors],
                             len(sub.gen_vectors))


def algebra_generators_by_adjoining(B, R):
    """Generators of B as an R-algebra, chosen greedily from `B.gen_vectors`
    as subalgebras once chose them for any B: a generator already in the
    R-algebra generated by the earlier choices is skipped, any other is
    chosen and adjoined to it.  R must be a unital subalgebra inside B."""
    chosen = []
    current = R
    for g in B.gen_vectors:
        if not current.member_vec(g):
            chosen.append(g)
            current = current.adjoin(g)
    return chosen


def verify_idempotent_by_kron(tensor, z):
    """Both defining equations of a separability idempotent, on the full
    Kronecker matrices (b (x) 1) and (1 (x) b) for every generator b."""
    A = tensor.ring
    zcol = np.array(z, dtype=object).reshape(-1, 1)
    mz = dense(tensor.mult_map_vec()).dot(zcol)
    if tuple(int(mz[i, 0]) % d for i, d in enumerate(A.coord_moduli)) != A.one_vec:
        return False
    for b in factor_generators(tensor):
        left = kron_left(tensor, b).dot(zcol)
        right = kron_right(tensor, b).dot(zcol)
        if not tensor.is_zero(tuple(map(int, (left - right).ravel()))):
            return False
    return True


def psi_image_by_elements(beta, pa, x_vec, y_vec):
    """psi(x (x) y) on PA's copies (t, i), through `RingElement` products
    and the polynomial `StructuredIso.apply`."""
    A = beta.A
    x, y = A.from_vec(x_vec), A.from_vec(y_vec)
    family = {}
    for t in pa.maximal:
        iso = beta.isos[t]
        family[t] = (x * iso.apply(y.mask(iso.dom_support))).vec()
    return tuple(family[t][i] for t, i in pa.copies)


def check_psi_images_on_orbits(beta):
    """psi on each pair of A's additive generators through ring elements
    (`psi_image_by_elements`) against the per-orbit image `psi_check` uses
    (`_PAPart.psi_image`, on the indices of the unit vectors): a pair on one
    orbit's block has one value per class there, which the element route
    gives at every copy in the class (the image lists the nonzero values
    alone), and a pair from two orbits maps to zero."""
    from semigalois.galois import PABetaS
    pa = PABetaS(beta)
    for o, (block, part) in enumerate(zip(beta.orbits, pa.parts)):
        for i, x in enumerate(block.ring.basis_vectors()):
            for q, other in enumerate(beta.orbits):
                for j, y in enumerate(other.ring.basis_vectors()):
                    want = [0] * len(pa.copies)
                    if o == q:
                        values = part.psi_image(i, j)
                        assert values is not None
                        for k, v in values.items():
                            for p in part.classes[k]:
                                want[p] = v
                    assert psi_image_by_elements(beta, pa, block.extend(x),
                                                 other.extend(y)) == tuple(want)


# The correspondence as three separate pair loops with two brute-force
# matchers, before one engine replaced them.


def _correspondence_core(beta, subsemigroups, s_b_map, pullback):
    from semigalois.actions import invariant_ring
    from semigalois.correspondence import CorrespondencePair, fixed_subalgebra
    from semigalois.galois import is_beta_strong
    base = invariant_ring(beta)
    pairs = []
    failures = []
    seen_algebras = {}
    for T in subsemigroups:
        B = fixed_subalgebra(beta, T)
        sep = is_separable_whole(B, base) is not None
        strong, fail_at = is_beta_strong(beta, B)
        back = pullback(B)
        round_t = back.members == T.members
        fixed_again = fixed_subalgebra(beta, s_b_map(B))
        round_b = fixed_again == B
        if B in seen_algebras:
            failures.append(("duplicate fixed algebra", tuple(sorted(T.members)),
                             tuple(sorted(seen_algebras[B]))))
        seen_algebras[B] = T.members
        pairs.append(CorrespondencePair(
            tuple(sorted(T.members)), B.order,
            B.gen_vectors,
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


def subalgebras_by_coset_scan(beta, base):
    """Every `base`-subalgebra of A, closing every nonzero coset representative
    of each subalgebra found (the scan before it closed one per unit orbit)."""
    A = beta.A
    start = base.adjoin(A.one_vec)
    found = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        reps = itertools.product(*(range(c[j]) for j, c in enumerate(cur.basis.cols)))
        for w in itertools.islice(reps, 1, None):  # the first is the zero coset
            bigger = cur.adjoin(w)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (s.order, repr([g for g in s.gen_vectors])))


def _brute_force_check(beta, t_side_members):
    from semigalois.actions import invariant_ring
    from semigalois.galois import compute_S_B, is_beta_strong
    base = invariant_ring(beta)
    winners = []
    for B in subalgebras_by_coset_scan(beta, base):
        if is_separable_whole(B, base) is None:
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
    from semigalois.galois import PreconditionFail, _galois_system, compute_S_B
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
    if solve_coordinates_whole(beta, *_galois_system(beta)) is None:
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
    from semigalois.actions import image_action
    from semigalois.correspondence import (CorrespondencePair, CorrespondenceReport,
                                           fixed_subalgebra, is_beta_maximal)
    from semigalois.galois import PreconditionFail, _galois_system
    from semigalois.semigroups import (SubSemigroup, enumerate_full_inverse_subsemigroups,
                                       is_e_unitary)
    S = beta.S
    if S.zero is not None:
        raise PreconditionFail("use the zero-case verifier for semigroups with zero")
    if not beta.all_ideals_nonzero():
        raise PreconditionFail("some A_s is zero")
    if solve_coordinates_whole(beta, *_galois_system(beta)) is None:
        raise PreconditionFail("A is not beta-Galois over its invariants")
    beta_img, proj = image_action(beta)
    if not is_e_unitary(beta_img.S):
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
    for T, img_pair in zip(pulled, image_report.pairs):
        B = fixed_subalgebra(beta, T)
        back = frozenset(s for s in range(S.n) if proj[s] in set(img_pair.s_b_members))
        round_t = back == T.members
        if not round_t:
            failures.append(("pullback round trip failed", tuple(sorted(T.members))))
        pairs.append(CorrespondencePair(
            tuple(sorted(T.members)), B.order, B.gen_vectors,
            tuple(sorted(back)), img_pair.separable, img_pair.strong,
            round_t, img_pair.round_trip_b))
    return CorrespondenceReport(not failures, pairs, failures, image_report.brute_force_match)


def zero_correspondence_by_own_loop(beta, brute_force_subalgebras=False):
    """The zero route with its own pair loop and inline brute-force scan."""
    from semigalois.actions import image_action, invariant_ring
    from semigalois.correspondence import (CorrespondencePair, CorrespondenceReport,
                                           fixed_subalgebra, is_beta_maximal)
    from semigalois.galois import PreconditionFail, _galois_system, compute_S_B, is_beta_strong
    from semigalois.semigroups import SubSemigroup, enumerate_full_inverse_subsemigroups
    from semigalois.zerocase import is_categorical_at_zero, require_zero_action
    S = beta.S
    require_zero_action(beta)
    if not is_categorical_at_zero(S):
        raise PreconditionFail("the zero correspondence assumes categoricity at zero")
    if not all(beta.im_support(s) for s in range(S.n) if s != S.zero):
        raise PreconditionFail("A_s = 0 for a nonzero s")
    if solve_coordinates_whole(beta, *_galois_system(beta)) is None:
        raise PreconditionFail("A is not beta-Galois over its invariants")
    beta_img, proj = image_action(beta)
    base = invariant_ring(beta)
    failures = []
    pairs = []
    maximal = [T for T in enumerate_full_inverse_subsemigroups(S)
               if is_beta_maximal(beta, T)]
    maximal_sets = {T.members for T in maximal}
    seen_algebras = {}
    for T in maximal:
        B = fixed_subalgebra(beta, T)
        sep = is_separable_whole(B, base) is not None
        strong, fail_at = is_beta_strong(beta, B)
        img_sb = compute_S_B(beta_img, B)
        back = frozenset(s for s in range(S.n) if proj[s] in img_sb.members)
        round_t = back == T.members
        fixed_again = fixed_subalgebra(beta, SubSemigroup(S, back))
        round_b = fixed_again == B
        if B in seen_algebras:
            failures.append(("duplicate fixed algebra", tuple(sorted(T.members))))
        seen_algebras[B] = T
        pairs.append(CorrespondencePair(
            tuple(sorted(T.members)), B.order, B.gen_vectors,
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
        for B in subalgebras_by_coset_scan(beta, base):
            if is_separable_whole(B, base) is None:
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


def verify_coordinates_by_elements(beta, coords):
    """The Galois coordinate identity sum x f(y 1_dom) = rhs_f for pairs of
    coordinate vectors, through `RingElement` products and the polynomial
    `StructuredIso.apply`."""
    from semigalois.galois import galois_rhs
    A = beta.A
    elements = [(A.from_vec(x), A.from_vec(y)) for x, y in coords]
    for s, iso in enumerate(beta.isos):
        want = A.from_vec(galois_rhs(beta, s))
        total = A.from_vec(A.zero_vec)
        for x, y in elements:
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
    total = A.from_vec(A.zero_vec)
    for r in range(1, len(idempotents_list) + 1):
        sign = 1 if r % 2 == 1 else -1
        for combo in itertools.combinations(idempotents_list, r):
            prod = A.from_vec(A.one_vec)
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


def natural_order_by_idempotents(S):
    """leq[s][t]: s = tf for some idempotent f, as `validate_table` computed
    the natural order before it read s = ts^{-1}s."""
    return tuple(tuple(any(S.table[t][f] == s for f in S.idempotents) for t in range(S.n))
                 for s in range(S.n))


def close_isos_by_objects(seed_isos, cap):
    """The closure of partial isos under `compose` and `inverse`, in order of
    discovery, as `corpus.close_isos` took it on iso objects, composing
    every pair from both of its sides; TooLarge past `cap` isos."""
    from semigalois import isopu
    from semigalois.rings import TooLarge

    seen, order = set(), []

    def note(f):
        if f in seen:
            return False
        seen.add(f)
        order.append(f)
        return True

    for f in seed_isos:
        note(f)
        note(f.inverse())
    frontier = list(order)
    while frontier:
        f = frontier.pop()
        for g in list(order):
            for h in (isopu.compose(f, g), isopu.compose(g, f)):
                if note(h):
                    frontier.append(h)
                if len(order) > cap:
                    raise TooLarge("iso closure exceeded the cap")
        inv = f.inverse()
        if note(inv):
            frontier.append(inv)
    return order


def first_non_associative_triple(table):
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc), or
    None: the n^3 scan that `validate_table` ran before Light's test."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


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
    from semigalois.actions import (Action, ActionError, CoverFail, HomFail,
                                    IdempotentNotIdentity)
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
    return Action(S, A, isos)


def validate_partial_group_action_by_own_loops(G, A, isos):
    """The checks of `actions.validate_partial_group_action`; G is a group as an
    `InverseSemigroup`, classes named as G names them."""
    from semigalois import isopu
    from semigalois.actions import PartialActionAxiomFail
    (e,) = G.idempotents
    if isos[e].dom_support != frozenset(range(len(A.atoms))) or not isos[e].is_identity_map():
        raise PartialActionAxiomFail("P1: identity must act as Id_A on A")
    for g in range(G.n):
        if isos[G.inv[g]] != isos[g].inverse():
            raise PartialActionAxiomFail("inverse classes must carry inverse maps")
    for g in range(G.n):
        for h in range(G.n):
            comp = isopu.compose(isos[g], isos[h])
            if not isopu.natural_leq_iso(comp, isos[G.table[g][h]]):
                raise PartialActionAxiomFail(f"P2/P3 fail at classes {G.names[g]}, {G.names[h]}")


def validate_partial_semigroup_action_by_own_loops(S, A, isos):
    from semigalois import isopu
    from semigalois.zerocase import Action, AxiomFail, _require_zero
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
    return Action(S, A, isos)


def validate_partial_groupoid_action_by_own_loops(G, A, isos):
    from semigalois import isopu
    from semigalois.zerocase import Action, AxiomFail
    isos = tuple(isos)
    if len(isos) != G.n:
        raise AxiomFail("PGr", "one iso per element")
    covered = set()
    for e in G.idempotents:
        if not isos[e].is_identity_map():
            raise AxiomFail("PGr1", f"identity {G.names[e]} must act as an identity map")
        if covered & isos[e].im_support:
            raise AxiomFail("PGr0", "identity ideals overlap; the sum is not direct")
        covered |= isos[e].im_support
    if covered != set(range(len(A.atoms))):
        raise AxiomFail("PGr0", "identity ideals do not sum to A")
    for g in range(G.n):
        if isos[G.inv[g]] != isos[g].inverse():
            raise AxiomFail("PGr", f"inverse of {G.names[g]} mismatched")
        if not isos[g].im_support <= isos[G.r[g]].im_support:
            raise AxiomFail("PGr", f"A_{G.names[g]} must sit inside A_{G.names[G.r[g]]}")
    for g in range(G.n):
        for h in range(G.n):
            comp, gh = isopu.compose(isos[g], isos[h]), G.table[g][h]
            if gh is not None:
                target = isos[gh]
                if not comp.dom_support <= target.dom_support:
                    raise AxiomFail("PGr2", f"({G.names[g]},{G.names[h]})")
                if not isopu.natural_leq_iso(comp, target):
                    raise AxiomFail("PGr3", f"({G.names[g]},{G.names[h]})")
            elif comp.dom_support:
                raise AxiomFail("PGr2", f"undefined product ({G.names[g]},{G.names[h]}) "
                                        "with a nonzero composite")
    return Action(G, A, isos)


# Scalar extension R (x)_{A^beta} A along a structural map A^beta -> R: the
# paper's base-change statement, checked as a test property, on one route:
# relation, action and mask loops on a presented base.


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
                                    lambda i, j: R.mul_vec(gens[i], gens[j]), R.one_vec)

    @staticmethod
    def from_subalgebra(B):
        gens = list(B.gen_vectors)
        orders = [B.ring.presentation.vector_order(g) for g in gens]
        return PresentedBaseByLoops(
            gens, orders, span_relations_by_kernel(B),
            lambda i, j: expand_by_solve(B, B.ring.mul_vec(gens[i], gens[j])),
            expand_by_solve(B, B.ring.one_vec))

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
        moduli = [math.gcd(base.orders[i], A.presentation.vector_order(self.ag[j]))
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
        from semigalois.linalg import lattice_reduce
        base, inv, A = self.base, self.invariants, self.beta.A

        def canon(vec):
            return lattice_reduce(base.pres.lattice, vec)

        got_one = base.combine(self.base_images, expand_by_solve(inv, A.one_vec))
        if canon(got_one) != canon(base.one_coeffs):
            raise ActionError("structural map must send 1 to 1")
        for (cu, u) in zip(self.base_images, inv.gen_vectors):
            for (cv, v) in zip(self.base_images, inv.gen_vectors):
                lhs = base.combine(self.base_images, expand_by_solve(inv, A.mul_vec(u, v)))
                if canon(lhs) != canon(base.mul_coeffs(cu, cv)):
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
        gens = [self.pure(_unit(self.k, i), self.beta.A.one_vec) for i in range(self.k)]
        return self.pres.subgroup_canon(gens)

    def invariants_canon(self):
        from semigalois.linalg import block_diag, kernel_gens, vstack
        rows = []
        for iso in self.beta.isos:
            cols = [tuple(a - b for a, b in zip(self.act(iso, z), self._mask(z, iso.im_support)))
                    for z in self.generator_vectors()]
            rows.append(cols_from_vectors(cols, self.k * self.l))
        aug = block_diag([self.pres.lattice] * self.beta.S.n)
        gens = kernel_gens(vstack(rows), aug, self.pres.moduli, self.pres.moduli * self.beta.S.n)
        return self.pres.subgroup_canon(gens)

    def sigma_trace_vec(self, z, alpha):
        total = (0,) * (self.k * self.l)
        for iso in alpha.isos:
            total = tuple(a + b for a, b in zip(total, self.act(iso, z)))
        return total


def scalar_extension_is_galois_by_loops(ext):
    """Re-test Galois-ness of a scalar extension on its presentation: its
    invariants and its sigma-trace image are both the image of R.  The
    induced alpha, which raises on a non-injective or non-E-unitary beta, is
    built before any solve."""
    from semigalois.actions import induce_partial_group_action
    alpha = induce_partial_group_action(ext.beta)
    r_canon = ext.r_image_canon()
    if ext.invariants_canon() != r_canon:
        return False
    traces = [ext.sigma_trace_vec(z, alpha) for z in ext.generator_vectors()]
    return ext.pres.subgroup_canon(traces) == r_canon


def extend_scalars_by_loops(beta, R=None, structural_images=None, guard=1 << 14):
    """R (x)_{A^beta} A, with R = A^beta and the inclusion when both R and its
    `structural_images` are omitted (the Galois precondition is left to the
    caller)."""
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


def atom_zero(atom):
    return 0 if atom.kind == "zmod" else (0,) * atom.k


def atom_one(atom):
    return 1 if atom.kind == "zmod" else ((1,) + (0,) * (atom.k - 1))


def atom_elements(atom):
    return range(atom.order) if atom.kind == "zmod" else itertools.product(range(atom.p), repeat=atom.k)


def atom_power(atom, a, e):
    res = atom_one(atom)
    for _ in range(e):
        res = atom_mul(atom, res, a)
    return res


def atom_frobenius(atom, a, j):
    """a ** (p ** j); the identity on a Z/p^k atom."""
    if atom.kind == "zmod":
        return a
    return atom_power(atom, a, atom.p ** (j % atom.k))


def _elementwise(op, x, *rest):
    return x.ring.element(op(a, *args) for a, *args in
                          zip(x.ring.atoms, x.comps, *(y.comps for y in rest)))


def element_sum(x, y):
    return _elementwise(atom_add, x, y)


def element_product(x, y):
    return _elementwise(atom_mul, x, y)


def element_multiple(x, n):
    return _elementwise(lambda atom, a: atom_scale(atom, a, n), x)


def iso_apply_by_polynomials(iso, el):
    """The iso applied atom by atom through `atom_frobenius`."""
    comps = [atom_zero(a) for a in iso.ring.atoms]
    for i, j in iso.matching.items():
        comps[j] = atom_frobenius(iso.ring.atoms[i], el.comps[i], iso.twist[i])
    return iso.ring.element(comps)


def iso_matrix_by_polynomials(iso):
    """The n x n matrix of (mask to domain, then apply): column j is the image
    of the unit vector e_j by `iso_apply_by_polynomials`, zero off the domain."""
    A = iso.ring
    return cols_from_vectors([iso_apply_by_polynomials(iso, A.from_vec(e)).vec()
                              for e in A.basis_vectors()], A.n_coords)


def verify_iso_extensional(iso, pair_limit=256):
    """Check that `iso.apply` is a bijective, additive, multiplicative,
    1 -> 1 map of its domain ideal onto its image ideal.

    Every domain element is checked by basis-increment additivity plus
    basis-pair multiplicativity (equivalent to the all-pairs statement by
    additivity); small domains are additionally checked on all pairs.
    Products are taken on the polynomial route above.
    """
    ring = iso.ring
    order = math.prod(ring.atoms[i].order for i in iso.dom_support)

    def dom_elements():
        parts = [list(atom_elements(ring.atoms[i])) if i in iso.dom_support else [atom_zero(ring.atoms[i])]
                 for i in range(len(ring.atoms))]
        for comps in itertools.product(*parts):
            yield ring.element(comps)

    if (iso.apply(ring.from_vec(ring.idempotent_vec(iso.dom_support)))
            != ring.from_vec(ring.idempotent_vec(iso.im_support))):
        return False
    basis = [ring.from_vec(b).mask(iso.dom_support) for b in ring.basis_vectors()]
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
    """B (x)_R B on every pair of B's canonical generators, with one relation
    lattice, each product expanded by `expand_by_solve`."""

    def __init__(self, B, R):
        from semigalois.linalg import AbelianPresentation, Matrix
        ring = B.ring
        self.ring, self.B, self.R = ring, B, R
        self.gens = list(B.gen_vectors)
        self.k = self.l = len(self.gens)
        self._mult_matrices = {}
        orders = [ring.presentation.vector_order(v) for v in self.gens]
        moduli = [math.gcd(a, b) for a in orders for b in orders]
        relations = span_relations_by_kernel(B)
        rel_cols = []
        for c in relations:
            for j in range(self.l):
                rel_cols.append({self.index(i, j): x for i, x in enumerate(c) if x})
        for c in relations:
            for i in range(self.k):
                rel_cols.append({self.index(i, j): x for j, x in enumerate(c) if x})
        for r in R.gen_vectors:
            rel_cols += mult_difference(self, r).cols
        self.pres = AbelianPresentation(moduli, Matrix(self.k * self.l, rel_cols))

    def index(self, i, j):
        return i * self.l + j

    def order(self):
        return self.pres.order()

    def mult_map_vec(self):
        return cols_from_vectors([self.ring.mul_vec(u, v) for u in self.gens for v in self.gens],
                                 self.ring.n_coords)

    def mult_matrix(self, b_vec):
        """`mult_matrix_by_solve` on B, once per b."""
        b_vec = tuple(b_vec)
        if b_vec not in self._mult_matrices:
            self._mult_matrices[b_vec] = mult_matrix_by_solve(self.B, b_vec)
        return self._mult_matrices[b_vec]

    def is_zero(self, z):
        return self.pres.is_zero(z)


def whole_full_tensor(beta):
    from semigalois.actions import invariant_ring
    from semigalois.rings import Subalgebra
    return WholeTensorPresentation(Subalgebra.full(beta.A), invariant_ring(beta))


def scatter_lattice(n, parts):
    """The canonical basis of a direct sum of lattices on disjoint coordinates.

    Each of `parts` is (indices, basis): a canonical basis on the increasing
    coordinates `indices` of Z^n.  Every other coordinate carries Z itself.
    The blocks' columns and rows move into place and every other column is a
    unit column.  One increasing map on rows and columns keeps each column
    lower-triangular and each entry left of a pivot reduced below it, so the
    result is the canonical basis `lattice_canon` gives for the same lattice.
    """
    from semigalois.linalg import Matrix
    if len(parts) == 1 and len(parts[0][0]) == n:
        return parts[0][1]  # one part on every coordinate is the whole lattice
    cols = [{i: 1} for i in range(n)]
    for indices, basis in parts:
        for j, c in zip(indices, basis.cols):
            cols[j] = {indices[r]: v for r, v in c.items()}
    return Matrix(n, cols)


def _pair_positions(tensors, whole):
    """Per orbit tensor of A (x)_{A^beta} A, the coordinates of its generator
    pairs on `whole`: each block generator, put in place, is one of A's."""
    index = {g: i for i, g in enumerate(whole.gens)}
    return [[index[block.extend(u)] * whole.l + index[block.extend(v)]
             for u in block.ring.basis_vectors() for v in block.ring.basis_vectors()]
            for block, _ in tensors]


def joined_tensor_lattice(tensors, whole):
    """The orbit tensors' canonical lattices put in place on `whole`'s
    generator pairs (`scatter_lattice`), a pair from two orbits zero."""
    positions = _pair_positions(tensors, whole)
    return scatter_lattice(whole.k * whole.l, [(pos, tensor.pres.lattice)
                                               for pos, (_, tensor) in zip(positions, tensors)])


def joined_tensor_vector(tensors, whole, parts):
    """The vector on `whole` that is parts[o] on orbit o's generator pairs and
    zero on every other pair."""
    out = [0] * (whole.k * whole.l)
    for o, positions in enumerate(_pair_positions(tensors, whole)):
        for p, x in zip(positions, parts.get(o, ())):
            out[p] = x
    return tuple(out)


@remembered
def _whole_mult_matrices(A):
    """`mult_matrix_by_solve` on all of A for each unit vector, kept by the ring."""
    from semigalois.rings import Subalgebra
    full = Subalgebra.full(A)  # its generators are the unit vectors
    return tuple(mult_matrix_by_solve(full, v) for v in A.basis_vectors())


@remembered
def _iso_matrix(iso):
    """`iso_matrix_by_polynomials`, kept by the iso."""
    return iso_matrix_by_polynomials(iso)


def solve_coordinates_whole(beta, isos, rhs_vectors):
    """The coordinate system sum_i x_i f(y_i 1) = rhs_f in one solve over A.
    The matrices it multiplies are built once per ring and once per iso."""
    from semigalois.linalg import block_diag, solve_cols, vstack
    A = beta.A
    n = A.n_coords
    mult_mats = _whole_mult_matrices(A)
    mat = vstack([hstack([matmul(m, _iso_matrix(iso)) for m in mult_mats]) for iso in isos])
    aug = block_diag([A.presentation.lattice] * len(isos))
    target = [x for vec in rhs_vectors for x in vec]
    sol = solve_cols(mat, aug, target, list(A.coord_moduli) * n, list(A.coord_moduli) * len(isos))
    if sol is None:
        return None
    return list(zip(A.basis_vectors(), [sol[i * n:(i + 1) * n] for i in range(n)]))


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
        out = [d for _, _, d in rows]
        gens = kernel_gens(Matrix(len(rows), cols), diag_cols(out), moduli, out)
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
    for x in tensor.gens:
        for y in tensor.gens:
            family = {t: A.mul_vec(x, beta.isos[t].apply_vec(y)) for t in maximal}
            images.append(tuple(family[t][i] for t in maximal for i in offsets[t][1]))
    pa_order = ambient.order() // lattice_det(subgroup)
    image_order = ambient.order() // lattice_det(ambient.subgroup_canon(images))
    kernel_witness = cokernel_witness = None
    if image_order != tensor.order():
        mat = cols_from_vectors(images, len(ambient.moduli))
        kernel_witness = next(g for g in kernel_gens(mat, ambient.lattice, tensor.pres.moduli,
                                                     ambient.moduli)
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
    tensor = WholeTensorPresentation(B, R)
    A = B.ring
    mats, augs, target = [tensor.mult_map_vec()], [A.presentation], list(A.one_vec)
    for b in algebra_generators_by_adjoining(B, R):
        mats.append(mult_difference(tensor, b))
        augs.append(tensor.pres)
        target.extend([0] * (tensor.k * tensor.l))
    sol = solve_cols(vstack(mats), block_diag([p.lattice for p in augs]), target,
                     tensor.pres.moduli, [d for p in augs for d in p.moduli])
    return None if sol is None else (tensor, sol)


def invariant_ring_by_all_kernels(beta):
    """A^beta as `actions.invariant_ring` computed it before it skipped the
    maps that are zero on the span: one kernel for every s, in order."""
    from semigalois.linalg import cols_from_vectors, kernel_gens, residues
    from semigalois.rings import Subalgebra
    A = beta.A
    current = [tuple(v) for v in A.basis_vectors()]
    for iso in beta.isos:
        cols = [A.sub_vec(iso.apply_vec(v), A.mask_vec(v, iso.im_support)) for v in current]
        ker = kernel_gens(cols_from_vectors(cols, A.n_coords), A.presentation.lattice,
                          [A.presentation.vector_order(v) for v in current], A.coord_moduli)
        span = cols_from_vectors(current, A.n_coords)
        current = residues([span.apply(coeffs) for coeffs in ker], A.coord_moduli)
        if not current:
            break
    return Subalgebra(A, current)


def iso_pu_elements(ring, max_count=200_000):
    """Every element of Iso_pu(A): all type-preserving matchings with twists,
    by exhaustive enumeration; raises RingError past `max_count`."""
    from semigalois.rings import RingError, StructuredIso
    atoms = ring.atoms
    by_type = {}
    for i, a in enumerate(atoms):
        by_type.setdefault(a, []).append(i)
    out = []
    for dom in (frozenset(s) for r in range(len(atoms) + 1)
                for s in itertools.combinations(range(len(atoms)), r)):
        groups = {}
        for i in dom:
            groups.setdefault(atoms[i], []).append(i)
        target_choices = []
        for a, srcs in groups.items():
            pool = by_type[a]
            target_choices.append([(srcs, perm) for perm in itertools.permutations(pool, len(srcs))])
        for combo in itertools.product(*target_choices):
            ims = [j for _, perm in combo for j in perm]
            if len(set(ims)) != len(ims):
                continue
            matching = {}
            for srcs, perm in combo:
                matching.update(zip(srcs, perm))
            twist_ranges = [range(atoms[i].k) if atoms[i].kind == "gf" else range(1)
                            for i in sorted(matching)]
            for tw in itertools.product(*twist_ranges):
                out.append(StructuredIso(ring, matching, dict(zip(sorted(matching), tw))))
                if len(out) > max_count:
                    raise RingError("Iso_pu(A) too large to enumerate")
    return out


def upper_bounds(isos, universe):
    """All elements of `universe` lying above every member of `isos`."""
    from semigalois.isopu import natural_leq_iso
    return [u for u in universe if all(natural_leq_iso(f, u) for f in isos)]


# -- paper properties that tests check and no decision reads -------------------


def verify_class_join_group(beta):
    """The class joins under 'unique element above the composite' form a
    group isomorphic to S/sigma, via sigma(s) -> join over sigma(s).

    Returns True, or raises AssertionError.
    """
    from semigalois import isopu
    from semigalois.actions import induce_partial_group_action
    alpha = induce_partial_group_action(beta)
    joins = list(alpha.isos)
    if len(set(joins)) != len(joins):
        raise AssertionError("class joins collide; G' smaller than S/sigma")
    if isopu.join_product_table(joins) != alpha.S.table:
        raise AssertionError("the product of class joins is not that of S/sigma")
    return True


def meet(S, s, t):
    """The order-theoretic meet under the natural order, or None."""
    lower = [w for w in range(S.n) if S.leq[w][s] and S.leq[w][t]]
    for w in lower:
        if all(S.leq[c][w] for c in lower):
            return w
    return None


def direct_product(S1, S2):
    from semigalois.semigroups import validate_table
    pairs = [(a, b) for a in range(S1.n) for b in range(S2.n)]
    index = {p: i for i, p in enumerate(pairs)}
    table = [[index[(S1.table[a1][b1], S2.table[a2][b2])] for (b1, b2) in pairs]
             for (a1, a2) in pairs]
    names = [f"({S1.names[a]},{S2.names[b]})" for a, b in pairs]
    return validate_table(table, names=names)
