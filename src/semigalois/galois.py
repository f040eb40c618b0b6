"""Galois criteria for unital inverse semigroup actions, with certificates.

Four independently implemented routes test whether A is Galois over its
invariants: coordinate systems (one exact linear solve over the additive
basis), bijectivity of the comparison map into the compatible-family ring,
separability plus strongness, and the twisted-trace image.  On E-unitary
injective instances the first three are provably equivalent and asserted
unanimous, and cross-checked against the induced partial group action;
the trace-image test is enforced as a necessary condition, with its known
insufficiency (see `cross_check_equivalences`) flagged rather than fatal.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .actions import (UnitalAction, induce_partial_group_action, invariant_ring,
                      is_injective, sigma_trace_image)
from .linalg import (AbelianPresentation, Matrix, block_diag, cols_from_vectors, diag_cols,
                     hstack, kernel_gens, lattice_det, lattice_member, residues, solve_cols, vstack)
from .rings import Subalgebra, TensorPresentation, NotSubring
from .semigroups import SubSemigroup, is_e_unitary


class EquivalenceViolation(AssertionError):
    """The provably equivalent criteria disagreed: a bug or a misread instance."""


class CertificateMismatch(AssertionError):
    """A computed certificate failed its independent re-verification."""


class NotSubalgebra(Exception):
    pass


class PreconditionFail(Exception):
    pass


def galois_rhs(beta, s):
    """The right side sum over E(S) of 1_e delta_{e,s}: 1_s on idempotents, else 0.

    The delta-sum is also evaluated literally and compared.
    """
    A = beta.A
    direct = beta.ideal_one(s) if beta.S.is_idempotent(s) else A.zero()
    literal = A.zero()
    for e in beta.S.idempotents:
        if e == s:
            literal = literal + beta.ideal_one(e)
    if literal != direct:
        raise CertificateMismatch(f"delta-sum for s={s} disagrees with 1_s")
    return direct


def _coordinate_system_matrix(beta, isos):
    """Stacked matrix of y -> (sum_i x_i * f(y_i 1_dom))_f over basis x."""
    A = beta.A
    mult_mats = [A.mult_matrix(v) for v in A.basis_vectors()]
    blocks = []
    for iso in isos:
        iso_mat = iso.matrix()
        blocks.append(hstack([m @ iso_mat for m in mult_mats]))
    return vstack(blocks)


def _solve_coordinates(beta, isos, rhs_vectors):
    """Solve sum_i x_i f(y_i 1) = rhs_f for y with x the additive basis.

    Any coordinate system can be rewritten onto the basis x by pushing the
    integer expansion coefficients onto the y side, so solvability with
    basis x is equivalent to existence.
    """
    A = beta.A
    n = A.n_coords
    mat = _coordinate_system_matrix(beta, isos)
    aug = block_diag([A.presentation.lattice] * len(isos))
    target = [x for vec in rhs_vectors for x in vec]
    in_moduli = list(A.coord_moduli) * n
    sol = solve_cols(mat, aug, target, in_moduli)
    if sol is None:
        return None
    ys = [A.from_vec(sol[i * n:(i + 1) * n]) for i in range(n)]
    xs = A.basis_elements()
    return list(zip(xs, ys))


def verify_coordinates(beta, coords, isos=None, rhs=None):
    """Re-evaluate sum_i x_i f(y_i 1_dom) = rhs_f on coordinates, apart from the solve.

    `rhs` holds coordinate vectors; `apply_vec` masks y to the domain.
    """
    A = beta.A
    if isos is None:
        isos = beta.isos
        rhs = [galois_rhs(beta, s).vec() for s in range(beta.S.n)]
    pairs = [(x.vec(), y.vec()) for x, y in coords]
    for iso, want in zip(isos, rhs):
        total = A.zero().vec()
        for x, y in pairs:
            total = A.add_vec(total, A.mul_vec(x, iso.apply_vec(y)))
        if total != want:
            return False
    return True


def _galois_system(beta):
    """(isos, right sides) of the Galois coordinate system."""
    return list(beta.isos), [galois_rhs(beta, s).vec() for s in range(beta.S.n)]


def _partial_action_system(beta, alpha):
    """(isos, right sides) of the coordinate system of alpha (delta at 1_G)."""
    A = beta.A
    return list(alpha.isos), [(A.one() if g == alpha.group.identity else A.zero()).vec()
                              for g in range(alpha.group.size())]


def _solve_verified(beta, isos, rhs, name):
    coords = _solve_coordinates(beta, isos, rhs)
    if coords is not None and not verify_coordinates(beta, coords, isos=isos, rhs=rhs):
        raise CertificateMismatch(f"{name} coordinate system fails its defining identity")
    return coords


def solve_galois_coordinates(beta):
    """Criterion (coordinates): a Galois coordinate system or None."""
    return _solve_verified(beta, *_galois_system(beta), "Galois")


def solve_partial_action_coordinates(beta, alpha=None):
    """Coordinates for the induced partial group action (delta at 1_G)."""
    if alpha is None:
        alpha = induce_partial_group_action(beta)
    return _solve_verified(beta, *_partial_action_system(beta, alpha), "partial-action")


def is_galois_trace_criterion(beta, alpha=None):
    """Criterion (trace): tr^sigma(A) equals the invariant subring."""
    if not is_injective(beta):
        from .actions import image_action
        _, beta, _ = image_action(beta)
    return sigma_trace_image(beta, alpha) == invariant_ring(beta)


# -- the compatible-family ring PA_beta(S) and the comparison map psi --------


class PABetaS:
    """The ring of compatible families (a_s), compressed to maximal coordinates.

    A family is determined by its values on the maximal elements of S, and
    conversely any maximal tuple satisfying the pairwise meet constraints
    extends uniquely; the constraints and all arithmetic happen on the
    compressed coordinates.
    """

    def __init__(self, beta):
        S, A = beta.S, beta.A
        self.beta = beta
        self.maximal = [s for s in range(S.n)
                        if not any(t != s and S.leq[s][t] for t in range(S.n))]
        self.block_coords = []
        self.offsets = {}
        moduli = []
        pos = 0
        for t in self.maximal:
            coords = [i for i in range(A.n_coords)
                      if A.coord_atom(i) in beta.im_support(t)]
            self.offsets[t] = (pos, coords)
            self.block_coords.append(coords)
            moduli.extend(A.coord_moduli[i] for i in coords)
            pos += len(coords)
        self.total = pos
        self.moduli = tuple(moduli)
        self.ambient = AbelianPresentation(self.moduli)

        constraints = []  # (index of +1, index of -1, modulus) per constraint row
        pair_supports = {}
        for s in range(S.n):
            above = [t for t in self.maximal if S.leq[s][t]]
            for t1, t2 in itertools.combinations(above, 2):
                key = (t1, t2)
                pair_supports.setdefault(key, set()).update(beta.im_support(s))
        for (t1, t2), supp in sorted(pair_supports.items()):
            for i in range(A.n_coords):
                if A.coord_atom(i) not in supp:
                    continue
                p1, c1 = self.offsets[t1]
                p2, c2 = self.offsets[t2]
                constraints.append((p1 + c1.index(i), p2 + c2.index(i), A.coord_moduli[i]))
        if constraints:
            cols = [{} for _ in range(self.total)]
            for r, (plus, minus, _) in enumerate(constraints):
                cols[plus][r] = 1
                cols[minus][r] = -1
            gens = kernel_gens(Matrix(len(constraints), cols),
                               diag_cols([d for _, _, d in constraints]), self.moduli)
        else:
            gens = [tuple(1 if j == i else 0 for j in range(self.total))
                    for i in range(self.total)]
        self.subgroup = self.ambient.subgroup_canon(gens)
        self.order = self.ambient.order() // lattice_det(self.subgroup)
        self._constraints = constraints

    def compress(self, family):
        """Compressed coordinates of a family {t: coordinate vector} on the maximal t."""
        vec = []
        for t in self.maximal:
            v = family[t]
            _, coords = self.offsets[t]
            vec.extend(v[i] for i in coords)
        return tuple(vec)

    def member(self, vec):
        return lattice_member(self.subgroup, vec)

    def satisfies_constraints(self, vec):
        return all((vec[plus] - vec[minus]) % d == 0 for plus, minus, d in self._constraints)

    def element_generators(self):
        return residues(map(self.subgroup.column, range(self.total)), self.moduli)


def psi_image_vector(beta, pa, x, y):
    """psi(x (x) y) = (x beta_s(y 1_{s^-1}))_s on the maximal coordinates.

    x and y are coordinate vectors; `apply_vec` masks y to the domain.
    """
    return _psi_image(beta.A, pa, x, [beta.isos[t].apply_vec(y) for t in pa.maximal])


def _psi_image(A, pa, x, moved_y):
    """psi(x (x) y) from y's images beta_t(y 1_{t^-1}), t in `pa.maximal` in order."""
    return pa.compress({t: A.mul_vec(x, m) for t, m in zip(pa.maximal, moved_y)})


@dataclass
class PsiReport:
    bijective: bool
    tensor_order: int
    pa_order: int
    image_order: int
    kernel_witness: tuple | None = None
    cokernel_witness: tuple | None = None


def psi_check(beta, tensor=None):
    """Criterion (comparison map): is psi: A (x)_{A^beta} A -> PA bijective?

    `tensor` is a built A (x)_{A^beta} A to reuse; without it one is built.
    psi is evaluated on every generator pair of the tensor, on coordinates,
    with each beta_t applied to each generator of the second factor once.
    """
    if tensor is None:
        tensor = _full_tensor(beta, invariant_ring(beta))
    pa = PABetaS(beta)
    moved = [[beta.isos[t].apply_vec(y) for t in pa.maximal] for y in tensor.ng]
    images = []
    for i in range(tensor.k):
        for j in range(tensor.l):
            vec = _psi_image(beta.A, pa, tensor.mg[i], moved[j])
            if not pa.satisfies_constraints(vec):
                raise CertificateMismatch(f"psi image of generator pair ({i}, {j}) leaves PA")
            images.append(vec)
    image_order = pa.ambient.subgroup_order(images)
    t_order = tensor.order()
    bij = (image_order == t_order == pa.order)
    report = PsiReport(bij, t_order, pa.order, image_order)
    if image_order != t_order:
        # an element of the kernel: combination of generators mapping to 0
        mat = cols_from_vectors(images, pa.total)
        gens = kernel_gens(mat, pa.ambient.lattice, tensor.pres.moduli)
        for gvec in gens:
            if not tensor.pres.is_zero(gvec):
                report.kernel_witness = gvec
                break
    if image_order != pa.order:
        img_canon = pa.ambient.subgroup_canon(images)
        for cand in pa.element_generators():
            if not lattice_member(img_canon, cand):
                report.cokernel_witness = cand
                break
    return report


# -- S_B, beta-strong, separability ------------------------------------------


def compute_S_B(beta, B: Subalgebra):
    """S_B = {s : beta_s(b 1_{s^-1}) = b 1_s for all b in B} (generators suffice)."""
    if not B.is_subalgebra():
        raise NotSubalgebra("S_B needs a unital subalgebra")
    A = beta.A
    members = set()
    for s in range(beta.S.n):
        iso = beta.isos[s]
        ok = True
        for g in B.gen_vectors:
            moved = iso.apply_vec(A.mask_vec(g, iso.dom_support))
            kept = A.mask_vec(g, iso.im_support)
            if moved != kept:
                ok = False
                break
        if ok:
            members.add(s)
    sub = SubSemigroup(beta.S, frozenset(members))
    if not sub.is_full:
        raise CertificateMismatch("S_B is not full")
    return sub


def is_beta_strong(beta, B: Subalgebra, s_b=None):
    """beta-strongness of B: (True, None), or (False, (s, t, frozenset({i}))).

    A pair (s, t) needs separating only when no nonzero element of S_B
    restricts s^{-1}t (S_B is an order ideal, so this subsumes membership
    of s^{-1}t itself; for B = A with an injective action on an E-unitary
    zero-free S it reduces to s^{-1}t being a non-idempotent).  Without
    this weakening, fixed rings of middle subsemigroups fail on ideals
    where the action collapses onto a twist-fixed subring even though the
    correspondence demonstrably holds there.

    The separation defect b -> beta_s(b 1)e - beta_t(b 1)e is additive in b
    and in e, so a support e is separated by B iff one of its atoms is, by a
    generator of B: a pair fails at the first atom of im(s) u im(t) that no
    generator separates, which is also the first failing support by size.
    """
    if s_b is None:
        s_b = compute_S_B(beta, B)
    S = beta.S
    A = beta.A

    @functools.cache
    def moved(s):
        return [beta.isos[s].apply_vec(g) for g in B.gen_vectors]

    for s in range(S.n):
        for t in range(S.n):
            prod = S.table[S.inv[s]][t]
            if any(u != S.zero and S.leq[u][prod] for u in s_b.members):
                continue
            for i in sorted(beta.im_support(s) | beta.im_support(t)):
                lo, hi = A.atom_span(i)
                if all(x[lo:hi] == y[lo:hi] for x, y in zip(moved(s), moved(t))):
                    return False, (s, t, frozenset({i}))
    return True, None


def is_separable(B: Subalgebra, R: Subalgebra, tensor=None):
    """A separability idempotent of B over R in B (x)_R B, or None.

    Solves m(z) = 1 and ((b (x) 1) - (1 (x) b)) z = 0 exactly, for b over
    generators of B as an R-algebra (`Subalgebra.algebra_generators`): the b
    satisfying the second equation form an R-subalgebra of B, so these
    suffice.  The answer is then re-verified on every additive generator of
    B.  `tensor` is a built B (x)_R B to reuse; without it one is built.
    """
    if not B.contains(R):
        raise NotSubring("separability needs R inside B")
    if tensor is None:
        tensor = TensorPresentation(B, B, R)
    g = tensor.k * tensor.l
    A = B.ring
    blocks = [tensor.mult_map_vec()]
    augs = [A.presentation.lattice]
    target = list(A.one().vec())
    for b in B.algebra_generators(R):
        blocks.append(tensor.mult_difference(b))
        augs.append(tensor.pres.lattice)
        target.extend([0] * g)
    sol = solve_cols(vstack(blocks), block_diag(augs), target, tensor.pres.moduli)
    if sol is None:
        return None
    if not verify_separability_idempotent(tensor, sol):
        raise CertificateMismatch("separability idempotent fails its defining equations")
    return tensor, sol


def verify_separability_idempotent(tensor, z):
    """Direct evaluation of both defining equations of a separability idempotent.

    The second is checked for every additive generator b of M.  With z
    reshaped to the k x l matrix Z, (b (x) 1)z is E.Z and (1 (x) b)z is
    Z.F^T, for E and F the matrices of b* on the two factors' generators:
    column j of E.Z is E times column j of Z, and row i of Z.F^T is F
    times row i of Z.
    """
    A = tensor.ring
    mz = tensor.mult_map_vec().apply(z)
    if tuple(x % d for x, d in zip(mz, A.coord_moduli)) != A.one().vec():
        return False
    k, l = tensor.k, tensor.l
    z_rows = [z[i * l:(i + 1) * l] for i in range(k)]
    z_cols = [z[j::l] for j in range(l)]
    for b in tensor.M.gen_vectors:
        E, F = tensor.left_factor(b), tensor.right_factor(b)
        ez_cols = [E.apply(c) for c in z_cols]
        left = tuple(ez_cols[j][i] for i in range(k) for j in range(l))
        right = tuple(x for r in z_rows for x in F.apply(r))
        if not tensor.pres.eq(left, right):
            return False
    return True


def _full_tensor(beta, invariants):
    """A (x)_{A^beta} A, with `invariants` = A^beta."""
    full = Subalgebra.full(beta.A)
    return TensorPresentation(full, full, invariants)


def separability_idempotent_from_coordinates(beta, coords, tensor=None):
    """e = sum x_i (x) y_i built from a coordinate system, in A (x)_{A^beta} A.

    `tensor` is a built A (x)_{A^beta} A to reuse; without it one is built.
    """
    if tensor is None:
        tensor = _full_tensor(beta, invariant_ring(beta))
    z = [0] * (tensor.k * tensor.l)
    for x, y in coords:
        pv = tensor.pure(x, y)
        z = [a + b for a, b in zip(z, pv)]
    return tensor, tuple(z)


# -- the cross-checked equivalence report ------------------------------------


@dataclass
class GaloisCertificate:
    coordinates: list | None = None
    trace_image_generators: list = field(default_factory=list)
    psi: PsiReport | None = None
    separability_idempotent: tuple | None = None
    strong_failure: tuple | None = None
    alpha_coordinates: list | None = None


@dataclass
class EquivalenceReport:
    galois: bool
    verdicts: dict
    certificate: GaloisCertificate
    invariants_order: int
    trace_gap: bool = False


def cross_check_equivalences(beta: UnitalAction):
    """Evaluate criteria (coordinates), (psi), (separable+strong), (trace).

    Preconditions: S finite E-unitary without zero, beta unital injective,
    all A_s nonzero.  The first three criteria and alpha-Galois are
    provably equivalent and asserted unanimous with zero tolerance.  The
    trace-image criterion is necessary but not sufficient: when a class of
    the quotient group acts trivially on an atom whose characteristic does
    not divide the class count, the trace stays surjective while the
    extension fails to be Galois (e.g. C2 on Z/5 x GF(9) by identity x
    Frobenius).  That one disagreement shape is reported as `trace_gap`;
    any other disagreement raises EquivalenceViolation.
    """
    S = beta.S
    if S.zero is not None:
        raise PreconditionFail("zero semigroups go through the zero-case pipeline")
    if not is_e_unitary(S):
        raise PreconditionFail("equivalence theorem needs an E-unitary S")
    if not is_injective(beta):
        raise PreconditionFail("equivalence theorem needs an injective action")
    if not beta.all_ideals_nonzero():
        raise PreconditionFail("equivalence theorem assumes A_s != 0")

    inv = invariant_ring(beta)
    cert = GaloisCertificate()
    verdicts = {}

    coords = solve_galois_coordinates(beta)
    cert.coordinates = coords
    verdicts["coordinates"] = coords is not None

    # one A (x)_{A^beta} A serves psi, separability and the coordinate-built idempotent
    tensor = _full_tensor(beta, inv)
    psi = psi_check(beta, tensor=tensor)
    cert.psi = psi
    verdicts["psi_bijective"] = psi.bijective

    sep = is_separable(tensor.M, inv, tensor=tensor)
    strong, failure = is_beta_strong(beta, tensor.M)
    cert.separability_idempotent = (sep[1] if sep else None)
    cert.strong_failure = failure
    verdicts["separable_and_strong"] = (sep is not None) and strong

    alpha = induce_partial_group_action(beta)
    trace_img = sigma_trace_image(beta, alpha)
    cert.trace_image_generators = trace_img.generators()
    verdicts["trace_image"] = trace_img == inv

    core = {verdicts["coordinates"], verdicts["psi_bijective"],
            verdicts["separable_and_strong"]}
    if len(core) != 1:
        raise EquivalenceViolation(f"provably equivalent criteria disagree: {verdicts}")
    galois = core.pop()
    trace_gap = False
    if verdicts["trace_image"] != galois:
        if galois or not verdicts["trace_image"]:
            raise EquivalenceViolation(f"trace criterion broke necessity: {verdicts}")
        trace_gap = True

    # alpha's system is often beta's (same isos in the same order, same right
    # sides: S a group, say); it then has beta's solution, and the check below holds
    if _partial_action_system(beta, alpha) == _galois_system(beta):
        alpha_coords = coords
    else:
        alpha_coords = solve_partial_action_coordinates(beta, alpha)
    cert.alpha_coordinates = alpha_coords
    if (alpha_coords is not None) != galois:
        raise EquivalenceViolation("beta-Galois and alpha-Galois disagree")

    if galois and coords is not None:
        _, e_vec = separability_idempotent_from_coordinates(beta, coords, tensor=tensor)
        if not verify_separability_idempotent(tensor, e_vec):
            raise EquivalenceViolation("coordinate-built separability idempotent failed")

    return EquivalenceReport(galois, verdicts, cert, inv.order, trace_gap)


def is_galois(beta):
    """The cheap decider used as a precondition elsewhere: criterion (coordinates)."""
    return solve_galois_coordinates(beta) is not None


def scalar_extension_is_galois(ext):
    """Re-test Galois-ness of a scalar extension on its presentation.

    Checks the trace criterion for the extended action and that the
    invariants coincide with the image of the base ring R.
    """
    alpha = induce_partial_group_action(ext.beta)
    inv_canon = ext.invariants_canon()
    r_canon = ext.r_image_canon()
    if inv_canon != r_canon:
        return False
    gens = ext.generator_vectors()
    traces = [ext.sigma_trace_vec(z, alpha) for z in gens]
    trace_canon = ext.pres.subgroup_canon(traces)
    return trace_canon == r_canon
