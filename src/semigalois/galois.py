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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .actions import (UnitalAction, induce_partial_group_action, invariant_ring,
                      is_injective, sigma_trace_image)
from .linalg import AbelianPresentation, block_diag, cols_from_vectors, kernel_gens, solve_cols
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
    n = A.n_coords
    basis = A.basis_vectors()
    mult_mats = [A.mult_matrix(v) for v in basis]
    blocks = []
    for iso in isos:
        iso_mat = iso.matrix()
        row = [mult_mats[i].dot(iso_mat) for i in range(n)]
        blocks.append(np.concatenate(row, axis=1))
    return np.concatenate(blocks, axis=0)


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
    """Directly re-evaluate the defining identity of a coordinate system."""
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


def solve_galois_coordinates(beta):
    """Criterion (coordinates): a Galois coordinate system or None."""
    rhs = [galois_rhs(beta, s).vec() for s in range(beta.S.n)]
    coords = _solve_coordinates(beta, beta.isos, rhs)
    if coords is not None:
        if not verify_coordinates(beta, coords):
            raise CertificateMismatch("Galois coordinate system fails its defining identity")
    return coords


def solve_partial_action_coordinates(beta, alpha=None):
    """Coordinates for the induced partial group action (delta at 1_G)."""
    if alpha is None:
        alpha = induce_partial_group_action(beta, check_boolean_sum=False)
    A = beta.A
    rhs = [(A.one() if g == alpha.group.identity else A.zero()).vec()
           for g in range(alpha.group.size())]
    coords = _solve_coordinates(beta, alpha.isos, rhs)
    if coords is not None:
        rhs_els = [A.from_vec(v) for v in rhs]
        if not verify_coordinates(beta, coords, isos=alpha.isos, rhs=rhs_els):
            raise CertificateMismatch("partial-action coordinate system fails its defining identity")
    return coords


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

        constraint_rows = []
        row_moduli = []
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
                row = [0] * self.total
                p1, c1 = self.offsets[t1]
                p2, c2 = self.offsets[t2]
                row[p1 + c1.index(i)] = 1
                row[p2 + c2.index(i)] = -1
                constraint_rows.append(row)
                row_moduli.append(A.coord_moduli[i])
        if constraint_rows:
            mat = np.array(constraint_rows, dtype=object)
            aug = np.zeros((len(constraint_rows), len(constraint_rows)), dtype=object)
            for i, d in enumerate(row_moduli):
                aug[i, i] = d
            gens = kernel_gens(mat, aug, self.moduli)
        else:
            gens = [tuple(1 if j == i else 0 for j in range(self.total))
                    for i in range(self.total)]
        self.subgroup = self.ambient.subgroup_canon(gens)
        self.order = self.ambient.order() // math.prod(
            int(self.subgroup[i, i]) for i in range(self.total))
        self._constraints = (constraint_rows, row_moduli)

    def compress(self, family):
        """Compressed coordinates of a full family {s: RingElement}."""
        vec = []
        for t in self.maximal:
            v = family[t].vec()
            _, coords = self.offsets[t]
            vec.extend(v[i] for i in coords)
        return tuple(vec)

    def member(self, vec):
        from .linalg import lattice_member
        return lattice_member(self.subgroup, vec)

    def satisfies_constraints(self, vec):
        rows, mods = self._constraints
        for row, d in zip(rows, mods):
            if sum(r * x for r, x in zip(row, vec)) % d:
                return False
        return True

    def element_generators(self):
        gens = []
        for j in range(self.total):
            col = tuple(int(self.subgroup[i, j]) % self.moduli[i] for i in range(self.total))
            if any(col):
                gens.append(col)
        return gens


def psi_image_vector(beta, pa, x_el, y_el):
    """psi(x (x) y) = (x beta_s(y 1_{s^-1}))_s on the maximal coordinates."""
    family = {}
    for t in pa.maximal:
        iso = beta.isos[t]
        family[t] = x_el * iso.apply(y_el.mask(iso.dom_support))
    return pa.compress(family)


def build_pa_beta_s(beta):
    return PABetaS(beta)


@dataclass
class PsiReport:
    bijective: bool
    tensor_order: int
    pa_order: int
    image_order: int
    kernel_witness: tuple | None = None
    cokernel_witness: tuple | None = None


def psi_check(beta, invariants=None, guard=1 << 20):
    """Criterion (comparison map): is psi: A (x)_{A^beta} A -> PA bijective?"""
    A = beta.A
    base = invariants if invariants is not None else invariant_ring(beta)
    tensor = TensorPresentation(Subalgebra.full(A), Subalgebra.full(A), base, guard=guard)
    pa = PABetaS(beta)
    m_els = [A.from_vec(v) for v in tensor.mg]
    n_els = [A.from_vec(v) for v in tensor.ng]
    images = []
    for i in range(tensor.k):
        for j in range(tensor.l):
            vec = psi_image_vector(beta, pa, m_els[i], n_els[j])
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
        from .linalg import lattice_member
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
    """beta-strongness of B, with separating witnesses per (s, t, e).

    A pair (s, t) needs separating only when no nonzero element of S_B
    restricts s^{-1}t (S_B is an order ideal, so this subsumes membership
    of s^{-1}t itself; for B = A with an injective action on an E-unitary
    zero-free S it reduces to s^{-1}t being a non-idempotent).  Without
    this weakening, fixed rings of middle subsemigroups fail on ideals
    where the action collapses onto a twist-fixed subring even though the
    correspondence demonstrably holds there.

    The separation defect b -> beta_s(b 1)e - beta_t(b 1)e is additive in b,
    so scanning the generators decides it; the witness scan falls back to
    the full span only to honor the documented search order.
    """
    if s_b is None:
        s_b = compute_S_B(beta, B)
    S = beta.S
    A = beta.A
    witnesses = {}
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
                found = None
                for g in B.gen_vectors:
                    if _separates(beta, s, t, supp, g):
                        found = A.from_vec(g)
                        break
                if found is None:
                    for g in B.element_vectors():
                        if _separates(beta, s, t, supp, g):
                            found = A.from_vec(g)
                            break
                if found is None:
                    return False, (s, t, supp), witnesses
                witnesses[(s, t, supp)] = found
    return True, None, witnesses


def _separates(beta, s, t, supp, g_vec):
    A = beta.A
    iso_s, iso_t = beta.isos[s], beta.isos[t]
    lhs = A.mask_vec(iso_s.apply_vec(A.mask_vec(g_vec, iso_s.dom_support)), supp)
    rhs = A.mask_vec(iso_t.apply_vec(A.mask_vec(g_vec, iso_t.dom_support)), supp)
    return lhs != rhs


def is_separable(B: Subalgebra, R: Subalgebra, guard=1 << 20):
    """A separability idempotent of B over R in B (x)_R B, or None.

    Solves m(z) = 1 and ((b (x) 1) - (1 (x) b)) z = 0 for b over the
    generators of B exactly, then re-verifies every defining equation.
    """
    if not B.contains(R):
        raise NotSubring("separability needs R inside B")
    tensor = TensorPresentation(B, B, R, guard=guard)
    g = tensor.k * tensor.l
    A = B.ring
    blocks = [tensor.mult_map_vec()]
    augs = [A.presentation.lattice]
    target = list(A.one().vec())
    for b in B.gen_vectors:
        diff = tensor.left_mult_matrix(b) - tensor.right_mult_matrix(b)
        blocks.append(diff)
        augs.append(tensor.pres.lattice)
        target.extend([0] * g)
    mat = np.concatenate(blocks, axis=0)
    aug = block_diag(augs)
    sol = solve_cols(mat, aug, target, tensor.pres.moduli)
    if sol is None:
        return None
    if not verify_separability_idempotent(tensor, sol):
        raise CertificateMismatch("separability idempotent fails its defining equations")
    return tensor, sol


def verify_separability_idempotent(tensor, z):
    """Direct evaluation of both defining equations of a separability idempotent."""
    A = tensor.ring
    mz = tensor.mult_map_vec().dot(np.array(z, dtype=object).reshape(-1, 1))
    got = tuple(int(mz[i, 0]) % A.coord_moduli[i] for i in range(A.n_coords))
    if got != A.one().vec():
        return False
    for b in tensor.M.gen_vectors:
        left = tensor.left_mult_matrix(b).dot(np.array(z, dtype=object).reshape(-1, 1))
        right = tensor.right_mult_matrix(b).dot(np.array(z, dtype=object).reshape(-1, 1))
        lv = tuple(int(x) for x in left.ravel())
        rv = tuple(int(x) for x in right.ravel())
        if not tensor.pres.eq(lv, rv):
            return False
    return True


def separability_idempotent_from_coordinates(beta, coords, invariants=None):
    """e = sum x_i (x) y_i built from a coordinate system, in A (x)_{A^beta} A."""
    A = beta.A
    base = invariants if invariants is not None else invariant_ring(beta)
    tensor = TensorPresentation(Subalgebra.full(A), Subalgebra.full(A), base)
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
    strong_witnesses: dict = field(default_factory=dict)
    strong_failure: tuple | None = None
    alpha_coordinates: list | None = None


@dataclass
class EquivalenceReport:
    galois: bool
    verdicts: dict
    certificate: GaloisCertificate
    invariants_order: int
    trace_gap: bool = False


def cross_check_equivalences(beta: UnitalAction, guard=1 << 20):
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

    psi = psi_check(beta, invariants=inv, guard=guard)
    cert.psi = psi
    verdicts["psi_bijective"] = psi.bijective

    sep = is_separable(Subalgebra.full(beta.A), inv, guard=guard)
    strong, failure, witnesses = is_beta_strong(beta, Subalgebra.full(beta.A))
    cert.separability_idempotent = (sep[1] if sep else None)
    cert.strong_witnesses = witnesses
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

    alpha_coords = solve_partial_action_coordinates(beta, alpha)
    cert.alpha_coordinates = alpha_coords
    if (alpha_coords is not None) != galois:
        raise EquivalenceViolation("beta-Galois and alpha-Galois disagree")

    if galois and coords is not None:
        tensor, e_vec = separability_idempotent_from_coordinates(beta, coords, invariants=inv)
        if not verify_separability_idempotent(tensor, e_vec):
            raise EquivalenceViolation("coordinate-built separability idempotent failed")

    return EquivalenceReport(galois, verdicts, cert, inv.order, trace_gap)


def is_galois(beta):
    """The cheap decider used as a precondition elsewhere: criterion (coordinates)."""
    return solve_galois_coordinates(beta) is not None


def scalar_extension_is_galois(ext, beta=None):
    """Re-test Galois-ness of a scalar extension on its presentation.

    Checks the trace criterion for the extended action and that the
    invariants coincide with the image of the base ring R.
    """
    beta = beta if beta is not None else ext.beta
    alpha = induce_partial_group_action(beta, check_boolean_sum=False)
    inv_canon = ext.invariants_canon()
    r_canon = ext.r_image_canon()
    if not (inv_canon == r_canon).all():
        return False
    gens = ext.generator_vectors()
    traces = [ext.sigma_trace_vec(z, alpha) for z in gens]
    trace_canon = ext.pres.subgroup_canon(traces)
    return (trace_canon == r_canon).all()
