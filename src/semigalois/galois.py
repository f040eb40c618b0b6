"""Galois criteria for unital inverse semigroup actions, with certificates.

Four independently implemented routes test whether A is Galois over its
invariants: coordinate systems (an exact linear solve over the additive
basis), bijectivity of the comparison map into the compatible-family ring,
separability plus strongness, and the twisted-trace image.  On E-unitary
injective instances the first three are provably equivalent and asserted
unanimous, and cross-checked against the induced partial group action;
the trace-image test is enforced as a necessary condition, with its known
insufficiency (see `cross_check_equivalences`) flagged rather than fatal.
The linear systems of the first three are solved one orbit of the atom
maps at a time (`UnitalAction.orbits`).  The tensor A (x)_{A^beta} A is
held as one `TensorPresentation` per orbit (`orbit_tensors`): a generator
pair from two orbits is zero, so it is no generator at all.  The assembled
coordinate system is re-verified over all of A, and a separability
idempotent, one vector per orbit, by m(z) summed over the orbits against
1 of A and by each orbit's commutation equations on its own tensor.
`is_galois`, the precondition of the correspondences, solves nothing: it is
the fixed-atom rule of the atom model, held to the criteria on every
cross-check.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .actions import (UnitalAction, fixed_atom_violation, image_action,
                      induce_partial_group_action, invariant_order_from_atoms, invariant_ring,
                      is_injective, sigma_trace_image)
from .linalg import (AbelianPresentation, Matrix, block_diag, cols_from_vectors, diag_cols,
                     hstack, kernel_gens, lattice_det, lattice_member, residues, scatter_lattice,
                     solve_cols, vstack)
from .rings import Block, Subalgebra, TensorPresentation, NotSubring
from .semigroups import SubSemigroup, is_e_unitary, remembered


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
    direct = beta.ideal_one(s) if beta.S.is_idempotent(s) else A.zero_vec
    literal = A.zero_vec
    for e in beta.S.idempotents:
        if e == s:
            literal = A.add_vec(literal, beta.ideal_one(e))
    if literal != direct:
        raise CertificateMismatch(f"delta-sum for s={s} disagrees with 1_s")
    return direct


def _coordinate_system_matrix(ring, isos):
    """Stacked matrix of y -> (sum_i x_i * f(y_i 1_dom))_f over basis x."""
    mult_mats = [ring.mult_matrix(v) for v in ring.basis_vectors()]
    blocks = []
    for iso in isos:
        iso_mat = iso.matrix()
        blocks.append(hstack([m @ iso_mat for m in mult_mats]))
    return vstack(blocks)


def _solve_coordinates(beta, isos, rhs_vectors):
    """Solve sum_i x_i f(y_i 1) = rhs_f for y with x the additive basis.

    Any coordinate system can be rewritten onto the basis x by pushing the
    integer expansion coefficients onto the y side, so solvability with
    basis x is equivalent to existence.  The isos move atoms within the
    orbits of beta, so x_i f(y_i 1) reads y_i only on x_i's orbit, and the
    system is solved one orbit at a time (`UnitalAction.orbits`); each y_i
    is zero off x_i's orbit.
    """
    A = beta.A
    ys = [None] * A.n_coords
    for block in beta.orbits:
        ring = block.ring
        n = ring.n_coords
        mat = _coordinate_system_matrix(ring, [block.iso(f) for f in isos])
        aug = block_diag([ring.presentation.lattice] * len(isos))
        target = [x for vec in rhs_vectors for x in block.restrict(vec)]
        sol = solve_cols(mat, aug, target, list(ring.coord_moduli) * n)
        if sol is None:
            return None
        for i, c in enumerate(block.coords):
            ys[c] = block.extend(sol[i * n:(i + 1) * n])
    return list(zip(A.basis_vectors(), ys))


def verify_coordinates(beta, coords, system=None):
    """Re-evaluate sum_i x_i f(y_i 1_dom) = rhs_f on coordinates, apart from the solve.

    `system` is the pair (isos, right sides); by default it is beta's
    Galois system.  `apply_vec` masks y to the domain.
    """
    A = beta.A
    isos, rhs = _galois_system(beta) if system is None else system
    for iso, want in zip(isos, rhs):
        total = A.zero_vec
        for x, y in coords:
            total = A.add_vec(total, A.mul_vec(x, iso.apply_vec(y)))
        if total != want:
            return False
    return True


def _galois_system(beta):
    """(isos, right sides) of the Galois coordinate system, derived once per action."""
    return remembered(beta, "galois_system", _derive_galois_system)


def _derive_galois_system(beta):
    return tuple(beta.isos), tuple(galois_rhs(beta, s) for s in range(beta.S.n))


def _partial_action_system(beta):
    """(isos, right sides) of the coordinate system of alpha (delta at 1_G)."""
    A, alpha = beta.A, induce_partial_group_action(beta)
    return tuple(alpha.isos), tuple(A.one_vec if g == alpha.group.identity else A.zero_vec
                                    for g in range(alpha.group.size()))


def _solve_verified(beta, system, name):
    coords = _solve_coordinates(beta, *system)
    if coords is not None and not verify_coordinates(beta, coords, system):
        raise CertificateMismatch(f"{name} coordinate system fails its defining identity")
    return coords


def solve_galois_coordinates(beta):
    """Criterion (coordinates): a Galois coordinate system (x, y pairs) or None."""
    return _solve_verified(beta, _galois_system(beta), "Galois")


def solve_partial_action_coordinates(beta):
    """Coordinates for the induced partial group action (delta at 1_G)."""
    return _solve_verified(beta, _partial_action_system(beta), "partial-action")


def is_galois_trace_criterion(beta):
    """Criterion (trace): tr^sigma(A) equals the invariant subring."""
    if not is_injective(beta):
        _, beta, _ = image_action(beta)
    return sigma_trace_image(beta) == invariant_ring(beta)


# -- the compatible-family ring PA_beta(S) and the comparison map psi --------


class PABetaS:
    """The ring of compatible families (a_s), compressed to maximal coordinates.

    A family is determined by its values on the maximal elements of S, and
    conversely any maximal tuple satisfying the pairwise meet constraints
    extends uniquely; the constraints and all arithmetic happen on the
    compressed coordinates.  A constraint row ties two copies of one
    coordinate of A, so the rows, and the subgroup they cut out, split
    along the orbits of beta: one `_PAPart` per orbit.
    """

    def __init__(self, beta):
        S, A = beta.S, beta.A
        self.beta = beta
        self.maximal = [s for s in range(S.n)
                        if not any(t != s and S.leq[s][t] for t in range(S.n))]
        self.offsets = {}
        moduli = []
        pos = 0
        for t in self.maximal:
            coords = [i for i in range(A.n_coords)
                      if A.coord_atom(i) in beta.im_support(t)]
            self.offsets[t] = (pos, coords)
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
        where = [(m, i) for m, t in enumerate(self.maximal) for i in self.offsets[t][1]]
        isos = [beta.isos[t] for t in self.maximal]
        self.parts = [_PAPart(block, isos, where, self.moduli, constraints)
                      for block in beta.orbits]
        self.subgroup = scatter_lattice(self.total, [(p.positions, p.subgroup) for p in self.parts])
        self.order = self.ambient.order() // lattice_det(self.subgroup)

    def element_generators(self):
        return residues(map(self.subgroup.column, range(self.total)), self.moduli)


class _PAPart:
    """The coordinates of PA on one orbit's block, with their constraint rows
    and the subgroup those cut out, and psi on the block's tensor.

    `positions` are PA's coordinates on the block, in PA's order, and
    `reads` say where each sits in a family on the block ring: (index of the
    maximal t, block-ring coordinate).  `isos` are the maps beta_t of the
    maximal t on the block ring.
    """

    def __init__(self, block, isos, where, pa_moduli, constraints):
        self.ring = block.ring
        self.isos = [block.iso(iso) for iso in isos]
        local = {c: r for r, c in enumerate(block.coords)}
        self.positions = [p for p, (_, i) in enumerate(where) if i in local]
        self.reads = [(where[p][0], local[where[p][1]]) for p in self.positions]
        index = {p: r for r, p in enumerate(self.positions)}
        self.rows = [(index[plus], index[minus], d) for plus, minus, d in constraints
                     if plus in index]
        moduli = [pa_moduli[p] for p in self.positions]
        self.ambient = AbelianPresentation(moduli)
        if self.rows:
            cols = [{} for _ in moduli]
            for r, (plus, minus, _) in enumerate(self.rows):
                cols[plus][r] = 1
                cols[minus][r] = -1
            gens = kernel_gens(Matrix(len(self.rows), cols),
                               diag_cols([d for _, _, d in self.rows]), moduli)
            self.subgroup = self.ambient.subgroup_canon(gens)
        else:
            self.subgroup = scatter_lattice(len(moduli), [])  # all of the ambient group

    def moved(self, y):
        """(beta_t(y 1_{t^-1}))_t over the maximal t, for y on the block ring;
        `apply_vec` masks y to the domain."""
        return [iso.apply_vec(y) for iso in self.isos]

    def psi_image(self, x, moved):
        """psi(x (x) y) = (x beta_t(y 1_{t^-1}))_t on this part's coordinates,
        for x on the block ring and `moved` = `moved(y)`."""
        family = [self.ring.mul_vec(x, m) for m in moved]
        return tuple(family[t][c] for t, c in self.reads)

    def satisfies_constraints(self, vec):
        return all((vec[plus] - vec[minus]) % d == 0 for plus, minus, d in self.rows)


@dataclass
class PsiReport:
    bijective: bool
    tensor_order: int
    pa_order: int
    image_order: int
    kernel_witness: tuple | None = None  # (orbit index, vector on that orbit's tensor)
    cokernel_witness: tuple | None = None


def psi_check(beta):
    """Criterion (comparison map): is psi: A (x)_{A^beta} A -> PA bijective?

    The tensor is one tensor per orbit of beta (`_full_tensor`), and psi
    maps an orbit's tensor into PA's part on that orbit's block, so it is
    checked one orbit at a time: on each generator pair of the orbit's
    tensor, on block-ring coordinates, with each beta_t applied to each
    generator of the second factor once.
    """
    tensors = _full_tensor(beta)
    pa = PABetaS(beta)
    t_order = image_order = 1
    image_parts = []
    kernel_witness = None
    for o, ((_, tensor), part) in enumerate(zip(tensors, pa.parts)):
        moved = [part.moved(y) for y in tensor.ng]
        images = []
        for a, x in enumerate(tensor.mg):
            for b, m in enumerate(moved):
                vec = part.psi_image(x, m)
                if not part.satisfies_constraints(vec):
                    raise CertificateMismatch(f"psi image of generator pair ({a}, {b}) "
                                              f"on orbit {o} leaves PA")
                images.append(vec)
        canon = part.ambient.subgroup_canon(images)
        order = part.ambient.order() // lattice_det(canon)
        image_order *= order
        t_order *= tensor.order()
        image_parts.append((part.positions, canon))
        if kernel_witness is None and order != tensor.order():
            # an element of the kernel: combination of generators mapping to 0
            mat = cols_from_vectors(images, len(part.positions))
            for gvec in kernel_gens(mat, part.ambient.lattice, tensor.pres.moduli):
                if not tensor.is_zero(gvec):
                    kernel_witness = (o, gvec)
                    break
    bij = (image_order == t_order == pa.order)
    report = PsiReport(bij, t_order, pa.order, image_order, kernel_witness)
    if image_order != pa.order:
        img_canon = scatter_lattice(pa.total, image_parts)
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


def orbit_tensors(B, R, blocks):
    """B (x)_R B as one (block, B e_O (x)_{R e_O} B e_O) pair per block.

    `blocks` partition the atoms into `Block`s whose indicators e_O lie in
    R, such as the orbits of an action when R holds its invariants; None is
    the ring as one block.  Each canonical generator of B then lies in one
    block, and a pair from two blocks is zero: b e_O (x) c e_P =
    b (x) e_O e_P c = 0.  So B (x)_R B is the direct sum of the blocks'
    tensors, each presented on its block ring.  With one block, the ring
    itself, that tensor's constructor checks the factors, which are B and R.
    """
    ring = B.ring
    atoms = tuple(range(len(ring.atoms)))
    if blocks is None:
        blocks = [Block(ring, atoms)]
    if len(blocks) > 1 or blocks[0].atoms != atoms:
        TensorPresentation.check_factors(B, B, R)
    if sorted(a for block in blocks for a in block.atoms) != list(atoms):
        raise ValueError("the blocks must partition the atoms")
    if len(blocks) > 1 and not all(R.member_vec(block.indicator()) for block in blocks):
        raise NotSubring("each block's indicator must lie in R")
    split = []
    for block in blocks:
        part = block.subalgebra(B)
        split.append((block, TensorPresentation(part, part, block.subalgebra(R))))
    return tuple(split)


def is_separable(B: Subalgebra, R: Subalgebra, tensors=None, blocks=None):
    """A separability idempotent of B over R, or None.

    Solves m(z) = 1 and ((b (x) 1) - (1 (x) b)) z = 0 exactly, for b over
    generators of B as an R-algebra (`Subalgebra.algebra_generators`): the b
    satisfying the second equation form an R-subalgebra of B, so these
    suffice.  `blocks` are `Block`s whose indicators lie in R (the orbits of
    an action when R holds its invariants); B is then the direct sum of its
    blocks, B is separable over R exactly when each block is over R's, and
    the system is solved on each block's tensor (`orbit_tensors`).  The
    answer is (tensors, z), z one vector per block, re-verified on every
    additive generator of B.  `tensors` is a built `orbit_tensors` to reuse,
    which brings its own blocks; without it one is built, and its checks
    decide R <= B.
    """
    if tensors is None:
        try:
            tensors = orbit_tensors(B, R, blocks)
        except NotSubring:
            if not B.contains(R):
                raise NotSubring("separability needs R inside B") from None
            raise
    elif not B.contains(R):
        raise NotSubring("separability needs R inside B")
    z = []
    for block, tensor in tensors:
        ring = block.ring
        mats = [tensor.mult_map_vec()]
        augs = [ring.presentation.lattice]
        target = list(ring.one_vec)
        for b in tensor.M.algebra_generators(tensor.R):
            mats.append(tensor.mult_difference(b))
            augs.append(tensor.pres.lattice)
            target.extend([0] * (tensor.k * tensor.l))
        sol = solve_cols(vstack(mats), block_diag(augs), target, tensor.pres.moduli)
        if sol is None:
            return None
        z.append(sol)
    z = tuple(z)
    if not verify_separability_idempotent(tensors, z):
        raise CertificateMismatch("separability idempotent fails its defining equations")
    return tensors, z


def verify_separability_idempotent(tensors, z):
    """Direct evaluation of both defining equations of a separability idempotent.

    `tensors` are `orbit_tensors` and z has one vector per block, on that
    block's tensor.  m(z), summed over the blocks, must be 1 of the ring.
    The second equation is checked on each block's tensor for every
    additive generator b of its first factor.  With z reshaped to the
    k x l matrix Z, (b (x) 1)z is E.Z and (1 (x) b)z is Z.F^T, for E and F
    the matrices of b* on the two factors' generators: entry (i, j) of Z
    goes to (a, j) with weight E[a, i] and to (i, c) with weight F[c, j].
    The difference is summed over the nonzero entries of z and must be zero
    in the tensor.
    """
    if len(z) != len(tensors):
        return False
    A = tensors[0][0].whole
    mz = [0] * A.n_coords
    for (block, tensor), part in zip(tensors, z):
        for c, x in zip(block.coords, tensor.mult_map_vec().apply(part)):
            mz[c] += x
    if tuple(x % d for x, d in zip(mz, A.coord_moduli)) != A.one_vec:
        return False
    for (_, tensor), part in zip(tensors, z):
        l = tensor.l
        entries = [(p // l, p % l, x) for p, x in enumerate(part) if x]
        for b in tensor.M.gen_vectors:
            E, F = tensor.left_factor(b), tensor.right_factor(b)
            diff = {}
            for i, j, x in entries:
                for a, e in E.cols[i].items():
                    diff[a * l + j] = diff.get(a * l + j, 0) + e * x
                for c, f in F.cols[j].items():
                    diff[i * l + c] = diff.get(i * l + c, 0) - f * x
            if not tensor.is_zero(diff):
                return False
    return True


def _full_algebra(beta):
    """A as a subalgebra of itself, built once per action."""
    return remembered(beta, "full_algebra", lambda beta: Subalgebra.full(beta.A))


def _full_tensor(beta):
    """A (x)_{A^beta} A as one tensor per orbit of beta (`orbit_tensors`),
    built once per action."""
    return remembered(beta, "full_tensor", _derive_full_tensor)


def _derive_full_tensor(beta):
    return orbit_tensors(_full_algebra(beta), invariant_ring(beta), beta.orbits)


def separability_idempotent_from_coordinates(beta, coords):
    """e = sum x_i (x) y_i built from a coordinate system, in A (x)_{A^beta} A:
    on each orbit's tensor, the sum of the pairs' block components."""
    tensors = _full_tensor(beta)
    z = []
    for block, tensor in tensors:
        part = [0] * (tensor.k * tensor.l)
        for x, y in coords:
            for p, v in tensor.pure_terms(block.restrict(x), block.restrict(y)):
                part[p] += v
        z.append(tuple(part))
    return tensors, tuple(z)


# -- the cross-checked equivalence report ------------------------------------


@dataclass
class GaloisCertificate:
    """Its elements are coordinate vectors, as everywhere in a decision."""

    coordinates: list | None = None
    trace_image_generators: tuple = ()
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
    provably equivalent and asserted unanimous with zero tolerance, and so
    are the fixed-atom rule (`is_galois`) and the atom count of |A^beta|
    (`actions.invariant_order_from_atoms`) against A^beta's order.  The
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

    psi = psi_check(beta)
    cert.psi = psi
    verdicts["psi_bijective"] = psi.bijective

    full = _full_algebra(beta)
    sep = is_separable(full, inv, tensors=_full_tensor(beta))
    strong, failure = is_beta_strong(beta, full)
    cert.separability_idempotent = (sep[1] if sep else None)
    cert.strong_failure = failure
    verdicts["separable_and_strong"] = (sep is not None) and strong

    trace_img = sigma_trace_image(beta)
    cert.trace_image_generators = trace_img.gen_vectors
    verdicts["trace_image"] = trace_img == inv

    core = {verdicts["coordinates"], verdicts["psi_bijective"],
            verdicts["separable_and_strong"]}
    if len(core) != 1:
        raise EquivalenceViolation(f"provably equivalent criteria disagree: {verdicts}")
    galois = core.pop()
    if is_galois(beta) != galois:
        raise EquivalenceViolation(f"the fixed-atom rule disagrees with the criteria: {verdicts}")
    if invariant_order_from_atoms(beta) != inv.order:
        raise EquivalenceViolation(f"the atom count of |A^beta| disagrees with {inv.order}")
    trace_gap = False
    if verdicts["trace_image"] != galois:
        if galois or not verdicts["trace_image"]:
            raise EquivalenceViolation(f"trace criterion broke necessity: {verdicts}")
        trace_gap = True

    # alpha's system is often beta's (same isos in the same order, same right
    # sides: S a group, say); it then has beta's solution, and the check below holds
    if _partial_action_system(beta) == _galois_system(beta):
        alpha_coords = coords
    else:
        alpha_coords = solve_partial_action_coordinates(beta)
    cert.alpha_coordinates = alpha_coords
    if (alpha_coords is not None) != galois:
        raise EquivalenceViolation("beta-Galois and alpha-Galois disagree")

    if galois and coords is not None:
        built = separability_idempotent_from_coordinates(beta, coords)
        if not verify_separability_idempotent(*built):
            raise EquivalenceViolation("coordinate-built separability idempotent failed")

    return EquivalenceReport(galois, verdicts, cert, inv.order, trace_gap)


def is_galois(beta):
    """The precondition of the correspondences: the fixed-atom rule
    (`actions.fixed_atom_violation`), which solves nothing and which
    `cross_check_equivalences` checks against the criteria."""
    return fixed_atom_violation(beta) is None


def scalar_extension_is_galois(ext):
    """Re-test Galois-ness of a scalar extension on its presentation.

    Checks the trace criterion for the extended action and that the
    invariants coincide with the image of the base ring R.
    """
    induce_partial_group_action(ext.beta)  # its precondition raises before the solve
    inv_canon = ext.invariants_canon()
    r_canon = ext.r_image_canon()
    if inv_canon != r_canon:
        return False
    gens = ext.generator_vectors()
    traces = [ext.sigma_trace_vec(z) for z in gens]
    trace_canon = ext.pres.subgroup_canon(traces)
    return trace_canon == r_canon
