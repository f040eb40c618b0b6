"""Galois criteria for unital inverse semigroup actions, with certificates.

Four independently implemented routes test whether A is Galois over its
invariants: coordinate systems (one candidate that depends on A alone, the
trace-dual pairs, checked on the action's system, or a fixed-atom witness
that no coordinates exist), bijectivity of the comparison map into the
compatible-family ring, separability plus strongness, and the twisted-trace
image.  On E-unitary injective instances the first three are provably
equivalent and asserted unanimous, and cross-checked against the induced
partial group action alpha, an `Action` whose coordinate system is beta's
definition (`_galois_system`) read on S/sigma and kept in alpha's own
facts; the trace-image test is enforced as a necessary condition, with its
known insufficiency (see `cross_check_equivalences`) flagged rather than
fatal.  The same trace-dual pairs give a separability idempotent of A over
every subring (`is_separable`), and psi is checked one orbit of the atom
maps (`Action.orbits`) at a time into PA_beta(S), the product over S/sigma
of the images of the class joins (`actions.class_joins`, alpha's isos),
where psi's columns are those of the coordinate system on the joins
(`_columns`), so no criterion solves.  The tensor A (x)_{A^beta} A is held
as one `TensorPresentation` per orbit (`_full_tensor`): a generator pair
from two orbits is zero, so it is no generator at all.  Each orbit tensor
is the direct sum of its atom-pair blocks, and psi is checked block by
block, each distinct block once; so is the separability idempotent, whose
part on each atom lies in that atom's diagonal block.  The coordinates are
verified over all of A, each pair multiplied only on the atoms where both
factors live.  `is_galois`, the
precondition of the correspondences, solves nothing: it is the fixed-atom
rule of the atom model, held to the criteria on every cross-check, as is
the free-part rule the correspondences decide separability by
(`actions.separability_violation`).
"""

from __future__ import annotations

import itertools
import math
import operator

from .actions import (Action, _defect, class_joins, fixed_atom_violation, image_action,
                      induce_partial_group_action, invariant_ring, is_injective,
                      separability_violation, sigma_trace_image)
from .budget import spend
from .linalg import Matrix, lattice_canon, lattice_det, lattice_member
from .rings import Subalgebra, TensorPresentation
from .semigroups import SubSemigroup, ZeroForbidden, is_e_unitary, remembered


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

    On the induced alpha, S is G = S/sigma, whose one idempotent acts as
    Id_A: 1_A there and 0 elsewhere.
    """
    return beta.ideal_one(s) if beta.S.is_idempotent(s) else beta.A.zero_vec


def _columns(atom, pairs, twists):
    """psi on one atom-pair block F_a (x) F_b of an orbit tensor, a and b
    equal atoms, on its generator pairs `pairs`: column (i, c), at
    i * r + c for r = `coords`, is x^i Frob^t(x^c) at rows (k, q), for t
    the k-th of `twists` (one per class join taking b to a) and q a
    coordinate of a."""
    r = atom.coords
    units = [tuple(int(q == i) for q in range(r)) for i in range(r)]
    return Matrix(r * len(twists), [
        {k * r + q: v for k, t in enumerate(twists)
         for q, v in enumerate(atom.mul_coords(units[p // r], atom.frobenius_cols(t)[p % r])) if v}
        for p in pairs])


def verify_coordinates(action, coords):
    """Re-evaluate sum_i x_i f(y_i 1_dom) = rhs_f on coordinates, over the
    action's own Galois system (`_galois_system`), apart from their
    construction.  f(y 1_dom) lives on the images of y's atoms in f's
    domain, where it is the Frobenius twist of y read off f's `atom_map`, so
    a pair is multiplied (`Atom.mul_coords`) only on the atoms where x
    lives too, each charged as one of `ring_products`; elsewhere the
    product is zero.  Every coordinate of every equation is compared."""
    A = action.A
    chunks = [[{a: v[slice(*A.atom_span(a))]
                for a in {A.coord_atom(c) for c in itertools.compress(range(A.n_coords), v)}}
               for v in pair] for pair in coords]  # each factor on each atom where it lives
    for iso, want in zip(*_galois_system(action)):
        total = [0] * A.n_coords
        for on_x, on_y in chunks:
            for b, y in on_y.items():
                if (v := iso.atom_map[b]) and (x := on_x.get(v[0])):
                    spend("ring_products", 1)
                    atom, cols = A.atoms[b], A.atoms[b].frobenius_cols(v[1])
                    image = [sum(map(operator.mul, y, row)) for row in zip(*cols)] if v[1] else y
                    for q, z in enumerate(atom.mul_coords(x, image), A.atom_span(v[0])[0]):
                        total[q] += z
        if tuple(map(operator.mod, total, A.coord_moduli)) != want:
            return False
    return True


@remembered
def _galois_system(action):
    """(isos, right sides) of the action's Galois coordinate system."""
    return tuple(action.isos), tuple(galois_rhs(action, s) for s in range(action.S.n))


@remembered
def _trace_dual_pairs(A):
    """The candidate coordinates, which depend on A alone: x_i the unit
    vectors, and y_i on x_i's atom the member of the atom's trace-dual basis
    (`Atom.trace_dual`) dual to x_i, zero elsewhere.  Kept by A, as beta's
    and alpha's coordinates and the separability idempotent read them."""
    spans = [(A.atom_span(idx), atom.trace_dual()) for idx, atom in enumerate(A.atoms)]
    ys = [A.zero_vec[:lo] + y + A.zero_vec[hi:] for (lo, hi), duals in spans for y in duals]
    return tuple(zip(A.basis_vectors(), ys))


def _coordinates(action):
    """Galois coordinates of the action on its own system, or None.

    If the fixed-atom rule finds a witness (s, j) (`fixed_atom_violation`),
    there are none: the equations of s and of ss^-1 at atom j ask
    sum_i x_i[j] y_i[j] to be both 0 and 1.  Otherwise the trace-dual pairs
    (`_trace_dual_pairs`) are coordinates, by that rule's proof; they are
    checked on the action's system, and a failed check raises."""
    if fixed_atom_violation(action) is not None:
        return None
    coords = list(_trace_dual_pairs(action.A))  # the caller's own list
    if not verify_coordinates(action, coords):
        raise CertificateMismatch("the trace-dual coordinates fail their defining identity")
    return coords


def solve_galois_coordinates(beta):
    """Criterion (coordinates): a Galois coordinate system (x, y pairs) or None."""
    return _coordinates(beta)


def solve_partial_action_coordinates(beta):
    """Coordinates for the induced partial group action alpha, on alpha's
    own Galois system (1_A at the one idempotent of G = S/sigma, 0
    elsewhere), or None."""
    return _coordinates(induce_partial_group_action(beta))


def is_galois_trace_criterion(beta):
    """Criterion (trace): tr^sigma(A) equals the invariant subring."""
    if not is_injective(beta):
        beta, _ = image_action(beta)
    return sigma_trace_image(beta) == invariant_ring(beta)


# -- the compatible-family ring PA_beta(S) and the comparison map psi --------


class PsiReport:
    def __init__(self, bijective, pa_order, image_order, cokernel_witness=None):
        self.bijective = bijective
        self.pa_order, self.image_order = pa_order, image_order
        self.cokernel_witness = cokernel_witness


def psi_check(beta):
    """Criterion (comparison map): is psi: A (x)_{A^beta} A -> PA bijective?

    PA_beta(S) is the ring of compatible families (a_t) over the maximal t
    of S, a_t in A_t, with a_t1 1_s = a_t2 1_s for every s below t1 and t2.
    Under the hypotheses of `cross_check_equivalences`, S is E-unitary
    without zero, so s <= t puts s in t's sigma-class: maximal elements of
    two classes share no lower bound, and two maximal t1, t2 of one class
    are compatible, so their meet t1 t2^-1 t2 lies below both, and as
    beta_t1 ~ beta_t2 its ideal is A_t1 n A_t2, which holds the ideal of
    every common lower bound.  So a family is one value per class g on each
    coordinate of the union of A_t over g's maximal t, which is the ideal
    of alpha_g, the join of g's maps (`actions.class_joins`; every s
    of g lies below a maximal element of g): PA is the product over S/sigma of the A_{alpha_g}, and
    |PA| is the product of the moduli of their coordinates.  psi(x (x) y)
    is (x beta_t(y 1_{t^-1}))_t, and beta_t <= alpha_g for t in g, with
    alpha_g injective: an atom of A_t is reached by alpha_g only from t's
    domain, so the value at t is x alpha_g(y 1) read on A_t.  Hence
    psi(e_i (x) e_c) is column (i, c) of the coordinate system on the
    joins (`_columns`), one row (g, q) per class and coordinate, with
    modulus m_q where q's atom lies in the image of alpha_g and 1
    elsewhere: no image can leave PA.

    The joins move atoms within the orbits of beta, and the tensor is one
    tensor per orbit (`_full_tensor`), the direct sum of its atom-pair
    blocks F_a (x) F_b (`TensorPresentation.blocks`).  Column (i, c) of a
    block is nonzero only at the rows (g, q) with q on atom a and alpha_g
    taking b to a, and each row with a modulus other than 1 is such a row of
    exactly one block, as alpha_g is injective.  So psi is the direct sum of
    its blocks, each checked on its own rows and on the free generator
    pairs of its tensor block, which generate it (`_psi_block`); the orders
    multiply.  When psi is not onto, the cokernel witness is the first
    (orbit, row) whose unit vector lies outside the image: the least, over
    the blocks, of each block's first such row.

    psi is injective, so an orbit whose image is smaller than its tensor
    raises EquivalenceViolation: for atoms i, j of one orbit, A^beta e_O
    embeds in the atom F as K (`actions.separability_violation`), the part
    e_i (x) e_j of the tensor is F (x)_K F, the maximal beta_t taking j to i
    realize every K-embedding tau of F (`actions.fixed_ring`),
    and psi there is u (x) v -> (u tau(v))_tau, an isomorphism onto prod_tau F.
    A report is returned only when no orbit raised, so its image order is
    the tensor's order.
    """
    if beta.S.zero is not None:
        raise ZeroForbidden("psi is checked over S/sigma, for semigroups without zero")
    joins = class_joins(beta)
    image_order = pa_order = 1
    witness = None
    for o, (block, tensor) in enumerate(_full_tensor(beta)):
        ring = block.ring
        local = {a: i for i, a in enumerate(block.atoms)}  # A's atom -> the block ring's
        rows = {}  # (a, b) -> [(g, twist)] over the joins alpha_g taking b to a
        for g, f in enumerate(joins):
            for b, a in enumerate(block.atoms):
                if v := f.atom_map[a]:
                    rows.setdefault((local[v[0]], b), []).append((g, v[1]))
        order = part = 1
        first = []
        for a, line in enumerate(tensor.blocks):
            atom = ring.atoms[a]
            for b, pair in enumerate(line):
                joined = rows.get((a, b), ())
                got, size, miss = _psi_block(pair, atom, tuple(t for _, t in joined))
                order, part = order * got, part * size
                if miss is not None:
                    k, q = divmod(miss, atom.coords)
                    first.append(joined[k][0] * ring.n_coords + ring.atom_span(a)[0] + q)
        if order != tensor.order():
            raise EquivalenceViolation(f"psi kills part of the tensor on orbit {o}: "
                                       f"image order {order}, tensor order {tensor.order()}")
        image_order *= order
        pa_order *= part
        if witness is None and first:
            witness = (o, min(first))
    return PsiReport(image_order == pa_order, pa_order, image_order, witness)


@remembered
def _psi_block(pair, atom, twists):
    """(image order, PA order, first row outside the image or None) of psi
    on one atom-pair block, kept per tensor block and twists: rows (k, q)
    for the k-th of `twists`, each of `atom`'s modulus (`_columns`), so
    blocks alike in both are checked once.  Its columns are the free pairs,
    whose pivot in the block's canonical relation lattice is not 1; they
    generate the block: a column of pivot 1 is e_p plus entries at later
    rows, each reduced below that row's pivot, so zero at every row of
    pivot 1, and the pair p equals minus a combination of free pairs."""
    free = [p for p, c in enumerate(pair.lattice.cols) if c[p] != 1]
    moduli = [atom.modulus] * (atom.coords * len(twists))
    canon = lattice_canon(_columns(atom, free, twists), moduli)
    part = math.prod(moduli)
    order = part // lattice_det(canon)
    rows = range(len(moduli))
    miss = None if order == part else next(
        r for r in rows if not lattice_member(canon, [int(q == r) for q in rows]))
    return order, part, miss


# -- S_B, beta-strong, separability ------------------------------------------


@remembered
def _moved_atoms(beta, B: Subalgebra):
    """The atoms on which beta_s moves B, one bit mask per s, kept per B: the
    atoms where the defect of beta_s (`actions._defect`) is nonzero on some
    generator of B (they suffice, the defect being additive).  S_B and
    strongness read it."""
    return tuple(beta.A.atom_mask([any(c) for c in zip(*map(defect, B.gen_vectors))])
                 for defect in map(_defect, beta.isos))


@remembered
def compute_S_B(beta, B: Subalgebra):
    """S_B = {s : beta_s(b 1_{s^-1}) = b 1_s for all b in B}, kept per B: the
    s that move B on no atom (`_moved_atoms`).  The other direction,
    T -> A^{beta|T}, is built from T's atom maps and checked on the same
    defects (`actions.fixed_ring`)."""
    if not B.is_subalgebra():
        raise NotSubalgebra("S_B needs a unital subalgebra")
    sub = SubSemigroup(beta.S, frozenset(s for s, mask in enumerate(_moved_atoms(beta, B)) if not mask))
    if not sub.is_full:
        raise CertificateMismatch("S_B is not full")
    return sub


@remembered
def is_beta_strong(beta, B: Subalgebra):
    """beta-strongness of B, kept per B: (True, None), or (False, (s, t, frozenset({i}))).

    B is beta-strong when it separates every pair (s, t) at every atom i of
    im(s) u im(t) (some b in B has beta_s(b 1)e_i != beta_t(b 1)e_i), except
    the pairs for which some nonzero element of S_B restricts s^{-1}t (S_B
    is an order ideal, so this subsumes membership of s^{-1}t itself; for
    B = A with an injective action on an E-unitary zero-free S it reduces
    to s^{-1}t being a non-idempotent).  Without this weakening, fixed
    rings of middle subsemigroups fail on ideals where the action collapses
    onto a twist-fixed subring even though the correspondence demonstrably
    holds there.

    Whether (s, t) is separated depends on p = s^{-1}t alone:
    - B holds 1, so on an atom of im(s) delta im(t) one of the two sides is
      zero and the other is not: 1 separates the pair there.
    - Take i in im(s) n im(t) and j = s^{-1}(i).  beta_{s^-1} maps A e_i
      isomorphically onto A e_j.  It takes beta_s(b 1)e_i to b e_j, and
      beta_t(b 1)e_i to beta_p(b 1)e_j.  So (s, t) is unseparated at i
      exactly when the defect of beta_p vanishes on B at j, an atom of
      im(p) outside p's moved atoms (`_moved_atoms`).
    - Every p arises this way: take s = pp^{-1} and t = p.  The pair's
      cover test reads only s^{-1}t.
    So one pass over the elements decides: p fails when no nonzero member
    of S_B lies below it and some atom of im(p) is not moved.  The witness
    is the first failing pair in index order, (s, t) with s^{-1}t = p
    failing, at its first unseparated atom: the least s(j) over p's
    unmoved atoms j of im(p).
    """
    S = beta.S
    below = [u for u in compute_S_B(beta, B).members if u != S.zero]
    unmoved = {p: atoms for p, moved in enumerate(_moved_atoms(beta, B))
               if (atoms := sum(1 << j for j in beta.im_support(p)) & ~moved)
               and not any(S.leq[u][p] for u in below)}
    if not unmoved:
        return True, None
    s, t, p = next((s, t, p) for s in range(S.n) for t in range(S.n)
                   if (p := S.table[S.inv[s]][t]) in unmoved)
    return False, (s, t, frozenset({min(v[0] for j, v in enumerate(beta.isos[s].atom_map)
                                         if unmoved[p] >> j & 1)}))


def is_separable(beta):
    """A is separable over A^beta: True, once the trace-dual pairs'
    separability idempotent passes both defining equations on every diagonal
    atom block of the orbit tensors (`_separable_block`); a failed check raises.

    e = sum_i x_i (x) y_i over the trace-dual pairs (`_trace_dual_pairs`)
    is a separability idempotent by construction, in A (x)_Z A.  On a
    GF(p^k) atom F, x_i runs over the unit vectors, a basis of F over F_p,
    and y_i over the basis dual to it under Tr(uv) (`Atom.trace_dual`), so
    every v of F is sum_i Tr(v y_i) x_i = sum_i Tr(v x_i) y_i.  Then for a
    in F, (a (x) 1)e = sum_{i,j} Tr(a x_i y_j) x_j (x) y_i
    = sum_j x_j (x) a y_j = (1 (x) a)e, and Tr(a m(e)) = sum_i Tr(a x_i y_i)
    is the trace of multiplication by a, which is Tr(a 1); the trace form
    is nondegenerate, so m(e) = 1.  On a Z/p^k atom the one pair is 1 (x) 1.  Each pair lives
    on one atom j, where a acts as a e_j, so over A = prod_j F_j both
    equations hold atom by atom and m(e) = sum_j 1_j = 1.  The map
    A (x)_Z A -> A (x)_{A^beta} A is onto and respects m and the A-actions
    on either side, so e is a separability idempotent over A^beta, as over
    every subring: A is separable over A^beta on every instance, and the
    criterion's verdict is strongness.

    The check reads one block at a time.  The pairs on atom a sum to
    e_a = sum_u x^u (x) y_u, in the diagonal block F_a (x)_R F_a of its orbit
    tensor (`_full_tensor`), the direct sum of its atom-pair blocks.  m takes
    block (a, b) into F_a F_b, zero unless a = b, so m(e) = 1 = sum_a 1_a
    exactly when m(e_a) = 1_a for every a.  The second equation is additive
    in c, so the unit vectors x^c of each atom b suffice, and on either side
    they kill every block (a, a) with a != b: (c (x) 1)e - (1 (x) c)e is
    (x^c (x) 1)e_b - (1 (x) x^c)e_b, in block (b, b), zero exactly when it
    is zero there.
    """
    for block, tensor in _full_tensor(beta):
        for a, atom in enumerate(block.ring.atoms):
            if not _separable_block(tensor.blocks[a][a], atom):
                raise CertificateMismatch("the trace-dual separability idempotent fails its defining equations")
    return True


@remembered
def _separable_block(pair, atom):
    """Whether e_a, the part of the separability idempotent on `atom`
    (`separability_idempotent_from_coordinates`), passes both defining
    equations in `pair`, the atom's diagonal tensor block F (x)_R F, kept
    per block and atom, so that equal blocks are checked once."""
    return verify_separability_idempotent(pair, atom, separability_idempotent_from_coordinates(atom))


def separability_idempotent_from_coordinates(atom):
    """e_a = sum_u x^u (x) y_u on one atom, from its trace-dual pairs: x^u the
    unit vectors, y_u the trace dual (`Atom.trace_dual`).  It is given on the
    pairs x^i (x) x^j of the atom's diagonal tensor block, at i * r + j for
    r = `coords`, so entry (u, j) is coordinate j of y_u."""
    return tuple(v for y in atom.trace_dual() for v in y)


def verify_separability_idempotent(pair, atom, z):
    """Direct evaluation of both defining equations of a separability
    idempotent z on the diagonal tensor block F (x)_R F of `atom` (`pair`,
    pair x^i (x) x^j at i * r + j for r = `coords`), by the atom's own
    products (`Atom.mul_coords`): with rows z_i = sum_j z[i r + j] x^j and
    columns z^j = sum_i z[i r + j] x^i, m(z) = sum_i x^i z_i must be 1, and
    for each c < r the difference of (x^c (x) 1)z, x^c z^j in column j, and
    (1 (x) x^c)z, x^c z_i in row i, must lie in the block's relation
    lattice (`lattice_member`)."""
    r = atom.coords
    units = [tuple(int(q == i) for q in range(r)) for i in range(r)]
    rows = [z[i * r:(i + 1) * r] for i in range(r)]
    cols = [z[j::r] for j in range(r)]
    mz = map(sum, zip(*(atom.mul_coords(x, row) for x, row in zip(units, rows))))
    if [v % atom.modulus for v in mz] != list(units[0]):
        return False
    for x in units:
        diff = [0] * (r * r)
        for j, col in enumerate(cols):
            for a, v in enumerate(atom.mul_coords(x, col)):
                diff[a * r + j] += v
        for i, row in enumerate(rows):
            for b, v in enumerate(atom.mul_coords(x, row)):
                diff[i * r + b] -= v
        if not lattice_member(pair.lattice, diff):
            return False
    return True


@remembered
def _full_tensor(beta):
    """A (x)_{A^beta} A as one (block, tensor) pair per orbit O of beta.

    e_O lies in A^beta, so a generator pair from two orbits is zero,
    b e_O (x) c e_P = b (x) e_O e_P c = 0, and the tensor is the direct sum
    of the blocks' A e_O (x)_{A^beta e_O} A e_O, each presented on its block
    ring, whose constructor checks A^beta e_O.  Generator pair (i, c) is
    e_i (x) e_c of the block ring's unit vectors, and psi and the
    separability check read each orbit tensor's atom-pair blocks.
    """
    inv = invariant_ring(beta)
    return tuple((block, TensorPresentation(block.ring, block.subalgebra(inv))) for block in beta.orbits)


# -- the cross-checked equivalence report ------------------------------------


class GaloisCertificate:
    """Its elements are coordinate vectors, as everywhere in a decision."""

    def __init__(self, coordinates=None, trace_image_generators=(), psi=None, strong_failure=None):
        self.coordinates = coordinates
        self.trace_image_generators = trace_image_generators
        self.psi = psi  # a PsiReport
        self.strong_failure = strong_failure


class EquivalenceReport:
    def __init__(self, galois, verdicts, certificate, invariants_order, trace_gap=False):
        self.galois, self.verdicts, self.certificate = galois, verdicts, certificate
        self.invariants_order, self.trace_gap = invariants_order, trace_gap


def cross_check_equivalences(beta: Action):
    """Evaluate criteria (coordinates), (psi), (separable+strong), (trace).

    Preconditions: S finite E-unitary without zero, beta unital injective,
    all A_s nonzero.  The first three criteria and alpha-Galois are
    provably equivalent and asserted unanimous with zero tolerance, and so
    is the fixed-atom rule (`is_galois`).  The trace-image criterion is
    necessary but not sufficient: when a class of the quotient group acts
    trivially on an atom whose characteristic does not divide the class
    count, the trace stays surjective while the extension fails to be
    Galois (e.g. C2 on Z/5 x GF(9) by identity x Frobenius).  That one
    disagreement shape is reported as `trace_gap`; any other disagreement
    raises EquivalenceViolation.

    alpha's coordinates are beta's when the two systems are equal (S a
    group, say); otherwise `_coordinates` decides them on alpha's own
    system, by alpha's fixed atoms and the same candidate, which depends on
    A alone.  The verdicts must agree: S is E-unitary, so a class g other
    than the identity holds no idempotent, and alpha_g agrees with some
    beta_s, s in g, at each atom of its image; so some alpha_g, g != 1,
    fixes an atom with twist 0 exactly when some non-idempotent beta_s does.
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

    full = Subalgebra.full(beta.A)
    is_separable(beta)  # e exists on every instance (its docstring); a failed check raises
    strong, failure = is_beta_strong(beta, full)
    cert.strong_failure = failure
    verdicts["separable_and_strong"] = strong

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
    if separability_violation(beta, full) is not None:
        raise EquivalenceViolation("the free-part rule disagrees with the separability idempotent")
    trace_gap = False
    if verdicts["trace_image"] != galois:
        if galois or not verdicts["trace_image"]:
            raise EquivalenceViolation(f"trace criterion broke necessity: {verdicts}")
        trace_gap = True

    # alpha's system is often beta's (same isos in the same order, same right
    # sides: S a group, say), and then so are its coordinates
    same = _galois_system(induce_partial_group_action(beta)) == _galois_system(beta)
    alpha_coords = coords if same else solve_partial_action_coordinates(beta)
    if (alpha_coords is not None) != galois:
        raise EquivalenceViolation("beta-Galois and alpha-Galois disagree")

    return EquivalenceReport(galois, verdicts, cert, inv.order, trace_gap)


def is_galois(beta):
    """The precondition of the correspondences: the fixed-atom rule
    (`actions.fixed_atom_violation`), which solves nothing and which
    `cross_check_equivalences` checks against the criteria."""
    return fixed_atom_violation(beta) is None

