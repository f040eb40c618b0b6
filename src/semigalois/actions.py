"""Unital actions of finite inverse semigroups on finite commutative rings.

A unital action is a homomorphism into Iso_pu(A) whose idempotent ideals
cover A.  On top of validation this module computes the invariant subring,
the plain and sigma-twisted trace maps, the induced partial action of the
quotient group S/sigma for E-unitary injective actions, restriction to full
subsemigroups, the image action, and scalar extension along a base-ring
map (presented tensor, not an atom ring).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from . import isopu
from .linalg import (AbelianPresentation, block_diag, cols_from_vectors, hstack, kernel_gens,
                     kron_difference, residues, vstack)
from .rings import (AtomMismatch, Block, RingElement, SpanExpander, StructuredIso, Subalgebra,
                    TensorPresentation)
from .semigroups import (SemigroupError, SubSemigroup, ZeroForbidden, ZeroRequired, is_e_unitary,
                         remembered, restrict_table, sigma_partition, validate_table)


class ActionError(SemigroupError):
    pass


class HomFail(ActionError):
    pass


class CoverFail(ActionError):
    pass


class IdempotentNotIdentity(ActionError):
    pass


class NotEUnitary(ActionError):
    pass


class NotInjective(ActionError):
    pass


class NotFullSub(ActionError):
    pass


class NotGalois(ActionError):
    pass


class PartialActionAxiomFail(ActionError):
    pass


class UnitalAction:
    """A validated assignment s -> beta_s; construct via validate_action."""

    def __init__(self, S, A, isos):
        self.S = S
        self.A = A
        self.isos = tuple(isos)
        self.facts = {}  # what is derived from beta, each computed once (`remembered`)

    def im_support(self, s):
        return self.isos[s].im_support

    def ideal_one(self, s):
        """The idempotent 1_s generating A_s, as a coordinate vector."""
        return self.A.idempotent_vec(self.im_support(s))

    def all_ideals_nonzero(self):
        return all(self.im_support(s) for s in self.S.nonzero_elements())

    @cached_property
    def orbits(self):
        """The orbits O of the atom maps, as `Block`s A e_O in order of least atom.

        An idempotent of A is a support indicator, invariant exactly when
        every beta_s keeps its support, so the e_O are the primitive
        idempotents of A^beta.  Each is central and beta_s(y e_O 1_{s^-1})
        = beta_s(y 1_{s^-1}) e_O 1_s, so every system the Galois criteria
        solve is block diagonal over the orbits.
        """
        root = list(range(len(self.A.atoms)))

        def find(a):
            while root[a] != a:
                a = root[a]
            return a

        for iso in self.isos:
            for i, j in iso.matching.items():
                a, b = sorted((find(i), find(j)))
                root[b] = a
        orbits = {}
        for a in range(len(root)):
            orbits.setdefault(find(a), []).append(a)
        return tuple(Block(self.A, atoms) for atoms in orbits.values())

    def __repr__(self):
        return f"UnitalAction(|S|={self.S.n}, A={self.A!r})"


class AxiomFail(Exception):
    """Partial-action axiom violation, tagged PIS0-3 or PGr0-3."""

    def __init__(self, tag, detail=""):
        super().__init__(f"{tag}: {detail}" if detail else tag)
        self.tag = tag


class ActionShape(NamedTuple):
    """What the action axioms read of the acting structure.

    `table[s][t]` is the product's index, or None where a groupoid product
    is undefined; `units` are the elements that must act as identities, in
    checking order; `ranges[s]` is the unit ss^{-1} (or r(s)).
    """

    table: list
    inv: list
    units: list
    ranges: list
    names: list
    zero: int | None = None

    @staticmethod
    def of_semigroup(S):
        return ActionShape(S.table, S.inv, S.idempotents,
                           [S.table[s][S.inv[s]] for s in range(S.n)], S.names, S.zero)


# One row per reading of an action: each axiom it checks, with the error it
# raises (an exception class, or the tag of an AxiomFail) and the message.
# Messages may name {e} (a unit), {s}, {inv}, {range} (an element, its
# inverse, its range unit), {t}, {st} (a pair and its product) and
# {covered} (the atoms the units cover).
ACTION_ROWS = {
    "unital": {
        "count": (ActionError, "one iso per element required"),
        "ring": (ActionError, "iso on the wrong ring"),
        "product_eq": (HomFail, "beta_{s} beta_{t} != beta_{st}"),
        "unit_identity": (IdempotentNotIdentity, "{e}"),
        "cover": (CoverFail, "idempotent ideals cover atoms {covered} only"),
        "inverse": (HomFail, "beta_{inv} is not the inverse map of beta_{s}"),
    },
    "partial group": {
        "unit_identity": (PartialActionAxiomFail, "P1: identity must act as Id_A on A"),
        "cover": (PartialActionAxiomFail, "P1: identity must act as Id_A on A"),
        "inverse": (PartialActionAxiomFail, "inverse classes must carry inverse maps"),
        "product_leq": (PartialActionAxiomFail, "P2/P3 fail at classes {s}, {t}"),
    },
    "PIS": {
        "count": ("PIS", "one iso per element"),
        "zero": ("PIS0", "A_0 must be the zero ideal"),
        "unit_identity": ("PIS1", "idempotent {e} must act as an identity"),
        "cover": ("PIS1", "idempotent ideals do not cover A"),
        "inverse": ("PIS", "inverse of beta_{s} mismatched"),
        "range": ("PIS", "A_{s} must sit inside A_{range}"),
        "product_dom": ("PIS2", "({s},{t})"),
        "product_leq": ("PIS3", "({s},{t})"),
    },
    "PGr": {
        "count": ("PGr", "one iso per element"),
        "unit_identity": ("PGr1", "identity {e} must act as an identity map"),
        "unit_orthogonal": ("PGr0", "identity ideals overlap; the sum is not direct"),
        "cover": ("PGr0", "identity ideals do not sum to A"),
        "inverse": ("PGr", "inverse of {s} mismatched"),
        "range": ("PGr", "A_{s} must sit inside A_{range}"),
        "product_dom": ("PGr2", "({s},{t})"),
        "product_leq": ("PGr3", "({s},{t})"),
        "undefined_empty": ("PGr2", "undefined product ({s},{t}) with a nonzero composite"),
    },
}


def check_action_axioms(row, shape, A, isos):
    """Raise the error `row` names for the first of its axioms that fails.

    Axioms run in the order written below, and the axioms of one loop meet
    each unit, element or ordered pair in turn; every row has a cover axiom.
    The unital homomorphism axiom runs before the units are looked at: once
    it holds, idempotents act as identities and inverses as inverse maps.
    """
    names, n = shape.names, len(shape.table)

    def fail(axiom, s=None, t=None, st=None, **fields):
        error, template = row[axiom]
        if s is not None:
            fields.update(s=names[s], inv=names[shape.inv[s]], range=names[shape.ranges[s]])
        if t is not None:
            fields.update(t=names[t], st=None if st is None else names[st])
        message = template.format(**fields)
        raise AxiomFail(error, message) if isinstance(error, str) else error(message)

    if "count" in row and len(isos) != n:
        fail("count")
    if "zero" in row:
        if shape.zero is None:
            raise ZeroRequired("this operation needs a declared zero")
        if isos[shape.zero].dom_support:
            fail("zero")
    if "ring" in row and any(iso.ring != A for iso in isos):
        fail("ring")
    if "product_eq" in row:
        for s in range(n):
            for t in range(n):
                st = shape.table[s][t]
                if isopu.compose(isos[s], isos[t]) != isos[st]:
                    fail("product_eq", s, t, st)
    covered = set()
    for e in shape.units:
        if "unit_identity" in row and not isos[e].is_identity_map():
            fail("unit_identity", e=names[e])
        if "unit_orthogonal" in row and covered & isos[e].im_support:
            fail("unit_orthogonal")
        covered |= isos[e].im_support
    if covered != set(range(len(A.atoms))):
        fail("cover", covered=sorted(covered))
    for s in range(n):
        if "inverse" in row and isos[shape.inv[s]] != isos[s].inverse():
            fail("inverse", s)
        if "range" in row and not isos[s].im_support <= isos[shape.ranges[s]].im_support:
            fail("range", s)
    if row.keys() & {"product_dom", "product_leq", "undefined_empty"}:
        for s in range(n):
            for t in range(n):
                st, comp = shape.table[s][t], isopu.compose(isos[s], isos[t])
                if st is None:
                    if "undefined_empty" in row and comp.dom_support:
                        fail("undefined_empty", s, t)
                elif "product_dom" in row and not comp.dom_support <= isos[st].dom_support:
                    fail("product_dom", s, t, st)
                elif "product_leq" in row and not isopu.natural_leq_iso(comp, isos[st]):
                    fail("product_leq", s, t, st)


def validate_action(S, A, isos):
    """Check the unital action axioms exhaustively.

    hom: beta_s beta_t = beta_{st} as partial isos (the global-action axiom
    pins the composite's domain to A_{(st)^{-1}});
    idempotents act as the identity on their ideal;
    cover: the idempotent ideals sum to A;
    beta_{s^{-1}} is the inverse map of beta_s.
    """
    isos = list(isos)
    check_action_axioms(ACTION_ROWS["unital"], ActionShape.of_semigroup(S), A, isos)
    return UnitalAction(S, A, isos)


def is_injective(beta):
    return remembered(beta, "injective", _is_injective)


def _is_injective(beta):
    return len(set(beta.isos)) == beta.S.n


def invariant_ring(beta):
    """A^beta = {a : beta_s(a 1_{s^-1}) = a 1_s for all s}, as a Subalgebra."""
    return remembered(beta, "invariants", _invariant_ring)


def _invariant_ring(beta):
    A = beta.A
    pres = A.presentation
    current = A.basis_vectors()
    for iso in beta.isos:
        support = iso.im_support
        cols = [A.sub_vec(iso.apply_vec(v), A.mask_vec(v, support)) for v in current]
        if not any(map(any, cols)):  # an idempotent's map, or one fixing the span
            continue
        mat = cols_from_vectors(cols, A.n_coords)
        in_moduli = [A.vector_order(v) for v in current]
        ker = kernel_gens(mat, pres.lattice, in_moduli)
        span = cols_from_vectors(current, A.n_coords)
        current = residues([span.apply(coeffs) for coeffs in ker], A.coord_moduli)
        if not current:
            break
    sub = Subalgebra(A, current)
    if not sub.is_subalgebra():
        raise AssertionError("invariants failed to be a unital subalgebra")
    return sub


def fixed_atom_violation(beta):
    """The fixed-atom rule: the first (s, j) with s not idempotent and beta_s
    fixing atom j of its domain with twist 0; None exactly when A is
    beta-Galois.

    At an atom a of im(s), reached from b with twist t, the Galois system
    sum_i x_i beta_s(y_i 1_{s^-1}) = [s idempotent] 1_s reads
    sum_i x_i[a] Frob^t(y_i[b]) = [s idempotent].  If such an s fixes j, so
    does ss^-1, and the two equations at j ask sum_i x_i[j] y_i[j] to be 0
    and 1.  Otherwise, as idempotents act as identities, a triple (b, a, t)
    asks 1 exactly when b = a and t = 0.  Pairs (x_i, y_i) on a single atom
    j give 0 whenever b != a.  The twists of the maps fixing j form a
    subgroup H_j of Z/k (beta_s beta_u and beta_{s^-1} fix j when beta_s and
    beta_u do), GF(p^k) is a Galois field extension of its H_j-fixed field,
    and its Galois coordinates give sum x Frob^t(y) = [t = 0] on H_j.  On
    Z/p^k, H_j = 0 and x = y = 1 do.
    """
    for s in range(beta.S.n):
        if not beta.S.is_idempotent(s):
            iso = beta.isos[s]
            for j, image in sorted(iso.matching.items()):
                if image == j and not iso.twist[j]:
                    return s, j
    return None


def invariant_order_from_atoms(beta):
    """|A^beta| as the product over the orbits O of |atom_r^{H_r}|, r the least atom of O.

    H_r is the group of twists of the maps fixing r (`fixed_atom_violation`),
    generated by h = gcd(k, those twists): atom_r^{H_r} is GF(p^h) in
    GF(p^k), and all of Z/p^k.  Each atom c of O is beta_s(r) for some s,
    since r's idempotent fixes it and the maps compose and invert along O,
    and an invariant a has a[c] = Frob^t(a[r]).  Two such s have twists
    apart by an element of H_r (s'^-1 s fixes r), so a[r] may be any
    H_r-fixed value, and the a it defines is invariant: an s taking b to c
    composes with the s' taking r to b.
    """
    order = 1
    for block in beta.orbits:
        r = block.atoms[0]
        atom = beta.A.atoms[r]
        twists = [iso.twist[r] for iso in beta.isos if iso.matching.get(r) == r]
        order *= atom.order if atom.kind == "zmod" else atom.p ** math.gcd(atom.k, *twists)
    return order


def separability_violation(beta, B):
    """The free-part rule: the first orbit block whose part B e_O is not free
    over A^beta e_O, or None; for a unital subalgebra B containing A^beta,
    None exactly when B is separable over A^beta.

    B holds each e_O, so it is separable iff each B e_O is over A^beta e_O.
    An invariant is fixed on O by its value at one atom
    (`invariant_order_from_atoms`), so A^beta e_O embeds in each atom of O,
    as a subfield K of GF(p^k), or as all of Z/p^k.  On GF(p^k) or Z/p
    atoms, B e_O is reduced, a product of finite fields over K, so
    separable.  On Z/p^k atoms, each primitive idempotent f of B under e_O
    has Bf local and holding Z/p^k f.  B e_O mod p is a subring of F_p^O
    whose idempotents lift (the kernel is nil): the vectors constant on the
    atom classes of the f, read off the generators' residues, so
    |p^{k-1} B e_O| = p^{#f}.  Bf is separable iff Bf/pBf is a field, iff
    Bf = Z/p^k f (Nakayama), iff |Bf| = p^k, its least order; so the orbit
    passes iff |B e_O| = |p^{k-1} B e_O|^k, i.e. B e_O is free over Z/p^k.
    |B e_O| is the product of modulus / pivot over O's coordinates, since
    B's canonical basis is the direct sum of its blocks'.
    """
    A = beta.A
    gens = B.gen_vectors
    for block in beta.orbits:
        atom = A.atoms[block.atoms[0]]
        if atom.kind == "gf" or atom.k == 1:
            continue
        order = math.prod(atom.order // B.basis.cols[c][c] for c in block.coords)
        classes = {tuple(g[c] % atom.p for g in gens) for c in block.coords}
        if order != atom.order ** len(classes):
            return block
    return None


def trace_map(beta, a):
    """tr(a) = sum over s of beta_s(a 1_{s^-1}); need not be invariant."""
    return _trace(beta.A, beta.isos, a)


def _trace(A, isos, a):
    if a.ring != A:
        raise AtomMismatch("element not in this ring")
    return A.from_vec(_trace_vec(A, isos, a.vec()))


def _trace_vec(A, isos, vec):
    """The sum over the isos f of f(vec 1_dom), on coordinates."""
    total = A.zero_vec
    for iso in isos:
        total = A.add_vec(total, iso.apply_vec(vec))
    return total


class PartialGroupAction:
    """A unital partial action of a finite group, validated on construction."""

    def __init__(self, group, A, isos):
        self.group = group
        self.A = A
        self.isos = tuple(isos)
        n = group.size()
        shape = ActionShape(group.table, [group.inverse(g) for g in range(n)], [group.identity],
                            [group.identity] * n, [str(g) for g in range(n)])
        check_action_axioms(ACTION_ROWS["partial group"], shape, A, self.isos)

    def trace(self, a):
        return _trace(self.A, self.isos, a)


def induce_partial_group_action(beta):
    """The partial action of G = S/sigma with alpha_g = join of the class isos.

    Each class ideal identity is also computed in the ring as a boolean sum
    and compared with the support-union indicator.
    """
    if beta.S.zero is not None:
        raise ZeroForbidden("sigma induction needs a semigroup without zero")
    if not is_e_unitary(beta.S):
        raise NotEUnitary("the induced partial action needs an E-unitary S")
    if not is_injective(beta):
        raise NotInjective("the induced partial action needs an injective beta")
    return remembered(beta, "alpha", _induce_partial_group_action)


def _induce_partial_group_action(beta):
    quo = sigma_partition(beta.S)
    isos = isopu.class_joins(beta.isos, quo.classes)
    for cls, join in zip(quo.classes, isos):
        if _boolean_sum(beta.A, [beta.ideal_one(s) for s in cls]) != beta.A.idempotent_vec(join.im_support):
            raise AssertionError("boolean sum disagrees with the support union")
    return PartialGroupAction(quo, beta.A, isos)


def _boolean_sum(A, idempotents_list):
    """The join of commuting idempotents, inclusion-exclusion factored as 1 - prod(1 - e_i)."""
    one = rest = A.one_vec
    for e in idempotents_list:
        rest = A.mul_vec(rest, A.sub_vec(one, e))
    return A.sub_vec(one, rest)


def sigma_trace(beta, a):
    """tr^sigma(a): the trace of the induced partial group action."""
    return induce_partial_group_action(beta).trace(a)


def verify_class_join_group(beta):
    """The class joins under 'unique element above the composite' form a
    group isomorphic to S/sigma, via sigma(s) -> join over sigma(s).

    Returns True, or raises AssertionError.
    """
    alpha = induce_partial_group_action(beta)
    joins = list(alpha.isos)
    if len(set(joins)) != len(joins):
        raise AssertionError("class joins collide; G' smaller than S/sigma")
    if isopu.join_product_table(joins) != alpha.group.table:
        raise AssertionError("the product of class joins is not that of S/sigma")
    return True


def sigma_trace_image(beta):
    """The additive image tr^sigma(A) as a Subalgebra (it lands in A^beta)."""
    A, isos = beta.A, induce_partial_group_action(beta).isos
    return Subalgebra(A, [_trace_vec(A, isos, v) for v in A.basis_vectors()])


def restrict_action(beta, T: SubSemigroup):
    """beta_T on a full inverse subsemigroup; the cover axiom survives."""
    if T.parent is not beta.S:
        raise ActionError("subsemigroup of a different semigroup")
    if not T.is_full:
        raise NotFullSub("restriction needs a full subsemigroup")
    sub, order = restrict_table(beta.S, T.members)
    return validate_action(sub, beta.A, [beta.isos[s] for s in order]), order


def image_action(beta):
    """(beta(S), the induced injective action, the projection S -> beta(S))."""
    classes = {}
    for s in range(beta.S.n):
        classes.setdefault(beta.isos[s], []).append(s)
    keys = list(classes)  # in the order of their least preimages
    index = {k: i for i, k in enumerate(keys)}
    proj = [index[beta.isos[s]] for s in range(beta.S.n)]
    zero = None
    if beta.S.zero is not None:
        zero = proj[beta.S.zero]
    names = [beta.S.names[classes[k][0]] for k in keys]
    T = validate_table(isopu.composition_table(keys), zero=zero, names=names)
    beta_img = validate_action(T, beta.A, keys)
    if invariant_ring(beta_img) != invariant_ring(beta):
        raise AssertionError("image action changed the invariant ring")
    return T, beta_img, tuple(proj)


class ScalarExtension:
    """The action on R (x)_{A^beta} A induced by beta, on a presentation.

    Coordinate (i, j) of `pres` is r_i (x) e_j for the k additive generators
    r_i of R and the coordinate basis e_j of A, so 1 (x) f acts as
    I_k (x) (the matrix of f).  The extension is never rebuilt as an atom
    ring; every Galois re-test works on the presented group, exactly like
    the in-ring tensor machinery.
    """

    def __init__(self, beta, pres, k):
        self.beta, self.pres, self.k, self.l = beta, pres, k, beta.A.n_coords

    def _on_a(self, mat):
        """I_k (x) mat: `mat` applied to the A side of every coordinate."""
        return block_diag([mat] * self.k)

    def act(self, iso: StructuredIso, z):
        """(1 (x) f) applied to z masked into the domain ideal of f."""
        return self._on_a(iso.matrix()).apply(z)

    def generator_vectors(self):
        n = self.k * self.l
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def r_image_canon(self):
        """The subgroup R (x) 1, spanned by r_i (x) 1."""
        ones = self._on_a(cols_from_vectors([self.beta.A.one_vec], self.l))
        return self.pres.subgroup_canon([ones.column(i) for i in range(self.k)])

    def invariants_canon(self):
        """Fixed subgroup of the extended action, via one kernel solve: the kernel
        of I_k (x) (beta_s - mask to im(s)), stacked over s."""
        A = self.beta.A
        rows = [self._on_a(iso.matrix() - StructuredIso.identity_on(A, iso.im_support).matrix())
                for iso in self.beta.isos]
        aug = block_diag([self.pres.lattice] * self.beta.S.n)
        gens = kernel_gens(vstack(rows), aug, self.pres.moduli)
        return self.pres.subgroup_canon(gens)

    def sigma_trace_vec(self, z):
        """The sum over g of (1 (x) alpha_g) applied to z, unreduced, for beta's
        induced partial group action alpha."""
        isos = induce_partial_group_action(self.beta).isos
        return tuple(map(sum, zip(*(self.act(iso, z) for iso in isos))))


def _check_structural_map(R, inv, images):
    """The images in R of inv's generators must define a unital ring map A^beta -> R."""
    A = inv.ring
    expander = SpanExpander(inv)
    phi = cols_from_vectors(images, R.n_coords)

    def image(vec):
        return phi.apply(expander.expand(vec))

    if not R.presentation.eq(image(A.one_vec), R.one_vec):
        raise ActionError("structural map must send 1 to 1")
    for cu, u in zip(images, inv.gen_vectors):
        for cv, v in zip(images, inv.gen_vectors):
            if not R.presentation.eq(image(A.mul_vec(u, v)), R.mul_vec(cu, cv)):
                raise ActionError("structural map is not multiplicative")


def extend_scalars(beta, R=None, structural_images=None):
    """Scalar extension R (x)_{A^beta} A with the induced action data.

    With R omitted the base is the invariant ring itself (structural map =
    inclusion) and the presentation is the tensor A^beta (x)_{A^beta} A.
    Otherwise R is a FiniteRing and `structural_images`, one per generator
    of A^beta, are RingElements of R or coordinate vectors over R.
    beta is first checked by the fixed-atom rule (the galois module
    re-tests the extension afterwards).
    """
    if fixed_atom_violation(beta) is not None:
        raise NotGalois("scalar extension is stated for Galois actions")
    inv = invariant_ring(beta)
    A = beta.A
    if R is None:
        tensor = TensorPresentation(inv, Subalgebra.full(A), inv)
        return ScalarExtension(beta, tensor.pres, tensor.k)
    images = [img.vec() if isinstance(img, RingElement) else tuple(int(x) for x in img)
              for img in structural_images]
    if len(images) != len(inv.gen_vectors):
        raise ActionError("one image in R per invariant-ring generator")
    if any(len(img) != R.n_coords for img in images):
        raise ActionError("structural images are coefficient vectors over R")
    _check_structural_map(R, inv, images)
    # middle linearity over the invariant ring's generators b: phi(b) r (x) a = r (x) b a
    relations = hstack([kron_difference(R.mult_matrix(img), A.mult_matrix(b))
                        for b, img in zip(inv.gen_vectors, images)])
    moduli = [math.gcd(d, e) for d in R.coord_moduli for e in A.coord_moduli]
    return ScalarExtension(beta, AbelianPresentation(moduli, relations), R.n_coords)
