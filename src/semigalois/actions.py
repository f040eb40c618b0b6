"""Actions of finite inverse semigroups and groupoids on finite commutative rings.

Every action is an `Action`: partial isos of A assigned to the elements
of S, built by a validator only after its reading of the axioms
(`ACTION_ROWS`) holds.  A unital action (`validate_action`) is a
homomorphism into Iso_pu(A) whose idempotent ideals cover A; the induced
partial action alpha of the quotient group S/sigma
(`validate_partial_group_action`) and the zero case's partial semigroup
and groupoid actions (in `zerocase`) are Actions too, so alpha's trace
and Galois system are beta's definitions read on alpha.  On top of
validation this module computes the invariant subring (`fixed_ring`, the
one solve behind A^beta and A^{beta|T}), the plain and sigma-twisted trace
maps, alpha for E-unitary injective actions, restriction to full
subsemigroups, and the action of a closed set of isos on its own table
(`iso_action`) and the image action through it.
"""

from __future__ import annotations

import math

from . import isopu
from .linalg import cols_from_vectors, kernel_gens, residues
from .rings import AtomMismatch, Block, Subalgebra
from .semigroups import (SemigroupError, SubSemigroup, ZeroForbidden, ZeroRequired, is_e_unitary,
                         linked_classes, remembered, restrict_table, sigma_partition,
                         validate_table)


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


class PartialActionAxiomFail(ActionError):
    pass


class Action:
    """A validated assignment s -> beta_s of partial isos of A to the elements
    of S, an `InverseSemigroup` or a `Groupoid`; built by the validator of
    its reading (`validate_action` for a unital action)."""

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

    @property
    @remembered
    def orbits(self):
        """The orbits O of the atom maps, as `Block`s A e_O in order of least atom.

        An idempotent of A is a support indicator, invariant exactly when
        every beta_s keeps its support, so the e_O are the primitive
        idempotents of A^beta.  Each is central and beta_s(y e_O 1_{s^-1})
        = beta_s(y 1_{s^-1}) e_O 1_s, so every system the Galois criteria
        solve is block diagonal over the orbits.
        """
        pairs = ((i, v[0]) for iso in self.isos for i, v in enumerate(iso.atom_map) if v)
        return tuple(Block(self.A, atoms) for atoms in linked_classes(len(self.A.atoms), pairs))

    def __repr__(self):
        return f"Action(|S|={self.S.n}, A={self.A!r})"


class AxiomFail(Exception):
    """Partial-action axiom violation, tagged PIS0-3 or PGr0-3."""

    def __init__(self, tag, detail=""):
        super().__init__(f"{tag}: {detail}" if detail else tag)
        self.tag = tag


# One row per reading of an action: each axiom it checks, with the error it
# raises (an exception class, or the tag of an AxiomFail) and the message.
# Messages may name {e} (an idempotent), {s}, {inv}, {range} (an element,
# its inverse, its range ss^{-1}), {t}, {st} (a pair and its product) and
# {covered} (the atoms the idempotents cover).
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


def check_action_axioms(row, S, A, isos):
    """Raise the error `row` names for the first of its axioms that fails.

    S is an `InverseSemigroup` or a `Groupoid`, read through its fields:
    `table[s][t]` is the product's index, or None where a groupoid product
    is undefined; the `idempotents` must act as identities, met in the
    order they are stored; the range of s is ss^{-1}, which is r(s) on a
    groupoid.  Axioms run in the order written below, and the axioms of one
    loop meet each idempotent, element or ordered pair in turn; every row
    has a cover axiom.  The unital homomorphism axiom runs before the
    idempotents are looked at: once it holds, they act as identities and
    inverses as inverse maps.
    """
    table, inv, names, n = S.table, S.inv, S.names, S.n

    def fail(axiom, s=None, t=None, st=None, **fields):
        error, template = row[axiom]
        if s is not None:
            fields.update(s=names[s], inv=names[inv[s]], range=names[table[s][inv[s]]])
        if t is not None:
            fields.update(t=names[t], st=None if st is None else names[st])
        message = template.format(**fields)
        raise AxiomFail(error, message) if isinstance(error, str) else error(message)

    if "count" in row and len(isos) != n:
        fail("count")
    if "zero" in row:
        if S.zero is None:
            raise ZeroRequired("this operation needs a declared zero")
        if isos[S.zero].dom_support:
            fail("zero")
    if "ring" in row and any(iso.ring != A for iso in isos):
        fail("ring")
    if "product_eq" in row:
        for s in range(n):
            for t in range(n):
                st = table[s][t]
                if isopu.compose(isos[s], isos[t]) != isos[st]:
                    fail("product_eq", s, t, st)
    covered = set()
    for e in S.idempotents:
        if "unit_identity" in row and not isos[e].is_identity_map():
            fail("unit_identity", e=names[e])
        if "unit_orthogonal" in row and covered & isos[e].im_support:
            fail("unit_orthogonal")
        covered |= isos[e].im_support
    if covered != set(range(len(A.atoms))):
        fail("cover", covered=sorted(covered))
    for s in range(n):
        if "inverse" in row and isos[inv[s]] != isos[s].inverse():
            fail("inverse", s)
        if "range" in row and not isos[s].im_support <= isos[table[s][inv[s]]].im_support:
            fail("range", s)
    if row.keys() & {"product_dom", "product_leq", "undefined_empty"}:
        for s in range(n):
            for t in range(n):
                st, comp = table[s][t], isopu.compose(isos[s], isos[t])
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
    check_action_axioms(ACTION_ROWS["unital"], S, A, isos)
    return Action(S, A, isos)


def validate_partial_group_action(G, A, isos):
    """Check the axioms of a unital partial action of the group G: the
    identity acts as Id_A, inverses carry inverse maps, and
    alpha_g alpha_h <= alpha_{gh}."""
    isos = tuple(isos)
    check_action_axioms(ACTION_ROWS["partial group"], G, A, isos)
    return Action(G, A, isos)


def iso_action(isos, names, zero=None):
    """A closed set of partial isos of one ring acting by itself, on their
    composition table with its elements named `names` and `zero` the index
    of its declared zero.

    Of the unital axioms (`validate_action`) only the cover axiom can fail
    once `validate_table` accepts the table, so only it is checked.  The
    product axiom holds as the table is the isos' composition.  The inverse
    axiom: S.inv[s] is an inverse of isos[s] in the table, so in Iso_pu,
    whose inverses are unique, it is the Iso_pu inverse.  The unit axiom: an
    idempotent partial iso e has ee = e, so im e lies in dom e, the two have
    the same size and are equal, and e, injective with e(e(x)) = e(x), is
    the identity on its domain.
    """
    S = validate_table(isopu.composition_table(isos), zero=zero, names=names)
    A = isos[0].ring
    covered = set().union(*(isos[e].im_support for e in S.idempotents))
    if covered != set(range(len(A.atoms))):
        raise CoverFail(f"idempotent ideals cover atoms {sorted(covered)} only")
    return Action(S, A, isos)


@remembered
def is_injective(beta):
    return len(set(beta.isos)) == beta.S.n


@remembered
def invariant_ring(beta):
    """A^beta = {a : beta_s(a 1_{s^-1}) = a 1_s for all s}, as a Subalgebra."""
    return fixed_ring(beta.A, beta.isos)


def _defect(iso):
    """The map vec -> f(vec 1_dom) - vec 1_im of the iso f."""
    A, support = iso.ring, iso.im_support
    return lambda vec: A.sub_vec(iso.apply_vec(vec), A.mask_vec(vec, support))


def fixed_ring(A, isos):
    """{a : f(a 1_dom) = a 1_im for the isos f, in order}, a unital subalgebra
    (checked) for the isos of a unital action or of a full T.

    This is the one solve behind A^beta and A^{beta|T}: the common kernel of
    the isos' `_defect` maps on the group `A.presentation`.  A map sends
    integer vectors to integer vectors, additively up to the lattice, and the
    lattice into itself.  Each map's kernel is solved on the span the maps
    before it left, mod each vector's `vector_order`."""
    pres = A.presentation
    current = A.basis_vectors()
    for iso in isos:
        f = _defect(iso)
        cols = [f(v) for v in current]
        if not any(map(any, cols)):  # an idempotent's map, or one fixing the span
            continue
        mat = cols_from_vectors(cols, pres.n)
        ker = kernel_gens(mat, pres.lattice, [pres.vector_order(v) for v in current], pres.moduli)
        span = cols_from_vectors(current, pres.n)
        current = residues([span.apply(coeffs) for coeffs in ker], pres.moduli)
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
            for j, v in enumerate(beta.isos[s].atom_map):
                if v == (j, 0):
                    return s, j
    return None


def invariant_order_from_atoms(beta):
    """|A^beta| as the product over the orbits O of |atom_r^{H_r}|, r the least atom of O.

    H_r is the group of twists of the maps fixing r (`fixed_atom_violation`),
    a subgroup of Z/n for the atom's n = `coords` coordinates, generated by
    h = gcd(n, those twists).  atom_r^{H_r} is the ring fixed by Frob^h,
    free on h coordinates modulo the atom's `modulus` m, so of order m^h:
    GF(p^h) in GF(p^k) (n = k, m = p), and all of Z/p^k (n = h = 1,
    m = p^k).  Each atom c of O is beta_s(r) for some s,
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
        twists = [v[1] for iso in beta.isos if (v := iso.atom_map[r]) and v[0] == r]
        order *= atom.modulus ** math.gcd(atom.coords, *twists)
    return order


@remembered
def separability_violation(beta, B):
    """The free-part rule, kept per B: the first orbit block whose part B e_O
    is not free over A^beta e_O, or None; for a unital subalgebra B
    containing A^beta, None exactly when B is separable over A^beta.

    B holds each e_O, so it is separable iff each B e_O is over A^beta e_O.
    An invariant is fixed on O by its value at one atom
    (`invariant_order_from_atoms`), so A^beta e_O embeds in each atom of O,
    as a subring K of it.  An atom whose coordinate modulus m is p is a
    field (GF(p^k), or Z/p): there B e_O is reduced, a product of finite
    fields over the subfield K, so separable.  An atom with m = p^k, k > 1,
    has one coordinate (it is Z/p^k), and K is all of it.  Each primitive
    idempotent f of B under e_O has Bf local and holding (Z/m) f.  B e_O
    mod p is a subring of F_p^O whose idempotents lift (the kernel is nil):
    the vectors constant on the atom classes of the f, read off the
    generators' residues, so |p^{k-1} B e_O| = p^{#f}.  Bf is separable iff
    Bf/pBf is a field, iff Bf = (Z/m) f (Nakayama), iff |Bf| = m, its least
    order; so the orbit passes iff |B e_O| = m^{#f}, i.e. B e_O is free
    over Z/m.  |B e_O| is the product of m / pivot over O's coordinates,
    since B's canonical basis is the direct sum of its blocks'.
    """
    A = beta.A
    gens = B.gen_vectors
    for block in beta.orbits:
        atom = A.atoms[block.atoms[0]]
        m = atom.modulus
        if m == atom.p:
            continue
        order = math.prod(m // B.basis.cols[c][c] for c in block.coords)
        classes = {tuple(g[c] % atom.p for g in gens) for c in block.coords}
        if order != m ** len(classes):
            return block
    return None


def trace_map(beta, a):
    """tr(a) = sum over s of beta_s(a 1_{s^-1}); need not be invariant."""
    if a.ring != beta.A:
        raise AtomMismatch("element not in this ring")
    return beta.A.from_vec(_trace_vec(beta.A, beta.isos, a.vec()))


def _trace_vec(A, isos, vec):
    """The sum over the isos f of f(vec 1_dom), on coordinates."""
    total = A.zero_vec
    for iso in isos:
        total = A.add_vec(total, iso.apply_vec(vec))
    return total


@remembered
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
    G, classes, _ = sigma_partition(beta.S)
    isos = isopu.class_joins(beta.isos, classes)
    for cls, join in zip(classes, isos):
        if _boolean_sum(beta.A, [beta.ideal_one(s) for s in cls]) != beta.A.idempotent_vec(join.im_support):
            raise AssertionError("boolean sum disagrees with the support union")
    return validate_partial_group_action(G, beta.A, isos)


def _boolean_sum(A, idempotents_list):
    """The join of commuting idempotents, inclusion-exclusion factored as 1 - prod(1 - e_i)."""
    one = rest = A.one_vec
    for e in idempotents_list:
        rest = A.mul_vec(rest, A.sub_vec(one, e))
    return A.sub_vec(one, rest)


def sigma_trace(beta, a):
    """tr^sigma(a): the trace of the induced partial group action."""
    return trace_map(induce_partial_group_action(beta), a)


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
    """(the induced injective action of beta(S), the projection S -> beta(S))."""
    classes = {}
    for s in range(beta.S.n):
        classes.setdefault(beta.isos[s], []).append(s)
    keys = list(classes)  # in the order of their least preimages
    index = {k: i for i, k in enumerate(keys)}
    proj = [index[beta.isos[s]] for s in range(beta.S.n)]
    zero = None if beta.S.zero is None else proj[beta.S.zero]
    beta_img = iso_action(keys, [beta.S.names[classes[k][0]] for k in keys], zero)
    if invariant_ring(beta_img) != invariant_ring(beta):
        raise AssertionError("image action changed the invariant ring")
    return beta_img, tuple(proj)
