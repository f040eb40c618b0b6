"""Unital actions of finite inverse semigroups on finite commutative rings.

A unital action is a homomorphism into Iso_pu(A) whose idempotent ideals
cover A.  On top of validation this module computes the invariant subring,
the plain and sigma-twisted trace maps, the induced partial action of the
quotient group S/sigma for E-unitary injective actions, restriction to full
subsemigroups, the image action, and scalar extension along a base-ring
map (presented tensor, not an atom ring).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import isopu
from .linalg import AbelianPresentation, block_diag, cols_from_vectors, kernel_gens
from .rings import (RingElement, SpanExpander, StructuredIso, Subalgebra,
                    TooLarge, _span_relation_lattice)
from .semigroups import (SemigroupError, SubSemigroup, ZeroForbidden,
                         is_e_unitary, restrict_table, sigma_partition,
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

    def iso(self, s):
        return self.isos[s]

    def dom_support(self, s):
        """Atom support of A_{s^{-1}} (the domain of beta_s)."""
        return self.isos[s].dom_support

    def im_support(self, s):
        return self.isos[s].im_support

    def ideal_one(self, s):
        """The idempotent 1_s generating A_s."""
        return self.A.idempotent(self.im_support(s))

    def apply(self, s, a):
        return self.isos[s].apply(a)

    def all_ideals_nonzero(self):
        return all(self.im_support(s) for s in self.S.nonzero_elements())

    def __repr__(self):
        return f"UnitalAction(|S|={self.S.n}, A={self.A!r})"


def validate_action(S, A, isos):
    """Check the unital action axioms exhaustively.

    hom: beta_s beta_t = beta_{st} as partial isos (the global-action axiom
    pins the composite's domain to A_{(st)^{-1}});
    cover: the idempotent ideals sum to A;
    idempotents act as the identity on their ideal.
    """
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


def is_injective(beta):
    seen = {}
    for s in range(beta.S.n):
        key = beta.isos[s]
        if key in seen:
            return False
        seen[key] = s
    return True


def invariant_ring(beta):
    """A^beta = {a : beta_s(a 1_{s^-1}) = a 1_s for all s}, as a Subalgebra."""
    A = beta.A
    pres = A.presentation
    current = [tuple(v) for v in A.basis_vectors()]
    for s in range(beta.S.n):
        iso = beta.isos[s]
        cols = []
        for v in current:
            img = iso.apply_vec(v)
            masked = A.mask_vec(v, iso.im_support)
            cols.append(A.sub_vec(img, masked))
        mat = cols_from_vectors(cols, A.n_coords)
        in_moduli = [A.vector_order(v) for v in current]
        ker = kernel_gens(mat, pres.lattice, in_moduli)
        nxt = []
        for coeffs in ker:
            vec = [0] * A.n_coords
            for c, v in zip(coeffs, current):
                if c:
                    for i in range(A.n_coords):
                        vec[i] += c * v[i]
            nxt.append(tuple(x % m for x, m in zip(vec, A.coord_moduli)))
        current = [v for v in nxt if any(v)]
        if not current:
            break
    sub = Subalgebra(A, current)
    if not sub.is_subalgebra():
        raise AssertionError("invariants failed to be a unital subalgebra")
    return sub


def trace_map(beta, a):
    """tr(a) = sum over s of beta_s(a 1_{s^-1}); need not be invariant."""
    total = beta.A.zero()
    for s in range(beta.S.n):
        iso = beta.isos[s]
        total = total + iso.apply(a.mask(iso.dom_support))
    return total


class PartialGroupAction:
    """A unital partial action of a finite group, validated on construction."""

    def __init__(self, group, A, isos):
        self.group = group
        self.A = A
        self.isos = tuple(isos)
        self._validate()

    def iso(self, g):
        return self.isos[g]

    def _validate(self):
        G = self.group
        e = G.identity
        if self.isos[e].dom_support != frozenset(range(len(self.A.atoms))) \
                or not self.isos[e].is_identity_map():
            raise PartialActionAxiomFail("P1: identity must act as Id_A on A")
        for gIdx in range(G.size()):
            if self.isos[G.inverse(gIdx)] != self.isos[gIdx].inverse():
                raise PartialActionAxiomFail("inverse classes must carry inverse maps")
        for gIdx in range(G.size()):
            for h in range(G.size()):
                comp = isopu.compose(self.isos[gIdx], self.isos[h])
                target = self.isos[G.table[gIdx][h]]
                if not isopu.natural_leq_iso(comp, target):
                    raise PartialActionAxiomFail(f"P2/P3 fail at classes {gIdx}, {h}")

    def trace(self, a):
        total = self.A.zero()
        for g in range(self.group.size()):
            iso = self.isos[g]
            total = total + iso.apply(a.mask(iso.dom_support))
        return total


def induce_partial_group_action(beta, check_boolean_sum=True):
    """The partial action of G = S/sigma with alpha_g = join of the class isos.

    The class ideal identity computed by inclusion-exclusion over the class
    is compared with the support-union indicator when `check_boolean_sum`.
    """
    if beta.S.zero is not None:
        raise ZeroForbidden("sigma induction needs a semigroup without zero")
    if not is_e_unitary(beta.S):
        raise NotEUnitary("the induced partial action needs an E-unitary S")
    if not is_injective(beta):
        raise NotInjective("the induced partial action needs an injective beta")
    quo = sigma_partition(beta.S)
    isos = []
    for cls in quo.classes:
        join = isopu.join_sum([beta.isos[s] for s in cls])
        isos.append(join)
        if check_boolean_sum:
            incl_excl = _boolean_sum(beta.A, [beta.ideal_one(s) for s in cls])
            if incl_excl != beta.A.idempotent(join.im_support):
                raise AssertionError("boolean sum disagrees with the support union")
    return PartialGroupAction(quo, beta.A, isos)


def _boolean_sum(A, idempotents_list):
    total = A.zero()
    for r in range(1, len(idempotents_list) + 1):
        sign = 1 if r % 2 == 1 else -1
        for combo in itertools.combinations(idempotents_list, r):
            prod = A.one()
            for e in combo:
                prod = prod * e
            total = total + (sign * prod)
    return total


def sigma_trace(beta, a, alpha=None):
    """tr^sigma(a): the trace of the induced partial group action."""
    if alpha is None:
        alpha = induce_partial_group_action(beta, check_boolean_sum=False)
    return alpha.trace(a)


def verify_class_join_group(beta):
    """The class joins under 'unique element above the composite' form a
    group isomorphic to S/sigma, via sigma(s) -> join over sigma(s).

    Returns True, or raises AssertionError naming the failing product.
    """
    alpha = induce_partial_group_action(beta, check_boolean_sum=False)
    quo = alpha.group
    joins = list(alpha.isos)
    m = len(joins)
    if len(set(joins)) != m:
        raise AssertionError("class joins collide; G' smaller than S/sigma")
    for a in range(m):
        for b in range(m):
            comp = isopu.compose(joins[a], joins[b])
            above = [c for c in range(m) if isopu.natural_leq_iso(comp, joins[c])]
            if above != [quo.table[a][b]]:
                raise AssertionError(
                    f"composite of classes {a},{b} sits below {above}, "
                    f"expected exactly class {quo.table[a][b]}")
    return True


def sigma_trace_image(beta, alpha=None):
    """The additive image tr^sigma(A) as a Subalgebra (it lands in A^beta)."""
    if alpha is None:
        alpha = induce_partial_group_action(beta, check_boolean_sum=False)
    gens = [alpha.trace(b).vec() for b in beta.A.basis_elements()]
    return Subalgebra(beta.A, gens)


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
    keys = sorted(classes, key=lambda k: min(classes[k]))
    index = {k: i for i, k in enumerate(keys)}
    proj = [index[beta.isos[s]] for s in range(beta.S.n)]
    m = len(keys)
    table = [[None] * m for _ in range(m)]
    for a, ka in enumerate(keys):
        for b, kb in enumerate(keys):
            comp = isopu.compose(ka, kb)
            if comp not in index:
                raise AssertionError("image of a homomorphism must be closed")
            table[a][b] = index[comp]
    zero = None
    if beta.S.zero is not None:
        zero = proj[beta.S.zero]
    names = [beta.S.names[min(classes[k])] for k in keys]
    T = validate_table(table, zero=zero, names=names)
    beta_img = validate_action(T, beta.A, keys)
    if invariant_ring(beta_img) != invariant_ring(beta):
        raise AssertionError("image action changed the invariant ring")
    return T, beta_img, tuple(proj)


class PresentedBase:
    """The scalar ring R of an extension, as additive generators with
    relations and structure constants.  Works for an atom-product ring or
    for a subalgebra of one (e.g. the invariant ring itself)."""

    def __init__(self, gens, orders, relations, mul_expand, one_coeffs, label):
        self.gens = gens
        self.orders = list(orders)
        self.k = len(gens)
        self.pres = AbelianPresentation(self.orders, relations)
        self.mul_expand = mul_expand  # (i, j) -> coeff vector over gens
        self.one_coeffs = tuple(one_coeffs)
        self.label = label
        self.size = self.pres.order()

    @staticmethod
    def from_finite_ring(R):
        gens = R.basis_vectors()

        def mul(i, j):
            return R.mul_vec(gens[i], gens[j])

        return PresentedBase(gens, R.coord_moduli, (), mul,
                             R.one().vec(), repr(R))

    @staticmethod
    def from_subalgebra(B):
        expander = SpanExpander(B)
        gens = list(B.gen_vectors)
        orders = [B.ring.vector_order(g) for g in gens]
        rel = _span_relation_lattice(B)

        def mul(i, j):
            return expander.expand(B.ring.mul_vec(gens[i], gens[j]))

        return PresentedBase(gens, orders, cols_from_vectors(rel, len(gens)) if rel else (),
                             mul, expander.expand(B.ring.one().vec()),
                             f"Subalgebra(order={B.order})")

    def combine(self, coeff_vectors, weights):
        out = [0] * self.k
        for c, vec in zip(weights, coeff_vectors):
            if c:
                for i, x in enumerate(vec):
                    out[i] += c * x
        return tuple(out)

    def mul_coeffs(self, u, v):
        """Product of two coefficient vectors, as a coefficient vector."""
        out = [0] * self.k
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                prod = self.mul_expand(i, j)
                for w, x in enumerate(prod):
                    out[w] += a * b * x
        return tuple(out)


class ScalarExtension:
    """The action on R (x)_{A^beta} A induced by beta, on a presentation.

    R comes with a structural map from the invariant ring (coefficient
    vectors over R's generators; the inclusion when R is the invariant
    subalgebra itself).  The extension is never rebuilt as an atom ring;
    every Galois re-test works on the presented group, exactly like the
    in-ring tensor machinery.
    """

    def __init__(self, beta, base: PresentedBase, structural_images,
                 invariants=None, guard=1 << 14):
        A = beta.A
        if base.size * A.size > guard:
            raise TooLarge("|R| * |A| beyond the scalar-extension guard")
        self.beta = beta
        self.base = base
        inv = invariants if invariants is not None else invariant_ring(beta)
        self.invariants = inv
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
        # R-side additive relations, tensored with each A generator
        rel_matrix = base.pres.relations
        for col in range(rel_matrix.shape[1]):
            coeffs = [int(rel_matrix[i, col]) for i in range(base.k)]
            for j in range(self.l):
                out = [0] * (self.k * self.l)
                for i, c in enumerate(coeffs):
                    out[self.index(i, j)] = c
                rel_cols.append(tuple(out))
        for i, d in enumerate(base.orders):
            for j in range(self.l):
                out = [0] * (self.k * self.l)
                out[self.index(i, j)] = d
                rel_cols.append(tuple(out))
        # middle linearity over the invariant ring's generators
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
        self.pres = AbelianPresentation(moduli, cols_from_vectors(rel_cols, self.k * self.l))

    def _check_structural_map(self):
        base, inv, A = self.base, self.invariants, self.beta.A
        expander = SpanExpander(inv)
        one_coeffs = expander.expand(A.one().vec())
        got_one = base.combine(self.base_images, one_coeffs)
        if not base.pres.eq(got_one, base.one_coeffs):
            raise ActionError("structural map must send 1 to 1")
        for (cu, u) in zip(self.base_images, inv.gen_vectors):
            for (cv, v) in zip(self.base_images, inv.gen_vectors):
                prod = expander.expand(A.mul_vec(u, v))
                lhs = base.combine(self.base_images, prod)
                rhs = base.mul_coeffs(cu, cv)
                if not base.pres.eq(lhs, rhs):
                    raise ActionError("structural map is not multiplicative")

    def index(self, i, j):
        return i * self.l + j

    def pure(self, r_coeffs, a_vec):
        col = [0] * (self.k * self.l)
        for i, u in enumerate(r_coeffs):
            if u:
                for j, v in enumerate(a_vec):
                    if v:
                        col[self.index(i, j)] += u * v
        return tuple(col)

    def one(self):
        return self.pure(self.base.one_coeffs, self.beta.A.one().vec())

    def act(self, iso: StructuredIso, z):
        """(1 (x) f) applied to z masked into the domain ideal of f."""
        out = [0] * (self.k * self.l)
        A = self.beta.A
        for i in range(self.k):
            for j in range(self.l):
                c = z[self.index(i, j)]
                if not c:
                    continue
                masked = A.mask_vec(self.ag[j], iso.dom_support)
                img = iso.apply_vec(masked)
                for b, v in enumerate(img):
                    if v:
                        out[self.index(i, b)] += c * v
        return tuple(out)

    def _mask(self, z, support):
        out = [0] * (self.k * self.l)
        A = self.beta.A
        for i in range(self.k):
            for j in range(self.l):
                c = z[self.index(i, j)]
                if not c:
                    continue
                masked = A.mask_vec(self.ag[j], support)
                for b, v in enumerate(masked):
                    if v:
                        out[self.index(i, b)] += c * v
        return tuple(out)

    def generator_vectors(self):
        out = []
        for i in range(self.k):
            for j in range(self.l):
                col = [0] * (self.k * self.l)
                col[self.index(i, j)] = 1
                out.append(tuple(col))
        return out

    def r_image_canon(self):
        gens = [self.pure(_unit(self.k, i), self.beta.A.one().vec())
                for i in range(self.k)]
        return self.pres.subgroup_canon(gens)

    def invariants_canon(self):
        """Fixed subgroup of the extended action, via one kernel solve."""
        g = self.k * self.l
        rows = []
        for s in range(self.beta.S.n):
            iso = self.beta.isos[s]
            cols = []
            for z in self.generator_vectors():
                moved = self.act(iso, z)
                kept = self._mask(z, iso.im_support)
                cols.append(tuple(a - b for a, b in zip(moved, kept)))
            rows.append(cols_from_vectors(cols, g))
        stacked = np.concatenate(rows, axis=0)
        aug = block_diag([self.pres.lattice] * self.beta.S.n)
        gens = kernel_gens(stacked, aug, self.pres.moduli)
        return self.pres.subgroup_canon(gens)

    def sigma_trace_vec(self, z, alpha):
        total = (0,) * (self.k * self.l)
        for g in range(alpha.group.size()):
            iso = alpha.isos[g]
            moved = self.act(iso, z)
            total = tuple(a + b for a, b in zip(total, moved))
        return total


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def extend_scalars(beta, R=None, structural_images=None, require_galois=True,
                   guard=1 << 14):
    """Scalar extension R (x)_{A^beta} A with the induced action data.

    With R omitted the base is the invariant ring itself (structural map =
    inclusion).  `structural_images` are coefficient vectors over R's
    additive generators, or RingElements when R is an atom-product ring.
    When `require_galois`, beta is first checked through the coordinate
    criterion (the galois module re-tests the extension afterwards).
    """
    if require_galois:
        from .galois import solve_galois_coordinates
        if solve_galois_coordinates(beta) is None:
            raise NotGalois("scalar extension is stated for Galois actions")
    inv = invariant_ring(beta)
    if R is None:
        base = PresentedBase.from_subalgebra(inv)
        images = [_unit(base.k, i) for i in range(base.k)]
        return ScalarExtension(beta, base, images, invariants=inv, guard=guard)
    base = PresentedBase.from_finite_ring(R)
    images = []
    for img in structural_images:
        if isinstance(img, RingElement):
            images.append(img.vec())
        else:
            images.append(tuple(img))
    return ScalarExtension(beta, base, images, invariants=inv, guard=guard)
