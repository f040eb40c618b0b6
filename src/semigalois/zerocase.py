"""Inverse semigroups with zero: strong compatibility, tau, groupoids.

The zero-aware layer mirrors the sigma machinery: strong compatibility
replaces compatibility, tau replaces the minimum group congruence, and
primitive inverse semigroups trade places with groupoids (adjoin or strip
the zero).  Unital actions with zero convert to orthogonal partial
groupoid actions and back, and the Galois correspondence runs on the
engine of `correspondence` over the beta-maximal subsemigroups.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import isopu
from .actions import (ACTION_ROWS, ActionShape, AxiomFail,  # noqa: F401 (AxiomFail is re-exported)
                      check_action_axioms)
from .correspondence import enumerate_beta_maximal, verify_pairs
from .galois import PreconditionFail, is_galois
from .rings import StructuredIso
from .semigroups import (InverseSemigroup, SemigroupError, ZeroRequired, lower_bound_classes,
                         quotient_table, shares_lower_bound, validate_table)


class NotPrimitive(SemigroupError):
    pass


class NotStronglyCompatible(SemigroupError):
    pass


class GroupoidError(Exception):
    pass


def _require_zero(S):
    if S.zero is None:
        raise ZeroRequired("this operation needs a declared zero")


def nonzero_idempotents(S):
    return [e for e in sorted(S.idempotents) if e != S.zero]


def strongly_compatible(S, s, t):
    """s ~~ t: both zero, or s^{-1}t and st^{-1} are nonzero idempotents."""
    _require_zero(S)
    z = S.zero
    if s == z or t == z:
        return s == t
    a = S.table[S.inv[s]][t]
    b = S.table[s][S.inv[t]]
    return a != z and b != z and a in S.idempotents and b in S.idempotents


def _remembered(S, key, compute):
    """compute(S), derived once per semigroup and kept in `S.facts`: a
    validated table never changes."""
    if key not in S.facts:
        S.facts[key] = compute(S)
    return S.facts[key]


def is_0_e_unitary(S):
    """No non-idempotent sits above a nonzero idempotent."""
    _require_zero(S)
    return _remembered(S, "0_e_unitary", _is_0_e_unitary)


def _is_0_e_unitary(S):
    for e in nonzero_idempotents(S):
        for s in range(S.n):
            if S.leq[e][s] and s not in S.idempotents:
                return False
    return True


def is_categorical_at_zero(S):
    """stu = 0 forces st = 0 or tu = 0."""
    _require_zero(S)
    return _remembered(S, "categorical_at_zero", _is_categorical_at_zero)


def _is_categorical_at_zero(S):
    z = S.zero
    for s in range(S.n):
        for t in range(S.n):
            st = S.table[s][t]
            for u in range(S.n):
                if S.table[st][u] == z and st != z and S.table[t][u] != z:
                    return False
    return True


def tau_partition(S):
    """tau: zero alone, nonzero elements related by a shared nonzero lower bound.

    Returned as the transitive closure; on 0-E-unitary categorical-at-zero
    instances the closure is asserted to add nothing (tau is already the
    strong-compatibility relation there).
    """
    _require_zero(S)
    return _remembered(S, "tau_partition", _tau_partition)


def _tau_partition(S):
    classes, projection = lower_bound_classes(S)
    if is_0_e_unitary(S) and is_categorical_at_zero(S):
        for s in range(S.n):
            for t in range(S.n):
                same = projection[s] == projection[t]
                if same != shares_lower_bound(S, s, t):
                    raise AssertionError("tau is not transitive on a categorical 0-E-unitary table")
                if same != strongly_compatible(S, s, t):
                    raise AssertionError("tau differs from strong compatibility")
    return classes, projection


def tau_quotient(S):
    """S/tau as an inverse semigroup with zero; requires tau to be a congruence."""
    classes, projection = tau_partition(S)
    table = quotient_table(S, classes, projection)
    if table is None:
        raise SemigroupError("tau is not a congruence on this table")
    zero = projection[S.zero]
    names = ["{" + ",".join(S.names[s] for s in cls) + "}" for cls in classes]
    return validate_table(table, zero=zero, names=names), projection


def is_primitive(S):
    """The natural order is equality on nonzero elements."""
    _require_zero(S)
    return _remembered(S, "primitive", _is_primitive)


def _is_primitive(S):
    z = S.zero
    for s in range(S.n):
        for t in range(S.n):
            if s != t and s != z and t != z and S.leq[s][t]:
                return False
    return True


def is_zero_restricted_partition(S, projection):
    z_class = projection[S.zero]
    return sum(1 for s in range(S.n) if projection[s] == z_class) == 1


def meet_formulas_check(S, s, t):
    """For strongly compatible nonzero s, t: s^t = ss^{-1}t with the
    displayed idempotent identities."""
    _require_zero(S)
    if not strongly_compatible(S, s, t) or s == S.zero:
        raise NotStronglyCompatible(f"{S.names[s]}, {S.names[t]}")
    from .semigroups import meet
    w = S.table[S.table[s][S.inv[s]]][t]
    if w == S.zero:
        return False
    if meet(S, s, t) != w:
        return False
    lhs1 = S.table[w][S.inv[w]]
    rhs1 = S.table[S.table[s][S.inv[s]]][S.table[t][S.inv[t]]]
    lhs2 = S.table[S.inv[w]][w]
    rhs2 = S.table[S.table[S.inv[s]][s]][S.table[S.inv[t]][t]]
    return lhs1 == rhs1 and lhs2 == rhs2


# -- groupoids ----------------------------------------------------------------


@dataclass(frozen=True)
class Groupoid:
    n: int
    product: tuple  # n x n tuple with entries element-index or None
    names: tuple

    def defined(self, g, h):
        return self.product[g][h] is not None

    def mul(self, g, h):
        p = self.product[g][h]
        if p is None:
            raise GroupoidError("undefined product")
        return p

    def identities(self):
        out = []
        for e in range(self.n):
            if self.defined(e, e) and self.product[e][e] == e:
                if all(self.product[g][e] in (None, g) for g in range(self.n)) and \
                   all(self.product[e][g] in (None, g) for g in range(self.n)):
                    out.append(e)
        return out


def validate_groupoid(n, product, names=None):
    """Exhaustively check the groupoid axioms; returns (Groupoid, d, r, inv)."""
    product = tuple(tuple(row) for row in product)
    names = tuple(names) if names else tuple(f"g{i}" for i in range(n))
    G = Groupoid(n, product, names)
    ids = set(G.identities())

    def dfn(g, h):
        return product[g][h] is not None

    # axiom (ii): g(hl) defined iff gh and hl defined; (i): iff (gh)l defined, equal
    for g in range(n):
        for h in range(n):
            for l in range(n):
                left_ok = dfn(h, l) and dfn(g, product[h][l])
                right_ok = dfn(g, h) and dfn(product[g][h], l)
                pairwise = dfn(g, h) and dfn(h, l)
                if left_ok != right_ok or left_ok != pairwise:
                    raise GroupoidError(f"axioms (i)/(ii) fail at ({g},{h},{l})")
                if left_ok and product[g][product[h][l]] != product[product[g][h]][l]:
                    raise GroupoidError(f"associativity fails at ({g},{h},{l})")
    d = [None] * n
    r = [None] * n
    inv = [None] * n
    for g in range(n):
        dg = [e for e in ids if dfn(g, e) and product[g][e] == g]
        rg = [e for e in ids if dfn(e, g) and product[e][g] == g]
        if len(dg) != 1 or len(rg) != 1:
            raise GroupoidError(f"axiom (iii) fails at {g}")
        d[g], r[g] = dg[0], rg[0]
    for g in range(n):
        cands = [h for h in range(n)
                 if dfn(g, h) and dfn(h, g)
                 and product[g][h] == r[g] and product[h][g] == d[g]]
        if not cands:
            raise GroupoidError(f"axiom (iv) fails at {g}")
        inv[g] = cands[0]
    return G, tuple(d), tuple(r), tuple(inv)


def primitive_to_groupoid(S):
    """Strip the zero: products defined exactly when nonzero."""
    _require_zero(S)
    if not is_primitive(S):
        raise NotPrimitive("only primitive semigroups strip to groupoids")
    order = [s for s in range(S.n) if s != S.zero]
    index = {s: i for i, s in enumerate(order)}
    n = len(order)
    product = [[None] * n for _ in range(n)]
    for i, s in enumerate(order):
        for j, t in enumerate(order):
            st = S.table[s][t]
            if st != S.zero:
                product[i][j] = index[st]
    return validate_groupoid(n, product, [S.names[s] for s in order]), order


def groupoid_to_primitive(G: Groupoid):
    """Adjoin a zero: undefined products become 0."""
    n = G.n
    z = n
    table = [[z] * (n + 1) for _ in range(n + 1)]
    for g in range(n):
        for h in range(n):
            if G.defined(g, h):
                table[g][h] = G.mul(g, h)
    S = validate_table(table, zero=z, names=list(G.names) + ["0"])
    if not is_primitive(S):
        raise NotPrimitive("groupoid with zero adjoined failed primitivity")
    return S


def connected_groupoid(group_table, objects, names=None):
    """The groupoid (objects x objects) x Gamma: (g,i,j)(h,j,k) = (gh,i,k)."""
    m = len(group_table)
    elems = [(g, i, j) for g in range(m) for i in range(objects) for j in range(objects)]
    index = {e: k for k, e in enumerate(elems)}
    n = len(elems)
    product = [[None] * n for _ in range(n)]
    for a, (g, i, j) in enumerate(elems):
        for b, (h, j2, k) in enumerate(elems):
            if j == j2:
                product[a][b] = index[(group_table[g][h], i, k)]
    if names is None:
        names = [f"({g};{i}->{j})" for g, i, j in elems]
    return validate_groupoid(n, product, names)[0]


# -- partial actions and their conversion (PIS <-> PGr) -----------------------


@dataclass
class PartialSemigroupAction:
    """A partial action of an inverse semigroup with zero: A_s ideal of A_{ss^-1}."""

    S: InverseSemigroup
    A: object
    isos: tuple


def validate_partial_semigroup_action(S, A, isos):
    isos = tuple(isos)
    check_action_axioms(ACTION_ROWS["PIS"], ActionShape.of_semigroup(S), A, isos)
    return PartialSemigroupAction(S, A, isos)


@dataclass
class PartialGroupoidAction:
    G: Groupoid
    d: tuple
    r: tuple
    inv: tuple
    A: object
    isos: tuple


def validate_partial_groupoid_action(G, d, r, inv, A, isos):
    isos = tuple(isos)
    shape = ActionShape(G.product, inv, G.identities(), r, G.names)
    check_action_axioms(ACTION_ROWS["PGr"], shape, A, isos)
    return PartialGroupoidAction(G, d, r, inv, A, isos)


def semigroup_action_to_groupoid(alpha: PartialSemigroupAction):
    """alpha* : strip the zero from a primitive partial action (PIS -> PGr)."""
    S = alpha.S
    (G, d, r, inv), order = primitive_to_groupoid(S)
    isos = [alpha.isos[s] for s in order]
    return validate_partial_groupoid_action(G, d, r, inv, alpha.A, isos), order


def groupoid_action_to_semigroup(gamma: PartialGroupoidAction):
    """gamma^0 : adjoin the zero acting by the empty iso (PGr -> PIS)."""
    S = groupoid_to_primitive(gamma.G)
    isos = list(gamma.isos) + [StructuredIso.empty(gamma.A)]
    return validate_partial_semigroup_action(S, gamma.A, isos)


def convert_round_trip_ok(alpha: PartialSemigroupAction):
    """(alpha*)^0 = alpha up to the canonical relabeling."""
    (gamma, order) = semigroup_action_to_groupoid(alpha)
    back = groupoid_action_to_semigroup(gamma)
    if back.S.n != alpha.S.n:
        return False
    relabel = list(order) + [alpha.S.zero]
    for i, s in enumerate(relabel):
        if back.isos[i] != alpha.isos[s]:
            return False
        for j, t in enumerate(relabel):
            if relabel[back.S.table[i][j]] != alpha.S.table[s][t]:
                return False
    return True


def p_prime_construction(beta):
    """Joins over tau-classes of an action of a 0-E-unitary categorical S.

    Returns the primitive semigroup P' of class joins with its product
    (the unique element above each composite), checked to be isomorphic to
    S/tau via tau(f) -> alpha_f.
    """
    S = beta.S
    _require_zero(S)
    if not (is_0_e_unitary(S) and is_categorical_at_zero(S)):
        raise PreconditionFail("P' needs a 0-E-unitary, categorical-at-zero S")
    classes, projection = tau_partition(S)
    empty = StructuredIso.empty(beta.A)
    joins = isopu.class_joins([empty if s == S.zero else iso for s, iso in enumerate(beta.isos)],
                              classes)
    table = isopu.join_product_table(joins)
    if table != quotient_table(S, classes, projection):
        raise AssertionError("P' is not isomorphic to S/tau")
    P = validate_table(table, zero=joins.index(empty),
                       names=[f"a{c}" for c in range(len(joins))])
    if not is_primitive(P):
        raise AssertionError("P' failed primitivity")
    return P, joins, projection


def require_zero_action(beta):
    """An inverse-semigroup-with-zero unital action: A_0 = 0."""
    _require_zero(beta.S)
    if beta.isos[beta.S.zero].dom_support:
        raise PreconditionFail("a zero action needs A_0 = 0")


def verify_zero_correspondence(beta, brute_force_subalgebras=False):
    """beta-maximal subsemigroups vs separable beta-strong subalgebras.

    The correspondence engine `verify_pairs` checks every beta-maximal T.
    S_B is taken on beta; it is the pullback along beta of S_B on the image
    semigroup inside Iso_pu(A), whose zero is the empty iso.
    """
    S = beta.S
    require_zero_action(beta)
    if not is_categorical_at_zero(S):
        raise PreconditionFail("the zero correspondence assumes categoricity at zero")
    if not all(beta.im_support(s) for s in range(S.n) if s != S.zero):
        raise PreconditionFail("A_s = 0 for a nonzero s")
    if not is_galois(beta):
        raise PreconditionFail("A is not beta-Galois over its invariants")
    return verify_pairs(beta, enumerate_beta_maximal(beta), brute_force_subalgebras)
