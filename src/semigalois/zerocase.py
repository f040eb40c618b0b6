"""Inverse semigroups with zero: strong compatibility, tau, groupoids.

The zero-aware layer mirrors the sigma machinery: strong compatibility
replaces compatibility, tau replaces the minimum group congruence (S/tau
comes from the same `semigroups.quotient` as S/sigma, and is P'), and
primitive inverse semigroups trade places with groupoids (strip or adjoin
the zero); a `Groupoid` is read through an `InverseSemigroup`'s fields
and keeps its own d and r maps.  A partial action of S (PIS) or of a
groupoid (PGr) is an `actions.Action`, built by its validator here.
Unital actions with zero convert to orthogonal partial groupoid actions
and back in one round trip (`round_trips`), which gives the table verdict
and the action verdict, each up to the canonical relabeling.  The Galois
correspondence runs on the engine of `correspondence` over the
beta-maximal subsemigroups.
"""

from __future__ import annotations

from . import isopu
from .actions import (ACTION_ROWS, Action, check_action_axioms, class_joins,
                      AxiomFail)  # noqa: F401 (AxiomFail is re-exported)
from .correspondence import enumerate_beta_maximal, verify_pairs
from .galois import PreconditionFail, is_galois
from .rings import StructuredIso
from .semigroups import (SemigroupError, ZeroRequired, lower_bound_classes, quotient, remembered,
                         shares_lower_bound, validate_table)


class NotPrimitive(SemigroupError):
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


@remembered
def is_0_e_unitary(S):
    """No non-idempotent sits above a nonzero idempotent."""
    _require_zero(S)
    for e in nonzero_idempotents(S):
        for s in range(S.n):
            if S.leq[e][s] and s not in S.idempotents:
                return False
    return True


@remembered
def is_categorical_at_zero(S):
    """stu = 0 forces st = 0 or tu = 0."""
    _require_zero(S)
    z = S.zero
    for s in range(S.n):
        for t in range(S.n):
            st = S.table[s][t]
            for u in range(S.n):
                if S.table[st][u] == z and st != z and S.table[t][u] != z:
                    return False
    return True


@remembered
def tau_partition(S):
    """tau: zero alone, nonzero elements related by a shared nonzero lower bound.

    Returned as the transitive closure; on 0-E-unitary categorical-at-zero
    instances the closure is asserted to add nothing (tau is already the
    strong-compatibility relation there).
    """
    _require_zero(S)
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
    Q = quotient(S, classes, projection)
    if Q is None:
        raise SemigroupError("tau is not a congruence on this table")
    return Q, projection


@remembered
def is_primitive(S):
    """The natural order is equality on nonzero elements."""
    _require_zero(S)
    z = S.zero
    for s in range(S.n):
        for t in range(S.n):
            if s != t and s != z and t != z and S.leq[s][t]:
                return False
    return True


# -- groupoids ----------------------------------------------------------------


class Groupoid:
    """A finite groupoid, read through `InverseSemigroup`'s fields: `table`
    (entries an element index, or None where the product is undefined),
    `inv`, `names` and its identities as `idempotents`, in ascending order;
    it has no zero.  It keeps its structure maps d[g] = g^{-1}g and
    r[g] = gg^{-1}."""

    zero = None

    def __init__(self, n, table, names, d, r, inv):
        self.n = n
        self.table = table
        self.names = names
        self.d, self.r, self.inv = d, r, inv
        self.idempotents = tuple(sorted(set(d)))


def validate_groupoid(n, product, names=None):
    """Exhaustively check the groupoid axioms; returns the Groupoid with its d, r and inv."""
    product = tuple(tuple(row) for row in product)
    names = tuple(names) if names else tuple(f"g{i}" for i in range(n))

    def dfn(g, h):
        return product[g][h] is not None

    ids = [e for e in range(n) if product[e][e] == e
           and all(product[g][e] in (None, g) and product[e][g] in (None, g) for g in range(n))]
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
    return Groupoid(n, product, names, tuple(d), tuple(r), tuple(inv))


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
            if G.table[g][h] is not None:
                table[g][h] = G.table[g][h]
    S = validate_table(table, zero=z, names=list(G.names) + ["0"])
    if not is_primitive(S):
        raise NotPrimitive("groupoid with zero adjoined failed primitivity")
    return S


# -- partial actions and their conversion (PIS <-> PGr) -----------------------


def validate_partial_semigroup_action(S, A, isos):
    """A partial action of an inverse semigroup with zero (PIS): A_0 = 0 and
    A_s an ideal of A_{ss^-1}; the Action of S."""
    isos = tuple(isos)
    check_action_axioms(ACTION_ROWS["PIS"], S, A, isos)
    return Action(S, A, isos)


def validate_partial_groupoid_action(G, A, isos):
    """An orthogonal partial action of the groupoid G (PGr); the Action of G."""
    isos = tuple(isos)
    check_action_axioms(ACTION_ROWS["PGr"], G, A, isos)
    return Action(G, A, isos)


def semigroup_action_to_groupoid(alpha: Action):
    """alpha* : strip the zero from a primitive partial action (PIS -> PGr)."""
    S = alpha.S
    G, order = primitive_to_groupoid(S)
    isos = [alpha.isos[s] for s in order]
    return validate_partial_groupoid_action(G, alpha.A, isos), order


def groupoid_action_to_semigroup(gamma: Action):
    """gamma^0 : adjoin the zero acting by the empty iso (PGr -> PIS)."""
    S = groupoid_to_primitive(gamma.S)
    isos = list(gamma.isos) + [StructuredIso.empty(gamma.A)]
    return validate_partial_semigroup_action(S, gamma.A, isos)


def round_trips(alpha: Action):
    """alpha*, built once, and the verdicts of the two round trips through it:
    (S*)^0 = S and (alpha*)^0 = alpha, each up to the canonical relabeling
    (the nonzero elements in order, then the zero).  Returns (alpha*, the
    table verdict, the action verdict); the action verdict implies the other."""
    gamma, order = semigroup_action_to_groupoid(alpha)
    back = groupoid_action_to_semigroup(gamma)
    S = alpha.S
    relabel = order + [S.zero]
    table_ok = all(relabel[back.S.table[i][j]] == S.table[s][t]
                   for i, s in enumerate(relabel) for j, t in enumerate(relabel))
    action_ok = table_ok and all(back.isos[i] == alpha.isos[s] for i, s in enumerate(relabel))
    return gamma, table_ok, action_ok


def convert_round_trip_ok(alpha: Action):
    """(alpha*)^0 = alpha up to the canonical relabeling."""
    return round_trips(alpha)[2]


def p_prime_construction(beta):
    """Joins over tau-classes of a zero action of a 0-E-unitary categorical S.

    Returns P' = S/tau, checked equal to the product of the class joins
    (`actions.class_joins`: the unique join above each composite) via
    tau(f) -> alpha_f, with the joins and the projection onto the
    tau-classes.  The zero's class is the zero alone, and its join is
    beta_0, the empty iso of a zero action.
    """
    require_zero_action(beta)
    S = beta.S
    if not (is_0_e_unitary(S) and is_categorical_at_zero(S)):
        raise PreconditionFail("P' needs a 0-E-unitary, categorical-at-zero S")
    joins = class_joins(beta)
    P, projection = tau_quotient(S)
    if isopu.join_product_table(joins) != P.table:
        raise AssertionError("P' is not isomorphic to S/tau")
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
    if not beta.all_ideals_nonzero():
        raise PreconditionFail("A_s = 0 for a nonzero s")
    if not is_galois(beta):
        raise PreconditionFail("A is not beta-Galois over its invariants")
    return verify_pairs(beta, enumerate_beta_maximal(beta), brute_force_subalgebras)
