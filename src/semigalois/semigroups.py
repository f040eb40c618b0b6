"""Finite inverse semigroup arithmetic on explicit multiplication tables.

Tables are dense n x n index matrices.  Validation checks associativity,
regularity and commuting idempotents (which together force unique
inverses), plus the zero axiom when a zero is declared.  On top of the
table: the natural partial order, the compatibility relation, the minimum
group congruence sigma with its quotient group, meets/joins, full inverse
subsemigroups, and a saturation routine that closes a generators+relations
presentation into a table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .budget import spend


class SemigroupError(Exception):
    pass


class NotAssociative(SemigroupError):
    pass


class NotRegular(SemigroupError):
    pass


class IdempotentsDontCommute(SemigroupError):
    pass


class BadZero(SemigroupError):
    pass


class NotAGroupQuotient(AssertionError):
    """sigma failed to produce a group: internal bug, the theorem guarantees it."""


class CharacterizationMismatch(AssertionError):
    """The three E-unitary characterizations disagreed: internal bug."""


class NotCompatibleSet(SemigroupError):
    pass


class NotFull(SemigroupError):
    pass


class ZeroRequired(SemigroupError):
    pass


class ZeroForbidden(SemigroupError):
    pass


class InverseSemigroup:
    """A validated finite inverse semigroup; construct via validate_table."""

    def __init__(self, table, inv, zero, names, idems, leq):
        self.table = table
        self.inv = inv
        self.zero = zero
        self.names = names
        self.idempotents = idems
        self.leq = leq  # leq[s][t] True iff s <= t in the natural order
        self.n = len(table)
        self.facts = {}  # properties derived from the table, each computed once

    def is_idempotent(self, s):
        return s in self.idempotents

    def __repr__(self):
        z = f", zero={self.names[self.zero]}" if self.zero is not None else ""
        return f"InverseSemigroup(n={self.n}{z})"

    def nonzero_elements(self):
        return [s for s in range(self.n) if s != self.zero]


def validate_table(raw, zero=None, names=None):
    """Check the inverse semigroup axioms and build the structure.

    Raises the first violated axiom: NotAssociative, NotRegular,
    IdempotentsDontCommute, or BadZero.
    """
    n = len(raw)
    table = tuple(tuple(int(x) for x in row) for row in raw)
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise SemigroupError("table is not a square matrix of element indices")
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
    idems = frozenset(s for s in range(n) if table[s][s] == s)
    for e in idems:
        for f in idems:
            if table[e][f] != table[f][e]:
                raise IdempotentsDontCommute(f"{e} and {f}")
    inv = []
    for s in range(n):
        cands = [x for x in range(n) if table[table[s][x]][s] == s and table[table[x][s]][x] == x]
        if not cands:
            raise NotRegular(f"element {s} has no inverse")
        if len(cands) > 1:
            # cannot happen once idempotents commute; defensive
            raise NotRegular(f"element {s} has several inverses {cands}")
        inv.append(cands[0])
    if zero is not None:
        if not (0 <= zero < n):
            raise BadZero(f"zero index {zero} out of range")
        if any(table[zero][s] != zero or table[s][zero] != zero for s in range(n)):
            raise BadZero(f"element {zero} is not absorbing")
    if names is None:
        names = tuple(f"x{i}" for i in range(n))
    else:
        names = tuple(str(x) for x in names)
        if len(names) != n or len(set(names)) != n:
            raise SemigroupError("names must be distinct, one per element")
    leq = tuple(tuple(any(table[t][f] == s for f in idems) for t in range(n)) for s in range(n))
    return InverseSemigroup(table, tuple(inv), zero, names, idems, leq)


def idempotents(S):
    return sorted(S.idempotents)


def natural_leq(S, s, t):
    return S.leq[s][t]


def compatible(S, s, t):
    """s ~ t iff s^{-1} t and s t^{-1} are both idempotent."""
    return (S.table[S.inv[s]][t] in S.idempotents
            and S.table[s][S.inv[t]] in S.idempotents)


def shares_lower_bound(S, s, t):
    """s and t have a common lower bound; a zero is related only to itself
    and is never a lower bound.  The closure is sigma on a semigroup without
    zero and tau on one with zero."""
    z = S.zero
    if z in (s, t):
        return s == t
    return any(u != z and S.leq[u][s] and S.leq[u][t] for u in range(S.n))


def lower_bound_classes(S):
    """The classes of the closure of `shares_lower_bound`, each sorted, in the
    order of their least members, and the projection onto class indices."""
    projection = [None] * S.n
    classes = []
    for s in range(S.n):
        if projection[s] is None:
            members, frontier = {s}, [s]
            while frontier:
                a = frontier.pop()
                for t in range(S.n):
                    if t not in members and shares_lower_bound(S, a, t):
                        members.add(t)
                        frontier.append(t)
            for t in members:
                projection[t] = len(classes)
            classes.append(tuple(sorted(members)))
    return tuple(classes), tuple(projection)


def quotient_table(S, classes, projection):
    """The product table of the classes, or None when the partition is not a congruence."""
    table = []
    for cls in classes:
        row = []
        for cls2 in classes:
            prods = {projection[S.table[s][t]] for s in cls for t in cls2}
            if len(prods) != 1:
                return None
            row.append(prods.pop())
        table.append(tuple(row))
    return tuple(table)


@dataclass(frozen=True)
class QuotientGroup:
    classes: tuple  # tuple of sorted element tuples
    table: tuple  # class product table
    projection: tuple  # element index -> class index
    identity: int = field(default=0)

    def size(self):
        return len(self.classes)

    def inverse(self, g):
        for h in range(len(self.classes)):
            if self.table[g][h] == self.identity:
                return h
        raise NotAGroupQuotient("class without inverse")


def sigma_partition(S):
    """The minimum group congruence: the closure of `shares_lower_bound`."""
    if S.zero is not None:
        raise ZeroForbidden("sigma is for semigroups without zero; use tau")
    classes, projection = lower_bound_classes(S)
    table = quotient_table(S, classes, projection)
    if table is None:
        raise NotAGroupQuotient("sigma is not a congruence")
    m = len(classes)
    idem_classes = [g for g in range(m) if table[g][g] == g]
    if len(idem_classes) != 1:
        raise NotAGroupQuotient("quotient has several idempotent classes")
    e = idem_classes[0]
    for g in range(m):
        if table[e][g] != g or table[g][e] != g:
            raise NotAGroupQuotient("idempotent class is not an identity")
        if not any(table[g][h] == e for h in range(m)):
            raise NotAGroupQuotient("class without inverse")
    return QuotientGroup(classes, table, projection, e)


def is_e_unitary(S):
    """E-unitarity via its three characterizations, asserted to agree."""
    if S.zero is not None:
        raise ZeroForbidden("declared zero: E-unitarity questions go through the zero module")
    via_order = all(s in S.idempotents
                    for e in S.idempotents for s in range(S.n) if S.leq[e][s])
    quo = sigma_partition(S)
    via_sigma_classes = all(set(quo.classes[quo.projection[e]]) == set(S.idempotents)
                            for e in S.idempotents)
    via_compat = all(compatible(S, s, t) == (quo.projection[s] == quo.projection[t])
                     for s in range(S.n) for t in range(S.n))
    if not (via_order == via_sigma_classes == via_compat):
        raise CharacterizationMismatch(
            f"order={via_order} sigma(e)=E {via_sigma_classes} compat=sigma {via_compat}")
    return via_order


def meet(S, s, t):
    """The order-theoretic meet under the natural order, or None."""
    lower = [w for w in range(S.n) if S.leq[w][s] and S.leq[w][t]]
    for w in lower:
        if all(S.leq[c][w] for c in lower):
            return w
    return None


def join_of(S, P):
    """The least upper bound of P, or None; P must be pairwise compatible."""
    P = sorted(set(P))
    if not P:
        raise NotCompatibleSet("join of an empty set")
    for s, t in itertools.combinations(P, 2):
        if not compatible(S, s, t):
            raise NotCompatibleSet(f"{S.names[s]} and {S.names[t]} are not compatible")
    ups = [u for u in range(S.n) if all(S.leq[p][u] for p in P)]
    for u in ups:
        if all(S.leq[u][v] for v in ups):
            return u
    return None


@dataclass(frozen=True)
class SubSemigroup:
    parent: InverseSemigroup
    members: frozenset

    def __post_init__(self):
        t = self.parent.table
        for a in self.members:
            if self.parent.inv[a] not in self.members:
                raise SemigroupError("not closed under inverses")
            for b in self.members:
                if t[a][b] not in self.members:
                    raise SemigroupError("not closed under products")

    @property
    def is_full(self):
        return self.parent.idempotents <= self.members

    def bitmask(self):
        return sum(1 << s for s in self.members)


def generated_subsemigroup(S, gens):
    members = set(gens)
    frontier = list(gens)
    while frontier:
        a = frontier.pop()
        for nxt in [S.inv[a]] + [S.table[a][b] for b in members] + [S.table[b][a] for b in members]:
            if nxt not in members:
                members.add(nxt)
                frontier.append(nxt)
    return SubSemigroup(S, frozenset(members))


def enumerate_full_inverse_subsemigroups(S):
    """All full inverse subsemigroups, sorted by member bitmask.

    Cyclic extension: each T found is extended by each s outside it, from
    E(S) on, which reaches every full T one element of T at a time.  The
    work grows with the output ((C2)^8 has 417 199 subgroups), so each
    closure is charged to the work budget.
    """
    non_idem = [s for s in range(S.n) if s not in S.idempotents]
    found = {frozenset(S.idempotents)}
    frontier = list(found)
    while frontier:
        members = frontier.pop()
        for s in non_idem:
            if s not in members:
                spend("subsemigroups", 1)
                bigger = generated_subsemigroup(S, members | {s}).members
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return sorted((SubSemigroup(S, m) for m in found), key=lambda t: t.bitmask())


def restricted_product(S, s, t):
    """s . t, defined exactly when s^{-1} s = t t^{-1}."""
    if S.table[S.inv[s]][s] != S.table[t][S.inv[t]]:
        return None
    return S.table[s][t]


def equiv_T(S, T, s, u):
    """s ==_T u iff the restricted product u^{-1} . s exists and lies in T."""
    if not T.is_full:
        raise NotFull("the relation needs a full subsemigroup")
    prod = restricted_product(S, S.inv[u], s)
    return prod is not None and prod in T.members


def verify_equiv_T_is_equivalence(S, T):
    rel = {(s, u) for s in range(S.n) for u in range(S.n) if equiv_T(S, T, s, u)}
    for s in range(S.n):
        if (s, s) not in rel:
            return False
    for s, u in rel:
        if (u, s) not in rel:
            return False
    for s, u in rel:
        for v in range(S.n):
            if (u, v) in rel and (s, v) not in rel:
                return False
    return True


def restrict_table(S, members):
    """Table of the subsemigroup on its own indices, plus the index map."""
    order = sorted(members)
    index = {s: i for i, s in enumerate(order)}
    table = [[index[S.table[a][b]] for b in order] for a in order]
    zero = index[S.zero] if S.zero is not None and S.zero in members else None
    names = [S.names[s] for s in order]
    return validate_table(table, zero=zero, names=names), order


def direct_product(S1, S2):
    pairs = [(a, b) for a in range(S1.n) for b in range(S2.n)]
    index = {p: i for i, p in enumerate(pairs)}
    table = [[index[(S1.table[a1][b1], S2.table[a2][b2])] for (b1, b2) in pairs]
             for (a1, a2) in pairs]
    names = [f"({S1.names[a]},{S2.names[b]})" for a, b in pairs]
    return validate_table(table, names=names)


# -- generators and relations ------------------------------------------------


class _Coset:
    __slots__ = ("row", "rep")

    def __init__(self, nsyms, rep):
        self.row = [None] * nsyms
        self.rep = rep


def saturate_presentation(generators, relations):
    """Close an inverse monoid presentation into a multiplication table.

    `generators` are names; `relations` are pairs of words, each word a
    tuple of symbols `i` (generator i) or `~i` encoded as i + g (its
    inverse).  The saturation runs a Todd-Coxeter style enumeration over
    the doubled alphabet with the generator-level inverse laws plus
    dynamically discovered idempotent-commutation relations; if it closes,
    the result is exactly the presented inverse monoid (a regular monoid
    with commuting idempotents is inverse, and conversely every inverse
    quotient satisfies everything imposed here).  Each scan charges the work
    budget for the row it defines and the relation letters it traces, so a
    budget limit stops an infinite quotient.
    """
    g = len(generators)
    nsyms = 2 * g
    static_rels = [(tuple(u), tuple(v)) for u, v in relations]
    for i in range(g):
        static_rels.append(((i, i + g, i), (i,)))
        static_rels.append(((i + g, i, i + g), (i + g,)))

    cosets = {0: _Coset(nsyms, ())}
    uf = {0: 0}
    next_id = 1

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    pending = []

    def define(x, s):
        nonlocal next_id
        x = find(x)
        cur = cosets[x].row[s]
        if cur is not None:
            return find(cur)
        new = next_id
        next_id += 1
        uf[new] = new
        cosets[new] = _Coset(nsyms, cosets[x].rep + (s,))
        cosets[x].row[s] = new
        return new

    def trace(x, word, defining=True):
        for s in word:
            x = find(x)
            cur = cosets[x].row[s]
            if cur is None:
                if not defining:
                    return None
                cur = define(x, s)
            x = find(cur)
        return x

    def merge(a, b):
        a, b = find(a), find(b)
        if a == b:
            return
        a, b = min(a, b), max(a, b)
        uf[b] = a
        row_a, row_b = cosets[a].row, cosets[b].row
        for s in range(nsyms):
            if row_b[s] is not None:
                if row_a[s] is None:
                    row_a[s] = row_b[s]
                else:
                    pending.append((row_a[s], row_b[s]))
        del cosets[b]

    def settle():
        while pending:
            merge(*pending.pop())

    def live():
        return sorted(x for x in cosets if find(x) == x)

    dynamic_rels = []
    dynamic_seen = set()

    def add_dynamic(u, v):
        key = (u, v) if u <= v else (v, u)
        if key in dynamic_seen:
            return False
        dynamic_seen.add(key)
        dynamic_rels.append((u, v))
        return True

    def scan(x):
        """Define the full row of x, then trace every relation from x."""
        rels = static_rels + dynamic_rels
        spend("coset_steps", nsyms + sum(len(u) + len(v) for u, v in rels))
        for s in range(nsyms):
            x = find(x)
            if x not in cosets:
                return
            define(x, s)
            settle()
        for u, v in rels:
            x = find(x)
            if x not in cosets:
                return
            a, b = trace(x, u), trace(x, v)
            if find(a) != find(b):
                pending.append((a, b))
                settle()

    while True:
        while True:
            before = next_id
            merged_before = len(cosets)
            for x in live():
                if x in cosets and find(x) == x:
                    scan(x)
            settle()
            if next_id == before and len(cosets) == merged_before:
                break
        # dynamic layer: Wagner law per element, then commuting idempotents
        grew = False
        current = live()
        reps = {x: cosets[x].rep for x in current}
        for x in current:
            rep = reps[x]
            if rep:
                winv = tuple((s + g) % nsyms for s in reversed(rep))
                grew |= add_dynamic(rep + winv + rep, rep)
        idems = []
        for x in current:
            sq = trace(x, reps[x], defining=False)
            if sq is not None and find(sq) == find(x):
                idems.append(x)
        for e, f in itertools.combinations(idems, 2):
            grew |= add_dynamic(reps[e] + reps[f], reps[f] + reps[e])
        if not grew:
            complete = all(cosets[x].row[s] is not None
                           for x in live() for s in range(nsyms))
            if complete and not pending:
                break

    order = sorted(live())
    index = {x: i for i, x in enumerate(order)}
    table = [[index[trace(a, cosets[b].rep)] for b in order] for a in order]

    def word_name(rep):
        if not rep:
            return "1"
        parts = []
        for s in rep:
            parts.append(generators[s] if s < g else generators[s - g] + "'")
        return "*".join(parts)

    names = []
    used = set()
    for x in order:
        nm = word_name(cosets[x].rep)
        while nm in used:
            nm += "_"
        used.add(nm)
        names.append(nm)
    return validate_table(table, names=names)
