"""Finite inverse semigroup arithmetic on explicit multiplication tables.

Tables are dense n x n index matrices.  Validation checks associativity,
regularity and commuting idempotents (which together force unique
inverses), plus the zero axiom when a zero is declared.  On top of the
table: the natural partial order, the compatibility relation, quotients by
a congruence (the minimum group congruence sigma among them), joins,
full inverse subsemigroups, and a saturation routine that closes a
generators+relations presentation into a table.
"""

from __future__ import annotations

import functools
import itertools

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
        self.facts = {}  # properties derived from the table, each computed once (`remembered`)

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
    IdempotentsDontCommute, or BadZero.  Nothing is charged.
    """
    n = len(raw)
    table = tuple(tuple(int(x) for x in row) for row in raw)
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise SemigroupError("table is not a square matrix of element indices")
    if not _is_associative(table):  # then name the first failing triple
        for a, b, c in itertools.product(range(n), repeat=3):
            if table[table[a][b]][c] != table[a][table[b][c]]:
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
    # s <= t (s = tf for an idempotent f) iff s = ts^{-1}s: s^{-1}s is idempotent,
    # and s = tf gives s^{-1}s = ft^{-1}tf = t^{-1}tf, so ts^{-1}s = tt^{-1}tf = s
    src = [table[inv[s]][s] for s in range(n)]
    leq = tuple(tuple(table[t][src[s]] == s for t in range(n)) for s in range(n))
    return InverseSemigroup(table, tuple(inv), zero, names, idems, leq)


def _is_associative(table):
    """Light's test (Clifford and Preston, *The Algebraic Theory of
    Semigroups* I, 1.2): (x a) y = x (a y) for all x, y and each a of a
    generating set.  The a that pass are closed under the product, as
    (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y)) = x ((a b) y) by a
    at (x, b), b at (x a, y), a at (x, b y) and b at (a, y); so every product
    of generators passes.  The generators are taken greedily: each element in
    turn that is no word in those before it, multiplied out left to right.
    That takes n |gens| lookups per generator and the check n^2: O(n^2 |gens|)."""
    gens, words = [], set()
    for a in range(len(table)):
        if a not in words:
            gens.append(a)
            words.add(a)
            frontier = list(words)
            while frontier:
                row = table[frontier.pop()]
                for g in gens:
                    if row[g] not in words:
                        words.add(row[g])
                        frontier.append(row[g])
    for a in gens:
        for row_x in table:
            row_xa = table[row_x[a]]
            for y, ay in enumerate(table[a]):
                if row_xa[y] != row_x[ay]:
                    return False
    return True


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
    order of their least members, and the projection onto class indices.

    s and t share a lower bound exactly when some u other than the zero lies
    below both, and u shares one (itself) with each element above it, so the
    pairs (u, s) with u <= s, both nonzero, generate the same equivalence."""
    z = S.zero
    classes = linked_classes(S.n, ((u, s) for u in range(S.n) if u != z
                                   for s in range(S.n) if s != z and S.leq[u][s]))
    projection = [None] * S.n
    for k, members in enumerate(classes):
        for t in members:
            projection[t] = k
    return tuple(map(tuple, classes)), tuple(projection)


def linked_classes(n, pairs):
    """The classes of the equivalence on range(n) generated by `pairs`,
    each ascending, in the order of their least members: a union-find
    whose root is always its class's least member."""
    root = list(range(n))

    def find(a):
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a

    for a, b in pairs:
        a, b = find(a), find(b)
        root[max(a, b)] = min(a, b)
    classes = {}
    for a in range(n):
        classes.setdefault(find(a), []).append(a)
    return list(classes.values())


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


def quotient(S, classes, projection):
    """S modulo the partition `classes` (`projection` sends each element to the
    index of its class), validated, with the zero's class as its zero and each
    class named by its members; None when the partition is not a congruence."""
    table = quotient_table(S, classes, projection)
    if table is None:
        return None
    zero = None if S.zero is None else projection[S.zero]
    names = ["{" + ",".join(S.names[s] for s in cls) + "}" for cls in classes]
    return validate_table(table, zero=zero, names=names)


_UNSET = object()


def remembered(derive):
    """Decorate `derive(obj, *args)`, a fact of a validated object, so that it
    is derived once per object and arguments: the first call keeps its value
    in `obj.facts`, and later calls read it there.  The key is the function's
    name when it is called on `obj` alone, and (name, *args) otherwise, so
    the arguments must be hashable and equal arguments share one value.
    A call that raises stores nothing, so it raises again.  Under `property`
    it is an attribute computed on first read.  A fact known by construction
    is stored under the same key (`Subalgebra.full`)."""
    name = derive.__name__

    @functools.wraps(derive)
    def fact(obj, *args):
        key = (name, *args) if args else name
        value = obj.facts.get(key, _UNSET)
        if value is _UNSET:
            value = obj.facts[key] = derive(obj, *args)
        return value
    return fact


@remembered
def sigma_partition(S):
    """The minimum group congruence, the closure of `shares_lower_bound`: the
    group S/sigma, the classes and the projection onto them.

    S/sigma is an inverse semigroup; it is a group exactly when it has one
    idempotent e.  For then ss^{-1} = e = s^{-1}s for every s, as both are
    idempotents, so es = ss^{-1}s = s = se: e is the identity and s^{-1}
    the group inverse of s."""
    if S.zero is not None:
        raise ZeroForbidden("sigma is for semigroups without zero; use tau")
    classes, projection = lower_bound_classes(S)
    G = quotient(S, classes, projection)
    if G is None:
        raise NotAGroupQuotient("sigma is not a congruence")
    if len(G.idempotents) != 1:
        raise NotAGroupQuotient("quotient has several idempotent classes")
    return G, classes, projection


@remembered
def is_e_unitary(S):
    """E-unitarity via its three characterizations, asserted to agree."""
    if S.zero is not None:
        raise ZeroForbidden("declared zero: E-unitarity questions go through the zero module")
    via_order = all(s in S.idempotents
                    for e in S.idempotents for s in range(S.n) if S.leq[e][s])
    _, classes, projection = sigma_partition(S)
    via_sigma_classes = all(set(classes[projection[e]]) == set(S.idempotents)
                            for e in S.idempotents)
    via_compat = all(compatible(S, s, t) == (projection[s] == projection[t])
                     for s in range(S.n) for t in range(S.n))
    if not (via_order == via_sigma_classes == via_compat):
        raise CharacterizationMismatch(
            f"order={via_order} sigma(e)=E {via_sigma_classes} compat=sigma {via_compat}")
    return via_order


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


class SubSemigroup:
    """An inverse subsemigroup of `parent`, checked closed under products and
    inverses on construction; equal and hashed by (parent, members)."""

    def __init__(self, parent, members):
        self.parent, self.members = parent, members
        t = parent.table
        for a in self.members:
            if self.parent.inv[a] not in self.members:
                raise SemigroupError("not closed under inverses")
            for b in self.members:
                if t[a][b] not in self.members:
                    raise SemigroupError("not closed under products")

    def __eq__(self, other):
        if other.__class__ is not SubSemigroup:
            return NotImplemented
        return self.parent == other.parent and self.members == other.members

    def __hash__(self):
        return hash((self.parent, self.members))

    @property
    def is_full(self):
        return self.parent.idempotents <= self.members

    def bitmask(self):
        return sum(1 << s for s in self.members)


def generated_subsemigroup(S, gens):
    """The members of the inverse subsemigroup generated by `gens`, as a frozenset."""
    members = set(gens)
    frontier = list(gens)
    while frontier:
        a = frontier.pop()
        for nxt in [S.inv[a]] + [S.table[a][b] for b in members] + [S.table[b][a] for b in members]:
            if nxt not in members:
                members.add(nxt)
                frontier.append(nxt)
    return frozenset(members)


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
                bigger = generated_subsemigroup(S, members | {s})
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return sorted((SubSemigroup(S, m) for m in found), key=lambda t: t.bitmask())


def restrict_table(S, members):
    """Table of the subsemigroup on its own indices, plus the index map."""
    order = sorted(members)
    index = {s: i for i, s in enumerate(order)}
    table = [[index[S.table[a][b]] for b in order] for a in order]
    zero = index[S.zero] if S.zero is not None and S.zero in members else None
    names = [S.names[s] for s in order]
    return validate_table(table, zero=zero, names=names), order


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
    budget for the row it defines and the relation letters it traces, and
    each pass of the dynamic laws for the elements and idempotent pairs it
    reads, so a budget limit stops an infinite quotient.  Each element is
    named by its representative word: generator names joined by `*`, `'`
    marking an inverse and `1` the empty word, so names containing `*` may
    clash, and `validate_table` refuses clashing names.
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
        before = next_id
        merged_before = len(cosets)
        for x in live():
            if x in cosets and find(x) == x:
                scan(x)
        settle()
        # dynamic layer after every pass, as a generator inverse bound by no
        # relation settles only through it: Wagner law per element, then
        # commuting idempotents.  The charge comes before the relations are
        # built, so a limit trips before the pairs, quadratic in the number
        # of idempotents, are held.
        grew = False
        current = live()
        spend("coset_steps", len(current))
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
        spend("coset_steps", len(idems) * (len(idems) - 1) // 2)
        for e, f in itertools.combinations(idems, 2):
            grew |= add_dynamic(reps[e] + reps[f], reps[f] + reps[e])
        if not grew and next_id == before and len(cosets) == merged_before:
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

    return validate_table(table, names=[word_name(cosets[x].rep) for x in order])
