import random
import time

import pytest

from fixtures import (chain_semilattice_fixture, non_categorical_semilattice, non_e_unitary_monoid,
                      random_primitive_semigroup)
from oracles import direct_product, first_non_associative_triple, meet, natural_order_by_idempotents
from semigalois import budget
from semigalois import semigroups as sg
from semigalois.corpus import b2_table, c2_table, corpus, f9_cubed_ring, s7_monoid
from semigalois import isopu
from semigalois.rings import StructuredIso


# The relation ==_T of a full inverse subsemigroup T, which no decision reads.


class NotFull(sg.SemigroupError):
    pass


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


# frozen output of the presentation saturation; also re-derived from the
# independent closure inside Iso_pu(GF(9)^3) below
S7_TABLE = (
    (0, 1, 2, 3, 4, 5, 6),
    (1, 4, 4, 5, 2, 2, 1),
    (2, 4, 4, 4, 2, 2, 2),
    (3, 6, 4, 4, 2, 3, 2),
    (4, 2, 2, 2, 4, 4, 4),
    (5, 1, 2, 2, 4, 5, 4),
    (6, 2, 2, 3, 4, 4, 6),
), ("1", "s", "t", "s'", "s*t", "s*s'", "s'*s")


def test_c2_table_is_a_group():
    S = c2_table()
    assert sorted(S.idempotents) == [0]
    assert S.inv == (0, 1)


def test_two_chain_semilattice():
    S = sg.validate_table([[0, 1], [1, 1]])
    assert sorted(S.idempotents) == [0, 1]
    assert S.leq[1][0] and not S.leq[0][1]


def test_natural_order_reads_t_times_s_inverse_s():
    """The order from s = ts^{-1}s equals the scan for an idempotent f with
    s = tf, on 393 tables: the corpora of seeds 1, 2408 and 5 with and without
    zero, S7, B2, the non-categorical semilattice and 30 random primitive
    semigroups."""
    rng = random.Random(7)
    tables = [beta.S for seed in (1, 2408, 5) for zero in (False, True)
              for beta in corpus(seed, 60, with_zero=zero)]
    tables += [s7_monoid(), b2_table(), non_categorical_semilattice()]
    tables += [random_primitive_semigroup(rng) for _ in range(30)]
    assert len(tables) == 393
    for S in tables:
        assert S.leq == natural_order_by_idempotents(S)


def test_validate_rejects_non_associative():
    # 1 is an identity but x*x = 1 with x*1 mismatched breaks associativity
    with pytest.raises(sg.NotAssociative):
        sg.validate_table([[0, 1, 2], [1, 0, 0], [2, 0, 1]])


def _associativity_cases():
    """Every table of corpus seeds 2408, 3 and 7, with and without zero, and
    the S7 monoid; then each of them (of two or more elements) with one
    entry changed, at a seeded position, to a seeded other value."""
    tables = [beta.S.table for seed in (2408, 3, 7) for zero in (False, True)
              for beta in corpus(seed, 60, with_zero=zero)]
    tables.append(s7_monoid().table)
    rng = random.Random(37)
    planted = []
    for table in tables:
        n = len(table)
        if n > 1:
            rows = [list(row) for row in table]
            a, b = rng.randrange(n), rng.randrange(n)
            rows[a][b] = (rows[a][b] + rng.randrange(1, n)) % n
            planted.append(rows)
    return tables, planted


def test_light_associativity_test_agrees_with_the_triple_scan():
    """Light's test on a greedy generating set gives the n^3 scan's verdict,
    and `NotAssociative` names the scan's first failing triple."""
    tables, planted = _associativity_cases()
    assert (len(tables), len(planted)) == (361, 309)
    rejected = 0
    for table in tables + planted:
        triple = first_non_associative_triple(table)
        assert sg._is_associative(tuple(map(tuple, table))) == (triple is None)
        try:
            sg.validate_table(table)
        except sg.NotAssociative as exc:
            a, b, c = triple
            assert str(exc) == f"({a}*{b})*{c} != {a}*({b}*{c})"
            rejected += 1
        except sg.SemigroupError:
            assert triple is None
        else:
            assert triple is None
    assert rejected == sum(first_non_associative_triple(t) is not None for t in planted) == 146


def test_a_300_element_cyclic_table_validates_in_under_a_fifth_of_a_second():
    n = 300
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    start = time.process_time()
    S = sg.validate_table(table)
    assert time.process_time() - start < 0.2
    assert (S.n, S.idempotents) == (n, {0})


def test_validate_rejects_non_regular():
    # left-zero semigroup: xy = x; no commuting idempotent structure
    with pytest.raises((sg.NotRegular, sg.IdempotentsDontCommute)):
        sg.validate_table([[0, 0], [1, 1]])


def test_validate_rejects_bad_zero():
    with pytest.raises(sg.BadZero):
        sg.validate_table([[0, 1], [1, 0]], zero=0)


def test_s7_saturation_matches_frozen_table():
    S = s7_monoid()
    table, names = S7_TABLE
    assert S.table == table
    assert S.names == names
    assert sorted(S.idempotents) == [0, 4, 5, 6]


def test_s7_matches_iso_pu_closure_oracle():
    """Independent derivation: close the defining partial isos in Iso_pu."""
    A = f9_cubed_ring()
    s = StructuredIso(A, {0: 2, 1: 1}, {1: 1})
    t = StructuredIso(A, {1: 1}, {1: 1})
    one = StructuredIso.identity_on(A, {0, 1, 2})
    closed = {one, s, t}
    while True:
        new = set()
        for f in closed:
            new.add(f.inverse())
            for g in closed:
                new.add(isopu.compose(f, g))
        if new <= closed:
            break
        closed |= new
    assert len(closed) == 7
    # relations of the presentation hold in the realization
    si = s.inverse()
    assert isopu.compose(s, isopu.compose(t, t.inverse())) == t
    assert isopu.compose(si, isopu.compose(t, t.inverse())) == t
    assert t.inverse() == t
    assert isopu.compose(s, s) == isopu.compose(t, t.inverse())
    # and the abstract table agrees with the saturated one up to the naming
    S = s7_monoid()
    by_name = {"1": one, "s": s, "t": t, "s'": si,
               "s*t": isopu.compose(s, t),
               "s*s'": isopu.compose(s, si),
               "s'*s": isopu.compose(si, s)}
    assert len(set(by_name.values())) == 7
    for a in range(S.n):
        for b in range(S.n):
            lhs = isopu.compose(by_name[S.names[a]], by_name[S.names[b]])
            assert lhs == by_name[S.names[S.table[a][b]]]


def test_s7_order_facts():
    S = s7_monoid()
    names = {S.names[i]: i for i in range(S.n)}
    t, s, sp = names["t"], names["s"], names["s'"]
    assert S.leq[t][s]
    assert not S.leq[s][t]
    assert sg.compatible(S, t, s)
    assert sg.compatible(S, s, sp)
    assert meet(S, s, sp) == t
    assert sg.join_of(S, [names["s*s'"], names["s'*s"]]) == names["1"]


def test_meet_in_semilattice_is_product():
    S = sg.validate_table([[0, 1], [1, 1]])
    assert meet(S, 0, 1) == 1
    assert sg.join_of(S, [1, 0]) == 0


def test_join_requires_compatibility():
    S = non_e_unitary_monoid()
    # 1 and g are not compatible (1*g = g is not idempotent)
    with pytest.raises(sg.NotCompatibleSet):
        sg.join_of(S, [0, 1])


def all_partitions(elements):
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for part in all_partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + [block + [first]] + part[i + 1:]
        yield part + [[first]]


def congruences_with_group_quotient(S):
    """Brute-force oracle: every congruence whose quotient is a group."""
    out = []
    for part in all_partitions(list(range(S.n))):
        cls = {}
        for i, block in enumerate(part):
            for x in block:
                cls[x] = i
        if any(cls[S.table[a][b]] != cls[S.table[a2][b2]]
               for a in range(S.n) for b in range(S.n)
               for a2 in range(S.n) for b2 in range(S.n)
               if cls[a] == cls[a2] and cls[b] == cls[b2]):
            continue
        m = len(part)
        table = [[None] * m for _ in range(m)]
        for a in range(S.n):
            for b in range(S.n):
                table[cls[a]][cls[b]] = cls[S.table[a][b]]
        idems = [g for g in range(m) if table[g][g] == g]
        if len(idems) != 1:
            continue
        e = idems[0]
        if all(table[e][g] == g == table[g][e] for g in range(m)) and \
                all(any(table[g][h] == e for h in range(m)) for g in range(m)):
            out.append(cls)
    return out


@pytest.mark.parametrize("builder", [
    c2_table,
    lambda: sg.validate_table([[0, 1], [1, 1]]),
    non_e_unitary_monoid,
    lambda: sg.validate_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
])
def test_sigma_is_minimum_group_congruence(builder):
    S = builder()
    G, _, projection = sg.sigma_partition(S)
    oracle = congruences_with_group_quotient(S)
    assert any(all(cls[s] == cls[t]
                   for s in range(S.n) for t in range(S.n)
                   if projection[s] == projection[t]) and
               len(set(cls.values())) == G.n
               for cls in oracle)
    # sigma is contained in every group congruence
    for cls in oracle:
        for s in range(S.n):
            for t in range(S.n):
                if projection[s] == projection[t]:
                    assert cls[s] == cls[t]


def test_sigma_group_cases():
    S = c2_table()
    assert sg.sigma_partition(S)[0].n == 2  # singleton classes
    L = sg.validate_table([[0, 1], [1, 1]])
    assert sg.sigma_partition(L)[0].n == 1  # one class
    S7 = s7_monoid()
    G, classes, projection = sg.sigma_partition(S7)
    assert G.n == 2
    assert set(classes[projection[0]]) == set(S7.idempotents)


def test_quotient_table_is_none_off_congruences():
    chain = sg.validate_table([[0, 1, 2], [1, 1, 2], [2, 2, 2]], names=["1", "e", "f"])
    classes, projection = sg.lower_bound_classes(chain)
    assert sg.quotient_table(chain, classes, projection) == sg.sigma_partition(chain)[0].table
    # {1, f} | {e}: 1 * e = e and f * e = f lie in different classes
    assert sg.quotient_table(chain, ((0, 2), (1,)), (0, 1, 0)) is None


def _lower_bound_closure(S):
    """The closure of `shares_lower_bound` by a breadth-first search from
    each element not yet placed, in the shape of `lower_bound_classes`."""
    projection = [None] * S.n
    classes = []
    for s in range(S.n):
        if projection[s] is None:
            members, frontier = {s}, [s]
            while frontier:
                a = frontier.pop()
                for t in range(S.n):
                    if t not in members and sg.shares_lower_bound(S, a, t):
                        members.add(t)
                        frontier.append(t)
            for t in members:
                projection[t] = len(classes)
            classes.append(tuple(sorted(members)))
    return tuple(classes), tuple(projection)


def test_lower_bound_classes_match_the_breadth_first_closure():
    """sigma and tau classes from the union-find over u <= s equal the
    closure of the pairwise relation, on corpora with and without zero."""
    semigroups = ([beta.S for beta in corpus(3, 30)]
                  + [beta.S for beta in corpus(5, 30, with_zero=True)]
                  + [s7_monoid(), b2_table(), c2_table(), non_e_unitary_monoid(),
                     chain_semilattice_fixture().S])
    assert any(S.zero is not None for S in semigroups)
    for S in semigroups:
        assert sg.lower_bound_classes(S) == _lower_bound_closure(S)


def test_sigma_refuses_declared_zero():
    with pytest.raises(sg.ZeroForbidden):
        sg.sigma_partition(b2_table())


def test_e_unitary_verdicts():
    assert sg.is_e_unitary(c2_table())
    assert sg.is_e_unitary(s7_monoid())
    assert not sg.is_e_unitary(non_e_unitary_monoid())
    # B2 without a declared zero: the zero element breaks E-unitarity
    raw = b2_table()
    plain = sg.validate_table(raw.table, names=raw.names)
    assert not sg.is_e_unitary(plain)


def test_natural_order_is_a_partial_order_on_corpus():
    for builder in (c2_table, s7_monoid, non_e_unitary_monoid):
        S = builder()
        for s in range(S.n):
            assert S.leq[s][s]
            for t in range(S.n):
                if S.leq[s][t] and S.leq[t][s]:
                    assert s == t
                for u in range(S.n):
                    if S.leq[s][t] and S.leq[t][u]:
                        assert S.leq[s][u]


def test_idempotents_form_an_order_ideal():
    for builder in (s7_monoid, non_e_unitary_monoid, b2_table):
        S = builder()
        for e in S.idempotents:
            for s in range(S.n):
                if S.leq[s][e]:
                    assert s in S.idempotents


def test_full_subsemigroup_enumeration():
    S7 = s7_monoid()
    subs = sg.enumerate_full_inverse_subsemigroups(S7)
    names = {S7.names[i]: i for i in range(S7.n)}
    expected = [
        frozenset(S7.idempotents),
        frozenset(S7.idempotents) | {names["t"]},
        frozenset(range(S7.n)),
    ]
    assert [t.members for t in subs] == sorted(expected, key=lambda m: sum(1 << x for x in m))
    C2 = c2_table()
    assert [sorted(t.members) for t in sg.enumerate_full_inverse_subsemigroups(C2)] == [[0], [0, 1]]
    L = sg.validate_table([[0, 1], [1, 1]])
    assert [sorted(t.members) for t in sg.enumerate_full_inverse_subsemigroups(L)] == [[0, 1]]


def test_enumeration_guard():
    """The enumeration charges one unit of budget per closure, so S7 x S7
    (33 non-idempotents, once refused by a size guard) stops at its limit."""
    big = direct_product(s7_monoid(), s7_monoid())
    assert big.n == 49
    with budget.limit(100), pytest.raises(budget.BudgetExceeded) as exc:
        sg.enumerate_full_inverse_subsemigroups(big)
    assert (exc.value.quantity, exc.value.spent, exc.value.limit) == ("subsemigroups", 101, 100)


def test_restricted_product():
    S7 = s7_monoid()
    names = {S7.names[i]: i for i in range(S7.n)}
    s, sp, one, t = names["s"], names["s'"], names["1"], names["t"]
    # s' . s defined: (s')^-1 s' = s s' equals s s^-1
    assert restricted_product(S7, sp, s) == S7.table[sp][s]
    # 1 . t undefined: 1 != t t^-1
    assert restricted_product(S7, one, t) is None
    assert restricted_product(S7, one, one) == one


def test_equiv_T_is_an_equivalence():
    S7 = s7_monoid()
    for T in sg.enumerate_full_inverse_subsemigroups(S7):
        assert verify_equiv_T_is_equivalence(S7, T)
    with pytest.raises(NotFull):
        equiv_T(S7, sg.SubSemigroup(S7, frozenset({0})), 0, 0)


def test_presentation_cap():
    """The presentation p q = 1 has an infinite quotient; the budget its
    scans are charged stops the saturation."""
    with budget.limit(300), pytest.raises(budget.BudgetExceeded) as exc:
        sg.saturate_presentation(["p", "q"], [((0, 1), ())])
    assert (exc.value.quantity, exc.value.spent, exc.value.limit) == ("coset_steps", 309, 300)


def _idempotent(*gens):
    """The relations x x : x for each listed generator index."""
    return [((x, x), (x,)) for x in gens]


@pytest.mark.parametrize("generators,relations,names", [
    (["a"], _idempotent(0), ("1", "a")),
    (["a", "b", "c"], _idempotent(0, 1, 2) + [((0, 1), (1, 0))],
     ("1", "a", "b", "c", "a*b", "a*c", "b*c", "a*b*c")),
], ids=["a-idempotent", "free-semilattice-3"])
def test_presentation_finite_by_the_inverse_monoid_laws_closes(generators, relations, names):
    """a' is bound by no relation, only by the Wagner laws: a a = a makes a
    idempotent, so a' = a, and {1, a} closes; three idempotent generators
    give the free semilattice with 1, all 8 elements idempotent and commuting.
    Both ran out of the default budget while the dynamic laws waited for the
    static relations to settle."""
    with budget.limit(2_000_000):
        S = sg.saturate_presentation(generators, relations)
    assert S.names == names
    assert S.idempotents == frozenset(range(S.n))
    assert all(S.table[s][t] == S.table[t][s] for s in range(S.n) for t in range(S.n))
