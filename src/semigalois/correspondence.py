"""The Galois correspondence, verified as explicit mutually inverse maps.

For an E-unitary injective Galois action the beta-complete full inverse
subsemigroups T of S biject with the separable beta-strong subalgebras of A
via T -> A^{beta|T} and B -> S_B; the general case routes through the
image semigroup beta(S) and pulls its subsemigroups back along beta, and
the zero case takes the beta-maximal Ts.  All three routes check their
preconditions, choose their Ts and hand them to one engine, `verify_pairs`,
which runs the pair loop and the optional brute-force subalgebra scan.
Reports carry every object and a failure tuple per broken check.
"""

from __future__ import annotations

import heapq
import itertools

from . import isopu
from .actions import (NotFullSub, fixed_ring, image_action, invariant_ring, is_injective,
                      separability_violation)
from .galois import PreconditionFail, compute_S_B, is_beta_strong, is_galois
from .linalg import lattice_reduce
from .semigroups import (SubSemigroup, enumerate_full_inverse_subsemigroups, is_e_unitary, join_of,
                         remembered)


def is_beta_complete(beta, T: SubSemigroup):
    """T full, and closed under joins u whose iso is the sum of the members'.

    A compatible P in T with such a join u can be replaced by everything in
    T below u (compatible, as it lies below u; its joins are squeezed between
    those of P and u), so one set Q per u outside T decides it.
    """
    if not T.is_full:
        return False
    S = beta.S
    for u in set(range(S.n)) - T.members:
        Q = [t for t in T.members if S.leq[t][u]]
        if Q and join_of(S, Q) == u and isopu.join_sum([beta.isos[t] for t in Q]) == beta.isos[u]:
            return False
    return True


def enumerate_beta_complete(beta):
    return [T for T in enumerate_full_inverse_subsemigroups(beta.S)
            if is_beta_complete(beta, T)]


def enumerate_beta_maximal(beta):
    return [T for T in enumerate_full_inverse_subsemigroups(beta.S)
            if is_beta_maximal(beta, T)]


@remembered
def fixed_subalgebra(beta, T: SubSemigroup):
    """A^{beta|T}: the `actions.fixed_ring` of the beta_t, t in T in sorted order,
    kept per T.  T must be a full subsemigroup of S, so that its maps are
    closed and cover A; A^{beta|T} then contains A^beta (checked)."""
    if T.parent is not beta.S or not T.is_full:
        raise NotFullSub("the fixed ring needs a full subsemigroup of S")
    B = fixed_ring(beta.A, [beta.isos[t] for t in sorted(T.members)])
    if not B.contains(invariant_ring(beta)):
        raise AssertionError("fixed ring must contain the full invariants")
    return B


def is_beta_maximal(beta, T: SubSemigroup):
    """Preimage-closed under beta, with beta(T) f-complete inside Iso_pu(A).

    Joins of compatible families are computed in Iso_pu(A); the closure
    demand applies exactly when the join lies in beta(S) at all (otherwise
    no element of S realizes it and nothing is asked).  For injective
    actions on E-unitary semigroups this is equivalent to beta-completeness
    of T, which is what the general correspondence reduces to.  As in
    `is_beta_complete`, a family with join j can be replaced by everything
    in beta(T) below j, so one family per j in beta(S) \\ beta(T) decides it.
    """
    if not T.is_full:
        return False
    image_of_T = {beta.isos[t] for t in T.members}
    image_of_S = {beta.isos[s] for s in range(beta.S.n)}
    for s in range(beta.S.n):
        if beta.isos[s] in image_of_T and s not in T.members:
            return False
    for j in image_of_S - image_of_T:
        fam = [f for f in image_of_T if isopu.natural_leq_iso(f, j)]
        if fam and isopu.join_sum(fam) == j:
            return False
    return True


class CorrespondencePair:
    """One object of the correspondence, equal to another with equal fields."""

    def __init__(self, members, subalgebra_order, subalgebra_generators, s_b_members,
                 separable, strong, round_trip_t, round_trip_b):
        self.members = members  # subsemigroup members (sorted indices in S)
        self.subalgebra_order = subalgebra_order
        # B's canonical generators, as coordinate vectors
        self.subalgebra_generators = subalgebra_generators
        self.s_b_members = s_b_members
        self.separable, self.strong = separable, strong
        self.round_trip_t, self.round_trip_b = round_trip_t, round_trip_b

    def _fields(self):
        return (self.members, self.subalgebra_order, self.subalgebra_generators,
                self.s_b_members, self.separable, self.strong, self.round_trip_t,
                self.round_trip_b)

    def __eq__(self, other):
        if other.__class__ is not CorrespondencePair:
            return NotImplemented
        return self._fields() == other._fields()


class CorrespondenceReport:
    def __init__(self, bijective, pairs=None, failures=None, brute_force_match=None):
        self.bijective = bijective
        self.pairs = [] if pairs is None else pairs
        self.failures = [] if failures is None else failures
        self.brute_force_match = brute_force_match  # None when no brute-force scan ran


def pull_back(S, proj, members):
    """The elements of S whose image under `proj` lies in `members`."""
    return frozenset(s for s in range(S.n) if proj[s] in members)


def verify_pairs(beta, ts, brute_force_subalgebras=False):
    """The one correspondence engine: T -> B = A^{beta|T} -> S_B -> A^{beta|S_B}.

    For each T in the list `ts`, B must be separable over A^beta and
    beta-strong, S_B must be T and fix B again (the fixed ring of all of S
    is A^beta), and no two Ts may fix one B.  S_B is taken on beta for
    every route: membership of s depends only on beta_s, so S_B on the
    image semigroup beta(S) pulls back to exactly this set.  Every B
    contains A^beta, so its separability is decided by the free-part rule
    (`actions.separability_violation`), with no tensor built.  The
    brute-force scan matches the S_Bs of all separable beta-strong
    subalgebras to `ts`, asking each B the free-part rule first and
    strongness only of a separable B.  Each of these is a fact of beta,
    kept per B or per T, so a fixed algebra is judged once however often
    it recurs.
    """
    base = invariant_ring(beta)

    def fixed(T):
        return base if len(T.members) == beta.S.n else fixed_subalgebra(beta, T)

    pairs = []
    failures = []
    fixing = {}  # B -> the last T fixing it
    for T in ts:
        members = tuple(sorted(T.members))
        B = fixed(T)
        if B in fixing:
            failures.append(("duplicate fixed algebra", members, fixing[B]))
        fixing[B] = members
        sep = separability_violation(beta, B) is None
        s_b = compute_S_B(beta, B)
        strong, fail_at = is_beta_strong(beta, B)
        round_t = s_b.members == T.members
        round_b = round_t or fixed(s_b) == B
        pairs.append(CorrespondencePair(
            members, B.order, B.gen_vectors,
            tuple(sorted(s_b.members)), sep, strong, round_t, round_b))
        if not sep:
            failures.append(("fixed algebra not separable", members))
        if not strong:
            failures.append(("fixed algebra not beta-strong", members, fail_at))
        if not round_t:
            failures.append(("S_B != T", members, tuple(sorted(s_b.members))))
        if not round_b:
            failures.append(("A^{beta|S_B} != B", members))
    report = CorrespondenceReport(not failures, pairs, failures)
    if brute_force_subalgebras:
        found = [compute_S_B(beta, B).members for B in enumerate_subalgebras_over(beta, base)
                 if separability_violation(beta, B) is None and is_beta_strong(beta, B)[0]]
        report.brute_force_match = (len(found) == len(ts)
                                    and set(found) == {T.members for T in ts})
        if not report.brute_force_match:
            report.bijective = False
            failures.append(("brute-force subalgebra scan mismatch",))
    return report


def verify_e_unitary_correspondence(beta, brute_force_subalgebras=False):
    """The correspondence for E-unitary injective Galois actions."""
    S = beta.S
    if S.zero is not None:
        raise PreconditionFail("use the zero-case verifier for semigroups with zero")
    if not is_e_unitary(S):
        raise PreconditionFail("S is not E-unitary")
    if not is_injective(beta):
        raise PreconditionFail("beta is not injective")
    if not beta.all_ideals_nonzero():
        raise PreconditionFail("some A_s is zero")
    if not is_galois(beta):
        raise PreconditionFail("A is not beta-Galois over its invariants")
    return verify_pairs(beta, enumerate_beta_complete(beta), brute_force_subalgebras)


def enumerate_subalgebras_over(beta, base):
    """Every A^beta-subalgebra of A, by closing one added coset at a time.

    The closure of B + Z*v depends only on the coset v + B, whose canonical
    representative w has 0 <= w_j < B.basis.cols[j][j] (the basis is
    lower-triangular and contains diag(moduli)).  Only cosets of prime order
    in A/B are closed, walked directly for each prime q of an atom
    (`_torsion_reps`; every order in A divides a product of those primes,
    and a w in two primes' torsion lies in B).  They suffice.  For a
    subalgebra C > B, take x in C \\ B, of order n in A/B, and a prime q
    dividing n; then w = (n/q)*x lies in C \\ B and q*w = n*x in B, so
    B < B[w] <= C, and induction on |C/B| reaches C from the found B[w].

    The closure depends only on the orbit of the coset under the units u of
    A^beta, too: B contains A^beta and u^-1 is a power of u, so u*w and w each
    lie in the closure of B and the other.  Units keep q-torsion, as
    q*(u*w) = u*(q*w) lies in B, so one representative per orbit of the
    prime-order cosets is taken (`_unit_orbit`), and not closed when B + Z*w
    is a found subalgebra, its own closure.  The walk is not charged.
    """
    A = beta.A
    primes, lifts = {a.p for a in A.atoms}, _residue_lifts(beta, base)
    start = base.adjoin(A.one_vec)
    found = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        closed = set()  # the cosets in the orbit of one already taken
        for w in heapq.merge(*(_torsion_reps(cur.basis, q) for q in primes)):
            if w in closed or not any(w):
                continue
            spanned = cur.extended([w])
            if spanned not in found and (bigger := spanned.close_extension(cur, w)) not in found:
                found.add(bigger)
                frontier.append(bigger)
            if lifts:  # else every orbit is the coset alone
                closed.update(_unit_orbit(beta, lifts, cur, w))
    return sorted(found, key=lambda s: (s.order, repr([g for g in s.gen_vectors])))


def _torsion_reps(basis, q):
    """The canonical representatives w (0 <= w_j < d_j, the pivot of column
    j) with q*w in the lattice, in increasing order.  `linalg.lattice_member`
    walks q*w down the basis: d_j must divide the remainder q*w_j + r_j at
    pivot j, where r_j, what the columns before j took off, is fixed by w_0,
    ..., w_(j-1).  So w_j is fixed row by row, over the x in [0, d_j) with
    q*x = -r_j mod d_j: for g = gcd(q, d_j), none unless g divides r_j, and
    then the g values of (-r_j/g)(q/g)^-1 mod d_j/g, in increasing order."""
    level = [((), [0] * len(basis.cols))]  # each w_0..w_(j-1) and what it took off
    for j, col in enumerate(basis.cols):
        d = col[j]
        g = 1 if d % q else q  # gcd(q, d)
        step, unit, grown = d // g, pow(q // g, -1, d // g), []
        for w, rest in level:
            if rest[j] % g:
                continue
            for x in range(-rest[j] // g * unit % step, d, step):
                t, below = (q * x + rest[j]) // d, rest
                if t:
                    below = rest.copy()
                    for i, v in col.items():
                        below[i] -= t * v
                grown.append((w + (x,), below))
        level = grown
    return [w for w, _ in level]


def _residue_lifts(beta, base):
    """{block A e_O: lifts of an F_p-basis of the residue field k of R =
    A^beta e_O} over the orbits O of beta with k > F_2.  An invariant is fixed
    on O by its value on one atom, so R is Z/p^k e_O or a subfield of GF(p^k),
    local with maximal ideal pR; A^beta's canonical generators on the block
    (`Block.basis`), each of pivot 1, lift a basis of k."""
    lifts = {block: [g for v in base.gen_vectors if any(g := block.restrict(v))]
             for block in beta.orbits}
    return {block: gens for block, gens in lifts.items() if block.ring.atoms[0].p ** len(gens) > 2}


def _unit_orbit(beta, lifts, cur, w):
    """The canonical representatives of the cosets u*w + cur, for the units u
    of A^beta, w with q*w in cur for a prime q, and lifts `_residue_lifts`.
    A^beta holds the indicator e_O of each orbit O of beta, so its units are
    the products of the units of the blocks R = A^beta e_O, cur >= A^beta is
    the direct sum of its blocks, and the orbit of w + cur is the product of
    the orbits of its block parts v, each 0 unless O's prime p is q.  The
    x + cur with p*x in cur are an R-module that pR kills, so a k-space, on
    which the units act through all of k^x: the orbit of v is k*v less 0,
    the nonzero F_p-combinations of v times the lifts, distinct as k is a
    field, and v alone when k is F_2."""
    orbit = [beta.A.zero_vec]
    for block in beta.orbits:
        part = block.restrict(w)
        moved = [part]
        if block in lifts and any(part):
            ring, basis = block.ring, block.basis(cur)
            images = [part if g == ring.one_vec else ring.mul_vec(g, part) for g in lifts[block]]
            moved = [lattice_reduce(basis, [sum(a * x for a, x in zip(c, xs)) for xs in zip(*images)])
                     for c in itertools.product(range(ring.atoms[0].p), repeat=len(images)) if any(c)]
        orbit = [beta.A.add_vec(o, block.extend(m)) for o in orbit for m in moved]
    return orbit


def verify_general_correspondence(beta, brute_force_subalgebras=False):
    """The correspondence for arbitrary (zero-free) unital actions.

    Routes through the image semigroup: beta(S) acts injectively and is
    E-unitary for Galois actions, its beta-complete Ts pull back along beta
    to the beta-maximal Ts of S, and the engine checks those on beta: S_B
    on beta is the pullback of S_B on the image, and strongness on beta,
    which reads each element p and its iso beta_p (`galois.is_beta_strong`),
    skips the same elements as the image does: an element of S_B below p
    maps below beta_p, and if u in S_B has beta_u below beta_p, then
    p u^{-1}u lies below p with the iso beta_u, so in S_B, and is nonzero as
    S has no zero.
    """
    S = beta.S
    if S.zero is not None:
        raise PreconditionFail("use the zero-case verifier for semigroups with zero")
    if not beta.all_ideals_nonzero():
        raise PreconditionFail("some A_s is zero")
    if not is_galois(beta):
        raise PreconditionFail("A is not beta-Galois over its invariants")

    beta_img, proj = image_action(beta)
    if not is_e_unitary(beta_img.S):
        raise PreconditionFail("image semigroup is not E-unitary (theorem violated?)")

    ts = [SubSemigroup(S, pull_back(S, proj, T.members))
          for T in enumerate_beta_complete(beta_img)]
    report = verify_pairs(beta, ts, brute_force_subalgebras)
    pulled_sets = {T.members for T in ts}
    maximal_sets = {T.members for T in enumerate_beta_maximal(beta)}
    if pulled_sets != maximal_sets:
        report.bijective = False
        report.failures.append(("beta-maximal pullback mismatch",
                                sorted(map(sorted, pulled_sets)),
                                sorted(map(sorted, maximal_sets))))
    return report
