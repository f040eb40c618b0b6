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

import itertools

from . import isopu
from .actions import (NotFullSub, fixed_ring, image_action, invariant_ring, is_injective,
                      separability_violation)
from .galois import PreconditionFail, compute_S_B, is_beta_strong, is_galois
from .linalg import lattice_reduce
from .rings import Subalgebra
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

    The closure of B + Z*v depends only on the coset v + B, so each found
    subalgebra B is extended by representatives of its nonzero cosets: the
    vectors w with 0 <= w_j < B.basis.cols[j][j], since the canonical basis is
    lower-triangular and contains diag(moduli).

    Only cosets of prime order in A/B are closed: those w with q*w in B for a
    prime q of an atom (every order in A divides a product of those primes).
    They suffice.  For a subalgebra C > B, take x in C \\ B, of order n in A/B,
    and a prime q dividing n; then w = (n/q)*x lies in C \\ B and q*w = n*x in
    B, so B < B[w] <= C, and induction on |C/B| reaches C from the found B[w].

    The closure depends only on the orbit of the coset under the units u of
    A^beta, too: B contains A^beta and u^-1 is a power of u, so u*w and w each
    lie in the closure of B and the other.  Units keep q-torsion, as
    q*(u*w) = u*(q*w) lies in B, so one representative per orbit of the
    prime-order cosets is closed (`_unit_orbit`).  The marked cosets all
    have prime order, so the orbit lookup goes first and spares them the
    torsion test, which every coset passes on GF(p^k) atoms.  Neither test
    is charged.
    """
    A = beta.A
    primes = {a.p for a in A.atoms}
    start = base.adjoin(A.one_vec)
    found = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        closed = set()  # the cosets in the orbit of one already closed
        reps = itertools.product(*(range(c[j]) for j, c in enumerate(cur.basis.cols)))
        for w in itertools.islice(reps, 1, None):  # the first is the zero coset
            if w in closed or not any(cur.member_vec([q * x for x in w]) for q in primes):
                continue
            bigger = cur.adjoin(w)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
            closed.update(_unit_orbit(beta, base, cur, w))
    return sorted(found, key=lambda s: (s.order, repr([g for g in s.gen_vectors])))


@remembered
def _unit_generators(block, base):
    """Generators of the unit group of A^beta e_O, for the block A e_O of an
    orbit O of beta and base = A^beta, on the block ring: each unit that the
    earlier ones do not generate.  An invariant is fixed on O by its value
    on one atom, so A^beta e_O has at most one atom's elements; they are
    enumerated once per block."""
    ring = block.ring
    part = Subalgebra.with_basis(ring, block.basis(base))
    # F_2 is the one finite local ring with no unit but 1: nothing to enumerate
    units = part.element_vectors() if part.order > 2 else ()
    group, gens = {ring.one_vec}, []
    for u in units:
        if u in group or not ring.is_unit_vec(u):
            continue
        gens.append(u)
        layer = list(group)  # the group grows by its cosets h u^k until they return
        while True:
            layer = [ring.mul_vec(u, h) for h in layer]
            if layer[0] in group:
                break
            group.update(layer)
    return gens


def _unit_orbit(beta, base, cur, w):
    """The canonical representatives of the cosets u*w + cur, w one of them,
    for the units u of base = A^beta and a subalgebra cur >= A^beta.

    A^beta holds the indicator e_O of each orbit O of beta, so its units are
    the products of the units of the blocks A^beta e_O, cur is the direct
    sum of its blocks, and the orbit of w + cur is the product of the orbits
    of its block parts.  A part's orbit is its closure under multiplication
    by the block's `_unit_generators`."""
    orbit = [beta.A.zero_vec]
    for block in beta.orbits:
        part = block.restrict(w)
        if not any(part):
            continue
        basis, gens = block.basis(cur), _unit_generators(block, base)
        moved, todo = {part}, [part]
        for v in todo:
            for g in gens:
                x = lattice_reduce(basis, block.ring.mul_vec(g, v))
                if x not in moved:
                    moved.add(x)
                    todo.append(x)
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
