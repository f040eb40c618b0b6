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
from dataclasses import dataclass, field

from . import isopu
from .actions import image_action, invariant_ring, is_injective, restrict_action
from .galois import PreconditionFail, compute_S_B, is_beta_strong, is_separable, is_galois
from .semigroups import SubSemigroup, enumerate_full_inverse_subsemigroups, is_e_unitary, join_of


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


def fixed_subalgebra(beta, T: SubSemigroup, base=None):
    """A^{beta|T}; always an A^beta-subalgebra when T is full.

    `base` is A^beta when the caller holds it; otherwise it is computed.
    """
    restricted, _ = restrict_action(beta, T)
    B = invariant_ring(restricted)
    if base is None:
        base = invariant_ring(beta)
    if not B.contains(base):
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


@dataclass
class CorrespondencePair:
    members: tuple  # subsemigroup members (sorted indices in S)
    subalgebra_order: int
    subalgebra_generators: list
    s_b_members: tuple
    separable: bool
    strong: bool
    round_trip_t: bool
    round_trip_b: bool


@dataclass
class CorrespondenceReport:
    bijective: bool
    pairs: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    brute_force_match: bool | None = None


def pull_back(S, proj, members):
    """The elements of S whose image under `proj` lies in `members`."""
    return frozenset(s for s in range(S.n) if proj[s] in members)


def verify_pairs(beta, ts, brute_force_subalgebras=False):
    """The one correspondence engine: T -> B = A^{beta|T} -> S_B -> A^{beta|S_B}.

    For each T in the list `ts`, B must be separable over A^beta and
    beta-strong, S_B must be T and fix B again (a fixed ring computed
    afresh only when S_B is not T; the fixed ring of all of S is A^beta),
    and no two Ts may fix one B.  S_B is taken on beta for every route:
    membership of s depends only on beta_s, so S_B on the image semigroup
    beta(S) pulls back to exactly this set.  Every B contains A^beta and so
    the indicator of each orbit of beta, and its separability is decided
    one orbit at a time.  The brute-force scan matches the S_Bs of all
    separable beta-strong subalgebras to `ts`.
    """
    base = invariant_ring(beta)

    def fixed(T):
        return base if len(T.members) == beta.S.n else fixed_subalgebra(beta, T, base)

    pairs = []
    failures = []
    seen_algebras = {}
    for T in ts:
        members = tuple(sorted(T.members))
        B = fixed(T)
        sep = is_separable(B, base, blocks=beta.orbits) is not None
        s_b = compute_S_B(beta, B)
        strong, fail_at = is_beta_strong(beta, B, s_b)
        round_t = s_b.members == T.members
        round_b = round_t or fixed(s_b) == B
        if B in seen_algebras:
            failures.append(("duplicate fixed algebra", members, seen_algebras[B]))
        seen_algebras[B] = members
        pairs.append(CorrespondencePair(
            members, B.order, [repr(g) for g in B.generators()],
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
        found = []
        for B in enumerate_subalgebras_over(beta, base):
            if is_separable(B, base, blocks=beta.orbits) is None:
                continue
            s_b = compute_S_B(beta, B)
            if is_beta_strong(beta, B, s_b)[0]:
                found.append(s_b.members)
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
    subalgebra B is extended by one representative per nonzero coset: the
    vectors w with 0 <= w_j < B.basis.cols[j][j], since the canonical basis is
    lower-triangular and contains diag(moduli).  That is |A|/|B| - 1
    candidates per B instead of |A|.
    """
    A = beta.A
    start = base.adjoin(A.one().vec())
    found = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        reps = itertools.product(*(range(c[j]) for j, c in enumerate(cur.basis.cols)))
        for w in itertools.islice(reps, 1, None):  # the first is the zero coset
            bigger = cur.adjoin(w)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (s.order, repr([g for g in s.gen_vectors])))


def verify_general_correspondence(beta, brute_force_subalgebras=False):
    """The correspondence for arbitrary (zero-free) unital actions.

    Routes through the image semigroup: beta(S) acts injectively and is
    E-unitary for Galois actions, its beta-complete Ts pull back along beta
    to the beta-maximal Ts of S, and the engine checks those on beta: S_B
    on beta is the pullback of S_B on the image, and strongness on beta
    skips the same pairs (s, t) as the image does: an element of S_B below
    s^{-1}t maps below
    beta_{s^{-1}t}, and if u in S_B has beta_u below beta_{s^{-1}t}, then
    s^{-1}t u^{-1}u lies below s^{-1}t with the iso beta_u, so in S_B, and
    is nonzero as S has no zero.
    """
    S = beta.S
    if S.zero is not None:
        raise PreconditionFail("use the zero-case verifier for semigroups with zero")
    if not beta.all_ideals_nonzero():
        raise PreconditionFail("some A_s is zero")
    if not is_galois(beta):
        raise PreconditionFail("A is not beta-Galois over its invariants")

    img_S, beta_img, proj = image_action(beta)
    if not is_e_unitary(img_S):
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
