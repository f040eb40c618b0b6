"""The Galois correspondence, verified as explicit mutually inverse maps.

For an E-unitary injective Galois action the beta-complete full inverse
subsemigroups T of S biject with the separable beta-strong subalgebras of A
via T -> A^{beta|T} and B -> S_B; the general (and zero-aware) cases route
through the image semigroup beta(S) and pull subsemigroups back along beta.
Reports carry every object and the first counterexample on failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import isopu
from .actions import image_action, invariant_ring, is_injective, restrict_action
from .galois import PreconditionFail, compute_S_B, is_beta_strong, is_separable, is_galois
from .rings import Subalgebra
from .semigroups import (SubSemigroup, TooLarge, SUBSEMIGROUP_GUARD,
                         enumerate_full_inverse_subsemigroups, is_e_unitary,
                         join_of)

BRUTE_FORCE_RING_GUARD = 1 << 10


def is_beta_complete(beta, T: SubSemigroup):
    """T full, and closed under joins u whose iso is the sum of the members'.

    Exhaustive over nonempty compatible subsets P of T (guarded); only
    joins u with beta_u equal to the Iso_pu join of beta[P] must land in T.
    """
    if not T.is_full:
        return False
    members = sorted(T.members)
    if len(members) > SUBSEMIGROUP_GUARD:
        raise TooLarge("subset scan beyond the guard")
    S = beta.S
    for r in range(1, len(members) + 1):
        for P in itertools.combinations(members, r):
            if any(not _compatible_pair(S, a, b) for a, b in itertools.combinations(P, 2)):
                continue
            u = join_of(S, P)
            if u is None or u in T.members:
                continue
            join_iso = isopu.join_sum([beta.isos[p] for p in P])
            if join_iso == beta.isos[u]:
                return False
    return True


def _compatible_pair(S, a, b):
    return (S.table[S.inv[a]][b] in S.idempotents
            and S.table[a][S.inv[b]] in S.idempotents)


def enumerate_beta_complete(beta):
    return [T for T in enumerate_full_inverse_subsemigroups(beta.S)
            if is_beta_complete(beta, T)]


def fixed_subalgebra(beta, T: SubSemigroup):
    """A^{beta|T}; always an A^beta-subalgebra when T is full."""
    restricted, _ = restrict_action(beta, T)
    B = invariant_ring(restricted)
    if not B.contains(invariant_ring(beta)):
        raise AssertionError("fixed ring must contain the full invariants")
    return B


def is_beta_maximal(beta, T: SubSemigroup):
    """Preimage-closed under beta, with beta(T) f-complete inside Iso_pu(A).

    Joins of compatible families are computed in Iso_pu(A); the closure
    demand applies exactly when the join lies in beta(S) at all (otherwise
    no element of S realizes it and nothing is asked).  For injective
    actions on E-unitary semigroups this is equivalent to beta-completeness
    of T, which is what the general correspondence reduces to.
    """
    if not T.is_full:
        return False
    image_of_T = {beta.isos[t] for t in T.members}
    image_of_S = {beta.isos[s] for s in range(beta.S.n)}
    for s in range(beta.S.n):
        if beta.isos[s] in image_of_T and s not in T.members:
            return False
    isos = sorted(image_of_T, key=repr)
    for r in range(1, len(isos) + 1):
        for fam in itertools.combinations(isos, r):
            if any(not isopu.is_compatible(f, g) for f, g in itertools.combinations(fam, 2)):
                continue
            join = isopu.join_sum(fam)
            if join in image_of_S and join not in image_of_T:
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

    def verdict(self):
        return self.bijective and not self.failures


def _correspondence_core(beta, subsemigroups, s_b_map, pullback):
    """Shared verification: T -> B = A^{beta|T} -> back, plus B -> fixed -> B."""
    base = invariant_ring(beta)
    pairs = []
    failures = []
    seen_algebras = {}
    for T in subsemigroups:
        B = fixed_subalgebra(beta, T)
        sep = is_separable(B, base) is not None
        strong, fail_at, _ = is_beta_strong(beta, B)
        back = pullback(B)
        round_t = back.members == T.members
        fixed_again = fixed_subalgebra(beta, s_b_map(B))
        round_b = fixed_again == B
        key = B
        if key in seen_algebras:
            failures.append(("duplicate fixed algebra", tuple(sorted(T.members)),
                             tuple(sorted(seen_algebras[key]))))
        seen_algebras[key] = T.members
        pairs.append(CorrespondencePair(
            tuple(sorted(T.members)), B.order,
            [repr(g) for g in B.generators()],
            tuple(sorted(back.members)), sep, strong, round_t, round_b))
        if not sep:
            failures.append(("fixed algebra not separable", tuple(sorted(T.members))))
        if not strong:
            failures.append(("fixed algebra not beta-strong", tuple(sorted(T.members)), fail_at))
        if not round_t:
            failures.append(("S_B != T", tuple(sorted(T.members)), tuple(sorted(back.members))))
        if not round_b:
            failures.append(("A^{beta|S_B} != B", tuple(sorted(T.members))))
    return pairs, failures


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

    ts = enumerate_beta_complete(beta)
    pairs, failures = _correspondence_core(
        beta, ts,
        s_b_map=lambda B: compute_S_B(beta, B),
        pullback=lambda B: compute_S_B(beta, B))
    report = CorrespondenceReport(not failures, pairs, failures)
    if brute_force_subalgebras:
        report.brute_force_match = _brute_force_check(beta, [p.members for p in pairs])
        if not report.brute_force_match:
            report.bijective = False
            report.failures.append(("brute-force subalgebra scan mismatch",))
    return report


def enumerate_subalgebras_over(beta, base):
    """Every A^beta-subalgebra of A, by closing one added coset at a time.

    The closure of B + Z*v depends only on the coset v + B, so each found
    subalgebra B is extended by one representative per nonzero coset: the
    vectors w with 0 <= w_j < B.basis[j, j], since the canonical basis is
    lower-triangular and contains diag(moduli).  That is |A|/|B| - 1
    candidates per B instead of |A|.
    """
    A = beta.A
    if A.size > BRUTE_FORCE_RING_GUARD:
        raise TooLarge(f"|A| = {A.size} beyond the brute-force guard")
    start = Subalgebra(A, list(base.gen_vectors) + [A.one().vec()]).closure_under_mul()
    found = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        reps = itertools.product(*(range(int(cur.basis[j, j])) for j in range(A.n_coords)))
        for w in itertools.islice(reps, 1, None):  # the first is the zero coset
            bigger = Subalgebra(A, list(cur.gen_vectors) + [w]).closure_under_mul()
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (s.order, repr([g for g in s.gen_vectors])))


def _brute_force_check(beta, t_side_members):
    """Exhaustively match separable + strong subalgebras against the T-side."""
    base = invariant_ring(beta)
    winners = []
    for B in enumerate_subalgebras_over(beta, base):
        if is_separable(B, base) is None:
            continue
        strong, _, _ = is_beta_strong(beta, B)
        if strong:
            winners.append(B)
    expected = {tuple(members) for members in t_side_members}
    got = {tuple(sorted(compute_S_B(beta, B).members)) for B in winners}
    return len(winners) == len(t_side_members) and got == expected


def verify_general_correspondence(beta, brute_force_subalgebras=False):
    """The correspondence for arbitrary (zero-free) unital actions.

    Routes through the image semigroup: beta(S) acts injectively and is
    E-unitary for Galois actions, the E-unitary machinery applies there,
    and subsemigroups pull back along beta to the beta-maximal ones.
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

    image_report = verify_e_unitary_correspondence(beta_img, brute_force_subalgebras)
    failures = list(image_report.failures)

    maximal = [T for T in enumerate_full_inverse_subsemigroups(S) if is_beta_maximal(beta, T)]
    pulled = []
    for pair in image_report.pairs:
        members = frozenset(s for s in range(S.n) if proj[s] in set(pair.members))
        pulled.append(SubSemigroup(S, members))
    pulled_sets = {T.members for T in pulled}
    maximal_sets = {T.members for T in maximal}
    if pulled_sets != maximal_sets:
        failures.append(("beta-maximal pullback mismatch",
                         sorted(map(sorted, pulled_sets)), sorted(map(sorted, maximal_sets))))

    pairs = []
    for T, img_pair in zip(pulled, image_report.pairs):
        B = fixed_subalgebra(beta, T)
        back = frozenset(s for s in range(S.n)
                         if proj[s] in set(img_pair.s_b_members))
        round_t = back == T.members
        if not round_t:
            failures.append(("pullback round trip failed", tuple(sorted(T.members))))
        pairs.append(CorrespondencePair(
            tuple(sorted(T.members)), B.order, [repr(g) for g in B.generators()],
            tuple(sorted(back)), img_pair.separable, img_pair.strong,
            round_t, img_pair.round_trip_b))
    report = CorrespondenceReport(not failures, pairs, failures,
                                  image_report.brute_force_match)
    return report
