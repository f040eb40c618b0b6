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
from .actions import (image_action, invariant_ring, is_injective, restrict_action,
                      separability_violation)
from .galois import PreconditionFail, compute_S_B, is_beta_strong, is_galois
from .linalg import lattice_reduce
from .rings import Subalgebra
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


def fixed_subalgebra(beta, T: SubSemigroup):
    """A^{beta|T}; always an A^beta-subalgebra when T is full (checked)."""
    B, base = invariant_ring(restrict_action(beta, T)[0]), invariant_ring(beta)
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
    subalgebra_generators: tuple  # B's canonical generators, as coordinate vectors
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
    beta(S) pulls back to exactly this set.  Every B contains A^beta, so
    its separability is decided by the free-part rule
    (`actions.separability_violation`), with no tensor built.  The
    brute-force scan matches the S_Bs of all separable beta-strong
    subalgebras to `ts`; it takes the pair loop's verdict on each fixed
    algebra and tests any other B for separability only once it is
    beta-strong.
    """
    base = invariant_ring(beta)

    def fixed(T):
        return base if len(T.members) == beta.S.n else fixed_subalgebra(beta, T)

    pairs = []
    failures = []
    judged = {}  # B -> (the last T fixing it, S_B, separable, strong, where strongness fails)
    for T in ts:
        members = tuple(sorted(T.members))
        B = fixed(T)
        verdict = judged.get(B)
        if verdict is None:
            sep = separability_violation(beta, B) is None
            s_b = compute_S_B(beta, B)
            strong, fail_at = is_beta_strong(beta, B, s_b)
        else:
            failures.append(("duplicate fixed algebra", members, verdict[0]))
            _, s_b, sep, strong, fail_at = verdict
        judged[B] = members, s_b, sep, strong, fail_at
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
        found = []
        for B in enumerate_subalgebras_over(beta, base):
            verdict = judged.get(B)
            if verdict is not None:
                _, s_b, sep, strong, _ = verdict
            else:
                s_b = compute_S_B(beta, B)
                strong = is_beta_strong(beta, B, s_b)[0]
                sep = strong and separability_violation(beta, B) is None
            if sep and strong:
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
    subalgebra B is extended by representatives of its nonzero cosets: the
    vectors w with 0 <= w_j < B.basis.cols[j][j], since the canonical basis is
    lower-triangular and contains diag(moduli).  It depends only on the orbit
    of the coset under the units u of A^beta, too: B contains A^beta and u^-1
    is a power of u, so u*w and w each lie in the closure of B and the other.
    So one representative per orbit is closed (`_UnitOrbits`): at most
    |A|/|B| - 1 closures per B instead of |A|.
    """
    A = beta.A
    start = base.adjoin(A.one_vec)
    unit_orbits = _UnitOrbits(beta, base)
    found = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        closed = set()  # the cosets in the orbit of one already closed
        reps = itertools.product(*(range(c[j]) for j, c in enumerate(cur.basis.cols)))
        for w in itertools.islice(reps, 1, None):  # the first is the zero coset
            if w in closed:
                continue
            bigger = cur.adjoin(w)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
            closed.update(unit_orbits.orbit(cur, w))
    return sorted(found, key=lambda s: (s.order, repr([g for g in s.gen_vectors])))


class _UnitOrbits:
    """The orbits of the units of A^beta on the cosets of subalgebras B >= A^beta.

    A^beta holds the indicator e_O of each orbit O of beta, so its units are
    the products of the units of the blocks A^beta e_O, B is the direct sum
    of its blocks, and the orbit of w + B is the product of the orbits of its
    block parts.  An invariant is fixed on O by its value on one atom, so
    A^beta e_O has at most one atom's elements; they are enumerated once, for
    the first part that needs them, and kept as a generating set of the unit
    group: each unit that the earlier ones do not generate.  A part's orbit
    is then its closure under multiplication by those generators.
    """

    def __init__(self, beta, base):
        self.ring, self.base, self.blocks = beta.A, base, beta.orbits
        self.generators = {}  # block -> generators of (A^beta e_O)^x, on the block ring

    def _unit_generators(self, block):
        if block not in self.generators:
            ring = block.ring
            part = Subalgebra.with_basis(ring, block.basis(self.base))
            # F_2 is the one finite local ring with no unit but 1: nothing to enumerate
            units = part.element_vectors() if part.order > 2 else ()
            one = ring.one_vec
            group, gens = {one}, []
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
            self.generators[block] = gens
        return self.generators[block]

    def orbit(self, cur, w):
        """The canonical representatives of the cosets u*w + cur, w one of them."""
        orbit = [self.ring.zero_vec]
        for block in self.blocks:
            part = block.restrict(w)
            if not any(part):
                continue
            basis = block.basis(cur)
            moved, todo = {part}, [part]
            for v in todo:
                for g in self._unit_generators(block):
                    x = lattice_reduce(basis, block.ring.mul_vec(g, v))
                    if x not in moved:
                        moved.add(x)
                        todo.append(x)
            orbit = [self.ring.add_vec(o, block.extend(m)) for o in orbit for m in moved]
        return orbit


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
