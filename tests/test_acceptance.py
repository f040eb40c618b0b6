"""The acceptance gate: one test per criterion, each printing a verdict line.

All arithmetic is exact, so every comparison here is tolerance-zero; the
only numeric bounds are the stated runtime ceilings.
"""

import random
import time

from fixtures import (admissible, groupoid_action_corpus, random_primitive_semigroup,
                      trace_gap_fixture)
from semigalois import isopu
from semigalois import zerocase as zc
from semigalois.actions import (induce_partial_group_action, invariant_ring, sigma_trace,
                                trace_map)
from semigalois.corpus import (b2_swap_fixture, b2_table, c2_swap_fixture, corpus, f9_cubed_fixture,
                               random_ring, random_structured_iso)
from semigalois.correspondence import (enumerate_beta_complete, fixed_subalgebra,
                                       verify_e_unitary_correspondence)
from semigalois.galois import (compute_S_B, cross_check_equivalences, is_galois,
                               solve_partial_action_coordinates)
from semigalois.rings import Atom, FiniteRing, Subalgebra, TensorPresentation
from semigalois.semigroups import is_e_unitary, sigma_partition
from oracles import (extend_scalars_by_loops, iso_pu_elements, quotient_order_by_enumeration,
                     scalar_extension_is_galois_by_loops, upper_bounds, verify_class_join_group)


def _verdict(name, ok, elapsed, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"[criterion {name}] {mark} ({elapsed:.2f}s){('  ' + detail) if detail else ''}")
    assert ok, f"criterion {name} failed: {detail}"


def test_criterion_1_fixture_facts():
    t0 = time.monotonic()
    beta = f9_cubed_fixture()
    S, A = beta.S, beta.A
    ok = True
    detail = []
    if not is_e_unitary(S):
        ok, detail = False, ["not E-unitary"]
    if sigma_partition(S)[0].n != 2:
        ok = False
        detail.append("sigma quotient not C2")
    inv = invariant_ring(beta)
    if inv.order != 27:
        ok = False
        detail.append(f"|A^beta| = {inv.order}")
    # A^beta = F9(e1+e3) + F3 e2
    for el, want in [
        (A.element([(1, 0), (0, 0), (1, 0)]), True),
        (A.element([(0, 1), (0, 0), (0, 1)]), True),
        (A.element([(0, 0), (1, 0), (0, 0)]), True),
        (A.element([(0, 0), (0, 1), (0, 0)]), False),
        (A.element([(1, 0), (0, 0), (0, 0)]), False),
    ]:
        if inv.member_vec(el.vec()) != want:
            ok = False
            detail.append(f"membership of {el!r}")
    # plain trace fails invariance exactly on u e2 with u^3 != u
    witnessed = False
    for u0 in range(3):
        for u1 in range(3):
            u = A.element([(0, 0), (u0, u1), (0, 0)])
            cube = u * u * u
            tr = trace_map(beta, u)
            if cube != u:
                witnessed = True
                if inv.member_vec(tr.vec()):
                    ok = False
                    detail.append(f"plain trace unexpectedly invariant at {u!r}")
    if not witnessed:
        ok = False
        detail.append("no u with u^3 != u scanned")
    for a in A.elements():
        if not inv.member_vec(sigma_trace(beta, a).vec()):
            ok = False
            detail.append(f"sigma trace escaped invariants at {a!r}")
            break
    elapsed = time.monotonic() - t0
    _verdict("1 (fixture)", ok and elapsed < 1.0, elapsed, "; ".join(detail))


def test_criterion_2_fixture_correspondence():
    t0 = time.monotonic()
    beta = f9_cubed_fixture()
    names = {beta.S.names[i]: i for i in range(beta.S.n)}
    ok = True
    detail = []
    ts = enumerate_beta_complete(beta)
    expected = {
        frozenset(beta.S.idempotents),
        frozenset(beta.S.idempotents) | {names["t"]},
        frozenset(range(beta.S.n)),
    }
    if {t.members for t in ts} != expected:
        ok = False
        detail.append("beta-complete enumeration differs")
    orders = sorted(fixed_subalgebra(beta, t).order for t in ts)
    if orders != [27, 243, 729]:
        ok = False
        detail.append(f"fixed algebra orders {orders}")
    rep = verify_e_unitary_correspondence(beta, brute_force_subalgebras=True)
    if not rep.bijective:
        ok = False
        detail.append(f"correspondence failures: {rep.failures}")
    if not rep.brute_force_match:
        ok = False
        detail.append("brute-force scan mismatch")
    if not all(p.round_trip_t and p.round_trip_b for p in rep.pairs):
        ok = False
        detail.append("round trips")
    elapsed = time.monotonic() - t0
    _verdict("2 (correspondence)", ok and elapsed < 30.0, elapsed, "; ".join(detail))


def test_criterion_3_equivalence_corpus():
    t0 = time.monotonic()
    batch = corpus(2024, 200, predicate=admissible)
    core_disagreements = 0
    necessity_violations = 0
    alpha_mismatches = 0
    trace_gaps = 0
    galois_count = 0
    for beta in batch:
        rep = cross_check_equivalences(beta)  # raises on core disagreement
        galois_count += rep.galois
        trace_gaps += rep.trace_gap
        core = {rep.verdicts["coordinates"], rep.verdicts["psi_bijective"],
                rep.verdicts["separable_and_strong"]}
        if len(core) != 1:
            core_disagreements += 1
        if rep.galois and not rep.verdicts["trace_image"]:
            necessity_violations += 1
        alpha_ok = solve_partial_action_coordinates(beta) is not None
        if alpha_ok != rep.galois:
            alpha_mismatches += 1
        # any literal four-way disagreement must be exactly the documented
        # trace gap shape ((ix) true while the rest are false)
        if rep.verdicts["trace_image"] != rep.galois:
            assert rep.trace_gap and not rep.galois
    ok = (core_disagreements == 0 and necessity_violations == 0
          and alpha_mismatches == 0 and len(batch) >= 200)
    elapsed = time.monotonic() - t0
    _verdict("3 (equivalence corpus)", ok and elapsed < 300.0, elapsed,
             f"instances={len(batch)} galois={galois_count} "
             f"known-trace-gaps={trace_gaps} core-disagreements={core_disagreements}")


def test_criterion_3_trace_gap_is_real():
    """The pinned counterexample behind the trace-criterion deviation."""
    rep = cross_check_equivalences(trace_gap_fixture())
    assert not rep.galois and rep.trace_gap
    print("[criterion 3 note] literal four-way agreement is refuted by "
          "C2 on Z/5 x GF(9); see the decisions ledger")


def test_criterion_4_structural_invariants():
    t0 = time.monotonic()
    rng = random.Random(4242)
    batch = corpus(4242, 60, predicate=admissible)
    ok = True
    detail = []
    # A^beta = A^alpha everywhere, and G' is a group isomorphic to S/sigma
    for beta in batch:
        alpha = induce_partial_group_action(beta)
        inv = invariant_ring(beta)
        for g in range(alpha.S.n):
            iso = alpha.isos[g]
            for v in inv.gen_vectors:
                moved = iso.apply_vec(beta.A.mask_vec(v, iso.dom_support))
                kept = beta.A.mask_vec(v, iso.im_support)
                if moved != kept:
                    ok = False
                    detail.append("A^beta not alpha-fixed")
        if beta.A.size <= 4096:
            count = sum(1 for a in beta.A.elements()
                        if all(alpha.isos[g].apply(a.mask(alpha.isos[g].dom_support))
                               == a.mask(alpha.isos[g].im_support)
                               for g in range(alpha.S.n)))
            if count != inv.order:
                ok = False
                detail.append("A^alpha order differs from A^beta")
        verify_class_join_group(beta)
    # S_B beta-complete for 100 random subalgebras
    from semigalois.correspondence import is_beta_complete
    checked = 0
    for beta in batch:
        if checked >= 100:
            break
        if beta.A.size > 729:
            continue
        inv = invariant_ring(beta)
        pool = [a.vec() for a in beta.A.elements()]
        for _ in range(4):
            gens = list(inv.gen_vectors) + [rng.choice(pool)]
            B = Subalgebra(beta.A, gens).closure_under_mul()
            if not is_beta_complete(beta, compute_S_B(beta, B)):
                ok = False
                detail.append("S_B not beta-complete")
            checked += 1
    if checked < 100:
        ok = False
        detail.append(f"only {checked} subalgebras checked")
    # join least-upper-bound property on 1000 random compatible families
    families = 0
    while families < 1000:
        A = random_ring(rng, max_atoms=3)
        big = random_structured_iso(rng, A)
        if not big.matching:
            continue
        fam = []
        for _ in range(rng.randint(1, 3)):
            keep = [i for i in big.matching if rng.random() < 0.7]
            fam.append(type(big)(A, {i: big.matching[i] for i in keep},
                                 {i: big.twist[i] for i in keep}))
        join = isopu.join_sum(fam)
        if not all(isopu.natural_leq_iso(f, join) for f in fam):
            ok = False
            detail.append("join not an upper bound")
        universe = iso_pu_elements(A, max_count=5000) if A.size <= 1024 else [big]
        for ub in upper_bounds(fam, universe):
            if not isopu.natural_leq_iso(join, ub):
                ok = False
                detail.append("join not least")
        families += 1
    elapsed = time.monotonic() - t0
    _verdict("4 (structural invariants)", ok, elapsed,
             f"instances={len(batch)} subalgebras={checked} families={families}; "
             + "; ".join(detail))


def test_criterion_5_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    detail = []
    fixtures = [f9_cubed_fixture(), c2_swap_fixture(), b2_swap_fixture(),
                trace_gap_fixture()]
    for beta in fixtures:
        A = beta.A
        if A.size > 4096:
            continue
        elements = list(A.elements())
        for f in beta.isos:
            for g in beta.isos:
                comp = isopu.compose(f, g)
                for a in elements:
                    masked = a.mask(comp.dom_support)
                    if comp.apply(masked) != f.apply(g.apply(masked)):
                        ok = False
                        detail.append(f"composition oracle at {a!r}")
                        break
    # tensor orders vs the enumeration oracle for |B| <= 81
    rng = random.Random(5)
    cases = 0
    while cases < 10:
        A = random_ring(rng, max_atoms=2)
        if A.size > 81:
            continue
        prime = Subalgebra(A, [A.one_vec]).closure_under_mul()
        tensor = TensorPresentation(A, prime)
        moduli = list(tensor.pres.moduli)
        rel = tensor.pres.relations
        cols = [rel.column(j) for j in range(rel.shape[1])]
        if tensor.order() != quotient_order_by_enumeration(moduli, cols, limit=600_000):
            ok = False
            detail.append(f"tensor order mismatch on {A!r}")
        cases += 1
    elapsed = time.monotonic() - t0
    _verdict("5 (oracle equivalence)", ok, elapsed, "; ".join(detail))


def test_criterion_6_zero_case():
    t0 = time.monotonic()
    ok = True
    detail = []
    rng = random.Random(6)
    cases = [b2_table()]
    while len(cases) < 50:
        cases.append(random_primitive_semigroup(rng))
    cases += [beta.S for seed in (2408, 3, 5, 7) for beta in corpus(seed, 100, with_zero=True)
              if zc.is_primitive(beta.S)]
    for S in cases:
        G, order = zc.primitive_to_groupoid(S)
        back = zc.groupoid_to_primitive(G)
        relabel = order + [S.zero]  # the nonzero elements in order, then the zero
        if relabel[back.zero] != S.zero or any(relabel[back.table[i][j]] != S.table[s][t]
                                               for i, s in enumerate(relabel)
                                               for j, t in enumerate(relabel)):
            ok = False
            detail.append("groupoid round trip")
        classes, proj = zc.tau_partition(S)
        if zc.is_0_e_unitary(S) and zc.is_categorical_at_zero(S):
            for s in range(S.n):
                for t in range(S.n):
                    if (proj[s] == proj[t]) != zc.strongly_compatible(S, s, t):
                        ok = False
                        detail.append("tau differs from strong compatibility")
    conversions = 0
    for gamma in groupoid_action_corpus(606, 20):
        alpha = zc.groupoid_action_to_semigroup(gamma)
        gamma2, _ = zc.semigroup_action_to_groupoid(alpha)
        if gamma2.S.product != gamma.S.product or list(gamma2.isos) != list(gamma.isos):
            ok = False
            detail.append("gamma round trip")
        if not zc.convert_round_trip_ok(alpha):
            ok = False
            detail.append("alpha round trip")
        conversions += 1
    rep = zc.verify_zero_correspondence(b2_swap_fixture(), brute_force_subalgebras=True)
    if not (rep.bijective and rep.brute_force_match):
        ok = False
        detail.append(f"B2 correspondence: {rep.failures}")
    elapsed = time.monotonic() - t0
    _verdict("6 (zero case)", ok, elapsed,
             f"primitive={len(cases)} conversions={conversions}; " + "; ".join(detail))


def test_criterion_7_scalar_extension():
    t0 = time.monotonic()
    ok = True
    detail = []
    guard = 1 << 14

    def eligible(b):
        return (admissible(b)
                and invariant_ring(b).order * b.A.size <= guard
                and is_galois(b))

    batch = corpus(777, 19, predicate=eligible)
    batch.append(c2_swap_fixture())
    assert len(batch) >= 20
    diag_cases = 0
    for beta in batch:
        inv = invariant_ring(beta)
        ext = extend_scalars_by_loops(beta)  # R = A^beta, inclusion map
        if not scalar_extension_is_galois_by_loops(ext):
            ok = False
            detail.append("R = invariants case failed")
        if inv.order == 3 and beta.A.exponent % 3 == 0 and 9 * beta.A.size <= guard:
            R = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
            ext2 = extend_scalars_by_loops(beta, R, [R.from_vec(R.one_vec)])
            if not scalar_extension_is_galois_by_loops(ext2):
                ok = False
                detail.append("F3xF3-over-diagonal case failed")
            diag_cases += 1
    if diag_cases < 1:
        ok = False
        detail.append("no F3xF3-over-diagonal case exercised")
    elapsed = time.monotonic() - t0
    _verdict("7 (scalar extension)", ok, elapsed,
             f"instances={len(batch)} diagonal-cases={diag_cases}; " + "; ".join(detail))
