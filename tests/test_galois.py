import operator
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from fixtures import (admissible, c2_fixed_atom_fixture, c2_swap, chain_semilattice_fixture,
                      collapsing_semilattice_fixture, trace_gap_fixture)
from semigalois import galois as gl
from semigalois.actions import invariant_ring, validate_action
from semigalois.corpus import b2_swap_fixture, c2_swap_fixture, corpus, f9_cubed_fixture
from semigalois.correspondence import enumerate_subalgebras_over
from semigalois.instance import parse_instance
from semigalois.rings import (Atom, FiniteRing, NotSubring, StructuredIso, Subalgebra,
                              TensorPresentation)
from oracles import (algebra_generators_by_adjoining, block_vector, check_psi_images_on_orbits,
                     is_separable_whole, joined_tensor_vector, pure,
                     separability_idempotent_on_orbits, verify_idempotent_by_kron,
                     whole_full_tensor)
from test_bench_library_calls import workloads
from test_correspondence import SCAN_CASES

REPO = Path(__file__).resolve().parent.parent


def _trace_dual_idempotent(tensor):
    """sum_i x_i (x) y_i over the trace-dual pairs of the tensor's ring, on
    every generator pair of the tensor (`oracles.pure`)."""
    terms = [pure(tensor, x, y) for x, y in gl._trace_dual_pairs(tensor.ring)]
    return tuple(map(sum, zip(*terms)))


def _diagonal_blocks_pass(tensor):
    """Each atom's part of the separability idempotent passes the block check
    in the atom's diagonal block of `tensor`."""
    return all(gl.verify_separability_idempotent(tensor.blocks[a][a], atom,
                                                 gl.separability_idempotent_from_coordinates(atom))
               for a, atom in enumerate(tensor.ring.atoms))


def test_galois_rhs():
    beta = f9_cubed_fixture()
    S, A = beta.S, beta.A
    for s in range(S.n):
        want = beta.ideal_one(s) if s in S.idempotents else A.zero_vec
        assert gl.galois_rhs(beta, s) == want


def test_coordinates_on_c2_swap_match_hand_computation():
    beta = c2_swap_fixture()
    coords = gl.solve_galois_coordinates(beta)
    assert coords is not None
    A = beta.A
    total_id = A.from_vec(A.zero_vec)
    total_g = A.from_vec(A.zero_vec)
    for x, y in coords:
        x, y = A.from_vec(x), A.from_vec(y)
        total_id = total_id + x * y
        total_g = total_g + x * beta.isos[1].apply(y)
    assert total_id == A.from_vec(A.one_vec)
    assert total_g == A.from_vec(A.zero_vec)
    # the hand-picked pair verifies too
    hand = [((1, 0), (1, 0)), ((0, 1), (0, 1))]
    assert gl.verify_coordinates(beta, hand)


def test_coordinates_exist_on_fixture_and_semilattice():
    assert gl.solve_galois_coordinates(f9_cubed_fixture()) is not None
    beta = chain_semilattice_fixture()
    coords = gl.solve_galois_coordinates(beta)
    assert coords is not None
    # x = y = 1 works for semilattice actions
    assert gl.verify_coordinates(beta, [(beta.A.one_vec, beta.A.one_vec)])


def test_coordinates_absent_on_non_galois():
    assert gl.solve_galois_coordinates(c2_fixed_atom_fixture()) is None
    assert gl.solve_galois_coordinates(trace_gap_fixture()) is None


def test_trace_criterion():
    assert gl.is_galois_trace_criterion(c2_swap_fixture())
    assert gl.is_galois_trace_criterion(f9_cubed_fixture())
    assert gl.is_galois_trace_criterion(chain_semilattice_fixture())
    assert not gl.is_galois_trace_criterion(c2_fixed_atom_fixture())
    # the documented gap: trace image equality without Galois
    assert gl.is_galois_trace_criterion(trace_gap_fixture())


def test_pa_beta_s_orders():
    assert gl.psi_check(c2_swap_fixture()).pa_order == 81
    # independent hand count: a_1, a_s, free e1 part of a_s'
    assert gl.psi_check(f9_cubed_fixture()).pa_order == 729 * 81 * 9


def test_psi_check_values():
    rep = gl.psi_check(c2_swap_fixture())
    assert rep.bijective and rep.pa_order == rep.image_order == 81
    bad = gl.psi_check(trace_gap_fixture())
    assert not bad.bijective
    assert bad.image_order == 405 and bad.pa_order == 2025
    assert bad.cokernel_witness is not None


def test_psi_identity_semigroup():
    from semigalois.actions import validate_action
    from semigalois.rings import StructuredIso
    from semigalois.semigroups import validate_table
    S = validate_table([[0]], names=["1"])
    A = FiniteRing([Atom.zmod(3)])
    beta = validate_action(S, A, [StructuredIso.identity_on(A, {0})])
    rep = gl.psi_check(beta)
    assert rep.bijective and rep.image_order == 3


def test_psi_check_refuses_a_declared_zero():
    """psi is read over S/sigma, which a semigroup with zero does not have:
    on b2_f3f3 `psi_check` raises ZeroForbidden before it reads a class
    join (it read the tau-class joins, the zero alone, once `class_joins`
    served both), and `cross_check_equivalences` still refuses first."""
    from semigalois import actions
    from semigalois.semigroups import ZeroForbidden
    beta = parse_instance(REPO / "instances" / "b2_f3f3.sgi")
    with pytest.raises(ZeroForbidden):
        gl.psi_check(beta)
    assert actions.class_joins.__name__ not in beta.facts
    with pytest.raises(gl.PreconditionFail, match="zero"):
        gl.cross_check_equivalences(beta)


def test_compute_s_b_cases():
    beta = f9_cubed_fixture()
    A = beta.A
    inv = invariant_ring(beta)
    assert gl.compute_S_B(beta, inv).members == frozenset(range(beta.S.n))
    full = Subalgebra.full(A)
    assert gl.compute_S_B(beta, full).members == frozenset(beta.S.idempotents)
    names = {beta.S.names[i]: i for i in range(beta.S.n)}
    middle = Subalgebra(A, [
        A.element([(1, 0), (0, 0), (0, 0)]).vec(),
        A.element([(0, 1), (0, 0), (0, 0)]).vec(),
        A.element([(0, 0), (1, 0), (0, 0)]).vec(),
        A.element([(0, 0), (0, 0), (1, 0)]).vec(),
        A.element([(0, 0), (0, 0), (0, 1)]).vec(),
    ])
    assert middle.order == 243
    assert gl.compute_S_B(beta, middle).members == \
        frozenset(beta.S.idempotents) | {names["t"]}


def test_compute_s_b_rejects_non_subalgebra():
    beta = c2_swap_fixture()
    A = beta.A
    half = Subalgebra(A, [A.element([1, 0]).vec()])
    with pytest.raises(gl.NotSubalgebra):
        gl.compute_S_B(beta, half)


def test_beta_strong_cases():
    beta = c2_swap_fixture()
    ok, fail = gl.is_beta_strong(beta, Subalgebra.full(beta.A))
    assert ok and fail is None
    bad = c2_fixed_atom_fixture()
    ok2, fail2 = gl.is_beta_strong(bad, Subalgebra.full(bad.A))
    assert not ok2 and fail2 is not None
    # B = invariants: S_B = S, vacuously strong
    inv = invariant_ring(beta)
    ok3, _ = gl.is_beta_strong(beta, inv)
    assert ok3


def test_beta_strong_excludes_non_arising_algebra():
    """F9(e1+e3) + F9 e2 is separable but not strong: (s, ss') sees e3."""
    beta = f9_cubed_fixture()
    A = beta.A
    B = Subalgebra(A, [
        A.element([(1, 0), (0, 0), (1, 0)]).vec(),
        A.element([(0, 1), (0, 0), (0, 1)]).vec(),
        A.element([(0, 0), (1, 0), (0, 0)]).vec(),
        A.element([(0, 0), (0, 1), (0, 0)]).vec(),
    ])
    assert B.order == 81 and B.is_subalgebra()
    inv = invariant_ring(beta)
    assert is_separable_whole(B, inv) is not None
    ok, fail = gl.is_beta_strong(beta, B)
    assert not ok


def test_separability_idempotent_for_f3f3_over_diagonal():
    A = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    diag = Subalgebra(A, [A.one_vec])
    assert is_separable_whole(Subalgebra.full(A), diag) is not None
    tensor = TensorPresentation(A, diag)
    # e = (1,0)(x)(1,0) + (0,1)(x)(0,1) satisfies both equations, and its part
    # on each atom is 1 (x) 1 in the atom's diagonal block
    e1, e2 = A.element([1, 0]).vec(), A.element([0, 1]).vec()
    hand = tuple(a + b for a, b in zip(pure(tensor, e1, e1), pure(tensor, e2, e2)))
    assert verify_idempotent_by_kron(tensor, hand)
    assert hand == tuple(map(sum, zip(*(block_vector(tensor, a, a, (1,)) for a in range(2)))))
    assert all(gl.verify_separability_idempotent(tensor.blocks[a][a], A.atoms[a], (1,)) for a in range(2))


def test_trivial_separability():
    A = FiniteRing([Atom.zmod(3)])
    assert is_separable_whole(Subalgebra.full(A), Subalgebra.full(A)) is not None


def test_non_separable_case():
    # Z/9 over its prime subring Z/3*... the prime subring of Z/9 is Z/9
    # itself, so use GF(4) x GF(4) over the diagonal GF(2): separable; a
    # genuinely non-separable pair: Z/4 over the image of Z/2? not a unital
    # subring.  Use A = Z/2[x]-free? atoms exclude it; instead check the
    # solver honestly fails where no idempotent exists: F_2 x F_2 over F_2
    # diagonal in characteristic 2 IS separable, so assert solvability.
    A = FiniteRing([Atom.zmod(2), Atom.zmod(2)])
    diag = Subalgebra(A, [A.one_vec])
    assert is_separable_whole(Subalgebra.full(A), diag) is not None


def test_cross_check_on_corpus_slice():
    for beta in corpus(55, 40, predicate=admissible):
        rep = gl.cross_check_equivalences(beta)
        core = {rep.verdicts["coordinates"], rep.verdicts["psi_bijective"],
                rep.verdicts["separable_and_strong"]}
        assert len(core) == 1
        if rep.galois:
            assert rep.verdicts["trace_image"]


def test_cross_check_preconditions():
    from fixtures import collapsing_semilattice_fixture
    from semigalois.corpus import b2_swap_fixture
    with pytest.raises(gl.PreconditionFail):
        gl.cross_check_equivalences(collapsing_semilattice_fixture())
    with pytest.raises(gl.PreconditionFail):
        gl.cross_check_equivalences(b2_swap_fixture())


def test_trace_gap_is_flagged_not_fatal():
    rep = gl.cross_check_equivalences(trace_gap_fixture())
    assert not rep.galois and rep.trace_gap
    assert rep.verdicts["trace_image"] and not rep.verdicts["coordinates"]


def _separability_pairs(case):
    """(B, R) pairs: every subalgebra over the invariants of a scan action, or fixed pairs."""
    if case in SCAN_CASES:
        beta = SCAN_CASES[case]()
        base = invariant_ring(beta)
        return [(B, base) for B in enumerate_subalgebras_over(beta, base)]
    pairs = []
    for beta in (trace_gap_fixture(), c2_fixed_atom_fixture(), f9_cubed_fixture()):
        pairs.append((Subalgebra.full(beta.A), invariant_ring(beta)))
    for atoms in ([Atom.zmod(3), Atom.zmod(3)], [Atom.zmod(2), Atom.zmod(2)], [Atom.zmod(3)]):
        A = FiniteRing(atoms)
        pairs.append((Subalgebra.full(A), Subalgebra(A, [A.one_vec])))
    beta = f9_cubed_fixture()
    A = beta.A
    pairs.append((Subalgebra(A, [A.element([(1, 0), (0, 0), (1, 0)]).vec(),
                                 A.element([(0, 1), (0, 0), (0, 1)]).vec(),
                                 A.element([(0, 0), (1, 0), (0, 0)]).vec(),
                                 A.element([(0, 0), (0, 1), (0, 0)]).vec()]),
                  invariant_ring(beta)))
    return pairs


@pytest.mark.parametrize("case", ["c2_gf4^2", "s7_gf4^3", "c3_z4^3", "fixed"])
def test_separability_on_algebra_generators_matches_all_generators(case):
    """The solve over algebra generators finds an idempotent that passes the
    check over every additive generator, so it solves the all-generator
    system; when it finds none, that larger system has none either.  For
    B = A it finds one over every R, and so does the trace-dual pairs'
    idempotent (`galois.is_separable`), which passes the Kronecker check on
    every generator pair and the block check on each diagonal block."""
    verdicts = []
    for B, R in _separability_pairs(case):
        chosen = algebra_generators_by_adjoining(B, R)
        assert set(chosen) <= set(B.gen_vectors)
        assert Subalgebra(B.ring, list(R.gen_vectors) + chosen).closure_under_mul() == B
        got = is_separable_whole(B, R)
        if got is not None:
            assert verify_idempotent_by_kron(*got)
        if B == Subalgebra.full(B.ring):
            assert got is not None
            tensor = TensorPresentation(B.ring, R)
            assert _diagonal_blocks_pass(tensor)
            assert verify_idempotent_by_kron(tensor, _trace_dual_idempotent(tensor))
        verdicts.append(got is not None)
    if case == "c3_z4^3":  # Z/4 + 2A and its kin are not separable
        assert True in verdicts and False in verdicts


def test_idempotent_check_rejects_what_the_kron_check_rejects():
    """The block check on each diagonal block decides the same equations as
    the Kronecker matrices, on the ring's tensor taken as one and on the
    whole tensor from the orbit tensors: every entry of each e_a bumped by
    one, the other parts left whole."""
    # C2 swapping GF(4)^2 x (Z/3)^2 in pairs: two orbits of two atoms, so on
    # each orbit some generator pairs multiply to zero
    for beta in (f9_cubed_fixture(), c2_swap([Atom.gf(2, 2), Atom.zmod(3)])):
        inv, whole = invariant_ring(beta), whole_full_tensor(beta)
        one = TensorPresentation(beta.A, inv)
        tensors = gl._full_tensor(beta)
        assert len(tensors) == 2
        e = _trace_dual_idempotent(one)
        assert separability_idempotent_on_orbits([(None, one)]) == [e]
        parts = separability_idempotent_on_orbits(tensors)
        routes = [(one, one, lambda bump: tuple(map(operator.add, e, bump)))]
        for o, (_, tensor) in enumerate(tensors):
            def placed(bump, o=o):
                moved = {**dict(enumerate(parts)), o: tuple(map(operator.add, parts[o], bump))}
                return joined_tensor_vector(tensors, whole, moved)
            routes.append((tensor, whole, placed))
        for tensor, reference, placed in routes:
            for a, atom in enumerate(tensor.ring.atoms):
                e_a = gl.separability_idempotent_from_coordinates(atom)
                for i in range(len(e_a)):
                    unit = [int(j == i) for j in range(len(e_a))]
                    z = tuple(map(operator.add, e_a, unit))
                    assert gl.verify_separability_idempotent(tensor.blocks[a][a], atom, z) == \
                        verify_idempotent_by_kron(reference, placed(block_vector(tensor, a, a, unit)))


def _separability_cases():
    """The seeded corpora, plain and with a zero, the benchmark's ladder and
    brute-force rungs with the ladder's probe, and the fixtures."""
    cases = {f"corpus2408_{i}": beta for i, beta in enumerate(corpus(2408, 300))}
    cases.update((f"zero2408_{i}", beta)
                 for i, beta in enumerate(corpus(2408, 200, with_zero=True)))
    rungs = workloads.ladder_rungs() + [workloads.ladder_probe()] + workloads.brute_rungs()
    cases.update((f"rung_{i}", rung.beta) for i, rung in enumerate(rungs))
    cases.update((f.__name__, f()) for f in (b2_swap_fixture, c2_fixed_atom_fixture, c2_swap_fixture,
                                             chain_semilattice_fixture, collapsing_semilattice_fixture,
                                             f9_cubed_fixture, trace_gap_fixture))
    return cases


def test_trace_dual_idempotent_verifies_where_the_whole_solve_finds_one():
    """On every case the trace-dual pairs' idempotent passes both defining
    equations on every diagonal block of the orbit tensors, and the whole
    solve over A^beta finds an idempotent too: A is separable over A^beta
    throughout, Galois or not, with a zero or without."""
    for name, beta in _separability_cases().items():
        assert gl.is_separable(beta) is True, name
        assert all(_diagonal_blocks_pass(tensor) for _, tensor in gl._full_tensor(beta)), name
        assert is_separable_whole(Subalgebra.full(beta.A), invariant_ring(beta)) is not None, name


@pytest.mark.parametrize("instance", ["c2_swap", "trace_gap_c2"])
def test_a_perturbed_trace_dual_member_raises(monkeypatch, instance):
    """One y_u moved by its own x^u, here y_0 by 1, changes m(e_a) by
    (x^u)^2, which is not zero on the atom: the block check fails, and
    `is_separable` raises.  The instance is parsed here, so its atoms, and
    the tensor blocks they keep, are its own."""
    beta = parse_instance(REPO / "instances" / f"{instance}.sgi")
    real = Atom.trace_dual

    def perturbed(atom):
        first, *rest = real(atom)
        return (tuple(v + (q == 0) for q, v in enumerate(first)), *rest)

    monkeypatch.setattr(Atom, "trace_dual", perturbed)
    with pytest.raises(gl.CertificateMismatch, match="trace-dual separability idempotent"):
        gl.is_separable(beta)


@pytest.mark.parametrize("instance", sorted(p.name for p in (REPO / "instances").glob("*.sgi")))
def test_psi_image_vector_matches_element_route(instance):
    check_psi_images_on_orbits(parse_instance(REPO / "instances" / instance))


def test_cross_check_builds_one_tensor(monkeypatch):
    """A (x)_{A^beta} A is built once per cross-check: one `TensorPresentation`
    per orbit, on the orbit's block ring."""
    builds = []
    original = TensorPresentation.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TensorPresentation, "__init__", counted)
    for beta in (c2_swap_fixture(), f9_cubed_fixture(), trace_gap_fixture()):
        builds.clear()
        rep = gl.cross_check_equivalences(beta)
        assert [args[0] for args in builds] == [block.ring for block in beta.orbits], \
            rep.verdicts


def test_separability_idempotent_from_coordinates():
    """e_a on each atom is the sum of x (x) y over the coordinates on that
    atom, read in the atom's diagonal block, and passes the block check."""
    beta = f9_cubed_fixture()
    coords = gl.solve_galois_coordinates(beta)
    tensor = TensorPresentation(beta.A, invariant_ring(beta))
    for a, atom in enumerate(beta.A.atoms):
        on_a = [pure(tensor, x, y) for x, y in coords if beta.A.coord_atom[x.index(1)] == a]
        e_a = gl.separability_idempotent_from_coordinates(atom)
        assert tuple(map(sum, zip(*on_a))) == block_vector(tensor, a, a, e_a)
        assert gl.verify_separability_idempotent(tensor.blocks[a][a], atom, e_a)
    assert len(gl._full_tensor(beta)) == len(beta.orbits) == 2


def test_scalar_extension_retest():
    from oracles import extend_scalars_by_loops, scalar_extension_is_galois_by_loops
    beta = c2_swap_fixture()
    R = FiniteRing([Atom.zmod(3)])
    ext = extend_scalars_by_loops(beta, R, [R.from_vec(R.one_vec)])
    assert scalar_extension_is_galois_by_loops(ext)
    R2 = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    ext2 = extend_scalars_by_loops(beta, R2, [R2.from_vec(R2.one_vec)])
    assert scalar_extension_is_galois_by_loops(ext2)


def test_psi_on_trivial_c2_action_is_not_surjective():
    """C2 acting trivially (valid but not injective): |tensor| = 3, |PA| = 9."""
    from semigalois.actions import validate_action
    from semigalois.rings import StructuredIso
    from semigalois.semigroups import validate_table
    S = validate_table([[0, 1], [1, 0]], names=["1", "g"])
    A = FiniteRing([Atom.zmod(3)])
    ident = StructuredIso.identity_on(A, {0})
    beta = validate_action(S, A, [ident, ident])
    rep = gl.psi_check(beta)
    assert not rep.bijective
    assert rep.pa_order == 9 and rep.image_order == 3


def test_separability_rejects_non_unital_base():
    """Z/4 over the ideal 2*Z/4: not a unital subring, refused."""
    A = FiniteRing([Atom.zmod(2, 2)])
    ideal = Subalgebra(A, [A.element([2]).vec()])
    with pytest.raises(NotSubring):
        TensorPresentation(A, ideal)


def test_scalar_extension_f9_over_fixture_base():
    """GF(9) as an algebra over the fixture's invariants, via the projection
    that kills the middle component: the extension is Galois again."""
    from oracles import extend_scalars_by_loops, scalar_extension_is_galois_by_loops
    beta = f9_cubed_fixture()
    inv = invariant_ring(beta)
    R = FiniteRing([Atom.gf(3, 2, (1, 0, 1))])
    images = []
    for g in inv.generators():
        c = g.comps
        if c == ((1, 0), (0, 0), (1, 0)):
            images.append(R.from_vec(R.one_vec))
        elif c == ((0, 1), (0, 0), (0, 1)):
            images.append(R.element([(0, 1)]))
        elif c == ((0, 0), (1, 0), (0, 0)):
            images.append(R.from_vec(R.zero_vec))
        else:
            raise AssertionError(f"unexpected generator {g!r}")
    ext = extend_scalars_by_loops(beta, R, images)
    assert ext.pres.order() == 81
    assert scalar_extension_is_galois_by_loops(ext)


_OPTIMIZED_PROBE = textwrap.dedent("""
    import sys
    from semigalois import galois as gl
    from semigalois.corpus import c2_swap_fixture
    if __debug__:
        sys.exit(3)
    setattr(gl, sys.argv[1], lambda *args, **kwargs: False)
    beta = c2_swap_fixture()
    try:
        if sys.argv[1] == "verify_coordinates":
            gl.solve_galois_coordinates(beta)
        else:
            gl.is_separable(beta)
    except gl.CertificateMismatch:
        sys.exit(0)
    sys.exit(1)
""")


@pytest.mark.parametrize("verifier", ["verify_coordinates", "verify_separability_idempotent"])
def test_certificate_reverification_survives_optimize(verifier):
    """Under python -O a failing re-verification still raises."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_PROBE, verifier],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()


_OPTIMIZED_TWO_ORBIT_PROBE = textwrap.dedent("""
    import sys
    from semigalois import galois as gl
    from semigalois.actions import validate_action
    from semigalois.corpus import c2_table
    from semigalois.rings import Atom, FiniteRing, StructuredIso
    if __debug__:
        sys.exit(3)
    A = FiniteRing([Atom.gf(2, 2), Atom.gf(2, 2), Atom.zmod(3), Atom.zmod(3)])
    beta = validate_action(c2_table(), A, [StructuredIso.identity_on(A, range(4)),
                                           StructuredIso(A, {0: 1, 1: 0, 2: 3, 3: 2}, {})])
    if len(beta.orbits) != 2 or len(gl._full_tensor(beta)) != 2:
        sys.exit(4)
    setattr(gl, sys.argv[1], lambda *args, **kwargs: False)
    try:
        if sys.argv[1] == "verify_coordinates":
            gl.solve_galois_coordinates(beta)
        else:
            gl.is_separable(beta)
    except gl.CertificateMismatch:
        sys.exit(0)
    sys.exit(1)
""")


@pytest.mark.parametrize("verifier", ["verify_coordinates", "verify_separability_idempotent"])
def test_assembled_certificate_reverification_survives_optimize(verifier):
    """Under python -O a failing global re-verification of a certificate
    assembled from two orbit blocks still raises."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_TWO_ORBIT_PROBE, verifier],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
