"""Every Galois system solved one orbit at a time, against the whole system.

The orbits of the atom maps cut A into blocks A e_O.  The split routes
(tensor, coordinates, PA and psi, separability) are compared with the
whole-system routes frozen in `oracles`, on two seeded corpora and on
multi-orbit instances, and the orbit indicators are checked to be the
primitive idempotents of A^beta by enumeration.
"""

import math
import random

import pytest

from semigalois import galois as gl
from semigalois.actions import invariant_ring, is_injective, validate_action
from semigalois.corpus import (c2_table, corpus, f9_cubed_fixture, s7_monoid, trace_gap_fixture)
from semigalois.correspondence import enumerate_subalgebras_over
from semigalois.rings import (Atom, Block, FiniteRing, NotSubring, RingError, StructuredIso,
                              Subalgebra)
from semigalois.semigroups import is_e_unitary
from oracles import (check_psi_images_on_orbits, element_product, is_separable_whole,
                     joined_tensor_lattice, joined_tensor_vector, psi_check_whole,
                     solve_coordinates_whole, verify_idempotent_by_kron, whole_full_tensor)


def admissible(b):
    return (b.S.zero is None and is_e_unitary(b.S) and is_injective(b)
            and b.all_ideals_nonzero())


def c2_swap(atoms):
    """C2 swapping the two copies of each atom in atoms[0]^2 x atoms[1]^2 x ..."""
    A = FiniteRing([a for a in atoms for _ in range(2)])
    m = len(A.atoms)
    return validate_action(c2_table(), A, [StructuredIso.identity_on(A, range(m)),
                                           StructuredIso(A, {i: i ^ 1 for i in range(m)}, {})])


def s7_on(atom):
    """The 7-element monoid on atom^3 (GF(p^k), k even): orbits {0, 2} and {1}."""
    S = s7_monoid()
    A = FiniteRing([atom] * 3)
    tw = atom.k // 2
    by_name = {
        "1": StructuredIso.identity_on(A, {0, 1, 2}),
        "s": StructuredIso(A, {0: 2, 1: 1}, {1: tw}),
        "s'": StructuredIso(A, {2: 0, 1: 1}, {1: -tw}),
        "t": StructuredIso(A, {1: 1}, {1: tw}),
        "s*t": StructuredIso.identity_on(A, {1}),
        "s*s'": StructuredIso.identity_on(A, {1, 2}),
        "s'*s": StructuredIso.identity_on(A, {0, 1}),
    }
    return validate_action(S, A, [by_name[S.names[i]] for i in range(S.n)])


MULTI_ORBIT = {
    "c2_gf8^2xgf4^2": lambda: c2_swap([Atom.gf(2, 3), Atom.gf(2, 2)]),
    "s7_gf4^3": lambda: s7_on(Atom.gf(2, 2)),
    "c2_(gf4xz3xz4)^2": lambda: c2_swap([Atom.gf(2, 2), Atom.zmod(3), Atom.zmod(2, 2)]),
    "s7_gf9^3": f9_cubed_fixture,
    "trace_gap": trace_gap_fixture,
}
CORPORA = {seed: corpus(seed, 40, predicate=admissible) for seed in (3, 2408)}


def _split_instances():
    cases = [(name, make()) for name, make in MULTI_ORBIT.items()]
    for seed, batch in CORPORA.items():
        cases += [(f"corpus{seed}_{i}", beta) for i, beta in enumerate(batch)]
    return cases


def test_the_corpora_and_rungs_hold_many_multi_orbit_instances():
    multi = [name for name, beta in _split_instances() if len(beta.orbits) > 1]
    assert set(MULTI_ORBIT) <= set(multi) and len(multi) >= 40
    assert [b.atoms for b in MULTI_ORBIT["s7_gf4^3"]().orbits] == [(0, 2), (1,)]


@pytest.mark.parametrize("name,beta", _split_instances(), ids=[n for n, _ in _split_instances()])
def test_split_routes_match_the_whole_routes(name, beta):
    inv = invariant_ring(beta)
    tensors = gl._full_tensor(beta)
    whole = whole_full_tensor(beta)
    assert [block.atoms for block, _ in tensors] == [block.atoms for block in beta.orbits]
    assert math.prod(tensor.order() for _, tensor in tensors) == whole.order()
    # the canonical basis, put together
    assert joined_tensor_lattice(tensors, whole) == whole.pres.lattice

    for isos, rhs in (gl._galois_system(beta), gl._partial_action_system(beta)):
        assert gl._solve_coordinates(beta, isos, rhs) == solve_coordinates_whole(beta, isos, rhs)

    psi = gl.psi_check(beta)
    t_order, pa_order, image_order, kernel_witness, cokernel_witness = psi_check_whole(beta)
    assert (psi.tensor_order, psi.pa_order, psi.image_order) == (t_order, pa_order, image_order)
    assert psi.cokernel_witness == cokernel_witness
    assert kernel_witness is None and image_order == t_order  # psi is injective

    full = Subalgebra.full(beta.A)
    split, reference = gl.is_separable(full, inv, tensors=tensors), is_separable_whole(full, inv)
    assert (split is None) == (reference is None)
    if split is not None:
        z = joined_tensor_vector(tensors, whole, dict(enumerate(split[1])))
        assert verify_idempotent_by_kron(whole, z)


@pytest.mark.parametrize("name", ["s7_gf4^3", "c2_(gf4xz3xz4)^2", "trace_gap"])
def test_split_separability_matches_the_whole_solve_on_every_subalgebra(name):
    """Each subalgebra over the invariants, as the brute-force scan meets them."""
    beta = MULTI_ORBIT[name]()
    inv = invariant_ring(beta)
    verdicts = []
    for B in enumerate_subalgebras_over(beta, inv):
        split = gl.is_separable(B, inv, blocks=beta.orbits)
        assert (split is None) == (is_separable_whole(B, inv) is None)
        verdicts.append(split is not None)
    assert True in verdicts


def _primitive_idempotents(sub):
    """The minimal nonzero idempotents among the elements of `sub`, by enumeration."""
    idems = [e for e in sub.elements() if any(e.vec()) and element_product(e, e) == e]
    return {e.vec() for e in idems
            if not any(f != e and element_product(f, e) == f for f in idems)}


@pytest.mark.parametrize("seed", [5, 6])
def test_orbit_indicators_are_the_primitive_idempotents_of_the_invariants(seed):
    small = corpus(seed, 40, predicate=lambda b: b.S.zero is None and b.A.size <= 400)
    small += [MULTI_ORBIT["s7_gf4^3"](), MULTI_ORBIT["trace_gap"]()]
    for beta in small:
        got = {block.indicator() for block in beta.orbits}
        assert got == _primitive_idempotents(invariant_ring(beta))
        atoms = sorted(a for block in beta.orbits for a in block.atoms)
        assert atoms == list(range(len(beta.A.atoms)))


def test_block_maps_match_the_whole_ring():
    beta = MULTI_ORBIT["c2_(gf4xz3xz4)^2"]()
    A = beta.A
    rng = random.Random(1)
    inv = invariant_ring(beta)
    assert [b.atoms for b in beta.orbits] == [(0, 1), (2, 3), (4, 5)]
    for block in beta.orbits:
        assert block.ring.atoms == tuple(A.atoms[a] for a in block.atoms)
        part = block.subalgebra(inv)
        restricted = [block.restrict(g) for g in inv.gen_vectors if any(block.restrict(g))]
        assert part == Subalgebra(block.ring, restricted) and part.is_subalgebra()
        for _ in range(20):
            vec = tuple(rng.randrange(m) for m in A.coord_moduli)
            masked = A.mask_vec(vec, block.atoms)
            assert block.extend(block.restrict(vec)) == masked
            for iso in beta.isos:
                assert block.extend(block.iso(iso).apply_vec(block.restrict(vec))) == \
                    iso.apply_vec(masked)
    whole = Block(A, range(len(A.atoms)))
    assert whole.ring is A and whole.iso(beta.isos[1]) is beta.isos[1]


def test_a_block_must_be_closed_under_the_maps_and_lie_in_r():
    beta = MULTI_ORBIT["c2_(gf4xz3xz4)^2"]()
    A = beta.A
    with pytest.raises(RingError):
        Block(A, [0, 2, 3]).iso(beta.isos[1])
    full = Subalgebra.full(A)
    inv = invariant_ring(beta)
    with pytest.raises(NotSubring):
        gl.orbit_tensors(full, inv, [Block(A, [0]), Block(A, [1, 2, 3, 4, 5])])
    with pytest.raises(ValueError):
        gl.orbit_tensors(full, inv, beta.orbits[:2])
    prime = Subalgebra(A, [A.one().vec()]).closure_under_mul()
    with pytest.raises(NotSubring):
        gl.orbit_tensors(full, prime, beta.orbits)


def test_psi_image_vector_matches_element_route_on_a_multi_orbit_instance():
    check_psi_images_on_orbits(MULTI_ORBIT["c2_(gf4xz3xz4)^2"]())


def test_kernel_witness_is_a_nonzero_element_that_psi_kills():
    """Over the span of the orbit indicators, a base smaller than A^beta, the
    tensor outgrows psi's image, so psi has a kernel.  Over A^beta psi is
    injective (A e_O is free over A^beta e_O), so psi_check reports no
    witness: it raises EquivalenceViolation.  Those orbit tensors are
    planted as the ones beta remembers, since psi reads no others."""
    beta = MULTI_ORBIT["c2_(gf4xz3xz4)^2"]()
    A = beta.A
    full = Subalgebra.full(A)
    psi = gl.psi_check(beta)
    assert psi.image_order == psi.tensor_order
    base = Subalgebra(A, [block.indicator() for block in beta.orbits]).closure_under_mul()
    tensors = beta.facts["full_tensor"] = gl.orbit_tensors(full, base, beta.orbits)
    assert math.prod(tensor.order() for _, tensor in tensors) > psi.tensor_order
    with pytest.raises(gl.EquivalenceViolation, match="psi kills part of the tensor on orbit 0"):
        gl.psi_check(beta)
