"""Every Galois system solved one orbit at a time, against the whole system.

The orbits of the atom maps cut A into blocks A e_O.  The split routes
(tensor, PA and psi, the separability idempotent), and the coordinate
criterion's verdicts, are compared with the whole-system routes frozen in `oracles`,
by the check test_free_pairs.py also makes
(`check_orbit_routes_against_whole`), on two seeded
corpora and on multi-orbit instances, and the orbit indicators are checked
to be the primitive idempotents of A^beta by enumeration.
"""

import math
import random
import sys
from pathlib import Path

import pytest

from fixtures import admissible, c2_swap, s7_on, trace_gap_fixture
from semigalois import galois as gl, linalg
from semigalois.actions import induce_partial_group_action, invariant_ring
from semigalois.corpus import corpus, f9_cubed_fixture
from semigalois.correspondence import enumerate_subalgebras_over
from semigalois.instance import parse_instance
from semigalois.rings import Atom, Block, NotSubring, Subalgebra, TensorPresentation
from semigalois.semigroups import sigma_partition
from oracles import (check_psi_images_on_orbits, element_product, free_pairs, is_separable_whole,
                     joined_tensor_lattice, joined_tensor_vector, maximal_elements,
                     pa_subgroup_whole, psi_check_whole, solve_coordinates_whole,
                     separability_idempotent_on_orbits, verify_coordinates_by_elements,
                     verify_idempotent_by_kron, whole_full_tensor)


INSTANCES = Path(__file__).resolve().parent.parent / "instances"


MULTI_ORBIT = {
    "c2_gf8^2xgf4^2": lambda: c2_swap([Atom.gf(2, 3), Atom.gf(2, 2)]),
    "s7_gf4^3": lambda: s7_on(Atom.gf(2, 2)),
    "s7_gf16^3": lambda: s7_on(Atom.gf(2, 4)),
    "s7_gf25^3": lambda: s7_on(Atom.gf(5, 2)),
    "s7_gf9^3xz2": lambda: s7_on(Atom.gf(3, 2), [Atom.zmod(2)]),
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


def _tied_classes(beta):
    """The maximal elements of each sigma-class that has two or more: PA's
    copies (t1, i) and (t2, i) of such a class are tied on the coordinates
    of A_t1 n A_t2, where psi reads one value, on the class's join."""
    S = beta.S
    projection = sigma_partition(S)[2]
    by_class = {}
    for t in maximal_elements(S):
        by_class.setdefault(projection[t], []).append(t)
    return [ts for ts in by_class.values() if len(ts) > 1]


def _pa_order_whole(beta):
    _, _, ambient, subgroup = pa_subgroup_whole(beta)
    return ambient.order() // linalg.lattice_det(subgroup)


def test_some_split_instances_tie_copies_in_pa():
    """sigma-classes with two maximal elements, whose copies PA ties, occur
    on the S7 rungs only: no class of the corpora's instances has two.
    There psi's |PA| is the order of the whole route's PA."""
    tied = [(name, beta) for name, beta in _split_instances() if _tied_classes(beta)]
    assert len(tied) >= 4, [name for name, _ in tied]
    for _, beta in tied:
        assert gl.psi_check(beta).pa_order == _pa_order_whole(beta)
    beta = MULTI_ORBIT["s7_gf9^3xz2"]()
    assert not gl.is_galois(beta) and len(beta.orbits) == 3
    [[t1, t2]] = _tied_classes(beta)
    shared = beta.im_support(t1) & beta.im_support(t2)
    assert sum(beta.A.atoms[a].coords for a in shared) == 3


def check_orbit_routes_against_whole(beta):
    """The library's Galois criteria against the whole routes: the verdicts
    of beta's and alpha's coordinate systems (`solve_coordinates_whole`),
    each candidate that passes checked through ring elements
    (`verify_coordinates_by_elements`), psi's orders and witnesses, taken
    one orbit tensor at a time on its free pairs (`psi_check_whole`), psi
    on every generator pair through ring elements
    (`check_psi_images_on_orbits`), and the separability verdict: the
    whole solve (`is_separable_whole`) finds an idempotent, as
    `is_separable` always does, and the library's, each atom's part in its
    diagonal block (`separability_idempotent_on_orbits`), put in place on
    the whole tensor passes `verify_idempotent_by_kron`.  psi's image from the free
    pairs lies inside its image from every pair, which `psi_check_whole`
    takes, so equal image orders make the two images equal.  Returns the
    number of generator pairs of the orbit tensors and of free pairs."""
    tensors = gl._full_tensor(beta)
    for action in (beta, induce_partial_group_action(beta)):
        coords = gl._coordinates(action)
        assert (coords is None) == (solve_coordinates_whole(beta, *gl._galois_system(action)) is None)
        assert coords is None or verify_coordinates_by_elements(action, coords)
    psi = gl.psi_check(beta)
    t_order, pa_order, image_order, kernel_witness, cokernel_witness = psi_check_whole(beta)
    assert (psi.pa_order, psi.image_order) == (pa_order, image_order) and image_order == t_order
    assert psi.cokernel_witness == cokernel_witness
    assert kernel_witness is None  # psi is injective
    check_psi_images_on_orbits(beta)
    assert gl.is_separable(beta) is True
    reference = is_separable_whole(Subalgebra.full(beta.A), invariant_ring(beta))
    assert reference is not None
    whole = reference[0]
    parts = separability_idempotent_on_orbits(tensors)
    assert verify_idempotent_by_kron(whole, joined_tensor_vector(tensors, whole, dict(enumerate(parts))))
    return (sum(tensor.k * tensor.l for _, tensor in tensors),
            sum(len(free_pairs(tensor)) for _, tensor in tensors))


@pytest.mark.parametrize("name,beta", _split_instances(), ids=[n for n, _ in _split_instances()])
def test_split_routes_match_the_whole_routes(name, beta):
    tensors = gl._full_tensor(beta)
    whole = whole_full_tensor(beta)
    assert [block.atoms for block, _ in tensors] == [block.atoms for block in beta.orbits]
    assert math.prod(tensor.order() for _, tensor in tensors) == whole.order()
    # the canonical basis, put together
    assert joined_tensor_lattice(tensors, whole) == whole.pres.lattice
    check_orbit_routes_against_whole(beta)


@pytest.mark.parametrize("name", ["s7_gf4^3", "c2_(gf4xz3xz4)^2", "trace_gap"])
def test_split_separability_matches_the_whole_solve_on_every_subalgebra(name):
    """Each subalgebra over the invariants, as the brute-force scan meets them:
    B is separable over A^beta exactly when each part B e_O is over
    A^beta e_O, each part solved whole on its block ring."""
    beta = MULTI_ORBIT[name]()
    inv = invariant_ring(beta)
    verdicts = []
    for B in enumerate_subalgebras_over(beta, inv):
        split = all(is_separable_whole(block.subalgebra(B), block.subalgebra(inv)) is not None
                    for block in beta.orbits)
        assert split == (is_separable_whole(B, inv) is not None)
        verdicts.append(split)
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
        got = {beta.A.idempotent_vec(block.atoms) for block in beta.orbits}
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
    assert Block(A, range(len(A.atoms))).ring is A


def test_a_subalgebra_must_split_along_the_block():
    """A subalgebra restricted to a block must split along it.  No block
    restricts a map any more: psi reads the joins' atom maps on the orbits,
    which the maps keep among themselves by construction (`Action.orbits`)."""
    beta = MULTI_ORBIT["c2_(gf4xz3xz4)^2"]()
    A = beta.A
    inv = invariant_ring(beta)
    with pytest.raises(NotSubring):
        Block(A, [0]).subalgebra(inv)
    prime = Subalgebra(A, [A.one_vec]).closure_under_mul()
    with pytest.raises(NotSubring):
        beta.orbits[0].subalgebra(prime)


def test_psi_check_takes_no_kernel_on_tied_copies(monkeypatch):
    """PA is the product of the class joins' images, so once A^beta and the
    orbit tensors are built, psi_check on s7_f9cubed, whose orbit {0, 2}
    ties copies (a sigma-class with two maximal elements), calls no
    `kernel_gens` anywhere, and its |PA| is the whole route's."""
    beta = parse_instance(INSTANCES / "s7_f9cubed.sgi")
    assert _tied_classes(beta)
    pa_order = _pa_order_whole(beta)
    gl._full_tensor(beta)
    calls = []
    original = linalg.kernel_gens
    for name, module in list(sys.modules.items()):
        if name.startswith("semigalois") and hasattr(module, "kernel_gens"):
            monkeypatch.setattr(module, "kernel_gens",
                                lambda *args: calls.append(args) or original(*args))
    psi = gl.psi_check(beta)
    assert psi.bijective and psi.pa_order == pa_order
    assert calls == []


def test_kernel_witness_is_a_nonzero_element_that_psi_kills():
    """Over the span of the orbit indicators, a base smaller than A^beta, the
    tensor outgrows psi's image, so psi has a kernel.  Over A^beta psi is
    injective (A e_O is free over A^beta e_O), so psi_check reports no
    witness: it raises EquivalenceViolation.  Those orbit tensors are
    planted as the ones beta remembers, since psi reads no others."""
    beta = MULTI_ORBIT["c2_(gf4xz3xz4)^2"]()
    A = beta.A
    psi = gl.psi_check(beta)
    assert psi.image_order == math.prod(tensor.order() for _, tensor in gl._full_tensor(beta))
    base = Subalgebra(A, [A.idempotent_vec(block.atoms) for block in beta.orbits]).closure_under_mul()
    tensors = beta.facts["_full_tensor"] = tuple(
        (block, TensorPresentation(block.ring, block.subalgebra(base))) for block in beta.orbits)
    assert math.prod(tensor.order() for _, tensor in tensors) > psi.image_order
    with pytest.raises(gl.EquivalenceViolation, match="psi kills part of the tensor on orbit 0"):
        gl.psi_check(beta)
