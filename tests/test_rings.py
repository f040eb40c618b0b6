import itertools
import random

import numpy as np
import pytest

from semigalois import rings as rg
from semigalois import isopu
from semigalois.linalg import AbelianPresentation
from semigalois.corpus import random_ring, random_structured_iso
from oracles import quotient_order_by_enumeration


def test_atom_guards():
    with pytest.raises(rg.RingError):
        rg.Atom.zmod(6)
    with pytest.raises(rg.RingError):
        rg.Atom.gf(3, 2, (1, 1, 1))  # x^2+x+1 has the root 1 over F_3
    with pytest.raises(rg.TooLarge):
        rg.Atom.zmod(2, 25)


def test_basic_ring_ops():
    A = rg.FiniteRing([rg.Atom.zmod(2, 2), rg.Atom.gf(3, 2, (1, 0, 1))])
    one, zero = A.one(), A.zero()
    assert one + (-one) == zero
    x = A.element([0, (0, 1)])
    assert x * x == A.element([0, (2, 0)])  # x^2 = -1 for the modulus x^2+1
    e1 = A.idempotent({0})
    e2 = A.idempotent({1})
    assert e1 * e2 == zero
    assert e1 + e2 == one
    with pytest.raises(rg.AtomMismatch):
        _ = one + rg.FiniteRing([rg.Atom.zmod(2)]).one()


def test_int_scaling():
    A = rg.FiniteRing([rg.Atom.zmod(2, 2)])
    a = A.element([3])
    assert 2 * a == A.element([2])
    assert 0 * a == A.zero()


def test_central_idempotents_match_exhaustive_scan():
    for atoms in ([rg.Atom.zmod(3)],
                  [rg.Atom.zmod(3), rg.Atom.zmod(3)],
                  [rg.Atom.gf(3, 2, (1, 0, 1))] * 3,
                  [rg.Atom.zmod(2, 2), rg.Atom.gf(2, 2)]):
        A = rg.FiniteRing(atoms)
        listed = set(rg.FiniteRing.enumerate_central_idempotents(A))
        scanned = {a for a in A.elements() if a.is_idempotent()}
        assert listed == scanned
        assert len(listed) == 2 ** len(atoms)


def test_apply_iso_cases():
    B = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3)])
    ident = rg.StructuredIso.identity_on(B, {0, 1})
    a = B.element([1, 2])
    assert ident.apply(a) == a
    swap = rg.StructuredIso(B, {0: 1, 1: 0}, {})
    assert swap.apply(a) == B.element([2, 1])
    f9 = rg.FiniteRing([rg.Atom.gf(3, 2, (1, 0, 1))])
    frob = rg.StructuredIso(f9, {0: 0}, {0: 1})
    x = f9.element([(0, 1)])
    assert frob.apply(x) == -x  # x^3 = -x for the modulus x^2+1
    with pytest.raises(rg.OutOfDomain):
        rg.StructuredIso.identity_on(B, {0}).apply(a)


def test_structured_iso_requires_matching_atoms():
    A = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3, 2)])
    with pytest.raises(rg.RingError):
        rg.StructuredIso(A, {0: 1}, {})


def test_verify_iso_extensional_accepts_and_rejects():
    B = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3)])
    swap = rg.StructuredIso(B, {0: 1, 1: 0}, {})
    assert rg.verify_iso_extensional(swap)
    assert rg.verify_iso_extensional(isopu.compose(swap, swap))

    f9 = rg.FiniteRing([rg.Atom.gf(3, 2, (1, 0, 1))])
    good = rg.StructuredIso(f9, {0: 0}, {0: 1})
    assert rg.verify_iso_extensional(good)

    class CorruptedIso(rg.StructuredIso):
        def apply(self, el):
            out = super().apply(el)
            comps = list(out.comps)
            if comps[0] != (0, 0):
                comps[0] = (comps[0][0], (comps[0][1] + comps[0][0]) % 3)
            return rg.RingElement(self.ring, tuple(comps))

    bad = CorruptedIso(f9, {0: 0}, {0: 1})
    assert not rg.verify_iso_extensional(bad)


@pytest.mark.parametrize("seed", range(12))
def test_structured_composition_equals_extensional(seed):
    rng = random.Random(seed)
    A = random_ring(rng)
    if A.size > 4096:
        A = rg.FiniteRing(A.atoms[:1])
    f = random_structured_iso(rng, A)
    g = random_structured_iso(rng, A)
    comp = isopu.compose(f, g)
    for a in A.elements():
        masked = a.mask(g.dom_support)
        inner = g.apply(masked)
        if inner.support() <= f.dom_support:
            via_maps = f.apply(inner)
        else:
            via_maps = f.apply(inner.mask(f.dom_support))
        if a.support() <= comp.dom_support:
            assert comp.apply(a) == f.apply(g.apply(a))
        # on the composite domain both routes agree
        dom_part = a.mask(comp.dom_support)
        assert comp.apply(dom_part) == f.apply(g.apply(dom_part))


def test_subalgebra_basics():
    B = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3)])
    full = rg.Subalgebra.full(B)
    assert full.order == 9 and full.is_subalgebra()
    diag = rg.Subalgebra.span_of_elements(B, [B.one()])
    assert diag.order == 3 and diag.is_subalgebra()
    half = rg.Subalgebra.span_of_elements(B, [B.element([1, 0])])
    assert half.closed_under_mul() and not half.contains_one()
    assert not half.is_subalgebra()
    assert diag.member(B.element([2, 2]))
    assert not diag.member(B.element([1, 0]))
    assert full.contains(diag) and not diag.contains(full)


def test_subalgebra_canonical_equality():
    B = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3)])
    d1 = rg.Subalgebra.span_of_elements(B, [B.one()])
    d2 = rg.Subalgebra.span_of_elements(B, [B.element([2, 2]), B.one()])
    assert d1 == d2
    assert len(set([d1, d2])) == 1


def test_subalgebra_element_enumeration():
    B = rg.FiniteRing([rg.Atom.zmod(2, 2), rg.Atom.zmod(2)])
    sub = rg.Subalgebra.span_of_elements(B, [B.one()])
    elements = list(sub.elements())
    assert len(elements) == sub.order == 4
    assert B.one() in elements


def test_tensor_examples():
    F3 = rg.FiniteRing([rg.Atom.zmod(3)])
    t = rg.tensor_over_subring(*(rg.Subalgebra.full(F3),) * 3)
    assert t.order() == 3

    B = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3)])
    diag = rg.Subalgebra.span_of_elements(B, [B.one()])
    t2 = rg.tensor_over_subring(rg.Subalgebra.full(B), rg.Subalgebra.full(B), diag)
    assert t2.order() == 81

    # Z/4 (x)_Z Z/2 = Z/2, realized at the presentation level: one generator
    # u = 1 (x) 1 whose declared order is gcd(4, 2), no further relations
    pres = AbelianPresentation([2])
    assert pres.order() == 2


def test_tensor_rejects_non_subring():
    B = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3)])
    half = rg.Subalgebra.span_of_elements(B, [B.element([1, 0])])
    with pytest.raises(rg.NotSubring):
        rg.tensor_over_subring(rg.Subalgebra.full(B), rg.Subalgebra.full(B), half)


@pytest.mark.parametrize("seed", range(8))
def test_tensor_order_matches_box_oracle(seed):
    """|M (x)_R N| against literal union-find enumeration of the quotient."""
    rng = random.Random(400 + seed)
    A = random_ring(rng, max_atoms=2)
    while A.size > 81:
        A = random_ring(rng, max_atoms=2)
    full = rg.Subalgebra.full(A)
    prime = rg.Subalgebra.span_of_elements(A, [A.one()]).closure_under_mul()
    R = rng.choice([full, prime])
    tensor = rg.tensor_over_subring(full, full, R)
    moduli = list(tensor.pres.moduli)
    cols = [[int(tensor.pres.relations[i, j]) for i in range(tensor.pres.n)]
            for j in range(tensor.pres.relations.shape[1])]
    expected = quotient_order_by_enumeration(moduli, cols)
    assert tensor.order() == expected


def test_tensor_bilinear_structure():
    B = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3)])
    diag = rg.Subalgebra.span_of_elements(B, [B.one()])
    t = rg.tensor_over_subring(rg.Subalgebra.full(B), rg.Subalgebra.full(B), diag)
    e1 = B.element([1, 0])
    # middle linearity over R: (r m) (x) n = m (x) (r n) for r in the base
    r = B.one()
    lhs = t.pure(r * e1, e1)
    rhs = t.pure(e1, r * e1)
    assert t.eq(lhs, rhs)
    # multiplication matrices act like multiplication on pure tensors
    z = t.pure(e1, e1)
    left = t.left_mult_matrix(e1.vec())
    lz = tuple(int(x) for x in left.dot(np.array(z, dtype=object).reshape(-1, 1)).ravel())
    assert t.eq(lz, t.pure(e1 * e1, e1))


KERNEL_ATOMS = {
    "GF(4)": rg.Atom.gf(2, 2), "GF(8)": rg.Atom.gf(2, 3), "GF(9)": rg.Atom.gf(3, 2),
    "GF(16)": rg.Atom.gf(2, 4), "GF(27)": rg.Atom.gf(3, 3),
    "Z/8": rg.Atom.zmod(2, 3), "Z/9": rg.Atom.zmod(3, 2),
}
KERNEL_RINGS = {**{name: [atom] for name, atom in KERNEL_ATOMS.items()},
                "Z/4 x GF(4) x GF(4) x Z/3": [rg.Atom.zmod(2, 2), rg.Atom.gf(2, 2),
                                              rg.Atom.gf(2, 2), rg.Atom.zmod(3)]}


def _isos(A):
    """Every matching of atoms onto equal atoms with every twist, on all atoms or all but atom 0."""
    n = len(A.atoms)
    twists = [range(a.k) if a.kind == "gf" else range(1) for a in A.atoms]
    for perm in itertools.permutations(range(n)):
        if any(A.atoms[i] != A.atoms[perm[i]] for i in range(n)):
            continue
        for tw in itertools.product(*twists):
            for dom in (range(n), range(1, n)):
                yield rg.StructuredIso(A, {i: perm[i] for i in dom}, {i: tw[i] for i in dom})


@pytest.mark.parametrize("name", sorted(KERNEL_RINGS))
def test_kernel_matches_polynomial_arithmetic(name):
    """mul_vec, mult_matrix and apply_vec against Atom.mul / Atom.frobenius on all elements."""
    A = rg.FiniteRing(KERNEL_RINGS[name])
    els = list(A.elements())
    moduli = np.array(A.coord_moduli, dtype=object)
    for x in els:
        u = x.vec()
        mat = A.mult_matrix(u)
        for y in els:
            want = (x * y).vec()  # RingElement products go through Atom.mul
            assert A.mul_vec(u, y.vec()) == want
            assert tuple(mat.dot(np.array(y.vec(), dtype=object)) % moduli) == want
    for iso in _isos(A):
        for x in els:
            comps = [a.zero() for a in A.atoms]
            for i, j in iso.matching.items():
                comps[j] = A.atoms[i].frobenius(x.comps[i], iso.twist[i])
            assert iso.apply_vec(x.vec()) == rg.RingElement(A, tuple(comps)).vec()


def _mult_matrix_by_loops(t, b_vec, side):
    """The tensor multiplication matrices column by column, as a reference."""
    g = t.k * t.l
    mat = np.zeros((g, g), dtype=object)
    for i in range(t.k):
        for j in range(t.l):
            if side == "left":
                for a, u in enumerate(t._mexp.expand(t.ring.mul_vec(b_vec, t.mg[i]))):
                    mat[t.index(a, j), t.index(i, j)] = u
            else:
                for c, v in enumerate(t._nexp.expand(t.ring.mul_vec(b_vec, t.ng[j]))):
                    mat[t.index(i, c), t.index(i, j)] = v
    return mat


@pytest.mark.parametrize("atoms", [
    (rg.Atom.gf(2, 2), rg.Atom.gf(2, 2), rg.Atom.zmod(2, 2)),
    (rg.Atom.gf(3, 2), rg.Atom.zmod(3, 2)),
    (rg.Atom.gf(2, 3), rg.Atom.gf(2, 2), rg.Atom.zmod(2)),
], ids=["gf4^2xz4", "gf9xz9", "gf8xgf4xz2"])
def test_tensor_mult_matrices_match_loops(atoms):
    rng = random.Random(len(atoms))
    A = rg.FiniteRing(atoms)
    full = rg.Subalgebra.full(A)
    R = rg.Subalgebra.span_of_elements(A, [A.one()]).closure_under_mul()
    pool = [a.vec() for a in A.elements()]
    M = rg.Subalgebra(A, list(R.gen_vectors) + [rng.choice(pool)]).closure_under_mul()
    for X, Y in ((full, full), (M, full), (full, M)):
        t = rg.tensor_over_subring(X, Y, R, guard=1 << 20)
        for b in rng.sample(list(M.element_vectors()), min(4, M.order)):
            for side, got in (("left", t.left_mult_matrix(b)), ("right", t.right_mult_matrix(b))):
                want = _mult_matrix_by_loops(t, b, side)
                assert got.shape == want.shape and (got == want).all()
