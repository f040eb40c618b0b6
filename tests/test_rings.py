import itertools
import random

import numpy as np
import pytest

from semigalois import budget
from semigalois import rings as rg
from semigalois import isopu
from semigalois.linalg import AbelianPresentation, cols_from_vectors, lattice_reduce
from semigalois.corpus import random_ring, random_structured_iso
from oracles import (atom_elements, atom_frobenius, atom_power, dense, element_multiple, element_product,
                     element_sum, expand_by_solve, iso_apply_by_polynomials, kron_left, kron_right,
                     mult_difference, mult_matrix, pure, quotient_order_by_enumeration, vector_order,
                     verify_iso_extensional)


def test_atom_guards():
    with pytest.raises(rg.RingError):
        rg.Atom.zmod(6)
    with pytest.raises(rg.RingError):
        rg.Atom.gf(3, 2, (1, 1, 1))  # x^2+x+1 has the root 1 over F_3
    with pytest.raises(rg.TooLarge):
        rg.Atom.zmod(2, 25)


@pytest.mark.parametrize("p,k", sorted(rg.DEFAULT_GF_POLYS), ids=lambda v: str(v))
def test_trace_dual_gives_galois_coordinates_for_every_twist(p, k):
    """sum_u x^u Frob^t(y_u) = [t = 0] for the trace dual y of 1, x, ...,
    x^(k-1), for every t in range(k): products by `mul_coords`, Frobenius
    images by `frobenius_cols`."""
    atom = rg.Atom.gf(p, k)
    dual = atom.trace_dual()
    assert len(dual) == k and all(len(y) == k for y in dual)
    for t in range(k):
        cols = atom.frobenius_cols(t)
        total = [0] * k
        for u, y in enumerate(dual):
            x_u = [int(v == u) for v in range(k)]
            image = [sum(c * col[v] for c, col in zip(y, cols)) % p for v in range(k)]
            total = [(a + b) % p for a, b in zip(total, atom.mul_coords(x_u, image))]
        assert total == [int(t == 0 and v == 0) for v in range(k)], t


def test_trace_dual_on_one_coordinate_is_one():
    for atom in (rg.Atom.zmod(2), rg.Atom.zmod(3, 2), rg.Atom.gf(5, 1, (1, 1))):
        assert atom.trace_dual() == ((1,),)


def test_basic_ring_ops():
    A = rg.FiniteRing([rg.Atom.zmod(2, 2), rg.Atom.gf(3, 2, (1, 0, 1))])
    one, zero = A.from_vec(A.one_vec), A.from_vec(A.zero_vec)
    assert one + (-one) == zero
    x = A.element([0, (0, 1)])
    assert x * x == A.element([0, (2, 0)])  # x^2 = -1 for the modulus x^2+1
    e1 = A.from_vec(A.idempotent_vec({0}))
    e2 = A.from_vec(A.idempotent_vec({1}))
    assert e1 * e2 == zero
    assert e1 + e2 == one
    other = rg.FiniteRing([rg.Atom.zmod(2)])
    with pytest.raises(rg.AtomMismatch):
        _ = one + other.from_vec(other.one_vec)


def test_int_scaling():
    A = rg.FiniteRing([rg.Atom.zmod(2, 2)])
    a = A.element([3])
    assert 2 * a == A.element([2])
    assert 0 * a == A.from_vec(A.zero_vec)


def test_central_idempotents_match_exhaustive_scan():
    for atoms in ([rg.Atom.zmod(3)],
                  [rg.Atom.zmod(3), rg.Atom.zmod(3)],
                  [rg.Atom.gf(3, 2, (1, 0, 1))] * 3,
                  [rg.Atom.zmod(2, 2), rg.Atom.gf(2, 2)]):
        A = rg.FiniteRing(atoms)
        listed = {A.from_vec(A.idempotent_vec(support)) for r in range(len(atoms) + 1)
                  for support in itertools.combinations(range(len(atoms)), r)}
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


def test_structured_iso_refuses_a_twist_off_its_domain():
    """A twist on an atom outside the domain changes no value, so two such
    data would print alike and be the same map yet compare unequal."""
    A = rg.FiniteRing([rg.Atom.gf(2, 2)] * 2)
    plain = rg.StructuredIso(A, {0: 0}, {0: 0})
    assert repr(plain) == "Iso(0->0^0)"
    for twist in ({0: 0, 1: 1}, {1: 0}):
        with pytest.raises(rg.RingError, match=r"outside the domain"):
            rg.StructuredIso(A, {0: 0}, twist)
    assert rg.StructuredIso(A, {0: 0}, {}) == plain
    assert hash(rg.StructuredIso(A, {0: 0}, {})) == hash(plain)


@pytest.mark.parametrize("matching", [{0: -1}, {-2: 1}, {0: 5}], ids=str)
def test_structured_iso_refuses_an_atom_outside_the_ring(matching):
    """A negative index would name an atom from the end, and a tuple over the
    ring's atoms would drop it from the domain; a large one has no atom."""
    A = rg.FiniteRing([rg.Atom.zmod(3)] * 2)
    with pytest.raises(rg.RingError, match=r"is not an atom of a ring with 2 atoms"):
        rg.StructuredIso(A, matching, {})


def test_verify_iso_extensional_accepts_and_rejects():
    B = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3)])
    swap = rg.StructuredIso(B, {0: 1, 1: 0}, {})
    assert verify_iso_extensional(swap)
    assert verify_iso_extensional(isopu.compose(swap, swap))

    f9 = rg.FiniteRing([rg.Atom.gf(3, 2, (1, 0, 1))])
    good = rg.StructuredIso(f9, {0: 0}, {0: 1})
    assert verify_iso_extensional(good)

    class CorruptedIso(rg.StructuredIso):
        def apply(self, el):
            out = super().apply(el)
            comps = list(out.comps)
            if comps[0] != (0, 0):
                comps[0] = (comps[0][0], (comps[0][1] + comps[0][0]) % 3)
            return self.ring.element(comps)

    bad = CorruptedIso(f9, {0: 0}, {0: 1})
    assert not verify_iso_extensional(bad)


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
    diag = rg.Subalgebra(B, [B.one_vec])
    assert diag.order == 3 and diag.is_subalgebra()
    half = rg.Subalgebra(B, [B.element([1, 0]).vec()])
    assert half.closed_under_mul() and not half.contains_one()
    assert not half.is_subalgebra()
    assert diag.member_vec(B.element([2, 2]).vec())
    assert not diag.member_vec(B.element([1, 0]).vec())
    assert full.contains(diag) and not diag.contains(full)


def test_subalgebra_canonical_equality():
    B = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3)])
    d1 = rg.Subalgebra(B, [B.one_vec])
    d2 = rg.Subalgebra(B, [B.element([2, 2]).vec(), B.one_vec])
    assert d1 == d2
    assert len(set([d1, d2])) == 1


def test_subalgebra_element_enumeration():
    B = rg.FiniteRing([rg.Atom.zmod(2, 2), rg.Atom.zmod(2)])
    sub = rg.Subalgebra(B, [B.one_vec])
    elements = list(sub.elements())
    assert len(elements) == sub.order == 4
    assert B.from_vec(B.one_vec) in elements


def test_tensor_examples():
    F3 = rg.FiniteRing([rg.Atom.zmod(3)])
    t = rg.TensorPresentation(F3, rg.Subalgebra.full(F3))
    assert t.order() == 3

    B = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3)])
    diag = rg.Subalgebra(B, [B.one_vec])
    t2 = rg.TensorPresentation(B, diag)
    assert t2.order() == 81

    # Z/4 (x)_Z Z/2 = Z/2, realized at the presentation level: one generator
    # u = 1 (x) 1 whose declared order is gcd(4, 2), no further relations
    pres = AbelianPresentation([2])
    assert pres.order() == 2


def test_tensor_rejects_non_subring():
    B = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3)])
    half = rg.Subalgebra(B, [B.element([1, 0]).vec()])
    with pytest.raises(rg.NotSubring):
        rg.TensorPresentation(B, half)


def test_tensor_checks_each_factor_once(monkeypatch):
    """The ring needs no check, and R lies in it by construction: the
    constructor checks R alone, once, with no containment check."""
    B = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3)])
    full = rg.Subalgebra.full(B)
    diag = rg.Subalgebra(B, [B.one_vec])
    half = rg.Subalgebra(B, [B.element([1, 0]).vec()])
    calls = []
    for name in ("contains", "is_subalgebra"):
        original = getattr(rg.Subalgebra, name)

        def counted(self, *args, _name=name, _original=original):
            calls.append((_name, id(self)))
            return _original(self, *args)

        monkeypatch.setattr(rg.Subalgebra, name, counted)
    rg.TensorPresentation(B, diag)
    assert calls == [("is_subalgebra", id(diag))]
    calls.clear()
    rg.TensorPresentation(B, full)
    assert calls == [("is_subalgebra", id(full))]
    calls.clear()
    with pytest.raises(rg.NotSubring, match="unital"):
        rg.TensorPresentation(B, half)
    assert calls == [("is_subalgebra", id(half))]


EXPANDER_RINGS = {
    "gf4^2": [rg.Atom.gf(2, 2)] * 2,
    "z4^3": [rg.Atom.zmod(2, 2)] * 3,
    "z8xz2": [rg.Atom.zmod(2, 3), rg.Atom.zmod(2)],
    "z4xgf4^2": [rg.Atom.zmod(2, 2), rg.Atom.gf(2, 2), rg.Atom.gf(2, 2)],
}


def _combine(A, coeffs, gens):
    return tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % d
                 for i, d in enumerate(A.coord_moduli))


@pytest.mark.parametrize("name", sorted(EXPANDER_RINGS))
def test_span_expander_matches_solve_oracle(name):
    """The walk down the canonical basis (`member_vec`) accepts every member,
    which the solve oracle expands over the generators within their orders,
    and rejects every non-member, which the oracle cannot expand."""
    A = rg.FiniteRing(EXPANDER_RINGS[name])
    rng = random.Random(name)
    pool = [a.vec() for a in A.elements()]
    for _ in range(6):
        span = rg.Subalgebra(A, rng.sample(pool, rng.randrange(1, 4)))
        for sub in (span, span.closure_under_mul()):
            orders = [vector_order(A.coord_moduli, g) for g in sub.gen_vectors]
            members = set(sub.element_vectors())
            for vec in members:
                assert sub.member_vec(vec)
                got = expand_by_solve(sub, vec)
                assert all(0 <= c < d for c, d in zip(got, orders))
                assert _combine(A, got, sub.gen_vectors) == vec
            for vec in rng.sample([v for v in pool if v not in members],
                                  min(6, A.size - len(members))):
                assert not sub.member_vec(vec)
                with pytest.raises(rg.NotSubring):
                    expand_by_solve(sub, vec)


def test_span_expander_on_zero_subalgebra():
    A = rg.FiniteRing(EXPANDER_RINGS["z4xgf4^2"])
    zero = rg.Subalgebra(A, [])
    assert zero.gen_vectors == () and zero.order == 1
    assert zero.member_vec(A.zero_vec) and expand_by_solve(zero, A.zero_vec) == ()
    assert not zero.member_vec(A.one_vec)
    with pytest.raises(rg.NotSubring):
        expand_by_solve(zero, A.one_vec)


@pytest.mark.parametrize("seed", range(8))
def test_tensor_order_matches_box_oracle(seed):
    """|M (x)_R N| against literal union-find enumeration of the quotient."""
    rng = random.Random(400 + seed)
    A = random_ring(rng, max_atoms=2)
    while A.size > 81:
        A = random_ring(rng, max_atoms=2)
    full = rg.Subalgebra.full(A)
    prime = rg.Subalgebra(A, [A.one_vec]).closure_under_mul()
    R = rng.choice([full, prime])
    tensor = rg.TensorPresentation(A, R)
    moduli = list(tensor.pres.moduli)
    rel = tensor.pres.relations
    cols = [rel.column(j) for j in range(rel.shape[1])]
    expected = quotient_order_by_enumeration(moduli, cols)
    assert tensor.order() == expected


def test_tensor_bilinear_structure():
    B = rg.FiniteRing([rg.Atom.zmod(3), rg.Atom.zmod(3)])
    diag = rg.Subalgebra(B, [B.one_vec])
    t = rg.TensorPresentation(B, diag)
    e1 = B.element([1, 0])

    def canon(vec):
        return lattice_reduce(t.pres.lattice, vec)

    # middle linearity over R: (r m) (x) n = m (x) (r n) for r in the base
    r = B.from_vec(B.one_vec)
    lhs = pure(t, (r * e1).vec(), e1.vec())
    rhs = pure(t, e1.vec(), (r * e1).vec())
    assert canon(lhs) == canon(rhs)
    # multiplication matrices act like multiplication on pure tensors
    z = pure(t, e1.vec(), e1.vec())
    left = kron_left(t, e1.vec())
    lz = tuple(int(x) for x in left.dot(np.array(z, dtype=object).reshape(-1, 1)).ravel())
    assert canon(lz) == canon(pure(t, (e1 * e1).vec(), e1.vec()))
    # and the solver's difference block is the two Kronecker matrices' difference
    diff = dense(mult_difference(t, e1.vec()))
    assert (diff == left - kron_right(t, e1.vec())).all()


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


LARGE_ATOMS = {
    "GF(256)": rg.Atom.gf(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
    "GF(81)": rg.Atom.gf(3, 4, (2, 0, 0, 2, 1)),
    "GF(125)": rg.Atom.gf(5, 3, (3, 3, 0, 1)),
    "Z/1024": rg.Atom.zmod(2, 10),
    "GF(7) mod x+3": rg.Atom.gf(7, 1, (3, 1)),
}


def _check_atom_tables(atom):
    """`_x_powers` and every `frobenius_cols(j)` against the polynomial route."""
    if atom.kind == "zmod":
        assert atom.frobenius_cols(0) == ((1,),)
        with pytest.raises(rg.RingError):
            atom.frobenius_cols(1)
        return
    basis = [tuple(1 if t == i else 0 for t in range(atom.k)) for i in range(atom.k)]
    x = basis[1] if atom.k > 1 else None
    assert len(atom._x_powers) == 2 * atom.k - 1
    for d, power in enumerate(atom._x_powers):
        assert power == atom_power(atom, x, d)
    for j in range(2 * atom.k):
        assert atom.frobenius_cols(j) == tuple(atom_frobenius(atom, b, j) for b in basis)


def _check_pair(A, x, y, mat=None):
    """The kernel's product, sum and difference of x and y."""
    want = element_product(x, y)
    assert A.mul_vec(x.vec(), y.vec()) == want.vec()
    assert x * y == want
    if mat is not None:
        moduli = np.array(A.coord_moduli, dtype=object)
        assert tuple(mat.dot(np.array(y.vec(), dtype=object)) % moduli) == want.vec()
    assert x + y == element_sum(x, y)
    assert x - y == element_sum(x, element_multiple(y, -1))


def _check_multiples(A, x):
    """The kernel's negation and integer multiples of x."""
    assert -x == element_multiple(x, -1)
    for n in (-5, 0, 1, 3, A.exponent + 2):
        assert n * x == x * n == element_multiple(x, n)


def _check_iso(iso, x, mat=None):
    """apply_vec, apply and the matrix `mat` of apply_vec on the basis, on x,
    against the polynomial Frobenius."""
    A = iso.ring
    want = iso_apply_by_polynomials(iso, x)
    assert iso.apply_vec(x.vec()) == want.vec()
    assert iso.apply(x.mask(iso.dom_support)) == want
    if mat is not None:
        moduli = np.array(A.coord_moduli, dtype=object)
        assert tuple(mat.dot(np.array(x.vec(), dtype=object)) % moduli) == want.vec()


@pytest.mark.parametrize("name", sorted(KERNEL_RINGS))
def test_kernel_matches_polynomial_arithmetic(name):
    """The coordinate kernel against the polynomial route of tests/oracles.py, on
    every element pair: mul_vec, the tensor's mult_matrix and RingElement arithmetic; and on
    every element and iso: apply_vec, apply and the matrix of apply_vec on the
    basis, so apply_vec is additive; and each atom's reduction table and
    Frobenius columns."""
    A = rg.FiniteRing(KERNEL_RINGS[name])
    for atom in set(A.atoms):
        _check_atom_tables(atom)
    els = list(A.elements())
    tensor = rg.TensorPresentation(A, rg.Subalgebra.full(A))
    for x in els:
        _check_multiples(A, x)
        mat = dense(mult_matrix(tensor, x.vec()))
        for y in els:
            _check_pair(A, x, y, mat)
    for iso in _isos(A):
        mat = dense(cols_from_vectors([iso.apply_vec(e) for e in A.basis_vectors()], A.n_coords))
        for x in els:
            _check_iso(iso, x, mat)


@pytest.mark.parametrize("name", sorted(LARGE_ATOMS))
def test_kernel_matches_polynomial_arithmetic_on_large_atoms(name):
    """The same checks on seeded random elements of atoms too large to enumerate."""
    atom = LARGE_ATOMS[name]
    _check_atom_tables(atom)
    A = rg.FiniteRing([atom, atom])
    rng = random.Random(name)

    def draw():
        return A.from_vec([rng.randrange(m) for m in A.coord_moduli])

    for _ in range(100):
        x = draw()
        _check_multiples(A, x)
        _check_pair(A, x, draw())
    for iso in _isos(A):
        for _ in range(4):
            _check_iso(iso, draw())


ELEMENT_RINGS = {**KERNEL_RINGS, "GF(7) mod x+3 x Z/7": [LARGE_ATOMS["GF(7) mod x+3"], rg.Atom.zmod(7)]}


@pytest.mark.parametrize("name", sorted(ELEMENT_RINGS))
def test_elements_follow_the_per_atom_product(name):
    """`elements()` lists the per-atom product of the polynomial route's atom
    elements, in its order, and each element's `comps`, `repr` and `vec` read
    that tuple: an int on Z/p^k, a tuple on GF(p^k), a 1-tuple on GF(p)."""
    A = rg.FiniteRing(ELEMENT_RINGS[name])
    want = list(itertools.product(*[atom_elements(a) for a in A.atoms]))
    got = list(A.elements())
    assert [x.comps for x in got] == want
    for x, comps in zip(got, want):
        assert repr(x) == "<" + ", ".join(map(str, comps)) + ">"
        assert x.vec() == tuple(v for c in comps for v in (c if isinstance(c, tuple) else (c,)))
        assert A.element(comps) == x


def test_one_coordinate_gf_atom_prints_as_a_tuple_and_is_not_zmod():
    gf7, z7 = rg.FiniteRing([LARGE_ATOMS["GF(7) mod x+3"]]), rg.FiniteRing([rg.Atom.zmod(7)])
    x, y = gf7.from_vec((3,)), z7.from_vec((3,))
    assert (repr(x), repr(y)) == ("<(3,)>", "<3>")
    assert (x.comps, y.comps) == (((3,),), (3,))
    assert x.vec() == y.vec() and x != y
    mixed = rg.FiniteRing(KERNEL_RINGS["Z/4 x GF(4) x GF(4) x Z/3"])
    assert repr(mixed.element([7, (1, 0), (0, 3), -1])) == "<3, (1, 0), (0, 1), 2>"


SKIP_RINGS = {
    "GF(4) x Z/4 x GF(9) x Z/9": [rg.Atom.gf(2, 2), rg.Atom.zmod(2, 2), rg.Atom.gf(3, 2),
                                  rg.Atom.zmod(3, 2)],
    "GF(8) x GF(8) x Z/8 x GF(25) x Z/5": [rg.Atom.gf(2, 3), rg.Atom.gf(2, 3), rg.Atom.zmod(2, 3),
                                           rg.Atom.gf(5, 2), rg.Atom.zmod(5)],
}


@pytest.mark.parametrize("name", sorted(SKIP_RINGS))
def test_kernel_skips_zero_atoms_and_charges_every_atom(name):
    """`mul_vec` multiplies only atoms where both factors are nonzero: seeded
    vectors zero on random atom sets against the polynomial route, in either
    order, and one call charges len(atoms) ring products whatever its zero
    slices."""
    A = rg.FiniteRing(SKIP_RINGS[name])
    n = len(A.atoms)
    rng = random.Random(name)

    def draw():
        zero = set(rng.sample(range(n), rng.randrange(n + 1)))
        vec = [rng.randrange(m) for m in A.coord_moduli]
        return A.from_vec(A.mask_vec(vec, set(range(n)) - zero))

    for _ in range(300):
        x, y = draw(), draw()
        assert A.mul_vec(x.vec(), y.vec()) == A.mul_vec(y.vec(), x.vec()) == \
            element_product(x, y).vec()
        with budget.limit(n):
            A.mul_vec(x.vec(), y.vec())
            assert budget.spent() == n
        with budget.limit(n - 1), pytest.raises(budget.BudgetExceeded) as exc:
            A.mul_vec(x.vec(), y.vec())
        assert (exc.value.quantity, exc.value.spent) == ("ring_products", n)


def _mult_matrix_by_loops(t, b_vec, side):
    """The tensor multiplication matrices column by column, as a reference:
    b times each unit vector, expanded by the solve oracle."""
    full, units, n = rg.Subalgebra.full(t.ring), t.ring.basis_vectors(), t.l
    g = t.k * n
    mat = np.zeros((g, g), dtype=object)
    for i in range(t.k):
        for j in range(n):
            if side == "left":
                for a, u in enumerate(expand_by_solve(full, t.ring.mul_vec(b_vec, units[i]))):
                    mat[a * n + j, i * n + j] = u
            else:
                for c, v in enumerate(expand_by_solve(full, t.ring.mul_vec(b_vec, units[j]))):
                    mat[i * n + c, i * n + j] = v
    return mat


@pytest.mark.parametrize("atoms", [
    (rg.Atom.gf(2, 2), rg.Atom.gf(2, 2), rg.Atom.zmod(2, 2)),
    (rg.Atom.gf(3, 2), rg.Atom.zmod(3, 2)),
    (rg.Atom.gf(2, 3), rg.Atom.gf(2, 2), rg.Atom.zmod(2)),
], ids=["gf4^2xz4", "gf9xz9", "gf8xgf4xz2"])
def test_tensor_mult_matrices_match_loops(atoms):
    rng = random.Random(len(atoms))
    A = rg.FiniteRing(atoms)
    R = rg.Subalgebra(A, [A.one_vec]).closure_under_mul()
    pool = [a.vec() for a in A.elements()]
    t = rg.TensorPresentation(A, R)
    for b in rng.sample(pool, 4):
        for side, got in (("left", kron_left(t, b)), ("right", kron_right(t, b))):
            want = _mult_matrix_by_loops(t, b, side)
            assert got.shape == want.shape and (got == want).all()
        got = dense(mult_difference(t, b))
        want = _mult_matrix_by_loops(t, b, "left") - _mult_matrix_by_loops(t, b, "right")
        assert got.shape == want.shape and (got == want).all()
