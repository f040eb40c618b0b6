import contextlib
import random

import pytest

from oracles import (close_isos_by_objects, element_sum, iso_apply_by_polynomials, iso_pu_elements,
                     upper_bounds)
from semigalois import corpus as cp
from semigalois import isopu
from semigalois.corpus import random_ring, random_structured_iso, f9_cubed_fixture
from semigalois.rings import Atom, FiniteRing, StructuredIso, TooLarge


def f3f3():
    return FiniteRing([Atom.zmod(3), Atom.zmod(3)])


def test_compose_with_inverse_is_identity_on_image():
    A = f3f3()
    swap = StructuredIso(A, {0: 1, 1: 0}, {})
    assert isopu.compose(swap, swap.inverse()) == StructuredIso.identity_on(A, {0, 1})
    assert isopu.compose(swap, swap) == StructuredIso.identity_on(A, {0, 1})


def test_empty_iso_is_absorbing():
    A = f3f3()
    zero = StructuredIso.empty(A)
    swap = StructuredIso(A, {0: 1, 1: 0}, {})
    assert isopu.compose(zero, swap) == zero
    assert isopu.compose(swap, zero) == zero
    assert isopu.is_idempotent_iso(zero)


@pytest.mark.parametrize("seed", range(10))
def test_compose_associative_extensionally(seed):
    rng = random.Random(seed)
    A = random_ring(rng, max_atoms=2)
    while A.size > 1024:
        A = random_ring(rng, max_atoms=2)
    f, g, h = (random_structured_iso(rng, A) for _ in range(3))
    left = isopu.compose(isopu.compose(f, g), h)
    right = isopu.compose(f, isopu.compose(g, h))
    assert left == right
    for a in A.elements():
        masked = a.mask(left.dom_support)
        assert left.apply(masked) == right.apply(masked)


@pytest.mark.parametrize("seed", range(10))
def test_tuple_kernel_agrees_with_the_iso_objects(seed):
    """The tuple kernel, `isopu` on `atom_map`s, agrees with the isos as maps.
    On every element of a sample (all of A when |A| <= 16, else the unit
    vectors and 8 seeded elements), `compose` is the two isos applied in
    sequence by `iso_apply_by_polynomials`, `inverse` undoes the iso on its
    domain and image, and `join_sum` of a compatible pair is the first iso
    plus the second off the first's domain.  Two isos have equal `atom_map`s
    exactly when they are equal, exactly when they agree on the sample, and
    equal isos hash equal."""
    rng = random.Random(seed)
    A = random_ring(rng, max_atoms=3)
    isos = [random_structured_iso(rng, A) for _ in range(4)] + [StructuredIso.empty(A)]
    isos += [isopu.compose(f, g) for f in isos for g in isos]
    if A.size <= 16:
        sample = list(A.elements())
    else:
        sample = [A.from_vec(e) for e in A.basis_vectors()]
        sample += [A.from_vec(tuple(rng.randrange(m) for m in A.coord_moduli)) for _ in range(8)]
    images = {}  # by `atom_map`, which is all that the oracle reads

    def on_sample(f):
        if f.atom_map not in images:
            images[f.atom_map] = [iso_apply_by_polynomials(f, x) for x in sample]
        return images[f.atom_map]

    for f in isos:
        inv = f.inverse()
        assert [iso_apply_by_polynomials(inv, y) for y in on_sample(f)] == [x.mask(f.dom_support) for x in sample]
        assert [iso_apply_by_polynomials(f, y) for y in on_sample(inv)] == [x.mask(f.im_support) for x in sample]
        for g in isos:
            assert on_sample(isopu.compose(f, g)) == [iso_apply_by_polynomials(f, y) for y in on_sample(g)]
            assert (f.atom_map == g.atom_map) == (f == g) == (on_sample(f) == on_sample(g))
            if f == g:
                assert hash(f) == hash(g)
            if isopu.is_compatible(f, g):
                rest = [iso_apply_by_polynomials(g, x.mask(g.dom_support - f.dom_support)) for x in sample]
                assert on_sample(isopu.join_sum([f, g])) == list(map(element_sum, on_sample(f), rest))


def test_compatibility_on_fixture():
    beta = f9_cubed_fixture()
    names = {beta.S.names[i]: i for i in range(beta.S.n)}
    b_s = beta.isos[names["s"]]
    b_si = beta.isos[names["s'"]]
    b_t = beta.isos[names["t"]]
    assert isopu.is_compatible(b_s, b_t)
    assert isopu.is_compatible(b_s, b_si)
    assert isopu.is_compatible(b_t, b_t)
    join = isopu.join_sum([b_s, b_si, b_t])
    # the involution a e1 + b e2 + c e3 -> c e1 + b^3 e2 + a e3
    A = beta.A
    a = A.element([(1, 0), (0, 1), (2, 2)])
    assert join.apply(a) == A.element([(2, 2), (0, 2), (1, 0)])
    assert isopu.natural_leq_iso(b_t, join)


def test_swap_incompatible_with_identity():
    A = f3f3()
    swap = StructuredIso(A, {0: 1, 1: 0}, {})
    ident = StructuredIso.identity_on(A, {0, 1})
    assert not isopu.is_compatible(swap, ident)
    with pytest.raises(isopu.NotCompatible):
        isopu.join_sum([swap, ident])


def test_join_singleton_and_complementary_identities():
    A = f3f3()
    i0 = StructuredIso.identity_on(A, {0})
    i1 = StructuredIso.identity_on(A, {1})
    assert isopu.join_sum([i0]) == i0
    assert isopu.join_sum([i0, i1]) == StructuredIso.identity_on(A, {0, 1})


def test_natural_order_examples():
    A = f3f3()
    ident = StructuredIso.identity_on(A, {0, 1})
    restr = StructuredIso.identity_on(A, {0})
    swap = StructuredIso(A, {0: 1, 1: 0}, {})
    assert isopu.natural_leq_iso(restr, ident)
    assert not isopu.natural_leq_iso(ident, restr)
    assert not isopu.natural_leq_iso(swap, ident)


@pytest.mark.parametrize("seed", range(30))
def test_join_is_least_upper_bound(seed):
    """Compatible families from restrictions of one iso; joins checked
    against every upper bound in the full Iso_pu(A)."""
    rng = random.Random(700 + seed)
    A = random_ring(rng, max_atoms=3)
    big = random_structured_iso(rng, A)
    if not big.matching:
        return
    fam = []
    for _ in range(rng.randint(1, 3)):
        keep = [i for i in big.matching if rng.random() < 0.7]
        fam.append(StructuredIso(A, {i: big.matching[i] for i in keep},
                                 {i: big.twist[i] for i in keep}))
    join = isopu.join_sum(fam)
    for f in fam:
        assert isopu.natural_leq_iso(f, join)
    assert isopu.natural_leq_iso(join, big)
    universe = iso_pu_elements(A)
    for ub in upper_bounds(fam, universe):
        assert isopu.natural_leq_iso(join, ub)


def test_iso_pu_enumeration_counts():
    A = FiniteRing([Atom.zmod(3)])
    # supports {}, {0}: empty iso and the identity
    assert len(iso_pu_elements(A)) == 2
    B = f3f3()
    # 1 empty + 2x2 singleton matchings + 2 full matchings = 7
    assert len(iso_pu_elements(B)) == 7


def _gf9_ring():
    return FiniteRing([Atom.gf(3, 2), Atom.gf(3, 2), Atom.zmod(3, 2), Atom.gf(3, 2)])


def test_isos_built_by_different_routes_are_equal_and_hash_equal():
    """Equality reads the atom maps, whatever the insertion order of the
    dicts they were built from, and the ring by value; the hash agrees with it."""
    A = _gf9_ring()
    f = StructuredIso(A, {0: 1, 1: 0, 2: 2}, {0: 1})
    ident = StructuredIso.identity_on(A, {0, 1, 2})
    same = [
        StructuredIso(A, {2: 2, 1: 0, 0: 1}, {2: 0, 1: 0, 0: 3}),
        StructuredIso.trusted(A, ((1, 1), (0, 0), (2, 0), None)),
        StructuredIso(_gf9_ring(), {0: 1, 1: 0, 2: 2}, {0: 1}),
        isopu.compose(f, ident),
        isopu.compose(ident, f),
        f.inverse().inverse(),
    ]
    for g in same:
        assert g == f and f == g and hash(g) == hash(f)
    assert len({f, *same}) == 1
    assert f.inverse() == StructuredIso(A, {1: 0, 0: 1, 2: 2}, {1: 1})
    assert hash(f.inverse()) == hash(StructuredIso(A, {2: 2, 0: 1, 1: 0}, {1: 1}))


def test_isos_that_differ_in_twist_or_matching_alone_are_unequal():
    A = _gf9_ring()
    f = StructuredIso(A, {0: 1, 1: 0, 2: 2}, {0: 1})
    assert f != StructuredIso(A, {0: 1, 1: 0, 2: 2}, {1: 1})
    assert f != StructuredIso(A, {0: 1, 1: 0, 2: 2}, {})
    assert f != StructuredIso(A, {0: 3, 1: 0, 2: 2}, {0: 1})
    assert f != StructuredIso(A, {0: 1, 1: 0}, {0: 1})
    assert f != StructuredIso(FiniteRing([Atom.gf(3, 2)] * 2 + [Atom.zmod(3, 2), Atom.zmod(3)]),
                              {0: 1, 1: 0, 2: 2}, {0: 1})
    assert f != f.matching and f != (f.matching, f.twist)


def test_iso_hash_is_stable_across_calls():
    A = _gf9_ring()
    f = StructuredIso(A, {3: 3, 0: 1, 1: 0}, {0: 1, 3: 1})
    first = hash(f)
    assert {f: 1}[StructuredIso.trusted(A, ((1, 1), (0, 0), None, (3, 1)))] == 1
    f.application_plan()
    assert hash(f) == first == hash(f)


def _closure_draws():
    """100 seeded draws of the identity and three isos on up to five atoms,
    each with the closure that composes every pair from both of its sides
    (None past 24 isos)."""
    for seed in range(100):
        rng = random.Random(seed)
        A = random_ring(rng, max_atoms=5)
        gens = [StructuredIso.identity_on(A, range(len(A.atoms)))]
        gens += [random_structured_iso(rng, A) for _ in range(3)]
        try:
            yield gens, close_isos_by_objects(gens, 24)
        except TooLarge:
            yield gens, None


def test_iso_closure_equals_the_closure_composed_on_objects():
    """The same isos in the same order, or TooLarge alike past the cap; and
    without the empty iso, None exactly when the closure holds it (or has
    not closed by the cap)."""
    kinds = []
    for gens, expected in _closure_draws():
        empty = StructuredIso.empty(gens[0].ring)
        if expected is None:
            with pytest.raises(TooLarge):
                cp.close_isos(gens, cap=24)
            with contextlib.suppress(TooLarge):
                assert cp.close_isos(gens, cap=24, allow_empty=False) is None
        else:
            assert cp.close_isos(gens, cap=24) == expected
            refused = cp.close_isos(gens, cap=24, allow_empty=False)
            assert refused == (None if empty in expected else expected)
        kinds.append("too large" if expected is None else empty in expected)
    assert [kinds.count(k) for k in ("too large", True, False)] == [8, 35, 57]


# The compositions that the iso closures of two corpus streams take, pinned
# as ceilings that may only fall.  Composing every pair from both of its
# sides, the closures took 7 026 and 7 144.
CLOSURE_COMPOSITIONS = {(200, False): 2_916, (100, True): 4_766}


@pytest.mark.parametrize("count, with_zero", sorted(CLOSURE_COMPOSITIONS))
def test_iso_closures_stay_under_their_composition_ceilings(monkeypatch, count, with_zero):
    calls = [0, 0]  # every composition, and those inside close_isos
    real_compose, real_close = isopu.compose, cp.close_isos

    def counting_compose(f, g):
        calls[0] += 1
        return real_compose(f, g)

    def counting_close(*args, **kwargs):
        before = calls[0]
        try:
            return real_close(*args, **kwargs)
        finally:
            calls[1] += calls[0] - before

    monkeypatch.setattr(isopu, "compose", counting_compose)
    monkeypatch.setattr(cp, "close_isos", counting_close)
    cp.corpus(2408, count, with_zero=with_zero)
    assert calls[1] <= CLOSURE_COMPOSITIONS[count, with_zero], calls[1]
