"""Scalar extension R (x)_{A^beta} A: the base-change property.

No command decides a scalar extension; the paper's base-change statement
is checked here.  `tests/oracles.py` builds the extension on a presented
base with its own relation, act and mask loops (`extend_scalars_by_loops`)
and re-tests it by the trace criterion
(`scalar_extension_is_galois_by_loops`), for R = A^beta (the inclusion)
and for foreign rings R with a structural map from A^beta: the full ring
A, each atom of A (a projection), F3 x F3 over a diagonal, and the
fixtures of the Galois tests.  On every case the extension is Galois
again, and its `act` and sigma trace agree with each iso applied as a
block-diagonal copy of its matrix by polynomials.  Bad structural maps are
refused.
"""

import functools
import random

import pytest

from fixtures import collapsing_semilattice_fixture
from oracles import (ScalarExtensionByLoops, block_diag, extend_scalars_by_loops,
                     iso_matrix_by_polynomials, scalar_extension_is_galois_by_loops)
from semigalois.actions import NotInjective, induce_partial_group_action, invariant_ring, is_injective
from semigalois.corpus import c2_swap_fixture, corpus, f9_cubed_fixture
from semigalois.galois import is_galois
from semigalois.linalg import lattice_reduce
from semigalois.rings import Atom, FiniteRing
from semigalois.semigroups import is_e_unitary

GUARD = 1 << 14  # the |R| * |A| bound of the cases: the old scalar-extension guard


def _eligible(b):
    """The corpus of the scalar-extension acceptance criterion."""
    return (b.S.zero is None and is_e_unitary(b.S) and is_injective(b) and b.all_ideals_nonzero()
            and invariant_ring(b).order * b.A.size <= GUARD and is_galois(b))


def _batch():
    return corpus(777, 19, predicate=_eligible) + [c2_swap_fixture()]


def _projection(beta, i):
    """Atom i of A as a ring R, with each invariant generator sent to its i-th component."""
    A = beta.A
    lo, hi = A.atom_span(i)
    return FiniteRing([A.atoms[i]]), [g[lo:hi] for g in invariant_ring(beta).gen_vectors]


def foreign_cases():
    """(beta, R, structural images) with |R| * |A| within GUARD."""
    cases = []
    for beta in _batch():
        A, inv = beta.A, invariant_ring(beta)
        choices = [(FiniteRing(A.atoms), list(inv.gen_vectors))]
        choices += [_projection(beta, i) for i in range(len(A.atoms))]
        if inv.order == 3 and A.exponent % 3 == 0:
            F33 = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
            choices.append((F33, [F33.from_vec(F33.one_vec)]))
        cases += [(beta, R, images) for R, images in choices if R.size * A.size <= GUARD]
    c2 = c2_swap_fixture()
    for R in (FiniteRing([Atom.zmod(3)]), FiniteRing([Atom.zmod(3), Atom.zmod(3)])):
        cases.append((c2, R, [R.from_vec(R.one_vec)]))
    cases.append(_f9_over_gf9((0, 1)))
    return cases


def _f9_over_gf9(x_image):
    """The fixture's invariants onto GF(9), killing the middle component and
    sending x (with x^2 = -1) to `x_image`: a ring map when that is x."""
    f9 = f9_cubed_fixture()
    GF9 = FiniteRing([Atom.gf(3, 2, (1, 0, 1))])
    by_comps = {((1, 0), (0, 0), (1, 0)): GF9.from_vec(GF9.one_vec), ((0, 1), (0, 0), (0, 1)): GF9.element([x_image]),
                ((0, 0), (1, 0), (0, 0)): GF9.from_vec(GF9.zero_vec)}
    return f9, GF9, [by_comps[g.comps] for g in invariant_ring(f9).generators()]


def test_extension_over_the_invariants_is_galois():
    for beta in _batch():
        assert scalar_extension_is_galois_by_loops(extend_scalars_by_loops(beta))


def test_extension_over_foreign_rings_is_galois():
    cases = foreign_cases()
    assert len(cases) >= 43
    for beta, R, images in cases:
        assert scalar_extension_is_galois_by_loops(extend_scalars_by_loops(beta, R, images))


@pytest.mark.parametrize("r_given", [False, True], ids=["R-omitted", "R-given"])
def test_iso_application_matches_the_matrix_route(r_given):
    """act and sigma_trace_vec of the loop route agree with the matrix route,
    1 (x) f as k block-diagonal copies of f's matrix by polynomials
    (`iso_matrix_by_polynomials`), in the presented group on every
    generator and on seeded vectors with entries outside [0, modulus)."""
    rng = random.Random(2408)
    cases = foreign_cases() if r_given else [(beta,) for beta in _batch()]
    for case in cases:
        ext = extend_scalars_by_loops(*case)
        alpha = induce_partial_group_action(ext.beta)
        canon = functools.partial(lattice_reduce, ext.pres.lattice)
        by_matrix = {iso: block_diag([iso_matrix_by_polynomials(iso)] * ext.k)
                     for iso in {*ext.beta.isos, *alpha.isos}}
        n = ext.k * ext.l
        zs = [tuple(int(i == j) for j in range(n)) for i in range(n)]  # the generators
        zs += [tuple(rng.randrange(-99, 99) for _ in range(n)) for _ in range(3)]
        for z in zs:
            for iso in ext.beta.isos:
                assert canon(ext.act(iso, z)) == canon(by_matrix[iso].apply(z))
            trace = map(sum, zip(*(by_matrix[iso].apply(z) for iso in alpha.isos)))
            assert canon(ext.sigma_trace_vec(z, alpha)) == canon(tuple(trace))


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the class itself is what is compared
        return type(exc), str(exc)
    return None


def test_bad_structural_maps_are_refused():
    """Images scaled by 2, rotated, truncated or of the wrong length, and a
    unital map that is not multiplicative, are refused with the error that
    names the broken condition; the unchanged images are not.  R = A over
    the fixture, beyond the default size guard, is extended and Galois."""
    refused = set()
    for beta, R, images in foreign_cases() + [_f9_over_gf9((1, 0))]:
        vecs = [img.vec() if hasattr(img, "vec") else tuple(img) for img in images]
        bad = [vecs, [tuple(2 * x for x in v) for v in vecs], vecs[1:] + vecs[:1], vecs[:-1],
               [v + (0,) for v in vecs]]
        for b in bad:
            got = _outcome(extend_scalars_by_loops, beta, R, b)
            refused.add(got and got[1])
    assert refused == {None, "structural map must send 1 to 1",
                       "structural map is not multiplicative",
                       "one image in R per invariant-ring generator",
                       "structural images are coefficient vectors over R"}
    assert _outcome(extend_scalars_by_loops, *_f9_over_gf9((1, 0)))[1] == \
        "structural map is not multiplicative"
    beta = f9_cubed_fixture()
    big = FiniteRing(beta.A.atoms)
    images = list(invariant_ring(beta).gen_vectors)
    assert scalar_extension_is_galois_by_loops(extend_scalars_by_loops(beta, big, images,
                                                                       guard=big.size * beta.A.size))


def test_galois_re_test_raises_its_precondition_before_the_invariant_solve(monkeypatch):
    """sigma_trace_vec reads beta's induced alpha; the re-test asks for alpha
    first, so a non-injective beta is refused before any solve."""
    beta = collapsing_semilattice_fixture()
    solved = []
    monkeypatch.setattr(ScalarExtensionByLoops, "invariants_canon",
                        lambda self: solved.append(self))
    ext = extend_scalars_by_loops(beta)
    with pytest.raises(NotInjective):
        scalar_extension_is_galois_by_loops(ext)
    assert not solved
