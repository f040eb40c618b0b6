"""The atom-combinatorial model of an action against the linear algebra.

Every beta_s matches atoms Z/p^k and GF(p^k) with Frobenius twists, and
on this class A is beta-Galois exactly when each s whose map fixes an atom
with twist 0 is idempotent (`actions.fixed_atom_violation`), and |A^beta|
is the product over the orbits of the twist-fixed part of one atom
(`actions.invariant_order_from_atoms`).  Both are held here to the
coordinate solve and to `invariant_ring`: on seeded corpora with and
without zero, on non-E-unitary draws, on non-injective actions pulled back
along a projection S x T -> S, on the corpus fixtures and on the shipped
instances.  `cross_check_equivalences` must raise when the rule or the
count disagrees with the criteria, also under python -O.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (c2_fixed_atom_fixture, chain_semilattice_fixture,
                      collapsing_semilattice_fixture, group_with_zero_fixture, trace_gap_fixture)
from oracles import direct_product
from semigalois import galois
from semigalois.actions import (fixed_atom_violation, invariant_order_from_atoms,
                                invariant_ring, is_injective, validate_action)
from semigalois.corpus import b2_swap_fixture, c2_swap_fixture, c2_table, corpus, f9_cubed_fixture
from semigalois.instance import parse_instance
from semigalois.rings import Atom, FiniteRing, StructuredIso
from semigalois.semigroups import is_e_unitary, validate_table

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

CHAIN = validate_table([[0, 1], [1, 1]], names=["1", "f"])
C4 = validate_table([[(i + j) % 4 for j in range(4)] for i in range(4)],
                    names=["1", "g", "g2", "g3"])


def pulled_back(beta, T):
    """beta on S x T through the projection to S: never injective."""
    P = direct_product(beta.S, T)
    return validate_action(P, beta.A, [beta.isos[i // T.n] for i in range(P.n)])


def assert_model_agrees(beta):
    """The rule against the coordinate solve, the count against A^beta; the verdict."""
    galois_by_solve = galois.solve_galois_coordinates(beta) is not None
    assert (fixed_atom_violation(beta) is None) == galois_by_solve
    assert galois.is_galois(beta) == galois_by_solve
    assert invariant_order_from_atoms(beta) == invariant_ring(beta).order
    return galois_by_solve


DRAWS = {  # kind -> (corpus keywords, predicate, semigroup to pull back along)
    "plain": ({}, None, None),
    "zero": ({"with_zero": True}, None, None),
    "not E-unitary": ({}, lambda beta: not is_e_unitary(beta.S), None),
    "over a chain": ({}, None, CHAIN),
    "over C2": ({}, None, c2_table()),
    "zero over a chain": ({"with_zero": True}, None, CHAIN),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10 ** 6), kind=st.sampled_from(sorted(DRAWS)))
def test_rule_and_count_agree_on_seeded_draws(seed, kind):
    keywords, predicate, T = DRAWS[kind]
    beta = corpus(seed, 1, predicate=predicate, **keywords)[0]
    if T is not None:
        beta = pulled_back(beta, T)
        assert not is_injective(beta)
    assert_model_agrees(beta)


FIXTURES = [b2_swap_fixture, c2_fixed_atom_fixture, c2_swap_fixture, chain_semilattice_fixture,
            collapsing_semilattice_fixture, f9_cubed_fixture, group_with_zero_fixture,
            trace_gap_fixture]


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda f: f.__name__)
def test_rule_and_count_agree_on_the_corpus_fixtures(fixture):
    assert_model_agrees(fixture())


@pytest.mark.parametrize("path", sorted(INSTANCES.glob("*.sgi")), ids=lambda p: p.stem)
def test_rule_and_count_agree_on_the_shipped_instances(path):
    assert_model_agrees(parse_instance(path))


def zmod_fixed_by_a_non_idempotent():
    """C2 swapping two Z/4 atoms and fixing a Z/9 atom: g fixes atom 2."""
    A = FiniteRing([Atom.zmod(2, 2), Atom.zmod(2, 2), Atom.zmod(3, 2)])
    return validate_action(c2_table(), A, [StructuredIso.identity_on(A, range(3)),
                                           StructuredIso(A, {0: 1, 1: 0, 2: 2}, {})])


def gf16_squared_frobenius():
    """C2 on GF(16) x F_3 x F_3: g is Frobenius^2 on GF(16) and swaps the F_3s."""
    A = FiniteRing([Atom.gf(2, 4), Atom.zmod(3), Atom.zmod(3)])
    return validate_action(c2_table(), A, [StructuredIso.identity_on(A, range(3)),
                                           StructuredIso(A, {0: 0, 1: 2, 2: 1}, {0: 2})])


def gf16_frobenius():
    """C4 on GF(16) by the powers of Frobenius: each non-identity twist fixes atom 0."""
    A = FiniteRing([Atom.gf(2, 4)])
    return validate_action(C4, A, [StructuredIso(A, {0: 0}, {0: t}) for t in range(4)])


@pytest.mark.parametrize("build,violation,order", [
    (zmod_fixed_by_a_non_idempotent, (1, 2), 4 * 9),
    (gf16_squared_frobenius, None, 4 * 3),  # GF(16) fixed by {0, 2}: GF(4)
    (gf16_frobenius, None, 2),
], ids=["zmod-fixed", "gf16-frob2", "gf16-frob"])
def test_fixed_atoms_decide_and_twists_count(build, violation, order):
    """A non-idempotent fixing a Z/p^k atom breaks Galois-ness; one fixing a
    GF(p^k) atom with a nonzero twist does not.  The cross-check agrees."""
    beta = build()
    assert fixed_atom_violation(beta) == violation
    assert invariant_order_from_atoms(beta) == order
    assert assert_model_agrees(beta) == (violation is None)
    report = galois.cross_check_equivalences(beta)
    assert report.galois == (violation is None) and report.invariants_order == order


PLANTS = {  # name -> (the function replaced, its replacement given the real one)
    "rule flipped": ("fixed_atom_violation",
                     lambda real: lambda beta: None if real(beta) else (0, 0)),
    "count doubled": ("invariant_order_from_atoms", lambda real: lambda beta: 2 * real(beta)),
}


@pytest.mark.parametrize("plant", sorted(PLANTS))
@pytest.mark.parametrize("fixture", [c2_swap_fixture, c2_fixed_atom_fixture],
                         ids=lambda f: f.__name__)
def test_cross_check_raises_on_a_planted_disagreement(monkeypatch, plant, fixture):
    name, replacement = PLANTS[plant]
    monkeypatch.setattr(galois, name, replacement(getattr(galois, name)))
    with pytest.raises(galois.EquivalenceViolation):
        galois.cross_check_equivalences(fixture())


_OPTIMIZED_PROBE = textwrap.dedent("""
    import sys
    from semigalois import galois as gl
    from fixtures import c2_fixed_atom_fixture
    from semigalois.corpus import c2_swap_fixture
    if __debug__:
        sys.exit(3)
    if sys.argv[1] == "rule":
        real = gl.fixed_atom_violation
        gl.fixed_atom_violation = lambda beta: None if real(beta) else (0, 0)
    else:
        real = gl.invariant_order_from_atoms
        gl.invariant_order_from_atoms = lambda beta: 2 * real(beta)
    for fixture in (c2_swap_fixture, c2_fixed_atom_fixture):
        try:
            gl.cross_check_equivalences(fixture())
        except gl.EquivalenceViolation:
            continue
        sys.exit(1)
    sys.exit(0)
""")


@pytest.mark.parametrize("plant", ["rule", "count"])
def test_planted_disagreement_raises_under_optimize(plant):
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_PROBE, plant],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
