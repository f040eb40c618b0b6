"""The atom-combinatorial model of an action against the linear algebra.

Every beta_s matches atoms Z/p^k and GF(p^k) with Frobenius twists, and
on this class A is beta-Galois exactly when each s whose map fixes an atom
with twist 0 is idempotent (`actions.fixed_atom_violation`), and A^beta is,
on each orbit, the twist-fixed values of one atom carried along the orbit
(`actions.fixed_ring`).  The rule, and the coordinate criterion built on it
(`galois.solve_galois_coordinates`: the trace-dual pairs, or the rule's
witness), are held here to the whole coordinate solve
(`oracles.solve_coordinates_whole`), the pairs to the element route
(`oracles.verify_coordinates_by_elements`), and A^beta to the kernel route
(`oracles.invariant_ring_by_all_kernels`): on
seeded corpora with and without zero, on non-E-unitary draws, on
non-injective actions pulled back along a projection S x T -> S, on the
corpus fixtures and on the shipped instances.  `cross_check_equivalences`
must raise when the rule disagrees with the criteria, and `fixed_ring` when
its basis disagrees with its count from the atoms, also under python -O.
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
from oracles import (direct_product, invariant_ring_by_all_kernels, solve_coordinates_whole,
                     verify_coordinates_by_elements)
from semigalois import actions, galois
from semigalois.actions import fixed_atom_violation, invariant_ring, is_injective, validate_action
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
    """The rule and the candidate against the whole solve, A^beta against the
    kernel route; the verdict."""
    galois_by_solve = solve_coordinates_whole(beta, *galois._galois_system(beta)) is not None
    assert (fixed_atom_violation(beta) is None) == galois_by_solve
    assert galois.is_galois(beta) == galois_by_solve
    coords = galois.solve_galois_coordinates(beta)
    assert (coords is not None) == galois_by_solve
    assert coords is None or verify_coordinates_by_elements(beta, coords)
    assert invariant_ring(beta).basis == invariant_ring_by_all_kernels(beta).basis
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


def gf4_twisted_swap():
    """C2 on GF(4)^2: g swaps the atoms, with Frobenius both ways."""
    A = FiniteRing([Atom.gf(2, 2)] * 2)
    return validate_action(c2_table(), A, [StructuredIso.identity_on(A, range(2)),
                                           StructuredIso(A, {0: 1, 1: 0}, {0: 1, 1: 1})])


@pytest.mark.parametrize("build,violation,order", [
    (zmod_fixed_by_a_non_idempotent, (1, 2), 4 * 9),
    (gf16_squared_frobenius, None, 4 * 3),  # GF(16) fixed by {0, 2}: GF(4)
    (gf16_frobenius, None, 2),
    (gf4_twisted_swap, None, 4),  # (u, Frob(u)): atom 1 is reached with twist 1
], ids=["zmod-fixed", "gf16-frob2", "gf16-frob", "gf4-twisted-swap"])
def test_fixed_atoms_decide_and_twists_count(build, violation, order):
    """A non-idempotent fixing a Z/p^k atom breaks Galois-ness; one fixing a
    GF(p^k) atom with a nonzero twist does not.  A twisted swap carries the
    fixed values of one atom to the other by its twist.  The cross-check
    agrees."""
    beta = build()
    assert fixed_atom_violation(beta) == violation
    assert invariant_ring(beta).order == order
    assert assert_model_agrees(beta) == (violation is None)
    report = galois.cross_check_equivalences(beta)
    assert report.galois == (violation is None) and report.invariants_order == order


def doubled_order(real):
    """`Subalgebra` whose order reads twice its basis's: fixed_ring's count
    from the atoms is then half the order it checks it against."""
    def build(ring, gen_vectors):
        sub = real(ring, gen_vectors)
        sub.order *= 2
        return sub
    return build


# The flipped rule is the coordinate criterion's witness too: on a Galois
# instance the criteria then disagree, and on any other its candidate fails.
FLIP_CAUGHT = "criteria disagree|trace-dual coordinates fail"
PLANTS = {  # name -> (module, the name replaced, its replacement given the real one,
    #          the raise and its message)
    "rule flipped": (galois, "fixed_atom_violation",
                     lambda real: lambda beta: None if real(beta) else (0, 0),
                     (galois.EquivalenceViolation, galois.CertificateMismatch), FLIP_CAUGHT),
    "count doubled": (actions, "Subalgebra", doubled_order, AssertionError, "atoms count"),
}


@pytest.mark.parametrize("plant", sorted(PLANTS))
@pytest.mark.parametrize("fixture", [c2_swap_fixture, c2_fixed_atom_fixture],
                         ids=lambda f: f.__name__)
def test_cross_check_raises_on_a_planted_disagreement(monkeypatch, plant, fixture):
    module, name, replacement, error, message = PLANTS[plant]
    monkeypatch.setattr(module, name, replacement(getattr(module, name)))
    with pytest.raises(error, match=message):
        galois.cross_check_equivalences(fixture())


_OPTIMIZED_PROBE = textwrap.dedent("""
    import re
    import sys
    from semigalois import actions, galois as gl
    from fixtures import c2_fixed_atom_fixture
    from semigalois.corpus import c2_swap_fixture
    from test_atom_model import FLIP_CAUGHT, doubled_order
    if __debug__:
        sys.exit(3)
    if sys.argv[1] == "rule":
        real = gl.fixed_atom_violation
        gl.fixed_atom_violation = lambda beta: None if real(beta) else (0, 0)
        error, message = (gl.EquivalenceViolation, gl.CertificateMismatch), FLIP_CAUGHT
    else:
        actions.Subalgebra = doubled_order(actions.Subalgebra)
        error, message = AssertionError, "atoms count"
    for fixture in (c2_swap_fixture, c2_fixed_atom_fixture):
        try:
            gl.cross_check_equivalences(fixture())
        except error as exc:
            if re.search(message, str(exc)):
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
