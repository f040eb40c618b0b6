"""The free-part rule for separability against the separability solve.

A unital subalgebra B containing A^beta is separable over A^beta exactly
when each orbit part B e_O is free over A^beta e_O: always on GF(p^k) and
Z/p atoms, and on Z/p^k atoms when |B e_O| = |p^{k-1} B e_O|^k
(`actions.separability_violation`).  The rule is held here to
`oracles.is_separable_whole` on the whole ring, over every subalgebra the
brute-force scan finds: on seeded corpora with and without zero, on C_n
over (Z/p^k)^n and on a two-orbit ring.  `cross_check_equivalences` must
raise when the rule disagrees with the solve for B = A, also under
python -O.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import c2_fixed_atom_fixture, c2_swap, cyclic_shift
from semigalois import budget, galois
from semigalois.actions import invariant_ring, separability_violation
from semigalois.corpus import c2_swap_fixture, corpus
from semigalois.correspondence import enumerate_subalgebras_over
from semigalois.rings import Atom, Subalgebra
from oracles import is_separable_whole


def scan_verdicts(beta):
    """(subalgebras, separable ones) over A^beta, each judged by the rule and
    by the solve, which must agree."""
    base = invariant_ring(beta)
    subalgebras = enumerate_subalgebras_over(beta, base)
    separable = 0
    for B in subalgebras:
        by_solve = is_separable_whole(B, base) is not None
        assert (separability_violation(beta, B) is None) == by_solve, B
        separable += by_solve
    return len(subalgebras), separable


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10 ** 6), with_zero=st.booleans())
def test_rule_agrees_with_the_solve_on_seeded_scans(seed, with_zero):
    scan_verdicts(corpus(seed, 1, with_zero=with_zero)[0])


@pytest.mark.parametrize("p,k,n,subalgebras,separable", [
    (2, 3, 4, 231, 15),
    (2, 2, 3, 12, 5),
    (3, 2, 3, 13, 5),
    (2, 4, 2, 5, 2),
    (5, 2, 2, 3, 2),
    (3, 3, 2, 4, 2),
], ids=["c4_z8^4", "c3_z4^3", "c3_z9^3", "c2_z16^2", "c2_z25^2", "c2_z27^2"])
def test_rule_agrees_on_cyclic_shifts_of_zmod_atoms(p, k, n, subalgebras, separable):
    """On (Z/p^k)^n most subalgebras over the diagonal Z/p^k are not free."""
    assert scan_verdicts(cyclic_shift(Atom.zmod(p, k), n)) == (subalgebras, separable)


def test_rule_names_the_orbit_that_is_not_free():
    """C2 swapping Z/4 x Z/4 and Z/9 x Z/9 (orbits {0, 1} and {2, 3}): adjoining
    (3, 0) on the Z/9 orbit gives a part of order 27 with one residue class
    mod 3, not free over Z/9; the Z/4 part stays the diagonal.  The rule
    charges no budget."""
    beta = c2_swap([Atom.zmod(2, 2), Atom.zmod(3, 2)])
    A, base = beta.A, invariant_ring(beta)
    B, full = base.adjoin((0, 0, 3, 0)), Subalgebra.full(A)
    assert [block.atoms for block in beta.orbits] == [(0, 1), (2, 3)]
    with budget.limit(0):
        assert separability_violation(beta, base) is None
        assert separability_violation(beta, full) is None
        assert separability_violation(beta, B).atoms == (2, 3)
    assert is_separable_whole(B, base) is None
    subalgebras, separable = scan_verdicts(beta)
    assert separable < subalgebras


@pytest.mark.parametrize("fixture", [c2_swap_fixture, c2_fixed_atom_fixture],
                         ids=lambda f: f.__name__)
def test_cross_check_raises_when_the_rule_disagrees_with_the_solve(monkeypatch, fixture):
    """A is always free over A^beta, so a rule that names an orbit for B = A
    disagrees with the solve; without the plant the cross-check passes."""
    galois.cross_check_equivalences(fixture())
    monkeypatch.setattr(galois, "separability_violation", lambda beta, B: beta.orbits[0])
    with pytest.raises(galois.EquivalenceViolation, match="free-part rule"):
        galois.cross_check_equivalences(fixture())


_OPTIMIZED_PROBE = textwrap.dedent("""
    import sys
    from semigalois import galois as gl
    from fixtures import c2_fixed_atom_fixture
    from semigalois.corpus import c2_swap_fixture
    if __debug__:
        sys.exit(3)
    gl.separability_violation = lambda beta, B: beta.orbits[0]
    for fixture in (c2_swap_fixture, c2_fixed_atom_fixture):
        try:
            gl.cross_check_equivalences(fixture())
        except gl.EquivalenceViolation:
            continue
        sys.exit(1)
    sys.exit(0)
""")


def test_planted_rule_disagreement_raises_under_optimize():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_PROBE],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
