"""The moved atoms of a family of isos against the polynomial route.

`actions.moved_atoms` reads each vector by atom once and twists a chunk
only where a generator lives on both ends of a map (`Atom.frobenius`).
`oracles.moved_atoms_by_polynomials` applies every iso to every masked
generator through the polynomial Frobenius and compares the images with
the masked generators atom by atom, reading no Frobenius column.  The two
must agree on B = A, on A^beta and, where |A| <= `SCANNED`, on every
subalgebra over A^beta of every case, and on every call that `correspond`
or `zero` makes on it: the moved atoms of each fixed ring and of each
separable subalgebra the brute-force scan finds (S_B and strongness), and
`fixed_ring`'s own check.  The scanned subalgebras include some that are
not free over A^beta, such as {(x, y) : x = y mod 2} in (Z/4)^2, on which
a generator can live on the image atom of a map and not on its source.
The cases are the seeded corpora, plain and with a zero, the benchmark's
ladder and brute-force rungs, the fixtures (a zero and a non-injective
action among them) and the shipped instances.
"""

from pathlib import Path

from oracles import moved_atoms_by_polynomials
from semigalois import actions, galois
from semigalois.actions import invariant_ring
from semigalois.correspondence import (enumerate_subalgebras_over, verify_e_unitary_correspondence,
                                       verify_general_correspondence)
from semigalois.galois import PreconditionFail
from semigalois.instance import parse_instance
from semigalois.rings import Subalgebra
from semigalois.semigroups import is_e_unitary
from semigalois.zerocase import verify_zero_correspondence
from test_galois import _separability_cases

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SCANNED = 400


def _agrees(A, isos, gens, got):
    return got == moved_atoms_by_polynomials(isos, [A.from_vec(g) for g in gens])


def _correspond(beta):
    """Run the command's correspondence on beta, with the brute-force scan
    where |A| <= `SCANNED`, unless a precondition fails."""
    if beta.S.zero is not None:
        verify = verify_zero_correspondence
    elif actions.is_injective(beta) and is_e_unitary(beta.S):
        verify = verify_e_unitary_correspondence
    else:
        verify = verify_general_correspondence
    try:
        verify(beta, brute_force_subalgebras=beta.A.size <= SCANNED)
    except PreconditionFail:
        pass


def test_moved_atoms_match_the_polynomial_route(monkeypatch):
    cases = _separability_cases()
    cases.update((p.stem, parse_instance(p)) for p in sorted(INSTANCES.glob("*.sgi")))
    calls = []
    original = actions.moved_atoms

    def recording(A, isos, gens):
        got = original(A, isos, gens)
        calls.append((A, tuple(isos), tuple(gens), got))
        return got
    for module in (actions, galois):
        monkeypatch.setattr(module, "moved_atoms", recording)
    moved = checked = 0
    for name, beta in cases.items():
        A = beta.A
        inv = invariant_ring(beta)
        scanned = enumerate_subalgebras_over(beta, inv) if A.size <= SCANNED else []
        for B in (Subalgebra.full(A), inv, *scanned):
            got = original(A, beta.isos, B.gen_vectors)
            assert _agrees(A, beta.isos, B.gen_vectors, got), (name, B)
            moved += any(got)
        calls.clear()
        _correspond(beta)
        assert all(_agrees(*call) for call in calls), name
        checked += len(calls)
    assert moved > 100 and checked > 500
