"""The separability check block by block, against the whole tensor.

Each trace-dual pair lives on one atom a, so the separability idempotent e
is the sum of its parts e_a, each in the diagonal block F_a (x)_R F_a of
its orbit tensor, and both defining equations hold on A exactly when they
hold on every such block (proof in `galois.is_separable`).  The block check
(`galois.verify_separability_idempotent`) is held here to the Kronecker
check on the whole tensor (`oracles.idempotent_check_by_kron` on
`oracles.whole_full_tensor`): e_a, each single-entry bump of it, and each
bump that keeps m(e_a) (x^i (x) x^j - 1 (x) x^i x^j added), with the other
atoms' parts left whole, all put in place on the whole tensor.  The cases
are two seeded corpora, with and without a zero, the benchmark's ladder
and brute-force rungs, the corpus fixtures, among them the S7 monoid on
GF(9)^3 (s7_f9cubed), C2 on GF(4)^2 x (Z/3)^2 and a twisted C2 on GF(4)^2,
whose two diagonal blocks differ.  `is_separable` is held to walk every
atom of every orbit.  Pins: `galois` reads no tensor's group on all pairs
(`TensorPresentation.pres`), and C4 on GF(4)^4 checks one block.
"""

import operator

import pytest

from fixtures import c2_swap, cyclic_shift, derivations
from oracles import (block_vector, idempotent_check_by_kron, joined_tensor_vector,
                     separability_idempotent_on_orbits, whole_full_tensor)
from semigalois import cli, galois as gl
from semigalois.instance import action_to_instance_text
from semigalois.rings import Atom, TensorPresentation
from test_atom_pair_blocks import INSTANCES, twisted_c2_on_gf4_squared
from test_bench_library_calls import workloads
from test_galois import _separability_cases


def _cases():
    cases = _separability_cases()
    cases["c2_gf4^2xz3^2"] = c2_swap([Atom.gf(2, 2), Atom.zmod(3)])
    cases["twisted_c2_gf4^2"] = twisted_c2_on_gf4_squared()
    return cases


CASES = _cases()
GROUPS = {group: [name for name in CASES if name.startswith(group)]
          for group in ("corpus2408", "zero2408", "rung")}
GROUPS["fixtures"] = [name for name in CASES if not name.startswith(("corpus2408", "zero2408", "rung"))]


def _perturbations(atom):
    """(kind, delta) on the atom's diagonal block: none, each single entry
    bumped by one, and for i >= 1 and each j, x^i (x) x^j - 1 (x) x^i x^j,
    which m takes to 0."""
    r = atom.coords
    units = [tuple(int(q == i) for q in range(r)) for i in range(r)]
    yield "e_a", (0,) * (r * r)
    for p in range(r * r):
        yield "bump", tuple(int(q == p) for q in range(r * r))
    for i in range(1, r):
        for j in range(r):
            delta = [0] * (r * r)
            delta[i * r + j] += 1
            for q, v in enumerate(atom.mul_coords(units[i], units[j])):
                delta[q] -= v
            yield "m-free", tuple(delta)


def check_block_verifier_against_kron(beta):
    """The block check's verdict on each perturbation of each distinct
    diagonal block and atom equals the Kronecker check's on the whole
    tensor; returns {(kind, verdict)} seen."""
    tensors = gl._full_tensor(beta)
    whole = whole_full_tensor(beta)
    kron = idempotent_check_by_kron(whole)
    parts = separability_idempotent_on_orbits(tensors)
    assert kron(joined_tensor_vector(tensors, whole, dict(enumerate(parts))))
    seen, outcomes = set(), set()
    for o, (_, tensor) in enumerate(tensors):
        for a, atom in enumerate(tensor.ring.atoms):
            pair = tensor.blocks[a][a]
            if (id(pair), atom) in seen:
                continue
            seen.add((id(pair), atom))
            e_a = gl.separability_idempotent_from_coordinates(atom)
            for kind, delta in _perturbations(atom):
                moved = dict(enumerate(parts))
                moved[o] = tuple(map(operator.add, parts[o], block_vector(tensor, a, a, delta)))
                got = gl.verify_separability_idempotent(pair, atom, tuple(map(operator.add, e_a, delta)))
                assert got == kron(joined_tensor_vector(tensors, whole, moved)), (o, a, kind, delta)
                outcomes.add((kind, got))
    return outcomes


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_block_verifier_matches_the_kron_check(group):
    """On every case e_a passes; the single bumps all fail, as m(e_a) moves
    by a nonzero x^i x^j; and some bump that keeps m(e_a) fails on the
    commutation equations alone."""
    outcomes = set()
    for name in GROUPS[group]:
        outcomes |= check_block_verifier_against_kron(CASES[name])
    assert ("e_a", False) not in outcomes and ("bump", True) not in outcomes
    assert ("m-free", False) in outcomes


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_is_separable_checks_every_diagonal_block(monkeypatch, group):
    """`is_separable` asks `_separable_block` of each atom of each orbit, in
    order, on the atom's diagonal block of its orbit tensor, and raises when
    the last one fails."""
    asked, failing = [], [None]

    def ask(pair, atom):
        asked.append((pair, atom))
        return pair is not failing[0]

    monkeypatch.setattr(gl, "_separable_block", ask)
    several = 0
    for name in GROUPS[group]:
        beta = CASES[name]
        tensors = gl._full_tensor(beta)
        want = [(tensor.blocks[a][a], atom) for _, tensor in tensors
                for a, atom in enumerate(tensor.ring.atoms)]
        asked.clear()
        failing[0] = None
        assert gl.is_separable(beta) is True
        assert len(asked) == len(want), name
        assert all(p is q and a is b for (p, a), (q, b) in zip(asked, want)), name
        several += any(len(tensor.ring.atoms) > 1 for _, tensor in tensors)
        failing[0] = want[-1][0]
        with pytest.raises(gl.CertificateMismatch, match="trace-dual separability idempotent"):
            gl.is_separable(beta)
    assert several  # some orbit has more than one atom


def _galois_files(directory):
    """The shipped instances, and the ladder rungs written to `directory`."""
    paths = sorted(INSTANCES.glob("*.sgi"))
    for i, rung in enumerate(workloads.ladder_rungs()):
        path = directory / f"rung_{i}.sgi"
        path.write_text(action_to_instance_text(rung.beta))
        paths.append(path)
    return paths


def test_galois_reads_no_whole_tensor_group(monkeypatch, capsysbinary, tmp_path):
    """No decision reads an orbit tensor's group on all pairs: with
    `TensorPresentation.pres` made to raise, `galois` decides every shipped
    instance and ladder rung as before, a PASS or a FAIL."""
    reads = []

    def refuse(tensor):
        reads.append(tensor)
        raise AssertionError("TensorPresentation.pres read")

    monkeypatch.setattr(TensorPresentation, "pres", property(refuse))
    for path in _galois_files(tmp_path):
        assert cli.main(["galois", str(path)]) in (0, 1), path.name
        out = capsysbinary.readouterr().out
        assert out.endswith((b"# result: PASS\n", b"# result: FAIL\n")), path.name
    assert reads == []


def test_c4_on_gf4_checks_one_separable_block(capsysbinary, tmp_path):
    """C4 rotating GF(4)^4: the four atoms are one object and A^beta is the
    diagonal, so the four diagonal blocks are one, and a `galois` decision
    derives one `_separable_block`."""
    path = tmp_path / "c4_gf4.sgi"
    path.write_text(action_to_instance_text(cyclic_shift(Atom.gf(2, 2), 4)))
    with derivations(gl._separable_block) as derived:
        assert cli.main(["galois", str(path)]) == 0
    capsysbinary.readouterr()
    assert list(derived.values()) == [1]
