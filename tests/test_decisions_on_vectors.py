"""Decisions compute on coordinate vectors and on trusted iso data.

A^beta is built from the atom maps' orbits and stabilizers, with no
lattice kernel, and has the canonical basis that a kernel for every s
gives (`oracles.invariant_ring_by_all_kernels`).  Composites, inverses, joins and
block restrictions of partial isos are built without the constructor's
checks (`StructuredIso.trusted`), and equal the checked isos of their own
data.  Inside `galois`, `correspond` and `zero`, a `RingElement` is built
only for a value the report prints.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import invariant_ring_by_all_kernels
from semigalois import actions, cli, isopu, linalg
from semigalois import rings as rg
from semigalois.corpus import corpus
from semigalois.instance import parse_instance
from semigalois.semigroups import validate_table

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SHIPPED = sorted(p.stem for p in INSTANCES.glob("*.sgi"))


def _shipped(name):
    return parse_instance(str(INSTANCES / f"{name}.sgi"))


def cn_rung(atom, n):
    """C_n shifting n copies of one atom cyclically, as on the galois ladder."""
    S = validate_table([[(i + j) % n for j in range(n)] for i in range(n)],
                       names=["1"] + [f"g{i}" for i in range(1, n)])
    A = rg.FiniteRing([atom] * n)
    return actions.validate_action(
        S, A, [rg.StructuredIso(A, {i: (i + g) % n for i in range(n)}, {}) for g in range(n)])


@pytest.mark.parametrize("make", [lambda: _shipped("c2_swap"), lambda: _shipped("s7_f9cubed"),
                                  lambda: cn_rung(rg.Atom.gf(2, 2), 4)],
                         ids=["c2_swap", "s7_f9cubed", "c4_gf4^4"])
def test_invariants_take_no_kernel(monkeypatch, make):
    """A^beta is read off the orbits and stabilizers of the atom maps: no
    module calls `kernel_gens`, and the basis is the kernel route's."""
    beta = make()
    calls = []
    original = linalg.kernel_gens
    for name, module in list(sys.modules.items()):
        if name.startswith("semigalois") and hasattr(module, "kernel_gens"):
            monkeypatch.setattr(module, "kernel_gens",
                                lambda *args: calls.append(args) or original(*args))
    inv = actions.invariant_ring(beta)
    assert calls == []
    monkeypatch.undo()
    assert inv.basis == invariant_ring_by_all_kernels(beta).basis


@pytest.mark.parametrize("seed,with_zero", [(3, False), (3, True), (2408, False), (2408, True)])
def test_invariants_keep_the_basis_of_a_kernel_for_every_map(seed, with_zero):
    betas = corpus(seed, 40, with_zero=with_zero)
    if seed == 3 and not with_zero:
        betas += [_shipped(name) for name in SHIPPED]
    for beta in betas:
        assert actions.invariant_ring(beta).basis == invariant_ring_by_all_kernels(beta).basis


ACTIONS = corpus(5, 12) + corpus(5, 8, with_zero=True) + corpus(2408, 12)


def _equals_its_checked_twin(iso):
    checked = rg.StructuredIso(iso.ring, iso.matching, iso.twist)
    assert iso == checked and checked == iso and hash(iso) == hash(checked)
    assert (iso.matching, iso.twist) == (checked.matching, checked.twist)
    assert (iso.dom_support, iso.im_support) == (checked.dom_support, checked.im_support)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_derived_isos_equal_their_checked_twins(data):
    """compose, inverse and join_sum over a compatible family, for isos drawn
    from seeded corpus actions with and without zero."""
    beta = data.draw(st.sampled_from(ACTIONS))
    f, g = data.draw(st.sampled_from(beta.isos)), data.draw(st.sampled_from(beta.isos))
    _equals_its_checked_twin(isopu.compose(f, g))
    _equals_its_checked_twin(f.inverse())
    family = [f]
    for h in data.draw(st.lists(st.sampled_from(beta.isos), max_size=3)):
        if all(isopu.is_compatible(h, k) for k in family):
            family.append(h)
    _equals_its_checked_twin(isopu.join_sum(family))


@pytest.mark.parametrize("command", ["galois", "correspond", "zero"])
def test_decisions_build_elements_only_to_print_them(monkeypatch, capsysbinary, command):
    """Each RingElement a command builds is printed once, and none is built
    for anything else: the decision itself runs on coordinate vectors."""
    built, printed = [], []
    init, show = rg.RingElement.__init__, rg.RingElement.__repr__
    monkeypatch.setattr(rg.RingElement, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    monkeypatch.setattr(rg.RingElement, "__repr__", lambda self: printed.append(self) or show(self))
    total = 0
    for name in SHIPPED:
        built.clear()
        printed.clear()
        cli.main([command, str(INSTANCES / f"{name}.sgi")])
        out = capsysbinary.readouterr().out.decode()
        assert sorted(map(id, built)) == sorted(map(id, printed)), name
        assert all(show(e) in out for e in built)
        total += len(built)
    assert (total > 0) == (command == "galois")
