import contextlib
import re
from pathlib import Path

import pytest

from semigalois import budget


def test_limit_blocks_nest_and_spending_outside_is_free():
    budget.spend("elements", 10 ** 9)
    with budget.limit(10):
        budget.spend("elements", 4)
        with budget.limit(3), pytest.raises(budget.BudgetExceeded) as exc:
            budget.spend("ring_products", 2)
            budget.spend("ring_products", 2)
        assert (exc.value.quantity, exc.value.spent, exc.value.limit) == ("ring_products", 4, 3)
        budget.spend("elements", 6)
        with pytest.raises(budget.BudgetExceeded):
            budget.spend("elements", 1)
    budget.spend("elements", 10 ** 9)


NUMBER_WORDS = {w: n for n, w in enumerate(
    "zero one two three four five six seven eight nine ten eleven twelve".split())}


def test_documented_margin_over_c20_holds(tmp_path, capsysbinary):
    """docs/format.md puts the default budget at "about m times" what `galois`
    spends on C20 rotating (Z/2)^20: the spend lies within DEFAULT / (m +- 1/2)."""
    from semigalois import cli
    from semigalois.instance import action_to_instance_text
    from test_polynomial_scans import cyclic_shift_on_z2

    doc = (Path(__file__).resolve().parent.parent / "docs" / "format.md").read_text()
    word = re.search(r"about (\w+) times what `galois` spends on C20", " ".join(doc.split()))
    m = NUMBER_WORDS[word.group(1)]
    path = tmp_path / "c20.sgi"
    path.write_text(action_to_instance_text(cyclic_shift_on_z2(20)))
    codes = [cli.main(["galois", str(path), "--budget", str(int(cli.DEFAULT_BUDGET / bound))])
             for bound in (m - 0.5, m + 0.5)]
    capsysbinary.readouterr()
    assert codes == [0, 3]


# What each command spends on each shipped instance, pinned as an upper bound
# so that work a decision repeats shows up here.  Columns: validate, analyze,
# galois, correspond, correspond --brute-force-subalgebras, zero.
SPEND_COMMANDS = [["validate"], ["analyze"], ["galois"], ["correspond"],
                  ["correspond", "--brute-force-subalgebras"], ["zero"]]
SPEND_CEILINGS = {
    "b2_f3f3": [0, 8, 0, 0, 0, 16],
    "c2_swap": [0, 17, 103, 24, 46, 0],
    "s7_f9cubed": [0, 27, 889, 93, 462, 0],
    "trace_gap_c2": [0, 8, 102, 0, 0, 0],
}


def _record_spends(monkeypatch):
    """The list that each budget block appends its total to when it closes."""
    real_limit, spent = budget.limit, []

    @contextlib.contextmanager
    def recording_limit(n):
        with real_limit(n):
            try:
                yield
            finally:
                spent.append(budget.spent())

    monkeypatch.setattr(budget, "limit", recording_limit)
    return spent


@pytest.mark.parametrize("instance", sorted(SPEND_CEILINGS))
def test_spend_per_shipped_instance_stays_under_its_ceiling(monkeypatch, capsysbinary, instance):
    from semigalois import cli

    path = Path(__file__).resolve().parent.parent / "instances" / f"{instance}.sgi"
    spent = _record_spends(monkeypatch)
    for command, ceiling in zip(SPEND_COMMANDS, SPEND_CEILINGS[instance]):
        cli.main([command[0], str(path), *command[1:]])
        assert spent[-1] <= ceiling, (command, spent[-1])  # the command's block, after parsing's
    capsysbinary.readouterr()


# `galois` on C2 swapping k pairs of Z/2 (k orbits of two atoms each), by k.
C2_PAIRS_CEILINGS = {32: 13_024, 128: 174_976}


def _c2_swapping_pairs_spend(monkeypatch, capsysbinary, tmp_path, k):
    """What `galois` spends on C2 swapping k pairs of Z/2, which must pass."""
    from semigalois import cli
    from semigalois.actions import validate_action
    from semigalois.corpus import c2_table
    from semigalois.instance import action_to_instance_text
    from semigalois.rings import Atom, FiniteRing, StructuredIso

    A = FiniteRing([Atom.zmod(2)] * (2 * k))
    beta = validate_action(c2_table(), A, [StructuredIso.identity_on(A, range(2 * k)),
                                           StructuredIso(A, {i: i ^ 1 for i in range(2 * k)}, {})])
    assert len(beta.orbits) == k
    path = tmp_path / f"c2_{k}_pairs.sgi"
    path.write_text(action_to_instance_text(beta))
    spent = _record_spends(monkeypatch)
    assert cli.main(["galois", str(path)]) == 0
    assert capsysbinary.readouterr().out.endswith(b"# result: PASS\n")
    return spent[-1]


def test_c2_swapping_32_pairs_passes_under_the_default_budget(monkeypatch, capsysbinary, tmp_path):
    """Solved one orbit at a time, the 64-atom swap is decided well inside the
    default budget; its spend is pinned as an upper bound."""
    spent = _c2_swapping_pairs_spend(monkeypatch, capsysbinary, tmp_path, 32)
    assert spent <= C2_PAIRS_CEILINGS[32], spent


def test_c2_swapping_128_pairs_passes_under_the_default_budget(monkeypatch, capsysbinary, tmp_path):
    """The 256-atom swap passes under the default budget: A^beta's 128
    generators each live on one orbit, and the closure check multiplies only
    the pairs on a common orbit."""
    spent = _c2_swapping_pairs_spend(monkeypatch, capsysbinary, tmp_path, 128)
    assert spent <= C2_PAIRS_CEILINGS[128], spent
