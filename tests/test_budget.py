import contextlib
import operator
import re
import time
from pathlib import Path

import pytest

from fixtures import c2_swap, cyclic_shift
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



def test_library_loading_is_bounded_only_inside_a_limit_block():
    """`generators = a b` with no relation presents the free inverse monoid on
    two generators, whose saturation never closes.  Outside any
    `budget.limit` block a `spend` is free, so the library loads it until
    memory runs out; inside one the saturation ends in BudgetExceeded, here
    within a second (the command line always loads inside `--budget`)."""
    from semigalois.instance import parse_instance_text
    text = "[semigroup]\ngenerators = a b\n\n[ring]\natom = zmod 2\n\n[action]\nmap = a : 0->0:0\n"
    start = time.process_time()
    with budget.limit(10_000), pytest.raises(budget.BudgetExceeded) as exc:
        parse_instance_text(text)
    assert exc.value.quantity == "coset_steps"
    assert time.process_time() - start < 1

def test_documented_margin_over_c20_holds(tmp_path, capsysbinary):
    """docs/format.md puts the default budget at "about m times" what `galois`
    spends on C20 rotating (Z/2)^20: the spend lies within DEFAULT / (m +- 1/2)."""
    from semigalois import cli
    from semigalois.instance import action_to_instance_text
    from semigalois.rings import Atom

    doc = (Path(__file__).resolve().parent.parent / "docs" / "format.md").read_text()
    m = int(re.search(r"about (\d+) times what `galois` spends on C20", " ".join(doc.split()))[1])
    path = tmp_path / "c20.sgi"
    path.write_text(action_to_instance_text(cyclic_shift(Atom.zmod(2), 20)))
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
    "b2_f3f3": [0, 4, 0, 0, 0, 12],
    "c2_swap": [0, 4, 16, 11, 22, 0],
    "s7_f9cubed": [0, 17, 99, 81, 256, 0],
    "trace_gap_c2": [0, 6, 27, 0, 0, 0],
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
    """All six spends are collected and compared at once, so that a failure
    shows every command whose spend moved above its ceiling."""
    from semigalois import cli

    path = Path(__file__).resolve().parent.parent / "instances" / f"{instance}.sgi"
    spent = _record_spends(monkeypatch)
    spends = []
    for command in SPEND_COMMANDS:
        cli.main([command[0], str(path), *command[1:]])
        spends.append(spent[-1])  # the command's block, after parsing's
    capsysbinary.readouterr()
    ceilings = SPEND_CEILINGS[instance]
    assert all(map(operator.le, spends, ceilings)), (spends, ceilings)


# `galois` on C2 swapping k pairs of Z/2 (k orbits of two atoms each), by k.
C2_PAIRS_CEILINGS = {32: 2_465, 128: 34_433, 512: 530_945}


def _c2_swapping_pairs_spend(monkeypatch, capsysbinary, tmp_path, k):
    """What `galois` spends on C2 swapping k pairs of Z/2, which must pass."""
    from semigalois import cli
    from semigalois.instance import action_to_instance_text
    from semigalois.rings import Atom

    beta = c2_swap([Atom.zmod(2)] * k)
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


def test_c2_swapping_512_pairs_passes_under_the_default_budget(monkeypatch, capsysbinary, tmp_path):
    """The 1 024-atom swap passes under the default budget: the coordinate
    check multiplies each trace-dual pair only on the atoms where both
    factors live (it ended in `FAIL budget quantity=ring_products
    spent=2000896` while it multiplied whole vectors, 1 024 atoms a call)."""
    spent = _c2_swapping_pairs_spend(monkeypatch, capsysbinary, tmp_path, 512)
    assert spent <= C2_PAIRS_CEILINGS[512], spent


# `galois` on C32 rotating GF(4)^32, one orbit of 32 atoms.
C32_GF4_CEILING = 3_314


def test_c32_on_gf4_galois_spend_stays_under_its_ceiling(monkeypatch, capsysbinary, tmp_path):
    """The one-orbit frontier: `galois` on C32 rotating GF(4)^32 passes, and
    its spend is pinned as an upper bound (160 582 while separability was
    solved over 31 algebra generators, 85 154 while the orbit tensor and
    psi were reduced over all 4 096 pairs and the coordinates multiplied
    whole vectors)."""
    from semigalois import cli
    from semigalois.instance import action_to_instance_text
    from semigalois.rings import Atom

    path = tmp_path / "c32_gf4.sgi"
    path.write_text(action_to_instance_text(cyclic_shift(Atom.gf(2, 2), 32)))
    spent = _record_spends(monkeypatch)
    assert cli.main(["galois", str(path)]) == 0
    assert capsysbinary.readouterr().out.endswith(b"# result: PASS\n")
    assert spent[-1] <= C32_GF4_CEILING, spent[-1]


# `correspond --brute-force-subalgebras` on C4 rotating (Z/16)^4.
C4_Z16_BRUTE_CEILING = 139_855


def test_c4_on_z16_brute_force_scan_passes_under_the_default_budget(monkeypatch, capsysbinary,
                                                                     tmp_path):
    """The brute-force scan on C4 rotating (Z/16)^4 (|A| = 65 536, 643
    subalgebras) closes only prime-order cosets and passes under the default
    budget; closing cosets of every order, it tripped on `ring_products`
    (spent=2000003).  Its spend is pinned as an upper bound (187 451 while
    its unit orbits were found by products with unit generators and a coset
    whose additive extension was a found subalgebra was closed again)."""
    from semigalois import cli
    from semigalois.instance import action_to_instance_text
    from semigalois.rings import Atom

    path = tmp_path / "c4_z16.sgi"
    path.write_text(action_to_instance_text(cyclic_shift(Atom.zmod(2, 4), 4)))
    spent = _record_spends(monkeypatch)
    assert cli.main(["correspond", str(path), "--brute-force-subalgebras"]) == 0
    assert capsysbinary.readouterr().out.endswith(b"# result: PASS\n")
    assert spent[-1] <= C4_Z16_BRUTE_CEILING, spent[-1]
