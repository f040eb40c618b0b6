"""Tests of the benchmark itself.  Run with:  python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from semigalois import cli  # noqa: E402
from semigalois.corpus import f9_cubed_fixture  # noqa: E402


def _files(workload, seed, outdir):
    timed, probe = workloads.build(workload, seed, str(outdir))
    return [(d.command, d.flags, Path(d.path).read_bytes()) for d in timed + probe]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first = _files(workload, 5, tmp_path / "a")
    assert first == _files(workload, 5, tmp_path / "b")
    assert first != _files(workload, 6, tmp_path / "c")


def test_rung_set_is_fixed_and_only_reordered_by_the_seed(tmp_path):
    def rungs(seed):
        return sorted((d.name, d.command) for d in workloads.build("galois-ladder", seed,
                                                                   str(tmp_path))[0])
    assert rungs(1) == rungs(2)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_seed_picks_the_same_largest_decision(workload, tmp_path):
    def largest(seed):
        d = max(workloads.build(workload, seed, str(tmp_path / str(seed)))[0],
                key=lambda d: d.size_key)
        return d.name, d.command
    assert largest(1) == largest(2) == largest(3)


def test_oracle_counts_the_flagship_invariants():
    assert checks.fixed_point_count(f9_cubed_fixture()) == 27


def test_gate_rejects_a_report_that_disagrees(tmp_path):
    timed, _ = workloads.build("galois-ladder", 0, str(tmp_path))
    d = next(d for d in timed if d.command == "galois" and d.name == "c2_gf4^2")
    raw, error, _ = run.decide(cli, d)
    assert error is None
    assert checks.check_report(d, raw, None) is None
    d.expect["invariants_order"] += 1
    assert "invariants_order" in checks.check_report(d, raw, None)


def _bindings():
    """Every attribute of every semigalois module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "semigalois" or name.startswith("semigalois."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_no_wrapper_is_left_installed_after_a_traced_run(tmp_path):
    timed, _ = workloads.build("galois-ladder", 0, str(tmp_path))
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main is not before[("semigalois.cli", "main")]
        run.run_passes(cli, timed[:4], 1, tracer=t)
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert t.calls()["cli"] == 4


def test_host_scaling_leaves_out_the_kernel_and_uses_its_time_nearby():
    s = hostspeed.Sampler()
    ref, alpha = hostspeed.REF_S, hostspeed.ALPHA
    s.begin = [0.0, 1.0, 1.2, 10.0, 30.0]
    s.end = [b + t for b, t in zip(s.begin, [2 * ref, 2 * ref, 2 * ref, 4 * ref, ref])]
    assert s.scaled(0.9, 1.3) == pytest.approx((0.4 - 4 * ref) / 2 ** alpha)
    assert s.scaled(10.2, 10.5) == pytest.approx(0.3 / 4 ** alpha)
    # nothing within WINDOW_S: the nearest call on either side
    assert s.scaled(20.0, 20.1) == pytest.approx(0.1 / 2.5 ** alpha)
    assert hostspeed.kernel() == hostspeed.kernel()
    assert hostspeed.kernel()[0] == 14  # full rank


def test_sampler_ticks_only_while_active():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as s:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert len(s.begin) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_metrics_match_the_code():
    spec = _declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_one_command_prints_every_metric_with_its_unit(trace, kind):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "galois-ladder", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in _declared()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] is True and result["attempted"] >= 1
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), name
    assert any(line.split()[:1] == ["fail_ratio"] for line in lines[:-1])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "brute-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
