"""The semigalois benchmark: closed-loop CLI decisions from a single client.

    python3 bench/run.py --workload galois-ladder --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One process, one thread (set-up times the import in child interpreters,
one at a time).  Each decision is an in-process call to
`semigalois.cli.main([command, file, "--format", "json-lines", ...])` with
stdout captured, on instance files the run generates from the seed under
`.bench_out/`.  The decision set is replayed in a fixed number of whole
passes, `--seconds` / the workload's nominal pass time (at least one), so
that a run of the same code always attempts the same decisions; times are
scaled to a reference host (see hostspeed.py).  Every report is then
checked (see checks.py) and compared byte for byte with every other report
for the same input, in this run and in earlier runs of the same code in the
checkout.

--trace 0 prints the end-to-end metrics; --trace 1 makes one untraced and
one traced pass and prints the per-layer metrics (see tracer.py).  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload with both settings, one child
interpreter each.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from checks import check_report, fixed_point_count

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("corpus-mixed", "galois-ladder", "brute-scan")
SETUP_REPEATS = 5
# Seconds one pass over the decision set takes, with the host-speed kernel,
# where the kernel takes hostspeed.REF_S (a 2-vCPU 2.1 GHz Xeon, Python 3.11);
# a run makes round(seconds / PASS_S) passes, at least one.
PASS_S = {"corpus-mixed": 9.3, "galois-ladder": 9.9, "brute-scan": 16.2}
# Runs of the largest decision per pass.  One run of a short decision varies
# by a fifth (corpus-mixed's largest, 0.05 s, has runs 25% above its fastest
# in one process), so the cheaper ones run more often, within the time budget.
LARGEST_RUNS = {"corpus-mixed": 10, "galois-ladder": 2, "brute-scan": 1}

END_TO_END = {
    "setup_s": "s",
    "decisions_per_s": "1/s",
    "decide_p50_s": "s",
    "decide_p90_s": "s",
    "largest_s": "s",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import the checkout's own `src/semigalois`; False if it is not there."""
    src = ROOT / "src"
    if not (src / "semigalois" / "cli.py").is_file():
        print(f"error: {src}/semigalois not found; run from a full checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    # one thread: the library does no floating point, so OpenBLAS's pool would only idle
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import semigalois.cli  # noqa: F401  (imports every layer)
    if not Path(sys.modules["semigalois"].__file__).resolve().is_relative_to(src):
        print("error: semigalois was imported from outside the checkout", file=sys.stderr)
        return False
    return True


def time_imports():
    """Time SETUP_REPEATS fresh interpreters' import of `semigalois.cli`
    (numpy included): (start, stop, seconds) each, on this process's clock."""
    code = ("import sys, time; sys.path.insert(0, {!r}); t0 = time.perf_counter(); "
            "import semigalois.cli; print(time.perf_counter() - t0)").format(str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                               text=True, timeout=120, check=True)
        stop = perf_counter()
        seconds = float(child.stdout.split()[-1])
        times.append((stop - seconds, stop, seconds))
    return times


# -- running decisions ----------------------------------------------------------


def decide(cli, decision):
    """One CLI call in-process: (report bytes, error or None, (start, stop))."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    saved, sys.stdout = sys.stdout, out
    error = None
    t0 = perf_counter()
    try:
        code = cli.main(decision.argv)
        if code not in (0, 1):
            error = f"exit code {code}"
    except (Exception, SystemExit):
        # a traceback is a failed decision, never a crash of the benchmark
        error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    finally:
        t1 = perf_counter()
        sys.stdout = saved
    out.flush()
    out.detach()
    return buf.getvalue(), error, (t0, t1)


def run_passes(cli, decisions, passes, tracer=None, sampler=None):
    """`passes` whole passes over `decisions`: per decision, its latencies and outputs.

    With a `hostspeed.Sampler`, active during the passes, the latencies are
    scaled to the reference host.
    """
    samples = {d.id: [] for d in decisions}
    outputs = {d.id: [] for d in decisions}
    spans = []
    with sampler or contextlib.nullcontext():
        for _ in range(passes):
            for d in decisions:
                if tracer is not None:
                    tracer.decision_id = d.id
                raw, error, span = decide(cli, d)
                spans.append((d.id, span))
                outputs[d.id].append((raw, error))
    for i, (start, stop) in spans:
        samples[i].append(stop - start if sampler is None else sampler.scaled(start, stop))
    return samples, outputs


def passes_for(workload, seconds):
    return max(1, round(seconds / PASS_S[workload]))


def latency(samples):
    """A decision's latency: the median of its runs."""
    return statistics.median(samples)


def decisions_per_s(decisions, samples):
    return len(decisions) / sum(latency(samples[d.id]) for d in decisions)


def measure_end_to_end(cli, timed, passes, largest_runs, setup_s, sampler):
    """Timed passes with nothing installed: the END_TO_END metrics.

    Latencies are scaled to the reference host (see hostspeed.py); the
    quantiles are taken over the decisions' latencies.  Each pass runs the
    largest decision `largest_runs` times in a row.
    """
    largest = max(timed, key=lambda d: d.size_key)
    order = [x for d in timed for x in [d] * (largest_runs if d is largest else 1)]
    samples, outputs = run_passes(cli, order, passes, sampler=sampler)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_decision = sorted(latency(samples[d.id]) for d in timed)
    metrics = {
        "setup_s": setup_s,
        "decisions_per_s": decisions_per_s(timed, samples),
        "decide_p50_s": statistics.median(per_decision),
        "decide_p90_s": statistics.quantiles(per_decision, n=10, method="inclusive")[8],
        "largest_s": latency(samples[largest.id]),
        "peak_rss_mb": rss_mb,
    }
    return metrics, END_TO_END, outputs, (f"{passes} passes over {len(order)} decisions, "
                                          f"kernel at {sampler.slowdown():.3f}x its reference time")


def measure_layers(cli, timed, spans_path):
    """One untraced pass, then one traced pass: the per-layer metrics."""
    from tracer import PER_LAYER, Tracer
    untraced, outputs = run_passes(cli, timed, 1)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        traced, traced_out = run_passes(cli, timed, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path, t0)
    m = tracer.layer_metrics()
    m["cli.report_bytes"] = sum(len(raw) for d in timed for raw, _ in traced_out[d.id])
    m["trace.untraced_decisions_per_s"] = decisions_per_s(timed, untraced)
    m["trace.traced_decisions_per_s"] = decisions_per_s(timed, traced)
    m["trace.overhead"] = m["trace.untraced_decisions_per_s"] / m["trace.traced_decisions_per_s"] - 1
    for d in timed:
        outputs[d.id].extend(traced_out[d.id])
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return ({name: m[name] for name in PER_LAYER}, units, outputs,
            f"1 untraced + 1 traced pass, {len(tracer.start)} spans")


# -- correctness gate --------------------------------------------------------------


def code_digest():
    """sha256 of every file of `src/semigalois`, so that stored report digests
    are only compared between runs of the same code."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "semigalois"
    for path in sorted(pkg.rglob("*.py")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Gate:
    """Counts attempted and failed decisions; remembers report digests across
    runs of the same code."""

    def __init__(self, digest_path):
        self.digest_path = digest_path
        try:
            with open(digest_path, encoding="utf-8") as fh:
                self.digests = json.load(fh)
        except FileNotFoundError:
            self.digests = {}
        self.attempted = self.failed = self.wrong = 0
        self.problems = []
        self._oracle = {}
        self._verdicts = {}

    def _key(self, d):
        with open(d.path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest() + " " + " ".join([d.command, *d.flags])

    def judge(self, d, outputs):
        """Judge every execution of one decision."""
        key = self._key(d)
        for raw, error in outputs:
            self.attempted += 1
            if error is not None:
                self._fail(d, f"traceback: {error}")
                continue
            digest = hashlib.sha256(raw).hexdigest()
            known = self.digests.setdefault(key, digest)
            if digest != known:
                self.wrong += 1
                self._fail(d, "report bytes differ from an earlier report for the same input")
                continue
            if digest not in self._verdicts:
                order = None
                if d.beta is not None:
                    if d.name not in self._oracle:
                        self._oracle[d.name] = fixed_point_count(d.beta)
                    order = self._oracle[d.name]
                self._verdicts[digest] = check_report(d, raw, order)
            if self._verdicts[digest] is not None:
                self.wrong += 1
                self._fail(d, self._verdicts[digest])

    def _fail(self, d, message):
        self.failed += 1
        self.problems.append(f"{d.command} {d.name} (|A|={d.ring_order}, |S|={d.semigroup_order}): "
                             f"{message}")

    def save(self):
        tmp = self.digest_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.digests, fh, sort_keys=True)
        os.replace(tmp, self.digest_path)


# -- one workload ---------------------------------------------------------------------


def setup(workload, seed, outdir):
    """Generate and write the instance files SETUP_REPEATS times; the spans."""
    import workloads
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in outdir.glob("*.sgi"):
        stale.unlink()
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        timed, probe = workloads.build(workload, seed, str(outdir))
        spans.append((t0, perf_counter()))
    return timed, probe, spans


def run_workload(args):
    if not import_library():
        return 2
    import semigalois.cli as cli
    import hostspeed  # imports numpy: after import_library has set OPENBLAS_NUM_THREADS
    sampler = hostspeed.Sampler()
    OUT.mkdir(exist_ok=True)
    with sampler:
        imports = time_imports()
        timed, probe, builds = setup(args.workload, args.seed, OUT / args.workload)
    setup_s = (statistics.median(seconds * sampler.factor(start, stop)
                                 for start, stop, seconds in imports)
               + statistics.median(sampler.scaled(*b) for b in builds))
    # a CLI process holds one instance, not the whole decision set: keep the
    # benchmark's own objects out of the collections the decisions trigger
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics, units, outputs, summary = measure_layers(
            cli, timed, OUT / f"spans-{args.workload}.csv.gz")
    else:
        metrics, units, outputs, summary = measure_end_to_end(
            cli, timed, passes_for(args.workload, args.seconds), LARGEST_RUNS[args.workload],
            setup_s, sampler)
    probe_out = run_passes(cli, probe, 1)[1]

    gate = Gate(OUT / f"report_digests-{code_digest()[:16]}.json")
    for d in timed:
        gate.judge(d, outputs[d.id])
    for d in probe:
        gate.judge(d, probe_out[d.id])
    gate.save()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: {summary}, "
          f"{len(probe)} untimed probe decisions")
    for name, value in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:38s} {shown} {units[name]}")
    print(f"  {'fail_ratio':38s} {gate.failed / gate.attempted:14.6f} "
          f"({gate.failed} failed of {gate.attempted} attempted)")
    for problem in gate.problems[:10]:
        print(f"  failed: {problem}")
    if len(gate.problems) > 10:
        print(f"  ... and {len(gate.problems) - 10} more failures")
    print(json.dumps({
        "correct": gate.wrong == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in a fresh interpreter."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, check=False)
            status = status or child.returncode
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
