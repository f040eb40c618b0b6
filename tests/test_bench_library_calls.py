"""The library calls the benchmark's oracle and instance builders make still work.

`bench/checks.py` counts |A^beta| through the element API
(`FiniteRing.elements`, `StructuredIso.apply`, `RingElement.mask`), and
`bench/workloads.py` builds every workload's instances with the library's
constructors and `action_to_instance_text`.  Both are loaded here from
their files, as `test_tracer_layers.py` loads the tracer, so a change that
removes or breaks one of those calls fails in this suite rather than in a
benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from semigalois.actions import invariant_ring
from semigalois.corpus import c2_swap_fixture, f9_cubed_fixture
from semigalois.instance import parse_instance

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"semigalois_bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")


@pytest.mark.parametrize("fixture", [f9_cubed_fixture, c2_swap_fixture],
                         ids=["f9_cubed", "c2_swap"])
def test_fixed_point_oracle_counts_the_invariant_ring(fixture):
    beta = fixture()
    assert checks.fixed_point_count(beta) == invariant_ring(beta).order


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_builds_files_that_parse(workload, tmp_path):
    timed, probes = workloads.build(workload, 1, tmp_path)
    assert timed
    written = sorted(tmp_path.glob("*.sgi"))
    assert {Path(d.path) for d in timed + probes} == set(written)
    for path in written:
        parse_instance(path)
