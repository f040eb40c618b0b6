"""The library calls the benchmark's oracle and instance builders make still work.

`bench/checks.py` counts |A^beta| through the element API
(`FiniteRing.elements`, `StructuredIso.apply`, `RingElement.mask`), and
`bench/workloads.py` builds every workload's instances with the library's
constructors and `action_to_instance_text`.  Both are loaded here from
their files, as `test_tracer_layers.py` loads the tracer, so a change that
removes or breaks one of those calls fails in this suite rather than in a
benchmark run.  The files each workload's build writes, and two corpus
streams, are pinned by digest, so that a change to how the library draws
instances cannot move the benchmark's decision sets.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from semigalois.actions import invariant_ring
from semigalois.corpus import c2_swap_fixture, corpus, f9_cubed_fixture
from semigalois.instance import action_to_instance_text, parse_instance

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


def _sha256(chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
        digest.update(b"\0")
    return digest.hexdigest()


# What each workload's build writes at seed 1: the timed decisions and the
# sha256 of every file's name and bytes, in name order.  The benchmark's
# decision sets must not move when the library changes how it draws them.
BUILD_DIGESTS = {
    "corpus-mixed": (500, "1dd2e795011410d3ff7ad60e0d3aa33106d47259ab88448e9b05c5d57cfc5dc0"),
    "galois-ladder": (32, "133f2bb52f973bcb43af7bfd6907356da5e30b287bdd3d933306359b06a023f7"),
    "brute-scan": (5, "0a50d6cf980d8869e5db185f0c739a8a83711d2efbaaafa57c5727c6cb2c64fb"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_writes_the_pinned_files(workload, tmp_path):
    timed, _ = workloads.build(workload, 1, tmp_path)
    files = sorted(tmp_path.iterdir())
    digest = _sha256(part for path in files for part in (path.name.encode(), path.read_bytes()))
    assert (len(timed), digest) == BUILD_DIGESTS[workload]


# The instance text of two corpus streams outside the benchmark's, in order.
CORPUS_DIGESTS = {
    (3, False): "73e577cbd5df853bc6f501431bd93961a7cd1cb0f95bd2cc1b291bc529eb2afd",
    (7, True): "c64aa038dc3a3096075b6f89272bce18a446f85d268346e195ccce1e9a0b7082",
}


@pytest.mark.parametrize("seed, with_zero", sorted(CORPUS_DIGESTS))
def test_corpus_streams_keep_their_instances(seed, with_zero):
    texts = [action_to_instance_text(beta).encode() for beta in corpus(seed, 60, with_zero=with_zero)]
    assert hashlib.sha256(b"".join(texts)).hexdigest() == CORPUS_DIGESTS[seed, with_zero]
