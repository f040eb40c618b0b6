"""Every function the benchmark tracer wraps still exists under its name.

`bench/tracer.py` patches the functions in its `LAYERS` table by
"module:function" or "module:Class.method"; a renamed one would crash a
traced benchmark run, so this checks each spec against the package the way
the tracer resolves it, and that a tensor carries what its build hook reads.
"""

import importlib.util
from pathlib import Path

import pytest

from semigalois.rings import Atom, FiniteRing, Subalgebra, TensorPresentation

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("semigalois_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
SPECS = [(group, spec) for group, specs in tracer.LAYERS.items() for spec in specs]


@pytest.mark.parametrize("group,spec", SPECS, ids=[spec for _, spec in SPECS])
def test_layer_spec_resolves(group, spec):
    module, cls, attr = tracer._resolve(spec)
    owner = module if cls is None else cls
    assert callable(getattr(owner, attr)), f"{group}: {spec}"
    if cls is not None:  # the tracer patches a method in its class's own __dict__
        assert attr in cls.__dict__, f"{group}: {spec}"


def test_tensor_build_hook_reads_a_built_tensor():
    """The `rings.tensor` hook reads k, l and pres.relations of the tensor it
    was called on; a traced build counts them."""
    A = FiniteRing([Atom.zmod(3), Atom.zmod(3)])
    diag = Subalgebra(A, [A.one_vec])
    tensor = TensorPresentation(A, diag)
    assert (tensor.k, tensor.l) == (2, 2) and tensor.pres.relations.rows == 4
    recorder = tracer.Tracer()
    recorder.install()
    try:
        TensorPresentation(A, diag)
    finally:
        recorder.uninstall()
    assert recorder.calls()["rings.tensor"] == 1
    assert recorder.counts["rings.tensor.generators"] == tensor.k * tensor.l
    assert recorder.counts["rings.tensor.relations"] == len(tensor.pres.relations.cols)
