"""Every function the benchmark tracer wraps still exists under its name.

`bench/tracer.py` patches the functions in its `LAYERS` table by
"module:function" or "module:Class.method"; a renamed one would crash a
traced benchmark run, so this checks each spec against the package.
"""

import importlib.util
from pathlib import Path

import pytest

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

