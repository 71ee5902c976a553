"""The benchmark harness times canids through named lookup sites
(perfbench/tracer.py SHIMS).  A renamed or moved function must fail here,
in the tier-1 run, and not only in the benchmark's own smoke test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def shims():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SHIMS


@pytest.mark.parametrize("module, path, span", shims())
def test_shimmed_name_resolves(module, path, span):
    owner = importlib.import_module(module)
    for name in path.split("."):
        assert hasattr(owner, name), f"{module}.{path} (span {span}) no longer resolves"
        owner = getattr(owner, name)
    assert callable(owner)
