"""Every name the benchmark's outside-in tracer wraps must exist in patchtower."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.STAGES + tracer.LAYERS


@pytest.mark.parametrize("module, path", [(t[0], t[1]) for t in _targets()])
def test_traced_target_resolves(module, path):
    owner = importlib.import_module(f"patchtower.{module}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    if cls_path:
        assert attr in owner.__dict__
    else:
        assert callable(getattr(owner, attr, None))
