"""Every name the benchmark's outside-in tracer wraps must exist in
patchtower, and the sizes it reads off their arguments and results must
stay what they are."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest
from util import run_under_memory_limit

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


def test_traced_sizes():
    # the tracer reads ``.shape`` of the Smith input, ``.size`` of an
    # expansion and the length of HowellCore's rows without importing
    # the types; a q=1, r=1 tower's gen and patch in one process pin them
    code = "\n".join([
        "import contextlib, importlib.util, io, json, sys, tempfile",
        "from pathlib import Path",
        "import patchtower.cli as cli",
        f"spec = importlib.util.spec_from_file_location('perfbench_tracer', {str(TRACER)!r})",
        "tracer = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(tracer)",
        "t = tracer.install(full=True)",
        "with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):",
        "    gen = cli.main(['gen', '--q', '1', '--r', '1', '--precisions', '1', '2', '2', '--seed', '5', '--out-dir', d])",
        "    patch = cli.main(['patch', str(Path(d) / 'tower.json'), '--format', 'json'])",
        "print(json.dumps([gen, patch, t.summary()['sizes']]))",
    ])
    done = run_under_memory_limit(code)
    assert done.returncode == 0, done.stderr
    gen, patch, sizes = json.loads(done.stdout)
    assert (gen, patch) == (0, 0)
    assert sizes == {
        "linalg.expand_scalars.out_cells": 820,
        "linalg.smith_transforms.cells": 880,
        "linalg.smith_transforms.max_rows": 27,
        "linalg.smith_transforms.max_cols": 27,
        "linalg.HowellCore.rows": 8,
    }
