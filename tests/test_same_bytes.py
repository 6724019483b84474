"""The output contract: every canonical byte of the fixed CLI grid of
``scripts/same_bytes.py`` matches the committed ``tests/data/same_bytes.txt``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "same_bytes.py"
EXPECTED = Path(__file__).resolve().parent / "data" / "same_bytes.txt"


def _split(lines):
    return dict(line.split(" ", 1) for line in lines)


def test_grid_prints_the_committed_lines():
    spec = importlib.util.spec_from_file_location("same_bytes", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    got = list(script.lines())
    want = EXPECTED.read_text().splitlines()
    got_sha, want_sha = _split(got), _split(want)
    differ = sorted(name for name in got_sha.keys() & want_sha.keys() if got_sha[name] != want_sha[name])
    missing = sorted(want_sha.keys() - got_sha.keys())
    extra = sorted(got_sha.keys() - want_sha.keys())
    assert not (differ or missing or extra), f"changed: {differ}; missing: {missing}; new: {extra}"
    assert got == want  # same lines, same order
