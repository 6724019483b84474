"""One fresh interpreter of the benchmark: a CLI command or a graded batch.

    python3 perfbench/child.py <task.json>

The task names a mode.  ``cli`` runs ``patchtower.cli.main(argv)`` in
this process exactly as the ``patchtower`` command would, so the gen and
patch stages of a tower each start with an empty cohomology cache.
``ha`` runs ``verify_height_amplitude`` or ``module_invariants`` on pool
items in the given order until the deadline.  The result (exit code,
output, stage timings, peak RSS, tracer summary) goes to the task's
``result`` path as JSON; the parent never imports patchtower.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402

CALIBRATE_EVERY = 16  # graded items between two calibration samples


def calibrate() -> float:
    """Seconds for a fixed numpy and dict workload that never touches patchtower."""
    import numpy as np

    start = time.perf_counter()
    x = np.arange(160 * 160, dtype=np.int64).reshape(160, 160) % 9
    for _ in range(12):
        x = (x * 7 + x[::-1]) % 9
        np.nonzero(x % 3)
    table: dict = {}
    for i in range(12000):
        key = (i % 37, i % 11, i % 5)
        table[key] = (table.get(key, 0) + i) % 9
    sorted(table.items())
    return time.perf_counter() - start


def digest(text: str) -> str:
    # same as run.digest; importing run here would add the harness's
    # modules to the child's peak RSS
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(task: dict) -> dict:
    from patchtower import cli

    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(task["argv"])
        error = None
    except BaseException:  # an escaped traceback is a failure, not a crash of the bench
        code, error = None, traceback.format_exc(limit=3)
    return {"exit": code, "stdout": buf.getvalue(), "cmd_s": time.perf_counter() - start, "error": error}


def graded_item(kind: str, obj: dict) -> tuple[float, str, bool]:
    """Seconds of the call alone, its canonical JSON output, and whether part (i) holds."""
    from patchtower import graded, serialize

    if kind == "complexes":
        cx = serialize.complex_from_obj(obj)
        start = time.perf_counter()
        rep = graded.verify_height_amplitude(cx)
        elapsed = time.perf_counter() - start
        return elapsed, serialize.canonical_dumps(rep.to_obj()), bool(rep.part_i["pass"])
    mod = serialize.graded_module_from_obj(obj)
    start = time.perf_counter()
    inv = graded.module_invariants(mod)
    elapsed = time.perf_counter() - start
    text = serialize.canonical_dumps({k: (list(v) if isinstance(v, tuple) else v) for k, v in inv.items()})
    return elapsed, text, True


def run_ha(task: dict) -> dict:
    pool = json.loads(Path(task["pool"]).read_text())
    deadline = time.perf_counter() + task["seconds"]
    items: list[dict] = []
    calib: list[float] = []
    for kind, index in task["order"]:
        if time.perf_counter() >= deadline:
            break
        if len(items) % CALIBRATE_EVERY == 0:
            calib.append(calibrate())
        start = time.perf_counter()
        try:
            elapsed, text, ok_i = graded_item(kind, pool[kind][index])
            items.append({"kind": kind, "index": index, "s": elapsed, "digest": digest(text), "part_i": ok_i})
        except Exception:
            items.append({"kind": kind, "index": index, "s": time.perf_counter() - start,
                          "error": traceback.format_exc(limit=3)})
    return {"items": items, "calib_s": calib}


def main() -> int:
    task = json.loads(Path(sys.argv[1]).read_text())
    import patchtower.cli  # noqa: F401  (loads every submodule before wrapping)
    import patchtower.serialize  # noqa: F401

    tr = tracing.install(full=task["trace"])
    if task["mode"] == "cli":
        calib = [calibrate(), calibrate()]
        out = run_cli(task)
        out["calib_s"] = calib + [calibrate(), calibrate()]
    else:
        out = run_ha(task)
    out["pid"] = os.getpid()
    out["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["trace"] = tr.summary()
    Path(task["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
