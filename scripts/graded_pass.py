#!/usr/bin/env python3
"""Time whole in-process passes over the benchmark's graded pool.

One pass runs every item of ``perfbench/data/ha_pool.json`` once, in
pool order (the complexes by index, then the modules): a complex
through ``verify_height_amplitude``, a module through
``module_invariants``, each timed and digested by the benchmark child's
own ``graded_item``.  Every pass is checked against
``perfbench/data/reference.json``; both files are read and left as they
are.

    python3 scripts/graded_pass.py --passes 5

It prints each pass's total, the median over items of each item's best
time over the passes, overall and for each kind (complexes, modules),
each kind's 90th percentile of those best times (the slow tail, which
the median hides), and one line per item whose output digest differs
from the reference; it exits 1 if any does.  After the timed passes it
makes one untimed pass with ``groebner.buchberger`` and
``groebner.normal_form`` wrapped, and prints how many times each ran
(calls from inside ``groebner`` included).  Unlike the ``ha-graded``
``item_s`` of ``perfbench/run.py``, which times as many items of a
repeated order as fit in a time window, a pass times the same items on
both sides of a comparison.  The script imports ``src/`` next to it; to
time another commit, copy it into a ``git archive`` export of that
commit.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "perfbench" / "data"


def load_child():
    """``perfbench/child.py`` as a module, for its ``graded_item``."""
    spec = importlib.util.spec_from_file_location("perfbench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def count_calls(child, pool: dict, items: list[tuple[str, int]]) -> dict[str, int]:
    """Calls of ``buchberger`` and ``normal_form`` over one pass, counted
    by wrappers on the ``patchtower.groebner`` module attributes, which
    the engine's own calls look up too."""
    from patchtower import groebner

    counts = {"buchberger": 0, "normal_form": 0}
    real = {name: getattr(groebner, name) for name in counts}

    def wrap(name):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real[name](*args, **kwargs)

        return counted

    for name in counts:
        setattr(groebner, name, wrap(name))
    try:
        for kind, i in items:
            child.graded_item(kind, pool[kind][i])
    finally:
        for name, fn in real.items():
            setattr(groebner, name, fn)
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--passes", type=int, default=5, help="whole passes over the pool (default 5)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    child = load_child()
    pool = json.loads((DATA / "ha_pool.json").read_text())
    reference = json.loads((DATA / "reference.json").read_text())["ha-graded"]
    items = [(kind, i) for kind in ("complexes", "modules") for i in range(len(pool[kind]))]

    best = [float("inf")] * len(items)
    mismatches: set[tuple[str, int]] = set()
    for n in range(args.passes):
        start = time.perf_counter()
        for slot, (kind, i) in enumerate(items):
            elapsed, text, _ = child.graded_item(kind, pool[kind][i])
            best[slot] = min(best[slot], elapsed)
            if child.digest(text) != reference[kind][i]:
                mismatches.add((kind, i))
        print(f"pass {n + 1}: {time.perf_counter() - start:.3f} s over {len(items)} items")
    print(f"per-item median, best of {args.passes}: {statistics.median(best) * 1e3:.3f} ms")
    for kind in ("complexes", "modules"):
        times = [t for (k, _), t in zip(items, best) if k == kind]
        p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
        print(f"  {kind}: {statistics.median(times) * 1e3:.3f} ms over {len(times)} items, p90 {p90 * 1e3:.3f} ms")
    counts = count_calls(child, pool, items)
    print(f"one untimed pass: {counts['buchberger']} Buchberger runs, {counts['normal_form']} normal forms")
    for kind, i in sorted(mismatches):
        print(f"digest mismatch: {kind}[{i}]")
    print(f"{len(items) - len(mismatches)} of {len(items)} digests match the reference")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
