#!/usr/bin/env python3
"""Alternating parent/change pairs of ``cli.main`` time on the benchmark's towers and deep ones.

Each side is a git ref, exported with ``bench_pairs.export`` into its
own temporary directory.  For every tower item of a workload in
``perfbench/data/reference.json`` (a seed and a perturbation, read and
never written), one pair runs both sides: on each side a fresh
interpreter imports ``patchtower.cli`` and times ``main`` for ``gen``,
then another times ``main`` for ``patch --format json`` of that tower,
with the argv of ``perfbench/run.py``.  The parent goes first on odd
pairs and the change on even ones.  An item's time is gen plus patch,
with no import and no calibration scaling, so it is the program time
that ``item_s`` estimates.

Three deep towers, past the benchmark's rings, are timed the same way
(``DEEP`` below): each is its own workload of one tower, run
``DEEP_PAIRS`` times per round.

    python3 scripts/main_pairs.py --parent HEAD~1 --change HEAD \\
        --workload tower-dense tower-reject deep-q3r1 --rounds 2

Per workload it prints, for gen, patch and their sum, each side's
median and quartiles in ms (``statistics.quantiles``, inclusive) and the
pairs the change wins (its time is lower).  A pair whose two sides exit
differently is reported and left out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

sys.path.insert(0, str(ROOT / "perfbench"))
from run import TOWERS, gen_argv  # noqa: E402

# name: (gen parameters, seed); rho is 729 at the top level of q=2 r=2
DEEP = {
    "deep-q2r2": ({"q": 2, "r": 2, "precisions": [1, 2, 2], "rank": 1}, 7),
    "deep-q2r1": ({"q": 2, "r": 1, "precisions": [1, 2, 2], "rank": 1}, 7),
    "deep-q3r1": ({"q": 3, "r": 1, "precisions": [1, 2], "rank": 1}, 3),
}
DEEP_PAIRS = 8

CHILD = """
import contextlib, io, json, sys, time
from patchtower import cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
print(json.dumps({"exit": code, "s": elapsed}))
"""


def time_main(checkout: Path, argv: list[str]) -> dict:
    """``cli.main(argv)`` in a fresh interpreter on ``checkout``'s source."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def time_item(checkout: Path, params: dict, seed: int, perturbation: str | None, work: Path) -> dict:
    """Seconds of gen and of patch for one tower, and their exit codes."""
    out_dir = work / "tower"
    gen = time_main(checkout, gen_argv(params, seed, perturbation, out_dir))
    patch = time_main(checkout, ["patch", str(out_dir / "tower.json"), "--format", "json"])
    return {"gen": gen["s"], "patch": patch["s"], "exits": (gen["exit"], patch["exit"])}


def describe(values: dict[str, list[float]]) -> str:
    parts = []
    for side, vals in values.items():
        q1, med, q3 = (1000 * x for x in statistics.quantiles(vals, n=4, method="inclusive"))
        parts.append(f"{side} {med:.2f} [{q1:.2f}, {q3:.2f}]")
    wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
    return f"{' -> '.join(parts)} ms, change wins {wins}/{len(values['change'])}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", nargs="+", default=[*TOWERS, *DEEP], choices=[*TOWERS, *DEEP])
    ap.add_argument("--parent", default="HEAD~1", help="git ref of the parent side")
    ap.add_argument("--change", default="HEAD", help="git ref of the change side")
    ap.add_argument("--rounds", type=int, default=1, help="passes over each workload's items")
    args = ap.parse_args(argv)

    towers = json.loads((ROOT / "perfbench" / "data" / "reference.json").read_text())["towers"]
    with tempfile.TemporaryDirectory(prefix="main_pairs_") as tmp:
        dirs = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: export(getattr(args, side), path)[:12] for side, path in dirs.items()}
        print(f"parent {shas['parent']}, change {shas['change']}")
        for workload in args.workload:
            if workload in DEEP:
                params, seed = DEEP[workload]
                items = [f"{seed}:none"] * DEEP_PAIRS
            else:
                params = TOWERS[workload]
                items = sorted(towers[workload], key=lambda key: (int(key.split(":")[0]), key))
            times = {stage: {"parent": [], "change": []} for stage in ("gen", "patch", "gen+patch")}
            pair = 0
            for _ in range(args.rounds):
                for key in items:
                    seed, pert = key.split(":")
                    pair += 1
                    order = ("parent", "change") if pair % 2 else ("change", "parent")
                    res = {side: time_item(dirs[side], params, int(seed), None if pert == "none" else pert, Path(tmp))
                           for side in order}
                    if res["parent"]["exits"] != res["change"]["exits"]:
                        print(f"{workload} {key}: exits differ {res['parent']['exits']} vs {res['change']['exits']}")
                        continue
                    for side, r in res.items():
                        times["gen"][side].append(r["gen"])
                        times["patch"][side].append(r["patch"])
                        times["gen+patch"][side].append(r["gen"] + r["patch"])
            for stage, values in times.items():
                print(f"{workload} {stage}: {describe(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
