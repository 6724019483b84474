#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perfbench/run.py``, written as JSON.

Both sides are git refs.  Each is exported with ``git archive`` into its
own temporary directory, so a run sees only the committed files of its
ref, ``perfbench/`` included, and neither run writes into this checkout.
Pair i (from 1) runs both sides on workload seed ``--seed + i - 1``: the
parent first on odd pairs and the change first on even ones, so a drift
in the host's speed falls on both sides alike.

    python3 scripts/bench_pairs.py --workload tower-dense --pairs 10 \\
        --parent HEAD~1 --change HEAD --seed 1101 --out BENCH_11.json

``--workload`` takes several names; they run one after the other.  An
existing ``--out`` file from the same two commits keeps its other
workloads.  Per workload the file holds every run's result line and, for
each end-to-end metric of ``BENCHMARK.json``, the per-side median and
quartiles (``statistics.quantiles``, inclusive), the change's win count
(pairs in which its value is the better one) and the gap between the
medians.  ``gap_exceeds_parent_iqr`` says whether the change's median is
better than the parent's by more than the parent's interquartile range.

Each run also keeps, under ``diagnostics``, the medians of ``item_raw_s``
(item time before the calibration scaling) and ``calib_s`` (the
calibration kernel's time) that ``perfbench/run.py`` prints in its table
above the result line; ``item_s`` is the first scaled by the second.  The
summary's ``diagnostics`` block gives their per-side medians and the
number of pairs in which the change's value is the lower one.  They are
diagnostics, not end-to-end metrics: they say whether an ``item_s`` move
on code a workload never runs came from the calibration.  The table
prints 4 decimals, so ``ha-graded``'s ``item_raw_s`` (about 0.4 ms) is
read to 0.1 ms.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIAGNOSTICS = ("item_raw_s", "calib_s")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(ref: str, into: Path) -> str:
    """Write the committed files of ``ref`` under ``into``; return its SHA."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(into)
    return sha


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its last stdout line is the result,
    and the table rows above it named in ``DIAGNOSTICS`` give their
    medians (the table's third column)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"exit": done.returncode, "stderr": done.stderr[-2000:]}
    result = json.loads(lines[-1])
    rows = (line.split() for line in lines[:-1])
    result["diagnostics"] = {row[0]: float(row[2]) for row in rows if len(row) > 2 and row[0] in DIAGNOSTICS}
    return result


def metric(result: dict, name: str) -> float | None:
    return result.get("metrics", {}).get(name, {}).get("value")


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {
            side: [metric(pair[side], name) for pair in pairs if metric(pair[side], name) is not None]
            for side in ("parent", "change")
        }
        if not all(len(v) == len(pairs) for v in values.values()):
            out[name] = {"missing": True}
            continue
        stats = {}
        for side, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            stats[side] = {"median": med, "q1": q1, "q3": q3}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        gap = stats["parent"]["median"] - stats["change"]["median"]
        gap = gap if lower else -gap
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        out[name] = {
            **stats,
            "better": spec["better"],
            "change_wins": wins,
            "pairs": len(pairs),
            "median_gap": gap,
            "relative_gap": gap / stats["parent"]["median"] if stats["parent"]["median"] else None,
            "gap_exceeds_parent_iqr": gap > iqr,
        }
    out["diagnostics"] = {}
    for name in DIAGNOSTICS:
        values = {side: [pair[side].get("diagnostics", {}).get(name) for pair in pairs] for side in ("parent", "change")}
        if any(x is None for vals in values.values() for x in vals):
            out["diagnostics"][name] = {"missing": True}
            continue
        out["diagnostics"][name] = {
            **{side: {"median": statistics.median(vals)} for side, vals in values.items()},
            "change_lower": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--parent", default="HEAD~1", help="git ref of the parent side")
    ap.add_argument("--change", default="HEAD", help="git ref of the change side")
    ap.add_argument("--seed", type=int, default=1, help="workload seed of pair 1; pair i uses seed + i - 1")
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: export(getattr(args, side), path) for side, path in dirs.items()}
        doc = {"parent_sha": shas["parent"], "change_sha": shas["change"], "workloads": {}}
        if args.out.is_file():
            old = json.loads(args.out.read_text())
            if (old.get("parent_sha"), old.get("change_sha")) == (shas["parent"], shas["change"]):
                doc["workloads"] = old.get("workloads", {})
        for workload in args.workload:
            pairs = []
            for i in range(1, args.pairs + 1):
                seed = args.seed + i - 1
                order = ("parent", "change") if i % 2 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(dirs[side], workload, seed, args.seconds)
                pairs.append(pair)
                item = {side: metric(pair[side], "item_s") for side in order}
                print(f"{workload} pair {i}/{args.pairs} seed {seed}: item_s {item}", file=sys.stderr, flush=True)
            doc["workloads"][workload] = {
                "seconds": args.seconds,
                "seeds": [pair["seed"] for pair in pairs],
                "all_correct": all(
                    pair[side].get("correct") is True and pair[side].get("failed") == 0
                    for pair in pairs for side in ("parent", "change")
                ),
                "summary": summarize(pairs, metrics),
                "runs": pairs,
            }
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
