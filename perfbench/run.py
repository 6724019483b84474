"""patchtower benchmark: seeded workloads, output gate, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload tower-dense --seed 7 --seconds 24 --trace 0

Run it from the root of a checkout that holds ``src/patchtower``.  The
harness never imports patchtower: every program step runs in a fresh
child interpreter (``perfbench/child.py``) the way the ``patchtower``
command would, one child at a time.  A tower is generated by one child
(``gen``) and checked by another (``patch --format json``), so validation
always starts with a cold cohomology cache.

Until ``--seconds`` have passed it runs whole units of the workload (a
tower, or all five perturbations of one tower, or the graded batch),
checks every output, and prints a table of every metric with its median,
its highest percentile that keeps at least ten samples beyond it, and the
sample count.  The last line of stdout is one JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
WORK = ROOT / ".bench_work"

# scenarios.PERTURBATIONS, repeated because the harness never imports patchtower
PERTURBATIONS = (
    "tau_not_constant",
    "tau_out_of_range",
    "action_mismatch",
    "augmentation_not_killed",
    "base_mismatch",
)

# every tower uses p=3 and the CLI default precision
TOWERS = {
    "tower-dense": {"q": 1, "r": 1, "precisions": [1, 2, 2, 2, 2], "rank": 1, "perturbations": [None]},
    "tower-wide": {"q": 2, "r": 0, "precisions": [1, 2], "rank": 1, "perturbations": [None]},
    "tower-reject": {"q": 1, "r": 1, "precisions": [1, 2, 2, 2, 2], "rank": 1, "perturbations": list(PERTURBATIONS)},
}
SMOKE_TOWER = {"q": 1, "r": 1, "precisions": [1, 2, 2], "rank": 1, "perturbations": [None]}
WORKLOADS = (*TOWERS, "ha-graded", "smoke")

SETUP_REPEATS = 7
CHILD_TIMEOUT = 150
# Seconds the calibration kernel of child.py takes at the reference speed.
# item_s is the median program time per item scaled by CALIB_REF over the
# run's median calibration time, so a host that runs slower for minutes
# (other tenants) scales both and cancels out; see README.md.
CALIB_REF = 0.01

END_TO_END = [
    ("setup_s", "s"),
    ("item_s", "s"),
    ("peak_rss_mib", "MiB"),
]

_TIMED = {
    "linalg": ["smith_transforms", "smith_quotient", "HowellCore", "elementary_divisors", "expand_scalars"],
    "complexes": ["cohomology", "minimize", "tau_profile", "tensor_along"],
    "groebner": ["buchberger", "syzygy_generators", "annihilator", "normal_form"],
    "graded": [
        "verify_height_amplitude", "module_invariants", "minimal_graded_resolution",
        "complex_cohomology_module", "support_height_profile",
    ],
}
PER_LAYER = (
    [("rings.mul.calls", "count"), ("rings.mul.s", "s"), ("rings.invert.calls", "count")]
    + [
        (f"{mod}.{fn}.{kind}", "count" if kind == "calls" else "s")
        for mod, fns in _TIMED.items()
        for fn in fns
        for kind in ("calls", "s", "self_s")
    ]
    + [
        ("linalg.smith_transforms.cells", "count"),
        ("linalg.smith_transforms.max_rows", "count"),
        ("linalg.smith_transforms.max_cols", "count"),
        ("linalg.expand_scalars.out_cells", "count"),
        ("linalg.HowellCore.rows", "count"),
        ("complexes.cohomology.distinct", "count"),
        ("complexes.cohomology.reuse_ratio", "ratio"),
        ("groebner.lead.calls", "count"),
        ("patcher.validate_hypotheses.calls", "count"),
        ("patcher.validate_hypotheses.s", "s"),
        ("patcher.patch.s", "s"),
        ("patcher.certify.s", "s"),
        ("patcher.evaluate_at_matrices.calls", "count"),
        ("patcher.evaluate_at_matrices.s", "s"),
        ("patcher.matrices_equal.calls", "count"),
        ("patcher.matrices_equal.s", "s"),
        ("scenarios.gen_scenario.s", "s"),
        ("serialize.tower_to_obj.s", "s"),
        ("serialize.tower_from_obj.s", "s"),
        ("serialize.canonical_dumps.s", "s"),
        ("serialize.certificate_to_obj.s", "s"),
        ("serialize.tower_bytes", "bytes"),
        ("trace.item_s", "s"),
        ("trace.untraced_item_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or data)."""


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns child interpreters one at a time inside a private work directory."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.env = child_env()
        self.count = 0
        self.setup: list[float] = []
        self._next_probe = 0.0
        self._probe_every = 0.0

    def spawn(self, task: dict, trace: bool | None = None) -> dict:
        self.count += 1
        tag = f"c{self.count}"
        task = dict(task, trace=self.trace if trace is None else trace, result=str(self.work / f"{tag}.out.json"))
        task_path = self.work / f"{tag}.task.json"
        task_path.write_text(json.dumps(task))
        wall, code, stderr = self._timed_child([str(HERE / "child.py"), str(task_path)])
        result_path = Path(task["result"])
        if code != 0 or not result_path.exists():
            return {"crash": f"child exit {code}: {stderr}", "wall_s": wall}
        out = json.loads(result_path.read_text())
        result_path.unlink()
        task_path.unlink()
        out["wall_s"] = wall
        return out

    def _timed_child(self, args: list[str]) -> tuple[float, int | None, str]:
        """Wall time, exit code and stderr tail of one child interpreter.

        The wait blocks in waitpid; ``subprocess.run(timeout=...)`` would
        poll with sleeps of up to 50 ms and quantize every wall time.
        A timer kills a child that outlives ``CHILD_TIMEOUT``.
        """
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=self.env, cwd=str(ROOT),
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, err = proc.communicate()
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        code = proc.returncode
        return wall, code, ("child killed after timeout" if code == -9 else err.decode(errors="replace")[-800:])

    def setup_probe(self) -> float:
        wall, code, err = self._timed_child(["-c", "import patchtower"])
        if code != 0:
            raise BenchError(f"import patchtower failed: {err}")
        return wall

    def start_setup(self, seconds: float) -> None:
        """Warm the bytecode, take the first set-up sample, and space the rest over the run.

        The host's start-up speed comes in spells of a few seconds, so
        samples spread over the window give a steadier median than a burst.
        """
        self.setup_probe()
        self.setup.append(self.setup_probe())
        self._probe_every = seconds / (SETUP_REPEATS - 1)
        self._next_probe = time.perf_counter() + self._probe_every

    def probe_if_due(self) -> None:
        if len(self.setup) < SETUP_REPEATS and time.perf_counter() >= self._next_probe:
            self.setup.append(self.setup_probe())
            self._next_probe += self._probe_every

    def finish_setup(self) -> list[float]:
        while len(self.setup) < SETUP_REPEATS:
            self.setup.append(self.setup_probe())
        return self.setup


# -- towers ---------------------------------------------------------------------


def gen_argv(params: dict, seed: int, perturbation: str | None, out_dir: Path) -> list[str]:
    argv = ["gen", "--p", "3", "--q", str(params["q"]), "--r", str(params["r"]),
            "--precisions", *map(str, params["precisions"]), "--seed", str(seed),
            "--rank", str(params["rank"]), "--out-dir", str(out_dir), "--format", "json"]
    if perturbation:
        argv += ["--perturbation", perturbation]
    return argv


def item_key(seed: int, perturbation: str | None) -> str:
    return f"{seed}:{perturbation or 'none'}"


def run_tower_item(runner: Runner, params: dict, seed: int, perturbation: str | None,
                   trace: bool | None = None) -> dict:
    """The CLI `gen` -> `patch --format json` round trip of one tower, two fresh children."""
    out_dir = runner.work / f"tower{runner.count}"
    gen = runner.spawn({"mode": "cli", "argv": gen_argv(params, seed, perturbation, out_dir)}, trace)
    tower_path, sidecar_path = out_dir / "tower.json", out_dir / "expected.json"
    item = {"seed": seed, "perturbation": perturbation, "gen": gen, "patch": None}
    if tower_path.exists() and sidecar_path.exists():
        tower_bytes = tower_path.read_bytes()
        item["tower_bytes"] = len(tower_bytes)
        item["digests"] = {"tower": digest(tower_bytes), "expected": digest(sidecar_path.read_bytes())}
        item["sidecar"] = json.loads(sidecar_path.read_text())
        item["patch"] = runner.spawn({"mode": "cli", "argv": ["patch", str(tower_path), "--format", "json"]}, trace)
        item["digests"]["output"] = digest(item["patch"].get("stdout", ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    return item


def _child_failure(stage: str, res: dict | None) -> str | None:
    if res is None:
        return f"{stage}: not run"
    if "crash" in res:
        return f"{stage}: {res['crash']}"
    if res.get("error"):
        return f"{stage}: uncaught exception {res['error'].strip().splitlines()[-1]}"
    return None


def check_tower_item(item: dict, reference: dict | None) -> list[str]:
    """Exit codes, error names, the sidecar oracle and, when recorded, digests."""
    fails = [f for f in (_child_failure("gen", item["gen"]), _child_failure("patch", item["patch"])) if f]
    if fails:
        return fails
    if item["gen"]["exit"] != 0:
        return [f"gen exit {item['gen']['exit']}"]
    sidecar, patch = item["sidecar"], item["patch"]
    try:
        out = json.loads(patch["stdout"])
    except ValueError:
        return ["patch output is not JSON"]
    if item["perturbation"]:
        if patch["exit"] != 1:
            fails.append(f"patch exit {patch['exit']}, expected 1")
        if out.get("error") != sidecar["expected_error"]:
            fails.append(f"error {out.get('error')}, expected {sidecar['expected_error']}")
    else:
        expected = sidecar["expected"]
        if patch["exit"] != 0:
            fails.append(f"patch exit {patch['exit']}: {out.get('error')}")
        elif not out.get("valid"):
            fails.append("certificate is not valid")
        elif out.get("limit_differentials") != expected["limit_differentials"]:
            fails.append("limit differs from the sidecar")
        elif out.get("rank") != expected["rank"]:
            fails.append(f"rank {out.get('rank')}, expected {expected['rank']}")
    if reference is not None:
        for name, value in reference.items():
            if item["digests"].get(name) != value:
                fails.append(f"{name} digest differs from the reference")
    return fails


def tower_units(perturbations: list, pool: list[int], rng: random.Random):
    """Endless seeded sequence of units; a unit is a tower with each perturbation."""
    while True:
        seeds = list(pool)
        rng.shuffle(seeds)
        for seed in seeds:
            unit = [(seed, pert) for pert in perturbations]
            rng.shuffle(unit)
            yield unit


def item_seconds(item: dict) -> float:
    """Program time of a tower item: both CLI commands, without interpreter start."""
    return item["gen"]["cmd_s"] + item["patch"]["cmd_s"]


def run_towers(params: dict, pool: list[int], references: dict, runner: Runner,
               rng: random.Random, seconds: float, report) -> None:
    deadline = time.perf_counter() + seconds
    passes = [False, True] if runner.trace else [False]
    for unit in tower_units(params["perturbations"], pool, rng):
        totals: dict[bool, float | None] = {traced: 0.0 for traced in passes}
        for seed, perturbation in unit:
            for traced in passes:
                item = run_tower_item(runner, params, seed, perturbation, traced)
                fails = check_tower_item(item, references.get(item_key(seed, perturbation)))
                report.add_tower(item, fails, traced)
                if fails:
                    totals[traced] = None
                elif totals[traced] is not None:
                    totals[traced] += item_seconds(item)
        for traced, total in totals.items():
            if total is not None:
                report.add_unit(total, traced)
        runner.probe_if_due()
        if time.perf_counter() >= deadline:
            return


# -- graded batch ---------------------------------------------------------------


def graded_order(pool: dict, rng: random.Random) -> list[tuple[str, int]]:
    """Every pool complex and module once, in seeded order."""
    order = [("complexes", i) for i in range(len(pool["complexes"]))]
    order += [("modules", i) for i in range(len(pool["modules"]))]
    rng.shuffle(order)
    return order


def run_graded(pool_path: Path, order: list, references: dict, runner: Runner,
               seconds: float, report, chunks: int = 3) -> None:
    """Graded batches over ``order``: ``chunks`` children, each resuming where the last stopped.

    With tracing, the window is halved: an untraced pass, then a traced one
    over the same items.
    """
    passes = [False, True] if runner.trace else [False]
    for traced in passes:
        done = 0
        for _ in range(chunks):
            if done >= len(order):
                break
            window = seconds / len(passes) / chunks
            task = {"mode": "ha", "pool": str(pool_path), "order": order[done:], "seconds": window}
            res = runner.spawn(task, traced)
            report.add_graded(res, references, traced)
            done += len(res.get("items", []))
            runner.probe_if_due()


# -- statistics and report ------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile that keeps at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    while pct > 0 and n - math.ceil(pct * n / 100) < 10:
        pct -= 1
    if pct <= 50:
        return None
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(values)[rank - 1]


class Report:
    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.traced_samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rss: list[float] = []
        self.calib: list[float] = []
        self.traces: list[dict] = []
        self.traced_items = 0
        self.tower_bytes: list[int] = []

    def _add(self, name: str, value: float, traced: bool) -> None:
        (self.traced_samples if traced else self.samples).setdefault(name, []).append(value)

    def _fail(self, what: str, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures.extend(f"{what}: {f}" for f in fails)

    def _child(self, res: dict | None, traced: bool) -> None:
        if res and "crash" not in res:
            if traced:
                self.traces.append(res["trace"])
            else:
                self.rss.append(res["maxrss_mib"])
                self.calib.extend(res["calib_s"])

    def add_tower(self, item: dict, fails: list[str], traced: bool) -> None:
        what = f"tower seed={item['seed']} perturbation={item['perturbation']}"
        self._fail(what, fails)
        self._child(item["gen"], traced)
        self._child(item["patch"], traced)
        if fails:
            return
        if traced:
            self.traced_items += 1
            self.tower_bytes.append(item["tower_bytes"])
        self._add("gen_s", item["gen"]["cmd_s"], traced)
        self._add("roundtrip_s", item["gen"]["wall_s"] + item["patch"]["wall_s"], traced)
        stages = item["patch"]["trace"]["durations"]
        validations = stages.get("patcher.validate_hypotheses", [])
        if validations:
            self._add("validate_s", validations[0], traced)
        for stage, metric in (("patcher.patch", "patch_s"), ("patcher.certify", "certify_s")):
            for value in stages.get(stage, []):
                self._add(metric, value, traced)

    def add_unit(self, seconds: float, traced: bool) -> None:
        """Program time of one tower unit: a tower with each of its perturbations."""
        self._add("item_s", seconds, traced)

    def add_graded(self, res: dict, references: dict, traced: bool) -> None:
        if "crash" in res:
            self._fail("graded batch", [res["crash"]])
            return
        self._child(res, traced)
        items = res["items"]
        for it in items:
            fails = []
            if "error" in it:
                fails.append(f"uncaught exception {it['error'].strip().splitlines()[-1]}")
            else:
                ref = references.get(it["kind"])
                if ref is not None and it["digest"] != ref[it["index"]]:
                    fails.append("output digest differs from the reference")
                if not it["part_i"]:
                    fails.append("height-amplitude part (i) fails")
            self._fail(f"graded {it['kind']}[{it['index']}]", fails)
            if fails:
                continue
            metric = "verify_ha_s" if it["kind"] == "complexes" else "invariants_s"
            self._add("item_s", it["s"], traced)
            self._add(metric, it["s"], traced)
        if traced:
            self.traced_items += len(items)

    # -- metrics --------------------------------------------------------------

    def speed(self) -> float:
        """Reference-speed factor: CALIB_REF over the run's median calibration time."""
        return CALIB_REF / statistics.median(self.calib)

    def end_to_end(self, setup: list[float]) -> dict:
        if not self.samples.get("item_s") or not self.calib:
            return {}
        values = {
            "setup_s": statistics.median(setup),
            "item_s": statistics.median(self.samples["item_s"]) * self.speed(),
            "peak_rss_mib": max(self.rss),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    def per_layer(self) -> dict:
        items = max(self.traced_items, 1)
        layers: dict[str, dict] = {}
        sizes: dict[str, float] = {}
        distinct = 0
        for tr in self.traces:
            distinct += tr["cohomology_distinct"]
            for name, agg in tr["layers"].items():
                acc = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                for key in acc:
                    acc[key] += agg[key]
            for name, value in tr["sizes"].items():
                if name.endswith(("max_rows", "max_cols")):
                    sizes[name] = max(sizes.get(name, 0), value)
                else:
                    sizes[name] = sizes.get(name, 0) + value
        values: dict[str, float] = {}
        for name, unit in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if base in layers and kind in ("calls", "s", "self_s"):
                values[name] = layers[base][kind] / items
            elif name in sizes:
                values[name] = sizes[name] if name.endswith(("max_rows", "max_cols")) else sizes[name] / items
        calls = layers.get("complexes.cohomology", {}).get("calls", 0)
        values["complexes.cohomology.distinct"] = distinct / items
        values["complexes.cohomology.reuse_ratio"] = 1 - distinct / calls if calls else 0.0
        values["serialize.tower_bytes"] = statistics.mean(self.tower_bytes) if self.tower_bytes else 0.0
        traced = self.traced_samples.get("item_s", [])
        untraced = self.samples.get("item_s", [])
        if traced and untraced:
            values["trace.item_s"] = statistics.median(traced)
            values["trace.untraced_item_s"] = statistics.median(untraced)
            values["trace.overhead_s"] = values["trace.item_s"] - values["trace.untraced_item_s"]
        return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}

    def print_table(self, setup: list[float], run_s: float) -> None:
        rows = [("setup_s", "s", setup), ("run_s", "s", [run_s])]
        if self.samples.get("item_s") and self.calib:
            rows.append(("item_s", "s", [x * self.speed() for x in self.samples["item_s"]]))
            rows.append(("item_raw_s", "s", self.samples["item_s"]))
            rows.append(("calib_s", "s", self.calib))
        for name in ("gen_s", "validate_s", "patch_s", "certify_s", "roundtrip_s",
                     "verify_ha_s", "invariants_s"):
            if self.samples.get(name):
                rows.append((name, "s", self.samples[name]))
        print(f"{'metric':<18}{'unit':<7}{'median':>12}{'tail':>18}{'n':>6}")
        for name, unit, vals in rows:
            tail = tail_percentile(vals)
            tail_txt = f"p{tail[0]} {tail[1]:.4f}" if tail else "-"
            print(f"{name:<18}{unit:<7}{statistics.median(vals):>12.4f}{tail_txt:>18}{len(vals):>6}")
            if name in ("verify_ha_s", "invariants_s"):
                p90 = statistics.quantiles(vals, n=10)[-1] if len(vals) >= 2 else vals[0]
                print(f"{name[:-2] + '_p90_s':<18}{unit:<7}{p90:>12.4f}{'-':>18}{len(vals):>6}")
        if self.rss:
            print(f"{'peak_rss_mib':<18}{'MiB':<7}{max(self.rss):>12.1f}{'-':>18}{len(self.rss):>6}")
        rate = self.failed / self.attempted if self.attempted else 1.0
        print(f"{'error_rate':<18}{'ratio':<7}{rate:>12.4f}{'-':>18}{self.attempted:>6}")
        for line in self.failures[:20]:
            print(f"FAIL {line}")


# -- entry point ----------------------------------------------------------------


def load_data() -> tuple[Path, dict, dict]:
    if not (SRC / "patchtower" / "__init__.py").is_file():
        raise BenchError(f"no patchtower sources under {SRC}")
    pool_path, ref_path = DATA / "ha_pool.json", DATA / "reference.json"
    if not pool_path.is_file() or not ref_path.is_file():
        raise BenchError("missing perfbench/data; run perfbench/make_reference.py")
    return pool_path, json.loads(pool_path.read_text()), json.loads(ref_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7, help="workload seed; same seed, same inputs")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pool_path, pool, reference = load_data()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, bool(args.trace))
    rng = random.Random(f"{args.workload}:{args.seed}")
    report = Report()
    try:
        runner.start_setup(args.seconds)
        start = time.perf_counter()
        if args.workload in TOWERS:
            towers = reference["towers"][args.workload]
            pool_seeds = sorted({int(key.split(":")[0]) for key in towers})
            run_towers(TOWERS[args.workload], pool_seeds, towers, runner, rng, args.seconds, report)
        elif args.workload == "ha-graded":
            order = graded_order(pool, rng) * 12  # never runs dry inside the window
            run_graded(pool_path, order, reference["ha-graded"], runner, args.seconds, report)
        else:  # smoke: one tiny tower, three graded complexes and two modules; oracle checks only
            run_towers(SMOKE_TOWER, [args.seed], {}, runner, rng, 0.0, report)
            order = graded_order(pool, rng)
            order = [o for o in order if o[0] == "complexes"][:3] + [o for o in order if o[0] == "modules"][:2]
            run_graded(pool_path, order, reference["ha-graded"], runner, args.seconds, report)
        run_s = time.perf_counter() - start - sum(runner.setup[1:])  # without in-window probes
        setup = runner.finish_setup()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    report.print_table(setup, run_s)
    metrics = report.per_layer() if args.trace else report.end_to_end(setup)
    result = {
        "correct": report.failed == 0 and bool(metrics),
        "attempted": max(report.attempted, 1),
        "failed": report.failed if report.attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
