"""Regenerate the benchmark's fixed inputs and reference digests.

Run from the repository root:

    python3 perfbench/make_reference.py

It writes ``perfbench/data/ha_pool.json`` (the graded complexes and
modules of the ``ha-graded`` workload, in the package's canonical file
formats) and ``perfbench/data/reference.json`` (sha256 digests of every
canonical output the benchmark checks).  The graded generator lives here
rather than in the test suite, so that editing the tests never changes
the benchmark's inputs; the committed pool also keeps those inputs fixed
when the engine itself changes.  Rerun it only on purpose: the digests
pin today's canonical bytes.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from patchtower import serialize  # noqa: E402
from patchtower.complexes import make_complex  # noqa: E402
from patchtower.graded import GradedModule  # noqa: E402
from patchtower.groebner import syzygy_generators  # noqa: E402
from patchtower.linalg import Matrix  # noqa: E402
from patchtower.rings import RingTowerElement, graded_ring  # noqa: E402
from patchtower.scenarios import ScenarioParams, gen_scenario  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402

DATA = HERE / "data"
POOL_SEED = 20121  # fixed: the pool never depends on a run's --seed
N_COMPLEXES = 132
N_MODULES = 120
N_DENSE = 16
N_WIDE = 16
N_REJECT = 4


def _monomials(q: int, degree: int):
    if q == 1:
        yield (degree,)
        return
    for k in range(degree + 1):
        for rest in _monomials(q - 1, degree - k):
            yield (k,) + rest


def _homogeneous(rng: random.Random, spec, degree: int) -> RingTowerElement:
    coeffs = {}
    for e in _monomials(spec.q, degree):
        c = rng.randrange(spec.p)
        if c:
            coeffs[e] = c
    return RingTowerElement(spec, coeffs)


def _row_vectors(mat: Matrix) -> list[dict]:
    out = []
    for i in range(mat.rows):
        vec = {}
        for j in range(mat.cols):
            for e, c in mat.entries[i][j].coeffs.items():
                vec[(j, e)] = c
        out.append(vec)
    return out


def _rows_to_matrix(spec, rows: list[dict], width: int) -> Matrix:
    ent = []
    for vec in rows:
        row = [dict() for _ in range(width)]
        for (pos, e), c in vec.items():
            row[pos][e] = c
        ent.append([RingTowerElement(spec, d) for d in row])
    return Matrix(spec, ent)


def random_complex(rng: random.Random, spec, graded: bool):
    """A minimal complex of length <= 2 and ranks <= 3 over F_p[T1..Tq].

    With ``graded`` every entry is homogeneous of the degree forced by
    per-generator twists, and later differentials combine syzygies of a
    single degree; otherwise entries are arbitrary homogeneous pieces.
    Every differential entry lies in the maximal ideal.
    """
    p, q = spec.p, spec.q
    zero_e = (0,) * q
    length = rng.randrange(0, 3)
    ranks = [rng.randrange(1, 4) for _ in range(length + 1)]
    diffs: list[Matrix] = []
    if length == 0:
        return make_complex(spec, 0, ranks, diffs)
    w0 = [rng.randrange(0, 2) for _ in range(ranks[0])]
    w1 = [max(w0) + rng.randrange(1, 3) for _ in range(ranks[1])]
    ent = []
    for k in range(ranks[1]):
        row = []
        for l in range(ranks[0]):
            deg = w1[k] - w0[l] if graded else rng.randrange(1, 3)
            if deg < 1 or rng.random() < (0.3 if graded else 0.35):
                row.append(RingTowerElement.zero(spec))
            else:
                row.append(_homogeneous(rng, spec, deg))
        ent.append(row)
    diffs.append(Matrix(spec, ent))
    if length == 2:
        prev = diffs[0]
        syz = syzygy_generators(_row_vectors(prev), prev.cols, p, q)
        syz = [s for s in syz if all(e != zero_e for (_, e) in s)]
        groups: dict[int, list[dict]] = {}
        for s in syz:
            degs = {sum(e) + w1[pos] for (pos, e) in s} if graded else {0}
            if len(degs) == 1:
                groups.setdefault(degs.pop(), []).append(s)
        rows = []
        for _ in range(ranks[2]):
            vec: dict = {}
            if groups and rng.random() < 0.9:
                for s in groups[rng.choice(sorted(groups))]:
                    if rng.random() < 0.7:
                        c = rng.randrange(1, p)
                        for t, v in s.items():
                            vec[t] = (vec.get(t, 0) + c * v) % p
            rows.append({t: v for t, v in vec.items() if v})
        diffs.append(_rows_to_matrix(spec, rows, prev.rows))
    return make_complex(spec, 0, ranks, diffs)


def random_module(rng: random.Random, spec) -> GradedModule:
    """A graded presentation: at most 3 generators and 3 relations.

    Generators sit in degree 0 or 1 and each relation in a higher degree;
    an entry is zero or homogeneous of the difference, so the
    presentation respects the grading.
    """
    rows = rng.randrange(1, 4)
    cols = rng.randrange(0, 4)
    w = [rng.randrange(0, 2) for _ in range(rows)]
    v = [max(w) + rng.randrange(1, 3) for _ in range(cols)]
    ent = [
        [
            RingTowerElement.zero(spec) if rng.random() < 0.3 else _homogeneous(rng, spec, v[j] - w[i])
            for j in range(cols)
        ]
        for i in range(rows)
    ]
    rel = Matrix(spec, ent) if cols else Matrix.zero(spec, rows, 0)
    return GradedModule(spec, rows, rel)


def make_pool() -> dict:
    rng = random.Random(POOL_SEED)
    complexes = []
    for i in range(N_COMPLEXES):
        spec = graded_ring(3 if i % 2 == 0 else 2, 3)
        # one in four is unconstrained, as in the height-amplitude suite
        cx = random_complex(rng, spec, graded=i % 4 != 3)
        complexes.append(serialize.complex_to_obj(cx))
    modules = []
    for i in range(N_MODULES):
        spec = graded_ring(2 if i % 3 == 0 else 3, 2)
        modules.append(serialize.graded_module_to_obj(random_module(rng, spec)))
    return {"pool_seed": POOL_SEED, "complexes": complexes, "modules": modules}


def ha_digests(pool: dict) -> dict:
    out: dict = {}
    for kind in ("complexes", "modules"):
        out[kind] = []
        for obj in pool[kind]:
            _, text, part_i = child.graded_item(kind, obj)
            if not part_i:
                raise SystemExit("height-amplitude part (i) fails on a pool complex")
            out[kind].append(run.digest(text))
    return out


def top_level_padded(params: dict, seed: int) -> bool:
    """Whether the generator padded the top level (the dense Smith forms)."""
    tower, _, _ = gen_scenario(ScenarioParams(
        p=3, q=params["q"], r=params["r"], precisions=tuple(params["precisions"]),
        seed=seed, rank=params["rank"],
    ))
    limit_rank = 2 * params["rank"] if params["r"] else params["rank"]
    return sum(tower.levels[-1].complex.ranks) > limit_rank


def tower_pools() -> dict[str, list[int]]:
    dense = run.TOWERS["tower-dense"]
    padded = [s for s in range(200) if top_level_padded(dense, s)][:N_DENSE]
    return {"tower-dense": padded, "tower-wide": list(range(N_WIDE)), "tower-reject": padded[:N_REJECT]}


def tower_digests(pools: dict[str, list[int]]) -> dict:
    """Digests of tower, sidecar and `patch --format json` output for every pool item."""
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run.Runner(work, trace=False)
    out: dict = {}
    try:
        for name, seeds in pools.items():
            params, table = run.TOWERS[name], {}
            for seed in seeds:
                for pert in params["perturbations"]:
                    item = run.run_tower_item(runner, params, seed, pert)
                    fails = run.check_tower_item(item, None)
                    if fails:
                        raise SystemExit(f"{name} seed {seed} {pert}: {fails}")
                    table[run.item_key(seed, pert)] = item["digests"]
            out[name] = table
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    return out


def main() -> int:
    DATA.mkdir(exist_ok=True)
    pool = make_pool()
    (DATA / "ha_pool.json").write_text(serialize.canonical_dumps(pool))
    ref = {"ha-graded": ha_digests(pool), "towers": tower_digests(tower_pools())}
    (DATA / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
