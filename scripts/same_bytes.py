#!/usr/bin/env python3
"""Print the sha256 of every file a fixed grid of CLI round trips writes.

Each grid point runs ``patchtower gen`` and then ``patchtower patch
--format json`` through ``patchtower.cli.main`` and prints one
``name sha256`` line for each of ``tower.json``, ``expected.json`` and
the patch output (whose name carries the exit code), then one line for
the ``patchtower minimize --format json`` output of every level complex
of the tower, padded levels included.  The grid is
p=3; (q, r) in {(1,0), (1,1), (2,0), (2,1), (2,2)} at small precisions and
seeds 0-7; two level-3 q=2 towers, whose rank-729 ring makes scalar
expansion take Kronecker products of two non-identity factors; two
three-variable towers, (q, r) = (3, 1) and (3, 2) at precisions (1, 2)
and seed 3, whose expansions join three companion powers; two
rank-3 towers at seed 0 (every other point has rank 1): (q, r) = (2, 0)
at precisions (1, 2), whose levels are one-term complexes of rank 3, and
(1, 1) at (1, 2, 2), whose rank-3 differentials are padded to rank 4 at
level 3; and every named perturbation of one padded q=1 tower.  Then
one tower that only the basis-change fallback of ``patch`` accepts: the
q=2, r=2, seed 0 tower at precisions (1, 2) with two basis vectors of
its level-2 middle term swapped (built in-process, written with
``tower_to_obj``; its ``patch`` output reports ``used_basis_change:
true``), and the three sheared towers of ``tests/util.py``: rank 4,
q=1, r=1, seed 0, every later level's middle term sheared by a
different amount, at precisions (1, 2) and (1, 2, 2) patched at the
default precision (exit 3, and chain [2, 3] rebased) and at (1, 2, 3, 3)
patched at precision 3 (exit 3).  Last come, for each graded complex of
``perfbench/data/ha_pool.json`` (which is read and left as it is), its
``minimize`` and ``verify-ha`` outputs, and for each pooled graded
module its ``invariants`` output, all with ``--format json``.  The last
line is the ``verify-ha --format json`` output of d = [[T1, 0], [T2,
T1^4090]] over F_3[T1,T2], whose Hilbert counts run from degree -4089
to 6.

Two checkouts give the same canonical bytes exactly when this prints
the same lines on both.  ``tests/data/same_bytes.txt`` holds the
committed lines, and ``tests/test_same_bytes.py`` recomputes them and
names each line that differs.  A change that exists to move an output
regenerates that file:

    python3 scripts/same_bytes.py > tests/data/same_bytes.txt

The script reads ``src/`` and the tower helpers in ``tests/util.py``
next to it; to print another commit's lines, copy this script and
``tests/util.py`` into a ``git archive`` export of that commit.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from patchtower.cli import main  # noqa: E402
from patchtower.linalg import Matrix  # noqa: E402
from patchtower.rings import RingTowerElement  # noqa: E402
from patchtower.scenarios import PERTURBATIONS, ScenarioParams, gen_scenario  # noqa: E402
from patchtower.serialize import canonical_dumps, tower_to_obj  # noqa: E402
from util import refresh_level, sheared_tower, transform_complex  # noqa: E402

HA_POOL = ROOT / "perfbench" / "data" / "ha_pool.json"

# (q, r, precisions) per grid class
CLASSES = [
    (1, 0, (1, 2, 2)),
    (1, 1, (1, 2, 2)),
    (2, 0, (1, 2)),
    (2, 1, (1, 2)),
    (2, 2, (1, 2)),
]
SEEDS = range(8)
# (q, r, precisions, seed) at level 3, rho = 3^6 = 729
LEVEL3 = [
    (2, 0, (1, 2, 1), 0),
    (2, 2, (1, 2, 2), 7),
]
# (q, r, precisions, seed): three variables, so the Kronecker index
# order of scalar expansion is pinned past two factors
THREE_VARIABLES = [
    (3, 1, (1, 2), 3),
    (3, 2, (1, 2), 3),
]
# (q, r, precisions, seed, rank)
RANK3 = [
    (2, 0, (1, 2), 0, 3),
    (1, 1, (1, 2, 2), 0, 3),
]
# q=1, r=1 at seed 0 pads the top level, as in the dense benchmark class
PADDED = (1, 1, (1, 2, 2, 2, 2), 0)
# no padding at seed 0, so the middle term has rank exactly 2
BASIS_CHANGE = ScenarioParams(p=3, q=2, r=2, precisions=(1, 2), seed=0)
# (precisions, extra patch arguments) of the sheared towers
SHEARED = [((1, 2), []), ((1, 2, 2), []), ((1, 2, 3, 3), ["--precision", "3"])]


def _run(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_digest(command: str, name: str, obj, tmp: str, extra=()):
    """(name, sha256) of ``command --format json`` on one input file,
    written to a fresh directory under ``tmp``."""
    path = Path(tempfile.mkdtemp(dir=tmp)) / "input.json"
    path.write_text(canonical_dumps(obj))
    code, out = _run([command, str(path), "--format", "json", *extra])
    return f"{name}/{command}[exit={code}]", _digest(out)


def tower_digests(name: str, tower, extra=()):
    """(name, sha256) of a tower built in-process and of its ``patch``
    and level ``minimize`` outputs."""
    obj = tower_to_obj(tower)
    lines = [(f"{name}/tower.json", _digest(canonical_dumps(obj).encode("utf-8")))]
    with tempfile.TemporaryDirectory() as tmp:
        lines.append(command_digest("patch", name, obj, tmp, extra))
        for level in obj["levels"]:
            lines.append(command_digest("minimize", f"{name}/level{level['level']}", level["complex"], tmp))
    return lines


def round_trip(q: int, r: int, precisions, seed: int, perturbation=None, rank: int = 1):
    """(name, sha256) of each output file of one gen + patch round trip."""
    name = f"q{q}r{r}-m{''.join(map(str, precisions))}-s{seed}"
    argv = ["gen", "--p", "3", "--q", str(q), "--r", str(r), "--seed", str(seed),
            "--precisions", *map(str, precisions)]
    if rank != 1:
        name += f"-k{rank}"
        argv += ["--rank", str(rank)]
    if perturbation is not None:
        name += f"-{perturbation}"
        argv += ["--perturbation", perturbation]
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = _run([*argv, "--out-dir", tmp])
        if code != 0:
            return [(f"{name}/gen[exit={code}]", _digest(b""))]
        tower = Path(tmp) / "tower.json"
        code, out = _run(["patch", str(tower), "--format", "json"])
        lines = [
            (f"{name}/tower.json", _digest(tower.read_bytes())),
            (f"{name}/expected.json", _digest((Path(tmp) / "expected.json").read_bytes())),
            (f"{name}/patch[exit={code}]", _digest(out)),
        ]
        for level in json.loads(tower.read_text())["levels"]:
            lines.append(command_digest("minimize", f"{name}/level{level['level']}", level["complex"], tmp))
        return lines


def basis_change():
    """The permuted tower's lines.  Swapping two basis vectors of the
    level-2 middle term breaks the exact chain, so ``patch`` must rebase
    that level by a signed permutation."""
    params = BASIS_CHANGE.resolved()
    tower, _, _ = gen_scenario(params)
    lev = tower.levels[1]
    spec = lev.complex.spec
    mid = tower.d - 1
    one, zero = RingTowerElement.one(spec), RingTowerElement.zero(spec)
    swap = Matrix(spec, [[zero, one], [one, zero]])
    refresh_level(tower, 1, params, transform_complex(lev.complex, {mid: (swap, swap)}))
    name = f"basis-change-q{params.q}r{params.r}-m{''.join(map(str, params.precisions))}-s{params.seed}"
    return tower_digests(name, tower)


def sheared():
    """The sheared towers' lines, which only a basis-change search decides."""
    lines = []
    for precisions, extra in SHEARED:
        name = f"sheared-q1r1-m{''.join(map(str, precisions))}-s0-k4"
        lines += tower_digests(name, sheared_tower(precisions), extra)
    return lines


def ha_pool():
    """(name, sha256) of the minimize and verify-ha outputs of each pooled
    graded complex, then of the invariants output of each pooled module."""
    pool = json.loads(HA_POOL.read_text())
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, obj in enumerate(pool["complexes"]):
            for command in ("minimize", "verify-ha"):
                lines.append(command_digest(command, f"ha-pool/complex{i}", obj, tmp))
        for i, obj in enumerate(pool["modules"]):
            lines.append(command_digest("invariants", f"ha-pool/module{i}", obj, tmp))
    return lines


def wide_exponent(k: int = 4090):
    """(name, sha256) of ``verify-ha`` on d = [[T1, 0], [T2, T1^k]]."""
    ring = {"p": 3, "m": 1, "n": 0, "q": 2, "kind": "graded"}
    t1, t2, t1k = [[[1, 0], 1]], [[[0, 1], 1]], [[[k, 0], 1]]
    obj = {"ring": ring, "lo": 0, "ranks": [2, 2], "differentials": [[[t1, []], [t2, t1k]]]}
    with tempfile.TemporaryDirectory() as tmp:
        return [command_digest("verify-ha", f"wide-exponent-T1^{k}", obj, tmp)]


def grid():
    for q, r, precisions in CLASSES:
        for seed in SEEDS:
            yield q, r, precisions, seed, None
    for q, r, precisions, seed in LEVEL3 + THREE_VARIABLES:
        yield q, r, precisions, seed, None
    for q, r, precisions, seed, rank in RANK3:
        yield q, r, precisions, seed, None, rank
    q, r, precisions, seed = PADDED
    for perturbation in PERTURBATIONS:
        yield q, r, precisions, seed, perturbation


def lines():
    """Every ``name sha256`` line, in the order printed."""
    for point in grid():
        for name, sha in round_trip(*point):
            yield f"{name} {sha}"
    for name, sha in basis_change() + sheared() + ha_pool() + wide_exponent():
        yield f"{name} {sha}"


if __name__ == "__main__":
    for line in lines():
        print(line, flush=True)
