"""Ground-truth tower generation and named hypothesis violations.

A scenario starts from a chosen limit: a length-r exterior-power
complex on the variables killed by the structure map, direct-summed to
the requested rank, placed in degrees [d-r, d].  Tensoring it down the
tower produces levels whose validation data (action matrices, base
witnesses) are computed by the same canonical machinery the validator
uses, so the generated tower is its own oracle.  Perturbations break
exactly one hypothesis each and record the designated error.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .complexes import (
    FiniteModuleData,
    FreeComplex,
    cohomology,
    direct_sum,
    koszul_complex,
    make_complex,
)
from .errors import InvalidParams
from .linalg import MAX_EXPANDED_CELLS, Matrix, _modulus, check_cells
from .patcher import PatchingTower, RInfinityModel, RinfElem, TowerBase, TowerLevel, chain_covers
from .rings import RingTowerElement, make_patch_ring

EXPECTED_ERRORS = {
    "tau_not_constant": "TauNotConstant",
    "tau_out_of_range": "TauOutOfRange",
    "action_mismatch": "ActionMismatch",
    "augmentation_not_killed": "AugmentationNotKilled",
    "base_mismatch": "BaseMismatch",
}

PERTURBATIONS = tuple(EXPECTED_ERRORS)


@dataclass(frozen=True)
class ScenarioParams:
    """Free parameters of a generated tower."""

    p: int
    q: int
    r: int
    d: int | None = None
    precisions: tuple[int, ...] = ()
    seed: int = 0
    rank: int = 1
    rinf_degree: int = 2

    def resolved(self) -> "ScenarioParams":
        d = self.q if self.d is None else self.d
        precisions = self.precisions or tuple(min(n, 2) for n in range(1, 4))
        return ScenarioParams(
            self.p, self.q, self.r, d, tuple(precisions), self.seed,
            self.rank, self.rinf_degree,
        )

    def validate(self) -> None:
        if self.q < 1:
            raise InvalidParams("need at least one tower variable")
        if not 0 <= self.r <= self.q:
            raise InvalidParams(f"need 0 <= r <= q, got r={self.r}, q={self.q}")
        if len(self.precisions) < 2:
            raise InvalidParams("need at least two levels")
        if any(m < 1 for m in self.precisions):
            raise InvalidParams("precisions must be >= 1")
        # the precision that the sidecar promises and ``patch`` defaults to
        target = min(max(self.precisions), len(self.precisions))
        if not chain_covers(enumerate(self.precisions, start=1), target):
            raise InvalidParams(f"no chain of levels covers the precision steps up to {target}")
        if self.rank < 1:
            raise InvalidParams("rank must be >= 1")
        # the rank of every level's complex; ``patch`` would not load more
        from .serialize import MAX_LOADED_SIZE

        if self.rank > MAX_LOADED_SIZE:
            raise InvalidParams(f"rank must be <= {MAX_LOADED_SIZE}, got {self.rank}")
        # cohomology expands the top ring's p^e x p^e multiplication
        # matrices; with p >= 2 a huge e is refused without computing p^e
        n = len(self.precisions)
        e = n * self.q
        check_cells(
            math.inf if e >= MAX_EXPANDED_CELLS.bit_length() else (self.p**e) ** 2, MAX_EXPANDED_CELLS,
            "the level-{n} ring's {p}^{e} x {p}^{e} multiplication matrix exceeds {limit} cells",
            n=n, p=self.p, e=e,
        )
        # every level's ring computes p^m; a huge m is refused before it is
        for m in self.precisions:
            _modulus(self.p, m)
        # the power-series model that ``patch`` builds, with its own degree
        # check, and its largest quotient: by the q structure-map images
        RInfinityModel(self.p, max(self.precisions), self.q - self.r, self.rinf_degree).check_quotient(self.q)


def _limit_complex(params: ScenarioParams, level: int, precision: int) -> FreeComplex:
    spec = make_patch_ring(params.p, precision, level, params.q)
    g = params.q - params.r
    seq = [RingTowerElement.variable(spec, j) for j in range(g, params.q)]
    if seq:
        base = koszul_complex(spec, seq, lo=params.d - params.r)
    else:
        base = make_complex(spec, params.d, [1], [])
    return direct_sum(*[base] * params.rank)


def _pad_contractible(cx: FreeComplex, degree: int) -> FreeComplex:
    """Append an identity summand in degrees (degree, degree+1)."""
    spec = cx.spec
    one = RingTowerElement.one(spec)
    pad = make_complex(spec, degree, [1, 1], [Matrix(spec, [[one]])])
    return direct_sum(cx, pad)


def _level_data(params: ScenarioParams, cx: FreeComplex):
    g = params.q - params.r
    x_actions = {dd: list(cohomology(cx, dd).actions[:g]) for dd in cx.degrees}
    return x_actions, cohomology(cx, params.d)


def gen_scenario(params: ScenarioParams, perturbation: str | None = None):
    """Build a tower plus its oracle sidecar; optionally break one hypothesis.

    Deterministic in the seed: the same parameters always produce the
    same tower, so serialized scenarios are byte-identical on re-runs.
    """
    params = params.resolved()
    params.validate()
    if perturbation is not None and perturbation not in PERTURBATIONS:
        raise InvalidParams(f"unknown perturbation {perturbation!r}")
    rng = random.Random(params.seed)
    p, q, r, d = params.p, params.q, params.r, params.d
    g = q - r
    base_precision = max(params.precisions)
    model_degree = params.rinf_degree

    # structure maps: the first g variables go to the power-series
    # variables, the rest to zero; the base quotient kills everything
    def i_images() -> list[RinfElem]:
        out: list[RinfElem] = []
        for j in range(q):
            if j < g:
                out.append({tuple(1 if i == j else 0 for i in range(g)): 1})
            else:
                out.append({})
        return out

    phi_images: list[RinfElem] = [{} for _ in range(g)]
    base_ideal: list[RinfElem] = [
        {tuple(1 if i == j else 0 for i in range(g)): 1} for j in range(g)
    ]

    complexes: list[FreeComplex] = []
    for n, m_n in enumerate(params.precisions, start=1):
        cx = _limit_complex(params, n, m_n)
        if r >= 1 and rng.random() < 0.5:
            pad_at = rng.randrange(d - r, d)
            cx = _pad_contractible(cx, pad_at)
        complexes.append(cx)

    levels: list[TowerLevel] = []
    rank_seen = None
    for n, (m_n, cx) in enumerate(zip(params.precisions, complexes), start=1):
        x_actions, top_pres = _level_data(params, cx)
        qs = top_pres.quotient_by_columns(top_pres.actions).quotient
        if any(e != m_n for e in qs.exponents):
            raise AssertionError("generated base fiber is not free at level precision")
        if rank_seen is None:
            rank_seen = qs.summands
        elif rank_seen != qs.summands:
            raise AssertionError("generated levels disagree on the base rank")
        levels.append(
            TowerLevel(
                level=n,
                precision=m_n,
                complex=cx,
                i_images=i_images(),
                phi_images=[dict(x) for x in phi_images],
                x_actions=x_actions,
                base_iso=qs.projection % (p**m_n),
            )
        )
    if rank_seen != params.rank:
        raise AssertionError(
            f"generated rank {rank_seen} disagrees with the requested {params.rank}"
        )
    base_module = FiniteModuleData(
        p,
        base_precision,
        rank_seen,
        np.zeros((rank_seen, 0), dtype=np.int64),
        tuple(np.zeros((rank_seen, rank_seen), dtype=np.int64) for _ in range(g)),
    )

    tower = PatchingTower(
        p=p, q=q, r=r, d=d,
        rinf_degree=model_degree,
        base_precision=base_precision,
        base=TowerBase(ideal=base_ideal, module=base_module),
        levels=levels,
    )

    # imported here so that ``import patchtower`` does not load serialize
    # and json, which nothing else it imports needs
    from .serialize import complex_to_obj

    target_precision = min(base_precision, len(params.precisions))
    expected_limit = _limit_complex(params, target_precision, target_precision)
    tau = {}
    for dd in expected_limit.degrees:
        if expected_limit.rank(dd):
            tau[dd] = expected_limit.rank(dd)

    sidecar = {
        "params": {
            "p": p, "q": q, "r": r, "d": d,
            "precisions": list(params.precisions),
            "seed": params.seed,
            "rank": params.rank,
            "rinf_degree": model_degree,
        },
        "perturbation": perturbation,
        "expected": None
        if perturbation
        else {
            "rank": params.rank,
            "tau": {str(k): v for k, v in sorted(tau.items())},
            "target_precision": target_precision,
            "limit_differentials": complex_to_obj(expected_limit),
        },
        "expected_error": EXPECTED_ERRORS.get(perturbation) if perturbation else None,
    }

    if perturbation:
        _apply_perturbation(tower, params, perturbation)
    return tower, sidecar, expected_limit if not perturbation else None


def _apply_perturbation(tower: PatchingTower, params: ScenarioParams, name: str) -> None:
    p = tower.p
    d = tower.d
    if name in ("tau_not_constant", "tau_out_of_range"):
        # a rank-1 term inside the window, or just past it
        lev = tower.levels[1]
        extra = d if name == "tau_not_constant" else d + 1
        lev.complex = direct_sum(lev.complex, make_complex(lev.complex.spec, extra, [1], []))
        # refresh dependent data so only the rank profile differs
        lev.x_actions, _ = _level_data(params, lev.complex)
        return
    if name == "action_mismatch":
        lev = max(tower.levels, key=lambda l: (l.precision, l.level))
        img = dict(lev.i_images[tower.q - 1])
        key = (0,) * tower.g
        img[key] = (img.get(key, 0) + p ** (lev.precision - 1)) % (p**tower.base_precision)
        if not img[key]:
            del img[key]
        lev.i_images[tower.q - 1] = img
        return
    if name == "augmentation_not_killed":
        low = [l for l in tower.levels if l.precision < tower.base_precision]
        if low:
            lev = low[0]
            img = dict(lev.i_images[tower.q - 1])
            key = (0,) * tower.g
            img[key] = (img.get(key, 0) + p**lev.precision) % (p**tower.base_precision)
            lev.i_images[tower.q - 1] = img
            return
        if tower.g >= 1:
            lev = tower.levels[0]
            lev.phi_images[0] = {
                (0,) * tower.g: p ** (tower.base_precision - 1)
            }
            return
        raise InvalidParams(
            "augmentation perturbation needs a low-precision level or a free variable"
        )
    if name == "base_mismatch":
        lev = tower.levels[-1]
        lev.base_iso = np.zeros_like(np.asarray(lev.base_iso))
        return
    raise InvalidParams(f"unknown perturbation {name!r}")
