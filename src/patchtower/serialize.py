"""Canonical JSON forms for every file format the package reads or writes.

Serialization is bit-stable: exponent vectors are sorted
lexicographically, dictionary keys are sorted, and numbers are plain
ints, so identical objects always produce identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .complexes import FiniteModuleData, FreeComplex
from .errors import InvalidInput
from .graded import GradedModule
from .linalg import Matrix, _modulus
from .patcher import FreenessCertificate, PatchingTower, TowerBase, TowerLevel
from .rings import KINDS, RingSpec, RingTowerElement, coefficient_ring, graded_ring, make_patch_ring

# what a loader raises on a file of the wrong shape or types; each
# loader maps these to InvalidInput
MALFORMED = (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError)


def json_int(x) -> int:
    """``x`` itself if it is a JSON integer; a float, string or bool raises
    TypeError (one of ``MALFORMED``)."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


# the largest rank, ring precision, level, variable count or graded or power-
# series exponent a file may give: nothing finishes on a free module of rank
# 2^70, in a ring whose exponent bound is 3^(2^70), or on T^(2^70) over F_p[T]
MAX_LOADED_SIZE = 2**16


def json_size(x) -> int:
    """A JSON integer in [0, ``MAX_LOADED_SIZE``]; anything else raises one
    of ``MALFORMED``."""
    if not 0 <= json_int(x) <= MAX_LOADED_SIZE:
        raise ValueError(f"{x} is outside [0, {MAX_LOADED_SIZE}]")
    return x


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# -- ring specs and elements -------------------------------------------------


def spec_to_obj(spec: RingSpec) -> dict:
    return {"p": spec.p, "m": spec.m, "n": spec.n, "q": spec.q, "kind": spec.kind}


def spec_from_obj(obj) -> RingSpec:
    try:
        p = json_int(obj["p"])
        m, n, q = (json_size(obj[k]) for k in ("m", "n", "q"))
        kind = obj["kind"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed ring descriptor: {exc}") from exc
    if kind not in KINDS:
        raise InvalidInput(f"unknown ring kind {kind!r}")
    if kind == "coefficient":
        return coefficient_ring(p, m)
    if kind == "graded":
        return graded_ring(p, q)
    spec = make_patch_ring(p, m, n, q)
    if spec.kind != "patch":
        raise InvalidInput("patch descriptor with no variables")
    return spec


def element_to_obj(x: RingTowerElement) -> list:
    return [[list(e), c] for e, c in sorted(x.coeffs.items())]


def element_from_obj(spec: RingSpec, obj) -> RingTowerElement:
    try:
        exponent = json_size if spec.kind == "graded" else json_int
        coeffs = {tuple(map(exponent, e)): json_int(c) for e, c in obj}
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed element: {exc}") from exc
    return RingTowerElement(spec, coeffs)


def matrix_to_obj(a: Matrix) -> list:
    return [[element_to_obj(x) for x in row] for row in a.entries]


def matrix_from_obj(spec: RingSpec, obj, rows: int | None = None, cols: int | None = None) -> Matrix:
    if not isinstance(obj, list):
        raise InvalidInput("matrix must be a list of rows")
    m = Matrix(spec, [[element_from_obj(spec, cell) for cell in row] for row in obj], cols or 0)
    if rows is not None and m.rows != rows:
        raise InvalidInput(f"matrix has {m.rows} rows, expected {rows}")
    if m.rows and cols is not None and m.cols != cols:
        raise InvalidInput(f"matrix has {m.cols} cols, expected {cols}")
    return m


# -- complexes ---------------------------------------------------------------


def complex_to_obj(c: FreeComplex) -> dict:
    return {
        "ring": spec_to_obj(c.spec),
        "lo": c.lo,
        "ranks": list(c.ranks),
        "differentials": [matrix_to_obj(d) for d in c.diffs],
    }


def complex_from_obj(obj) -> FreeComplex:
    try:
        return _complex_from_obj(obj)
    except MALFORMED as exc:
        raise InvalidInput(f"malformed complex: {exc}") from exc


def _complex_from_obj(obj) -> FreeComplex:
    # tower_from_obj calls this body directly, so a failure past the
    # header of a level's complex reads as a malformed tower file
    try:
        spec = spec_from_obj(obj["ring"])
        lo = json_int(obj["lo"])
        ranks = [json_size(r) for r in obj["ranks"]]
        raw = obj["differentials"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed complex: {exc}") from exc
    if len(raw) != max(len(ranks) - 1, 0):
        raise InvalidInput("wrong number of differentials for the rank vector")
    diffs = [
        matrix_from_obj(spec, raw[i], rows=ranks[i + 1], cols=ranks[i])
        for i in range(len(raw))
    ]
    return FreeComplex(spec, lo, ranks, diffs)


# -- graded module files -----------------------------------------------------


def graded_module_to_obj(m) -> dict:
    return {
        "ring": spec_to_obj(m.ring),
        "gens": m.gens,
        "relations": matrix_to_obj(m.relations),
    }


def graded_module_from_obj(obj):
    try:
        spec = spec_from_obj(obj["ring"])
        gens = json_int(obj["gens"])
        return GradedModule(spec, gens, matrix_from_obj(spec, obj["relations"], rows=gens))
    except MALFORMED as exc:
        raise InvalidInput(f"malformed module file: {exc}") from exc


# -- truncated power-series elements ----------------------------------------


def rinf_to_obj(x: dict) -> list:
    return [[list(e), int(c)] for e, c in sorted(x.items())]


def rinf_from_obj(obj, g: int) -> dict:
    try:
        out = {tuple(map(json_size, e)): json_int(c) for e, c in obj}
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed power-series element: {exc}") from exc
    if any(len(e) != g for e in out):
        raise InvalidInput(f"power-series exponents must have length g={g}, got {sorted(out)[:3]}")
    return out


def int_matrix_to_obj(a: np.ndarray) -> list:
    return np.asarray(a).tolist()


def int_matrix_from_obj(obj, rows: int | None = None) -> np.ndarray:
    """A list of rows of JSON integers as int64.  Each row's cell types are
    read in one pass in C, and ``json_int`` raises on a row holding another
    type; numpy refuses ragged rows and values past int64."""
    if not isinstance(obj, list):
        raise InvalidInput("integer matrix must be a list of rows")
    for row in obj:
        if type(row) is not list:
            raise TypeError(f"expected a row of integers, got {row!r}")
        if not set(map(type, row)) <= {int}:
            list(map(json_int, row))  # raises on the first cell that is not an int
    a = np.array(obj, dtype=np.int64) if obj else np.zeros((0, 0), dtype=np.int64)
    if rows is not None and a.shape[0] != rows:
        raise InvalidInput(f"integer matrix has {a.shape[0]} rows, expected {rows}")
    return a


# -- towers ------------------------------------------------------------------


def tower_to_obj(t: PatchingTower) -> dict:
    return {
        "params": {
            "p": t.p,
            "q": t.q,
            "r": t.r,
            "d": t.d,
            "precisions": [lev.precision for lev in t.levels],
            "rinf_degree": t.rinf_degree,
            "base_precision": t.base_precision,
        },
        "base": {
            "ring_ideal": [rinf_to_obj(x) for x in t.base.ideal],
            "module": {
                "gens": t.base.module.gens,
                "relations": int_matrix_to_obj(t.base.module.relations),
                "x_actions": [int_matrix_to_obj(a) for a in t.base.module.actions],
            },
        },
        "levels": [
            {
                "level": lev.level,
                "precision": lev.precision,
                "complex": complex_to_obj(lev.complex),
                "i_images": [rinf_to_obj(x) for x in lev.i_images],
                "phi_images": [rinf_to_obj(x) for x in lev.phi_images],
                "x_actions": {
                    str(k): [int_matrix_to_obj(a) for a in mats]
                    for k, mats in sorted(lev.x_actions.items())
                },
                "base_iso": int_matrix_to_obj(lev.base_iso),
            }
            for lev in t.levels
        ],
    }


def tower_from_obj(obj) -> PatchingTower:
    try:
        prm = obj["params"]
        p, q, r, d, rinf_degree, base_precision = (
            json_int(prm[k]) for k in ("p", "q", "r", "d", "rinf_degree", "base_precision")
        )
        if base_precision < 1:
            raise InvalidInput(f"base precision must be >= 1, got {base_precision}")
        _modulus(p, base_precision)
        base_obj = obj["base"]
        raw_levels = obj["levels"]
        g = q - r
        mod_obj = base_obj["module"]
        gens = json_int(mod_obj["gens"])
        module = FiniteModuleData(
            p,
            base_precision,
            gens,
            int_matrix_from_obj(mod_obj["relations"], rows=gens),
            tuple(int_matrix_from_obj(a) for a in mod_obj["x_actions"]),
        )
        if len(module.actions) != g:
            raise InvalidInput(f"base module needs {g} action matrices")
        if any(a.shape != (gens, gens) for a in module.actions):
            raise InvalidInput(f"base module action matrices must be {gens}x{gens}")
        base = TowerBase(
            ideal=[rinf_from_obj(x, g) for x in base_obj["ring_ideal"]],
            module=module,
        )
        levels = []
        for raw in raw_levels:
            level, precision = json_int(raw["level"]), json_int(raw["precision"])
            i_images = [rinf_from_obj(x, g) for x in raw["i_images"]]
            phi_images = [rinf_from_obj(x, g) for x in raw["phi_images"]]
            if len(i_images) != q:
                raise InvalidInput(f"level {level} needs {q} structure images")
            if len(phi_images) != g:
                raise InvalidInput(f"level {level} needs {g} quotient images")
            # the header and the modulus are checked before any element is
            # built: building one reduces mod p^m, which a huge m never finishes
            ring = raw["complex"]["ring"]
            got, want = tuple(ring[k] for k in ("p", "q", "m", "n")), (p, q, precision, level)
            if got != want:
                raise InvalidInput(f"level {level} ring has (p, q, m, n) = {got}, expected {want}")
            _modulus(p, precision)
            if ring["kind"] != "patch":
                raise InvalidInput(f"level {level} ring is of kind {ring['kind']!r}, expected 'patch'")
            cx = _complex_from_obj(raw["complex"])
            levels.append(
                TowerLevel(
                    level=level,
                    precision=precision,
                    complex=cx,
                    i_images=i_images,
                    phi_images=phi_images,
                    x_actions={
                        int(k): [int_matrix_from_obj(a) for a in mats]
                        for k, mats in raw["x_actions"].items()
                    },
                    base_iso=int_matrix_from_obj(raw["base_iso"], rows=gens),
                )
            )
        # a tower without levels is left for patch to refuse as too short
        precisions = [lev.precision for lev in levels]
        if levels and list(map(json_int, prm["precisions"])) != precisions:
            raise InvalidInput(f"params.precisions {prm['precisions']} differ from the levels' {precisions}")
        levels.sort(key=lambda lev: lev.level)
        return PatchingTower(
            p=p, q=q, r=r, d=d,
            rinf_degree=rinf_degree,
            base_precision=base_precision,
            base=base,
            levels=levels,
        )
    except MALFORMED as exc:
        raise InvalidInput(f"malformed tower file: {exc}") from exc


# -- certificates ------------------------------------------------------------


def certificate_to_obj(cert: FreenessCertificate) -> dict:
    return {
        "precision": cert.precision,
        "rank": cert.rank,
        "checks": dict(sorted(cert.checks.items())),
        "tau": {str(k): v for k, v in sorted(cert.tau.items())},
        "chain": list(cert.chain),
        "limit_differentials": complex_to_obj(cert.limit.complex),
        "reductions": {
            str(k): complex_to_obj(c) for k, c in sorted(cert.reductions.items())
        },
        "i_images": [rinf_to_obj(x) for x in cert.limit.i_images],
        "phi_images": [rinf_to_obj(x) for x in cert.limit.phi_images],
        "used_basis_change": cert.limit.used_basis_change,
        "height_amplitude": cert.ha_obj,
        "valid": cert.valid,
    }
