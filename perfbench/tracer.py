"""Outside-in tracer for patchtower.

The tracer wraps public callables after ``import patchtower`` without
editing the package.  A module that did ``from .linalg import
smith_transforms`` holds its own reference, so every wrapped function is
rebound in each ``patchtower`` namespace that holds it, and methods are
rebound on their class.  Callables reachable only through default
arguments (``grevlex_key`` inside ``ModuleOrder``) stay unwrapped.

Each call of a timed target is a span with a name, a start, an end and a
parent (the innermost open span).  A span folds into per-name totals
when it closes: calls, inclusive seconds (outermost call of a name only,
so recursion is not double counted) and self seconds (duration minus the
time its child spans cover).  Count-only targets bump a counter and open
no span.  ``install(full=False)`` wraps just the stage entry points,
whose per-call durations feed the untraced end-to-end report.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path, metric prefix, mode)
STAGES = [
    ("scenarios", "gen_scenario", "scenarios.gen_scenario", "time"),
    ("patcher", "validate_hypotheses", "patcher.validate_hypotheses", "time"),
    ("patcher", "patch", "patcher.patch", "time"),
    ("patcher", "certify", "patcher.certify", "time"),
    ("graded", "verify_height_amplitude", "graded.verify_height_amplitude", "time"),
    ("graded", "module_invariants", "graded.module_invariants", "time"),
]

LAYERS = [
    ("rings", "RingTowerElement.__mul__", "rings.mul", "time"),
    ("rings", "RingTowerElement.invert", "rings.invert", "time"),
    ("linalg", "smith_transforms", "linalg.smith_transforms", "time"),
    ("linalg", "smith_quotient", "linalg.smith_quotient", "time"),
    ("linalg", "HowellCore.__init__", "linalg.HowellCore", "time"),
    ("linalg", "elementary_divisors", "linalg.elementary_divisors", "time"),
    ("linalg", "expand_scalars", "linalg.expand_scalars", "time"),
    ("complexes", "cohomology", "complexes.cohomology", "time"),
    ("complexes", "minimize", "complexes.minimize", "time"),
    ("complexes", "tau_profile", "complexes.tau_profile", "time"),
    ("complexes", "tensor_along", "complexes.tensor_along", "time"),
    ("groebner", "buchberger", "groebner.buchberger", "time"),
    ("groebner", "syzygy_generators", "groebner.syzygy_generators", "time"),
    ("groebner", "annihilator", "groebner.annihilator", "time"),
    ("groebner", "normal_form", "groebner.normal_form", "time"),
    ("groebner", "lead", "groebner.lead", "count"),
    ("graded", "minimal_graded_resolution", "graded.minimal_graded_resolution", "time"),
    ("graded", "complex_cohomology_module", "graded.complex_cohomology_module", "time"),
    ("graded", "support_height_profile", "graded.support_height_profile", "time"),
    ("patcher", "RInfinityModel.evaluate_at_matrices", "patcher.evaluate_at_matrices", "time"),
    ("patcher", "FiniteModuleData.matrices_equal", "patcher.matrices_equal", "time"),
    ("serialize", "tower_to_obj", "serialize.tower_to_obj", "time"),
    ("serialize", "tower_from_obj", "serialize.tower_from_obj", "time"),
    ("serialize", "canonical_dumps", "serialize.canonical_dumps", "time"),
    ("serialize", "certificate_to_obj", "serialize.certificate_to_obj", "time"),
]


def _shape(a):
    shape = getattr(a, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]), int(shape[1])
    rows = len(a)
    return rows, (len(a[0]) if rows else 0)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        self.depth: list[int] = []
        self.durations: dict[str, list[float]] = {}
        self.sizes: dict[str, int] = {}
        self.distinct_complexes: set = set()
        self._stack: list[list] = []

    # -- size counters --------------------------------------------------------

    def _after(self, name: str, args, result) -> None:
        sizes = self.sizes
        if name == "linalg.smith_transforms":
            rows, cols = _shape(args[0])
            sizes["linalg.smith_transforms.cells"] = sizes.get("linalg.smith_transforms.cells", 0) + rows * cols
            sizes["linalg.smith_transforms.max_rows"] = max(sizes.get("linalg.smith_transforms.max_rows", 0), rows)
            sizes["linalg.smith_transforms.max_cols"] = max(sizes.get("linalg.smith_transforms.max_cols", 0), cols)
        elif name == "linalg.expand_scalars":
            sizes["linalg.expand_scalars.out_cells"] = sizes.get("linalg.expand_scalars.out_cells", 0) + int(result.size)
        elif name == "linalg.HowellCore":
            sizes["linalg.HowellCore.rows"] = sizes.get("linalg.HowellCore.rows", 0) + _shape(args[1])[0]
        elif name == "complexes.cohomology":
            self.distinct_complexes.add(args[0])

    # -- wrappers -------------------------------------------------------------

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.incl.append(0.0)
        self.self_s.append(0.0)
        self.depth.append(0)
        return len(self.names) - 1

    def _timed(self, name: str, fn, keep_durations: bool, sized: bool):
        idx = self._register(name)
        durations = self.durations.setdefault(name, []) if keep_durations else None
        stack, calls, incl, self_s, depth = self._stack, self.calls, self.incl, self.self_s, self.depth
        after = self._after
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [0.0]  # time covered by child spans
            stack.append(span)
            depth[idx] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                depth[idx] -= 1
                calls[idx] += 1
                self_s[idx] += dur - span[0]
                if depth[idx] == 0:
                    incl[idx] += dur
                if stack:
                    stack[-1][0] += dur
                if durations is not None:
                    durations.append(dur)
            if sized:
                after(name, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        idx = self._register(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, targets, keep_durations: bool = False) -> None:
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "patchtower" or key.startswith("patchtower."))
        ]
        for module, path, name, mode in targets:
            owner = sys.modules[f"patchtower.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            if mode == "count":
                wrapped = self._counted(name, original)
            else:
                sized = name in (
                    "linalg.smith_transforms", "linalg.expand_scalars",
                    "linalg.HowellCore", "complexes.cohomology",
                )
                wrapped = self._timed(name, original, keep_durations, sized)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)

    def summary(self) -> dict:
        out: dict = {"sizes": dict(self.sizes), "durations": self.durations, "layers": {}}
        for i, name in enumerate(self.names):
            out["layers"][name] = {"calls": self.calls[i], "s": self.incl[i], "self_s": self.self_s[i]}
        out["cohomology_distinct"] = len(self.distinct_complexes)
        return out


def install(full: bool) -> Tracer:
    """Wrap the stage entry points, and with ``full`` every layer target."""
    tracer = Tracer()
    tracer.install(STAGES, keep_durations=True)
    if full:
        tracer.install(LAYERS)
    return tracer
