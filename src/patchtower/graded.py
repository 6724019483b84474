"""Homological invariants over the graded polynomial model F_p[T_1..T_q].

A module is a cokernel presentation (generators and a relation matrix).
The machinery is globally exact over the polynomial ring: resolutions
are built by iterated syzygies, with cancellations and generator drops
performed only against nonzero scalar coefficients, which are honest
units.  On presentations with entries in the irrelevant maximal ideal
(the intended inputs) this coincides with local minimality, so ranks of
the resolution are Betti numbers and its length is projective
dimension.

Support is measured through duals: the h-codimensional part of the
support shows up as the top-dimensional part of the h-th dual module,
cross-checked by a brute-force monomial oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from itertools import combinations
from math import comb

from . import groebner as gb
from .complexes import FreeComplex, _cancel_unit_pivots, dual, empty_complex, tau_profile
from .errors import InvalidParameter, NotMinimalInput, SpecMismatch, UnsupportedRing
from .linalg import Matrix
from .rings import RingSpec, RingTowerElement

Vec = gb.Vec


# ---------------------------------------------------------------------------
# bridges between exact matrices and engine vectors
# ---------------------------------------------------------------------------


def poly_to_vec(x: RingTowerElement) -> Vec:
    return {(0, e): c for e, c in x.coeffs.items()}


def vec_to_poly(spec: RingSpec, v: Vec) -> RingTowerElement:
    return RingTowerElement(spec, {e: c for (_, e), c in v.items()})


def matrix_columns(a: Matrix) -> list[Vec]:
    cols = []
    for j in range(a.cols):
        col: Vec = {}
        for i in range(a.rows):
            for e, c in a.entries[i][j].coeffs.items():
                col[(i, e)] = c
        cols.append(col)
    return cols


def columns_to_matrix(spec: RingSpec, cols: list[Vec], rows: int) -> Matrix:
    zero = RingTowerElement.zero(spec)
    ent = [[zero] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        per_row: dict[int, dict] = {}
        for (pos, e), c in col.items():
            per_row.setdefault(pos, {})[e] = c
        for pos, coeffs in per_row.items():
            ent[pos][j] = RingTowerElement(spec, coeffs)
    return Matrix(spec, ent, len(cols))


def _constant_at(v: Vec, pos: int, q: int) -> int:
    return v.get((pos, (0,) * q), 0)


def _per_module(fn):
    """Keep ``fn(m, *args)`` in the module's own cache, once per arguments."""

    @wraps(fn)
    def cached(m, *args):
        cache, key = m._cache, (fn.__name__, *args)
        if key not in cache:
            cache[key] = fn(m, *args)
        return cache[key]

    return cached


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


class GradedModule:
    """Cokernel of a relation matrix over the graded polynomial ring."""

    __slots__ = ("ring", "gens", "relations", "_cache")

    def __init__(self, ring: RingSpec, gens: int, relations: Matrix):
        if ring.kind != "graded":
            raise SpecMismatch("GradedModule needs a graded ring spec")
        if relations.spec != ring:
            raise SpecMismatch("relations over the wrong ring")
        if relations.rows != gens:
            raise SpecMismatch(
                f"relation matrix has {relations.rows} rows for {gens} generators"
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", int(gens))
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *_):
        raise AttributeError("GradedModule is immutable")

    @classmethod
    def free(cls, ring: RingSpec, rank: int) -> "GradedModule":
        return cls(ring, rank, Matrix.zero(ring, rank, 0))

    @classmethod
    def quotient_by_ideal(cls, ring: RingSpec, gens) -> "GradedModule":
        return cls(ring, 1, Matrix(ring, [list(gens)]))

    def __repr__(self):
        return f"GradedModule({self.gens} gens, {self.relations.cols} relations, q={self.ring.q})"


def _min_gens_scalar(vectors: list[Vec], t: int, p: int, q: int) -> tuple[list[Vec], list[Vec]]:
    """Drop generators admitting a relation with a nonzero scalar coefficient.

    Returns the surviving vectors and the syzygies of that surviving
    family.  On homogeneous input this is exactly graded Nakayama
    minimality; it is always an exact operation over the polynomial
    ring.
    """
    vectors = [dict(v) for v in vectors if v]
    while True:
        syz = gb.syzygy_generators(vectors, t, p, q)
        drop = None
        for s in syz:
            for pos in sorted({pp for pp, _ in s}):
                sc = _constant_at(s, pos, q)
                if sc and all(e == (0,) * q for (pp, e) in s if pp == pos):
                    drop = pos
                    break
            if drop is not None:
                break
        if drop is None:
            return vectors, syz
        del vectors[drop]


@_per_module
def presentation_data(m: GradedModule) -> tuple[int, list[Vec]]:
    """Pruned generator count and nonzero relation columns (cached).

    Each relation entry that is a nonzero scalar is cancelled as a unit
    pivot: an exact change of presentation that removes one generator
    and one relation.
    """
    ranks = [m.gens, m.relations.cols]
    # one row per relation, so pivots are sought relation by relation
    rels = [list(zip(*m.relations.entries))]
    _cancel_unit_pivots(ranks, rels)
    cols = [{(i, e): c for i, x in enumerate(row) for e, c in x.coeffs.items()} for row in rels[0]]
    return ranks[0], [col for col in cols if col]


@_per_module
def module_is_zero(m: GradedModule) -> bool:
    gens, cols = presentation_data(m)
    return gb.module_is_zero(cols, gens, m.ring.p, m.ring.q)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def groebner_basis(generators, order: str = "grevlex") -> list[RingTowerElement]:
    """Reduced basis of the ideal the generators span; unique per order."""
    elems = [x for x in generators if not x.is_zero()]
    if not elems:
        return []
    spec = elems[0].spec
    if spec.kind != "graded":
        raise UnsupportedRing("Groebner bases live over the graded model")
    if order not in gb.MONOMIAL_ORDERS:
        raise InvalidParameter(f"unknown monomial order {order!r}")
    basis = gb.buchberger(
        [poly_to_vec(x) for x in elems], spec.p, gb.ModuleOrder(gb.MONOMIAL_ORDERS[order])
    )
    return [vec_to_poly(spec, v) for v in basis]


@_per_module
def minimal_graded_resolution(m: GradedModule) -> tuple[FreeComplex, tuple[int, ...]]:
    """Free resolution by iterated syzygies with scalar-unit pruning.

    Returned as a cochain complex in degrees [-length, 0] whose degree-0
    term covers the module; the rank vector is the Betti sequence.  For
    presentations with entries in the maximal ideal every differential
    entry has zero constant term.
    """
    ring = m.ring
    p, q = ring.p, ring.q
    gens, cols = presentation_data(m)
    if gens == 0:
        return empty_complex(ring), ()
    ranks = [gens]
    steps: list[list[Vec]] = []
    current = cols
    guard = 0
    while current:
        current, syz = _min_gens_scalar(current, ranks[-1], p, q)
        if not current:
            break
        steps.append(current)
        ranks.append(len(current))
        current = syz
        guard += 1
        if guard > q + 12:
            raise AssertionError("resolution failed to terminate")
    length = len(steps)
    diffs = [columns_to_matrix(ring, step, ranks[k]) for k, step in enumerate(steps)]
    # cochain layout: degree -k has rank ranks[k], differentials run upward
    complex_ranks = list(reversed(ranks))
    complex_diffs = list(reversed(diffs))
    return FreeComplex(ring, -length, complex_ranks, complex_diffs), tuple(ranks)


@_per_module
def ext_module(m: GradedModule, i: int) -> GradedModule:
    """The i-th right derived dual: degree-i cohomology of the dual resolution.

    Dualizing the resolution puts its free modules in degrees
    [0, length], so the module is zero past the length and for the zero
    module.  At i = length it is presented by the transposed last
    differential itself, not by a Groebner-derived generating set of
    the same relation submodule.
    """
    if i < 0:
        raise InvalidParameter("negative dual index")
    cx, _ = minimal_graded_resolution(m)
    return complex_cohomology_module(dual(cx), i)


@_per_module
def annihilator_ideal(m: GradedModule) -> list[Vec]:
    gens, cols = presentation_data(m)
    return gb.annihilator(cols, gens, m.ring.p, m.ring.q)


def fitting_ideal(m: GradedModule) -> list[Vec] | None:
    """Generators of the 0th Fitting ideal, or None when too many minors."""
    gens, cols = presentation_data(m)
    t, s = gens, len(cols)
    if t == 0:
        return [{(0, (0,) * m.ring.q): 1}]
    if s < t:
        return []
    if comb(s, t) > 120:
        return None
    rows_of = [[{} for _ in range(s)] for _ in range(t)]
    for j, col in enumerate(cols):
        for (pos, e), c in col.items():
            rows_of[pos][j][(0, e)] = c
    out = []
    for subset in combinations(range(s), t):
        sub = [[rows_of[i][j] for j in subset] for i in range(t)]
        det = gb.poly_determinant(sub, m.ring.p, m.ring.q)
        if det:
            out.append(det)
    return out


@_per_module
def module_dimension(m: GradedModule) -> int:
    """Krull dimension of the support, via the initial ideal of a defining ideal.

    Uses the 0th Fitting ideal when its minor count is small, otherwise
    the annihilator; both have the same radical, hence the same
    dimension.
    """
    p, q = m.ring.p, m.ring.q
    fit = fitting_ideal(m)
    return gb.ideal_dimension(annihilator_ideal(m) if fit is None else gb.buchberger(fit, p), q)


def _rank_at_zero(d: Matrix, p: int) -> int:
    """Rank over F_p of a matrix at T = 0: the reduced basis of its
    constant columns is their row echelon form."""
    return len(gb.buchberger([{t: c for t, c in col.items() if not any(t[1])} for col in matrix_columns(d)], p))


@_per_module
def module_depth(m: GradedModule) -> int | None:
    """Depth along (T_1..T_q), read from the resolution at T = 0.

    Koszul homology H_i(T; M) is Tor_i(R/(T), M), and Tor is balanced:
    it is also the homology of any free resolution F of M tensored with
    F_p = R/(T) (Bruns-Herzog, section 1.6).  So dim H_i = rank F_i -
    rk d_i(0) - rk d_{i+1}(0), and the depth is q minus the largest i
    with H_i nonzero.  When every H_i vanishes, (T)M = M (the zero
    module included) and the depth along (T) is undefined.
    """
    cx, ranks = minimal_graded_resolution(m)
    p, q = m.ring.p, m.ring.q
    top = min(q, len(ranks) - 1)
    # d_i leaves degree -i, and is zero-shaped for i = 0 and past the length
    rk_above = _rank_at_zero(cx.differential(-top - 1), p)
    for i in range(top, -1, -1):
        rk_i = _rank_at_zero(cx.differential(-i), p)
        if ranks[i] - rk_i - rk_above:
            return q - i
        rk_above = rk_i
    return None


@_per_module
def module_grade(m: GradedModule) -> int | None:
    """Least index with a nonzero right derived dual."""
    if module_is_zero(m):
        return None
    _, betti = minimal_graded_resolution(m)
    return next((i for i in range(len(betti)) if not module_is_zero(ext_module(m, i))), None)


def module_invariants(m: GradedModule) -> dict:
    """Dimension, depth, grade, projective dimension, perfection, amplitude.

    Zero modules report dim -1 and None for the rest; ``amplitude`` is
    the rank-profile width of the resolution and always matches
    projdim.
    """
    if module_is_zero(m):
        return {
            "dim": -1,
            "depth": None,
            "grade": None,
            "projdim": None,
            "perfect": None,
            "amplitude": None,
            "betti": (),
        }
    cx, betti = minimal_graded_resolution(m)
    projdim = len(betti) - 1
    amplitude = tau_profile(cx).amplitude
    grade = module_grade(m)
    depth = module_depth(m)
    return {
        "dim": module_dimension(m),
        "depth": depth,
        "grade": grade,
        "projdim": projdim,
        "perfect": grade == projdim,
        "amplitude": amplitude,
        "betti": betti,
    }


# ---------------------------------------------------------------------------
# support-height profiles
# ---------------------------------------------------------------------------


def support_components(m: GradedModule) -> dict[int, list[Vec]]:
    """Level ideals of the minimal support components, keyed by height.

    Level h is the annihilator of the h-th dual, kept when it has
    dimension exactly q-h after saturating away the lower-height
    components.
    """
    if module_is_zero(m):
        return {}
    p, q = m.ring.p, m.ring.q
    _, betti = minimal_graded_resolution(m)
    candidates = {}
    for h in range(min(q, len(betti) - 1) + 1):
        ext = ext_module(m, h)
        if not module_is_zero(ext):
            candidates[h] = [annihilator_ideal(ext)]
    return _merge_components(candidates, p, q)


def _merge_components(candidates: dict[int, list[list[Vec]]], p: int, q: int) -> dict[int, list[Vec]]:
    """Kept level ideals by height, lowest height first.

    Each candidate of height h is saturated by every kept lower level
    and kept when it has dimension q-h; the kept candidates of one
    height multiply into its level.
    """
    merged: dict[int, list[Vec]] = {}
    for h in sorted(candidates):
        pieces = []
        for level in candidates[h]:
            for lower in merged.values():
                level = gb.saturate(level, lower, p, q)
            if gb.ideal_dimension(level, q) == q - h:
                pieces.append(level)
        if pieces:
            total = pieces[0]
            for extra in pieces[1:]:
                total = gb.ideal_product(total, extra, p, q)
            merged[h] = total
    return merged


def support_height_profile(m: GradedModule) -> set[int]:
    """Heights of the minimal primes of the support; empty for the zero module."""
    return set(support_components(m))


# ---------------------------------------------------------------------------
# the height-amplitude verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HAReport:
    """Verdict object for the height-amplitude checks on one complex."""

    amplitude: int | None
    height_profile: frozenset[int]
    part_i: dict
    part_ii: dict
    part_iii: dict
    duality: dict | None
    cohomology_zero: dict[int, bool] = field(default_factory=dict)
    # module_invariants of the top cohomology when part iii applies; kept
    # for certify, not written by to_obj
    top_invariants: dict | None = field(default=None, compare=False)

    @property
    def all_pass(self) -> bool:
        ok = self.part_i["pass"]
        if self.part_ii["applicable"]:
            ok = ok and self.part_ii["pass"]
        if self.part_iii["applicable"]:
            ok = ok and self.part_iii["lower_vanishing"] and self.part_iii["top_perfect"]
            if self.duality is not None:
                ok = ok and self.duality["radical_match"]
                if self.duality["graded"]:
                    ok = ok and self.duality["hilbert_match"]
        return ok

    def to_obj(self) -> dict:
        return {
            "amplitude": self.amplitude,
            "height_profile": sorted(self.height_profile),
            "part_i": self.part_i,
            "part_ii": self.part_ii,
            "part_iii": self.part_iii,
            "duality": self.duality,
            "cohomology_zero": {str(k): v for k, v in sorted(self.cohomology_zero.items())},
            "all_pass": self.all_pass,
        }

    def to_text(self) -> str:
        lines = [
            f"amplitude        : {self.amplitude}",
            f"height profile   : {sorted(self.height_profile)}",
            f"part i  (heights <= amplitude)         : {'pass' if self.part_i['pass'] else 'FAIL'}",
        ]
        if self.part_ii["applicable"]:
            lines.append(
                f"part ii (top components off low degrees): {'pass' if self.part_ii['pass'] else 'FAIL'}"
            )
        else:
            lines.append("part ii (top components off low degrees): not applicable")
        if self.part_iii["applicable"]:
            lines.append(
                "part iii (concentration + perfection)   : "
                + ("pass" if self.part_iii["lower_vanishing"] and self.part_iii["top_perfect"] else "FAIL")
            )
            if self.duality is not None:
                lines.append(
                    "duality (dual top vs derived dual)      : "
                    + ("pass" if self.duality["hilbert_match"] and self.duality["radical_match"] else "FAIL")
                )
        else:
            lines.append("part iii (concentration + perfection)   : not applicable")
        lines.append(f"overall: {'pass' if self.all_pass else 'FAIL'}")
        return "\n".join(lines)


def complex_cohomology_module(c: FreeComplex, degree: int) -> GradedModule:
    """Cohomology of a graded free complex at one degree, as a presentation."""
    ring = c.spec
    p, q = ring.p, ring.q
    rk = c.rank(degree)
    if rk == 0:
        return GradedModule(ring, 0, Matrix.zero(ring, 0, 0))
    d_out = c.differential(degree)
    d_in = c.differential(degree - 1)
    if d_out.rows == 0:
        # full kernel: the presentation is just the cokernel of the
        # incoming differential, on the original basis
        return GradedModule(ring, rk, d_in)
    kernel = gb.syzygy_generators(matrix_columns(d_out), d_out.rows, p, q)
    rel = gb.relations_modulo(kernel, matrix_columns(d_in), rk, p, q) if kernel else []
    return GradedModule(ring, len(kernel), columns_to_matrix(ring, rel, len(kernel)))


def verify_height_amplitude(c: FreeComplex) -> HAReport:
    """Height bound, localization vanishing, and concentration checks.

    The input must be a minimal graded complex: every differential
    entry with nonzero constant term is rejected, since such an entry is
    a unit of the local model and the rank profile would lie.
    """
    ring = c.spec
    if ring.kind != "graded":
        raise SpecMismatch("height-amplitude verification runs over the graded model")
    p, q = ring.p, ring.q
    for d in c.diffs:
        for row in d.entries:
            for x in row:
                if x.constant_term():
                    raise NotMinimalInput(
                        "differential entry has a unit constant term; minimize first"
                    )
    degrees = [d for d in c.degrees if c.rank(d)]
    if not degrees:
        report_empty = {"applicable": False, "pass": True, "witnesses": []}
        return HAReport(
            amplitude=None,
            height_profile=frozenset(),
            part_i={"pass": True, "max_height": None},
            part_ii=report_empty,
            part_iii={"applicable": False, "lower_vanishing": True, "top_perfect": True},
            duality=None,
        )
    d_minus, d_plus = min(degrees), max(degrees)
    amplitude = d_plus - d_minus

    modules = {d: complex_cohomology_module(c, d) for d in c.degrees}
    zero_flags = {d: module_is_zero(modules[d]) for d in c.degrees}
    nonzero = {d: m for d, m in modules.items() if not zero_flags[d]}

    # the support of the direct sum: every degree's components, merged
    candidates: dict[int, list[list[Vec]]] = {}
    for mod in nonzero.values():
        for h, level in support_components(mod).items():
            candidates.setdefault(h, []).append(level)
    merged = _merge_components(candidates, p, q)
    profile = frozenset(merged)
    max_height = max(profile) if profile else None
    part_i = {"pass": max_height is None or max_height <= amplitude, "max_height": max_height}

    # part ii: no top-height component may meet the support of a low degree
    if amplitude in merged:
        witnesses = []
        top_level = merged[amplitude]
        for d, mod in nonzero.items():
            if d == d_plus:
                continue
            meet = gb.buchberger([*top_level, *annihilator_ideal(mod)], p)
            if gb.ideal_dimension(meet, q) == q - amplitude:
                witnesses.append(d)
        part_ii = {"applicable": True, "pass": not witnesses, "witnesses": witnesses}
    else:
        part_ii = {"applicable": False, "pass": True, "witnesses": []}

    # part iii: when every component height equals the amplitude
    applicable = bool(profile) and profile == frozenset({amplitude})
    duality = inv = None
    if applicable:
        lower_vanishing = all(zero_flags[d] for d in c.degrees if d < d_plus)
        top = modules[d_plus]
        inv = module_invariants(top)
        top_perfect = (
            inv["grade"] is not None
            and inv["grade"] == inv["projdim"]
        )
        duality = _duality_check(c, top, amplitude)
        part_iii = {
            "applicable": True,
            "lower_vanishing": lower_vanishing,
            "top_perfect": top_perfect,
        }
    else:
        part_iii = {"applicable": False, "lower_vanishing": True, "top_perfect": True}

    return HAReport(
        amplitude=amplitude,
        height_profile=profile,
        part_i=part_i,
        part_ii=part_ii,
        part_iii=part_iii,
        duality=duality,
        cohomology_zero=zero_flags,
        top_invariants=inv,
    )


HILBERT_DEGREE = 6


def infer_twists(c: FreeComplex) -> dict[int, list[int]] | None:
    """Consistent generator degrees for a graded complex, or None.

    Every nonzero differential entry must be homogeneous, and the degree
    constraints deg(target) = deg(source) + deg(entry) must be solvable;
    each connected component of generators is anchored at degree zero
    for its first generator (lowest complex degree, lowest index).
    """
    if c.is_empty():
        return {}
    nodes = [(deg, j) for deg in c.degrees for j in range(c.rank(deg))]
    adj: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {v: [] for v in nodes}
    for idx, d in enumerate(c.diffs):
        deg = c.lo + idx
        for k in range(d.rows):
            for l in range(d.cols):
                x = d.entries[k][l]
                if x.is_zero():
                    continue
                degs = {sum(e) for e in x.coeffs}
                if len(degs) != 1:
                    return None
                (e_deg,) = degs
                # degree-preserving maps: entry degree = source - target
                src, tgt = (deg, l), (deg + 1, k)
                adj[src].append((tgt, -e_deg))
                adj[tgt].append((src, e_deg))
    twists: dict[tuple[int, int], int] = {}
    for root in nodes:
        if root in twists:
            continue
        twists[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w, delta in adj[v]:
                want = twists[v] + delta
                if w in twists:
                    if twists[w] != want:
                        return None
                else:
                    twists[w] = want
                    stack.append(w)
    return {deg: [twists[(deg, j)] for j in range(c.rank(deg))] for deg in c.degrees}


def _vector_degree(v: Vec, shifts: list[int]) -> int | None:
    """Uniform degree of a vector relative to generator shifts, or None."""
    degs = {sum(e) + shifts[pos] for (pos, e) in v}
    if len(degs) != 1:
        return None
    return degs.pop()


def _resolution_twists(m: GradedModule, start: list[int]) -> list[list[int]] | None:
    """Generator degrees of every resolution step, or None if not graded."""
    cx, betti = minimal_graded_resolution(m)
    if not betti:
        return []
    twists = [list(start)]
    for diff in reversed(cx.diffs):
        nxt = []
        for col in matrix_columns(diff):
            d = _vector_degree(col, twists[-1])
            if d is None:
                return None
            nxt.append(d)
        twists.append(nxt)
    return twists


def _duality_check(c: FreeComplex, top: GradedModule, amplitude: int) -> dict:
    """Compare the dual complex's top cohomology against the derived dual.

    When the complex carries a consistent grading the two sides are
    compared through honest twisted Hilbert functions up to total degree
    six; otherwise only the annihilator radicals are compared and the
    report says so.
    """
    ring = c.spec
    p, q = ring.p, ring.q
    degrees = [d for d in c.degrees if c.rank(d)]
    lo, hi = min(degrees), max(degrees)
    d_bottom = c.differential(lo)
    left = GradedModule(ring, c.rank(lo), d_bottom.transpose())
    right = ext_module(top, amplitude)
    radical_match = gb.radical_equal(annihilator_ideal(left), annihilator_ideal(right), p, q)

    twists = infer_twists(c)
    _, betti = minimal_graded_resolution(top)
    res_twists = (
        _resolution_twists(top, twists[hi]) if twists is not None else None
    )
    graded = (
        twists is not None
        and res_twists is not None
        and len(betti) - 1 == amplitude
    )
    if graded:
        left_shifts = [-w for w in twists[lo]]
        gens_l, cols_l = presentation_data(left)
        right_shifts = [-w for w in res_twists[amplitude]]
        gens_r, cols_r = presentation_data(right)
        # minimal input means no scalar entries anywhere, so pruning never
        # drops generators and the shift lists stay aligned
        graded = gens_l == len(left_shifts) and gens_r == len(right_shifts)
    if not graded:
        return {
            "graded": False,
            "hilbert_left": None,
            "hilbert_right": None,
            "hilbert_match": None,
            "radical_match": radical_match,
        }
    hl = gb.standard_monomial_counts(gb.buchberger(cols_l, p), left_shifts, q, HILBERT_DEGREE)
    hr = gb.standard_monomial_counts(gb.buchberger(cols_r, p), right_shifts, q, HILBERT_DEGREE)
    return {
        "graded": True,
        "hilbert_left": {str(k): v for k, v in hl.items()},
        "hilbert_right": {str(k): v for k, v in hr.items()},
        "hilbert_match": hl == hr,
        "radical_match": radical_match,
    }
