"""Tower validation, limit assembly, and freeness certification.

A patching tower bundles, per level n: a complex over the level-n
truncated tower ring, structure-map images into a truncated
power-series model, action matrices on cohomology, and a witness
identifying the top cohomology modulo the variable ideal with a fixed
base module.  The engine checks the tower hypotheses, selects a chain
of levels whose minimized differentials reduce onto one another,
assembles the limit differentials at a requested precision, and runs
the freeness checks on the limit (rank concentration, the
height-amplitude verdict of the mod-p fiber, projective dimension and
depth bookkeeping, base comparison, and the quotient-ring cardinality
match).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import permutations, product
from math import comb

import numpy as np

from .complexes import (
    FiniteModuleData,
    FreeComplex,
    cohomology,
    minimize,
    tau_profile,
    tensor_along,
)
from .errors import (
    ActionMismatch,
    AugmentationNotKilled,
    BaseMismatch,
    ConcentrationFailed,
    HeightAmplitudeViolated,
    InsufficientTower,
    InvalidParameter,
    NoCompatibleChain,
    ShapeMismatch,
    SpecMismatch,
    SurjectionNotIso,
    TauNotConstant,
    TauOutOfRange,
)
from .graded import verify_height_amplitude
from .linalg import MAX_EXPANDED_CELLS, Matrix, _residues, check_cells, matmul_mod
from .rings import base_change, coefficient_ring, graded_ring, make_patch_ring

Exps = tuple[int, ...]
RinfElem = dict[Exps, int]


# ---------------------------------------------------------------------------
# the truncated power-series model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RInfinityModel:
    """(Z/p^m)[x_1..x_g] truncated past total degree ``degree``.

    A finite local ring with maximal ideal (p, x_1..x_g); elements are
    exponent->residue maps in canonical form.
    """

    p: int
    m: int
    g: int
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidParameter("truncation degree must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p**self.m

    def basis(self) -> list[Exps]:
        out = [()]
        for _ in range(self.g):
            out = [e + (k,) for e in out for k in range(self.degree + 1 - sum(e))]
        return sorted(out)

    def normalize(self, coeffs) -> RinfElem:
        N = self.modulus
        out: RinfElem = {}
        for e, c in coeffs.items():
            e = tuple(int(x) for x in e)
            if len(e) != self.g:
                raise SpecMismatch(f"exponent vector {e} has wrong length for g={self.g}")
            if sum(e) > self.degree:
                continue
            c = int(c) % N
            if c:
                out[e] = c
        return out

    def zero(self) -> RinfElem:
        return {}

    def one(self) -> RinfElem:
        return {(0,) * self.g: 1}

    def variable(self, j: int) -> RinfElem:
        if not 0 <= j < self.g:
            raise InvalidParameter(f"variable index {j} out of range for g={self.g}")
        return {tuple(1 if i == j else 0 for i in range(self.g)): 1}

    def add(self, a: RinfElem, b: RinfElem) -> RinfElem:
        out = dict(a)
        N = self.modulus
        for e, c in b.items():
            acc = (out.get(e, 0) + c) % N
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        return out

    def mul(self, a: RinfElem, b: RinfElem) -> RinfElem:
        out: dict[Exps, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if sum(e) > self.degree:
                    continue
                out[e] = out.get(e, 0) + c1 * c2
        return self.normalize(out)

    def power(self, a: RinfElem, k: int) -> RinfElem:
        out = self.one()
        base = dict(a)
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def reduce_precision(self, a: RinfElem, m2: int) -> RinfElem:
        N2 = self.p**m2
        return {e: c % N2 for e, c in a.items() if c % N2}

    @cached_property
    def _index(self) -> dict[Exps, int]:
        return {e: k for k, e in enumerate(self.basis())}

    def vector(self, a: RinfElem) -> np.ndarray:
        """Coordinates of ``a`` on the monomial basis."""
        v = np.zeros(len(self._index), dtype=np.int64)
        for e, c in self.normalize(a).items():
            v[self._index[e]] = c
        return v

    def check_quotient(self, generators: int) -> None:
        """Refuse a quotient by ``generators`` ideal generators whose dense
        relation array, at least one square of the basis, would pass
        ``MAX_EXPANDED_CELLS`` cells; the basis is counted, not built."""
        size = comb(self.degree + self.g, self.g)
        check_cells(
            size * max(generators, 1) * size, MAX_EXPANDED_CELLS,
            "the degree-{degree} model has {size} monomials, and its quotient by {generators} generators"
            " {cells} cells, past {limit}",
            degree=self.degree, size=size, generators=generators,
        )

    def quotient(self, ideal: list[RinfElem]) -> FiniteModuleData:
        """The model modulo an ideal, as a Z/p^m-module on the monomial basis.

        The ideal's Z/p^m-span is spanned by the monomial multiples of
        its generators, which become the relation columns.  Their dense
        array is counted by ``check_quotient`` before the basis is built.
        """
        self.check_quotient(len(ideal))
        basis = self.basis()
        cols = []
        for gen in ideal:
            gen = self.normalize(gen)
            for mono in basis:
                prod = self.mul(gen, {mono: 1})
                if prod:
                    cols.append(self.vector(prod))
        rel = np.array(cols, dtype=np.int64).T if cols else np.zeros((len(basis), 0), dtype=np.int64)
        return FiniteModuleData(self.p, self.m, len(basis), rel)

    def evaluate_at_matrices(self, a: RinfElem, mats: list[np.ndarray], size: int, modulus: int) -> np.ndarray:
        """Value of the polynomial on commuting matrices, mod ``modulus``.
        Each term starts from c times the first power it meets, not from
        c times the identity, which only a constant term is."""
        out = np.zeros((size, size), dtype=np.int64)
        for e, c in a.items():
            c %= modulus
            term = None
            for j, k in enumerate(e):
                # square-and-multiply: about 2 log2(k) exact products
                base = mats[j]
                while k:
                    if k & 1 and term is None:
                        # both factors are below modulus, whose square `_modulus` keeps inside int64
                        term = _residues(base, modulus) * c % modulus
                    elif k & 1:
                        term = matmul_mod(term, base, modulus)
                    k >>= 1
                    if k:
                        base = matmul_mod(base, base, modulus)
            out = (out + (c * np.eye(size, dtype=np.int64) if term is None else term)) % modulus
        return out


# ---------------------------------------------------------------------------
# tower data
# ---------------------------------------------------------------------------


@dataclass
class TowerLevel:
    level: int
    precision: int
    complex: FreeComplex
    i_images: list[RinfElem]
    phi_images: list[RinfElem]
    x_actions: dict[int, list[np.ndarray]]
    base_iso: np.ndarray


@dataclass
class TowerBase:
    ideal: list[RinfElem]
    module: FiniteModuleData


@dataclass
class PatchingTower:
    p: int
    q: int
    r: int
    d: int
    rinf_degree: int
    base_precision: int
    base: TowerBase
    levels: list[TowerLevel]

    @property
    def g(self) -> int:
        return self.q - self.r

    def model(self, m: int | None = None) -> RInfinityModel:
        return RInfinityModel(self.p, m or self.base_precision, self.g, self.rinf_degree)

    @property
    def degree_window(self) -> tuple[int, int]:
        return (self.d - self.r, self.d)


@dataclass
class ValidationReport:
    ok: bool
    taus: dict[int, dict[int, int]]
    failures: list[dict] = field(default_factory=list)

    def first_error(self):
        if not self.failures:
            return None
        f = self.failures[0]
        return f["error"](f["detail"])


def validate_hypotheses(tower: PatchingTower) -> ValidationReport:
    """Check the three tower hypotheses level by level.

    Order is fixed so each constructed violation reports its designated
    error: degree window, then constancy of the rank profile, then
    action compatibility, then the augmentation kill, then the base
    witness.  A witness matrix of the wrong shape, or a nonzero
    cohomology degree without exactly g square action matrices of its
    size, is malformed input and raises ``ShapeMismatch`` instead of
    being reported.
    """
    failures: list[dict] = []
    lo, hi = tower.degree_window

    def fail(level: int, hypothesis: str, cls: type, detail: str):
        failures.append(
            {
                "level": level,
                "hypothesis": hypothesis,
                "error": cls,
                "error_name": cls.__name__,
                "detail": detail,
            }
        )

    taus = {}
    for lev in tower.levels:
        prof = tau_profile(lev.complex)
        taus[lev.level] = dict(prof.taus)
        if not prof.supported_in(lo, hi):
            fail(
                lev.level,
                "i",
                TauOutOfRange,
                f"level {lev.level} has rank profile {prof.taus} outside [{lo},{hi}]",
            )
    if not failures:
        ref = None
        for lev in tower.levels:
            if ref is None:
                ref = taus[lev.level]
            elif taus[lev.level] != ref:
                fail(
                    lev.level,
                    "i",
                    TauNotConstant,
                    f"level {lev.level} profile {taus[lev.level]} differs from {ref}",
                )
                break

    if failures:
        return ValidationReport(False, taus, failures)

    model = tower.model()
    quotient = model.quotient(tower.base.ideal)
    for lev in tower.levels:
        mods = {dd: cohomology(lev.complex, dd) for dd in lev.complex.degrees}
        for hypothesis, cls, check in (
            ("ii", ActionMismatch, lambda: _check_actions(tower, lev, mods, model)),
            ("ii", AugmentationNotKilled, lambda: _check_augmentation(tower, lev, model, quotient)),
            ("iii", BaseMismatch, lambda: _check_base_witness(tower, lev, mods)),
        ):
            err = check()
            if err:
                fail(lev.level, hypothesis, cls, err)
                break

    return ValidationReport(not failures, taus, failures)


def _check_actions(tower: PatchingTower, lev: TowerLevel, mods, model: RInfinityModel) -> str | None:
    """First action fault of a level: relations, commutation, structure map."""
    for dd, pres in mods.items():
        size = pres.gens
        if size == 0:
            continue
        xs = [np.asarray(x, dtype=np.int64) for x in lev.x_actions.get(dd) or []]
        if len(xs) != tower.g or any(x.shape != (size, size) for x in xs):
            # malformed input, not a violation, as for the witness
            raise ShapeMismatch(
                f"level {lev.level} degree {dd}: action matrices of shapes "
                f"{[x.shape for x in xs]}, expected {tower.g} of shape {(size, size)}"
            )
        N = pres.modulus
        if not all(pres.contains(matmul_mod(x, pres.relations, N)) for x in xs):
            return f"level {lev.level} degree {dd}: action does not preserve relations"
        pairs_ok = all(
            pres.matrices_equal(matmul_mod(xa, xb, N), matmul_mod(xb, xa, N))
            for i, xa in enumerate(xs)
            for xb in xs[i + 1 :]
        ) and all(
            pres.matrices_equal(matmul_mod(xa, tb, N), matmul_mod(tb, xa, N))
            for xa in xs
            for tb in pres.actions
        )
        if not pairs_ok:
            return f"level {lev.level} degree {dd}: action matrices do not commute"
        for j in range(tower.q):
            claimed = model.evaluate_at_matrices(lev.i_images[j], xs, size, tower.p**lev.precision)
            if not pres.matrices_equal(claimed, pres.actions[j]):
                return (
                    f"level {lev.level} degree {dd}: variable {j+1} acts differently "
                    "from its structure-map image"
                )
    return None


def _check_augmentation(
    tower: PatchingTower, lev: TowerLevel, model: RInfinityModel, quotient: FiniteModuleData
) -> str | None:
    """First structure-map image that survives in the base quotient."""
    for j in range(tower.q):
        if not quotient.contains(model.vector(_apply_phi(model, lev.phi_images, lev.i_images[j]))):
            return f"level {lev.level}: variable {j+1} image survives in the base quotient"
    return None


def _apply_phi(model: RInfinityModel, phi_images: list[RinfElem], elem: RinfElem) -> RinfElem:
    """Substitute the x-variables by their images under the base quotient map."""
    out = model.zero()
    for e, c in elem.items():
        term = {(0,) * model.g: c}
        for j, k in enumerate(e):
            if k:
                term = model.mul(term, model.power(phi_images[j], k))
        out = model.add(out, term)
    return out


def _check_base_witness(tower: PatchingTower, lev: TowerLevel, mods) -> str | None:
    d = tower.d
    pres = mods.get(d)
    if pres is None:
        return f"level {lev.level} has no top-degree term"
    size = pres.gens
    if size:
        xs = [np.asarray(x, dtype=np.int64) for x in (lev.x_actions.get(d) or [])]
    else:
        # the action matrices of a zero module are 0 x 0, given or not
        xs = [np.zeros((0, 0), dtype=np.int64)] * tower.g
    n_mod = tower.p**lev.precision

    # top cohomology modulo the variable ideal
    quot = pres.quotient_by_columns(pres.actions)
    target = tower.base.module.at_precision(lev.precision)

    w = np.asarray(lev.base_iso, dtype=np.int64) % n_mod
    if w.shape != (target.gens, size):
        # malformed input, not a violation: the loader checks the row
        # count, but the column count is the top cohomology's size
        raise ShapeMismatch(
            f"level {lev.level}: witness matrix has shape {w.shape}, expected {(target.gens, size)}"
        )
    # well-defined: witness kills the source relations
    if not target.contains(matmul_mod(w, quot.relations, n_mod)):
        return f"level {lev.level}: witness does not kill a source relation"
    # surjective and bijective at this precision
    if target.quotient_by_columns([w]).cardinality() != 1:
        return f"level {lev.level}: witness is not surjective onto the base module"
    if quot.cardinality() != target.cardinality():
        return (
            f"level {lev.level}: source has cardinality {quot.cardinality()}, "
            f"base has {target.cardinality()}"
        )
    # equivariance for the power-series variables
    for j in range(tower.g):
        if not target.matrices_equal(
            matmul_mod(w, xs[j], n_mod), matmul_mod(target.actions[j], w, n_mod)
        ):
            return f"level {lev.level}: witness is not equivariant for x_{j+1}"
    return None


def ensure_valid(tower: PatchingTower) -> ValidationReport:
    report = validate_hypotheses(tower)
    if not report.ok:
        raise report.first_error()
    return report


# ---------------------------------------------------------------------------
# chain selection and the limit
# ---------------------------------------------------------------------------


@dataclass
class PatchLimit:
    precision: int
    complex: FreeComplex
    i_images: list[RinfElem]
    phi_images: list[RinfElem]
    chain: list[int]
    used_basis_change: bool


# signed-permutation attempts per rebasing step before the basis-change
# search gives up on a chain
BASIS_CHANGE_BUDGET = 20000


def _reduced_complex(minimized: FreeComplex, p: int, q: int, k: int) -> FreeComplex:
    return tensor_along(minimized, make_patch_ring(p, k, k, q))


def _maps_stabilized(tower: PatchingTower, ja: TowerLevel, jb: TowerLevel, k: int) -> bool:
    model = tower.model()
    for a, b in zip(ja.i_images, jb.i_images):
        if model.reduce_precision(a, k) != model.reduce_precision(b, k):
            return False
    for a, b in zip(ja.phi_images, jb.phi_images):
        if model.reduce_precision(a, k) != model.reduce_precision(b, k):
            return False
    return True


def _rebase_onto(base_k: FreeComplex, cand: FreeComplex) -> FreeComplex | None:
    """Search per-degree signed permutations of ``cand`` whose base
    change onto ``base_k``'s ring equals ``base_k``; return the rebased
    complex.  Base change keeps ranks and degrees, so those must agree.

    A choice (perm, signs) at a degree is the change of basis whose row
    i is signs[i] times unit vector perm[i].  With (perm, s) at the
    target of a differential d and (prev, t) at its source, the rebased
    entry (i, l) is s[i]·t[l]·d[perm[i]][prev[l]]; base change is a ring
    homomorphism, so every choice is tested by lookups in one table of
    (bc(x), -bc(x)), with no ring products.  Choices are tried degree by
    degree in ``permutations`` order, then signs in ``product((1, -1))``
    order, and at most ``BASIS_CHANGE_BUDGET`` of them per call.
    """
    if cand.ranks != base_k.ranks or cand.lo != base_k.lo:
        return None
    target = base_k.spec
    table = [
        [[(y, -y) for y in (base_change(x, target) for x in row)] for row in d.entries]
        for d in cand.diffs
    ]
    chosen: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    attempts = 0

    def rec(idx: int) -> bool:
        nonlocal attempts
        if idx == len(cand.ranks):
            return True
        size = cand.ranks[idx]
        for perm in permutations(range(size)):
            for signs in product((1, -1), repeat=size):
                attempts += 1
                if attempts > BASIS_CHANGE_BUDGET:
                    return False
                if idx:
                    (prev, t), tab, want = chosen[-1], table[idx - 1], base_k.diffs[idx - 1].entries
                    if not all(
                        tab[j][k][s != tl] == want[i][l]
                        for i, (j, s) in enumerate(zip(perm, signs))
                        for l, (k, tl) in enumerate(zip(prev, t))
                    ):
                        continue
                chosen.append((perm, signs))
                if rec(idx + 1):
                    return True
                chosen.pop()
        return False

    if not rec(0):
        return None
    diffs = [
        Matrix(
            cand.spec,
            [[d[j, k] if s == tl else -d[j, k] for k, tl in zip(prev, t)] for j, s in zip(perm, signs)],
            d.cols,
        )
        for d, (prev, t), (perm, signs) in zip(cand.diffs, chosen, chosen[1:])
    ]
    return FreeComplex(cand.spec, cand.lo, cand.ranks, diffs, _checked=True)


def chain_covers(levels, precision: int) -> bool:
    """Whether strictly increasing levels cover the steps 1 to
    ``precision``, step k taking a level whose level and precision are
    both at least k.  ``levels`` gives the (level, precision) pairs in
    tower order.  Step k takes the first eligible pair after that of step
    k - 1: eligibility only narrows as k grows, so no other choice leaves
    the later steps more pairs."""
    k = 1
    for level, prec in levels:
        if k <= precision and min(level, prec) >= k:
            k += 1
    return k > precision


def patch(tower: PatchingTower, precision: int) -> PatchLimit:
    """Select a compatible chain of levels and assemble the limit.

    Minimizes every level, reduces along the tower maps, and looks for
    strictly increasing levels whose reductions agree exactly at each
    precision step; a bounded search over per-degree signed basis
    changes is the fallback.  Raises InsufficientTower when the level
    supply cannot cover the requested precision and NoCompatibleChain
    when the searches are exhausted.
    """
    ensure_valid(tower)
    if precision < 1:
        raise InvalidParameter("precision must be >= 1")
    if len(tower.levels) < 2:
        raise InsufficientTower("need at least two levels")
    p, q = tower.p, tower.q
    levels = tower.levels
    # step k is covered by the levels with level and precision >= k
    if precision > max(min(lev.level, lev.precision) for lev in levels):
        raise InsufficientTower(
            f"no level covers every precision step up to {precision}"
        )
    if not chain_covers(((lev.level, lev.precision) for lev in levels), precision):
        raise InsufficientTower(f"no chain of strictly increasing levels covers the precision steps up to {precision}")
    eligible = [
        [
            idx
            for idx, lev in enumerate(levels)
            if lev.level >= k and lev.precision >= k
        ]
        for k in range(1, precision + 1)
    ]

    minimized = [minimize(lev.complex) for lev in levels]

    @cache
    def reduced(idx: int, k: int) -> FreeComplex:
        return _reduced_complex(minimized[idx], p, q, k)

    def first_chain(step, chain: tuple[int, ...] = (), top: FreeComplex | None = None):
        """The first chain, in lexicographic order, of strictly increasing
        indices with chain[k] in eligible[k] and every step accepted,
        with its top complex.  A chain starts at its first level reduced
        to precision 1; ``step(top, prev, idx, k)`` gives the top after
        ``idx`` follows ``prev`` at position k, at precision k + 1, or
        None, which prunes every chain through that prefix."""
        k = len(chain)
        if k == precision:
            return chain, top
        for idx in eligible[k]:
            if chain and idx <= chain[-1]:
                continue
            nxt = step(top, chain[-1], idx, k) if chain else reduced(idx, 1)
            found = None if nxt is None else first_chain(step, chain + (idx,), nxt)
            if found is not None:
                return found
        return None

    def exact(top: FreeComplex, prev: int, idx: int, k: int) -> FreeComplex | None:
        if top == reduced(idx, k) and _maps_stabilized(tower, levels[prev], levels[idx], k):
            return reduced(idx, k + 1)
        return None

    def rebased(top: FreeComplex, prev: int, idx: int, k: int) -> FreeComplex | None:
        # each level is rebased onto the rebased level before it
        if _maps_stabilized(tower, levels[prev], levels[idx], k):
            return _rebase_onto(top, reduced(idx, k + 1))
        return None

    # any exact chain wins over a rebased one
    found = first_chain(exact)
    used_basis_change = found is None
    if used_basis_change:
        found = first_chain(rebased)
    if found is None:
        raise NoCompatibleChain(
            "no chain of levels reduces compatibly within the basis-change budget"
        )
    chosen, limit_complex = found
    top_level = levels[chosen[-1]]
    return PatchLimit(
        precision=precision,
        complex=limit_complex,
        i_images=[dict(x) for x in top_level.i_images],
        phi_images=[dict(x) for x in top_level.phi_images],
        chain=[levels[i].level for i in chosen],
        used_basis_change=used_basis_change,
    )


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@dataclass
class FreenessCertificate:
    precision: int
    rank: int
    checks: dict[str, bool]
    tau: dict[int, int]
    chain: list[int]
    limit: PatchLimit
    reductions: dict[int, FreeComplex]
    ha_obj: dict

    @property
    def valid(self) -> bool:
        return all(self.checks.values())


def _fiber_complex(limit: FreeComplex, q: int) -> FreeComplex:
    """The mod-p polynomial model of the limit differentials."""
    target = graded_ring(limit.spec.p, q)
    diffs = [d.map_entries(lambda x: base_change(x, target), target) for d in limit.diffs]
    return FreeComplex(target, limit.lo, limit.ranks, diffs)


def certify(tower: PatchingTower, limit: PatchLimit) -> FreenessCertificate:
    """Run the freeness checks on a patched limit.

    Raises the designated violation as soon as a check fails; on
    success returns the certificate with every check recorded.
    """
    p, q, r, d = tower.p, tower.q, tower.r, tower.d
    precision = limit.precision
    if precision > tower.base_precision:
        raise InvalidParameter(
            "certification precision exceeds the recorded base precision"
        )
    lo, hi = tower.degree_window
    checks: dict[str, bool] = {}

    prof = tau_profile(limit.complex)
    checks["tau_concentrated"] = prof.supported_in(lo, hi) and not prof.is_zero()
    if not checks["tau_concentrated"]:
        raise ConcentrationFailed(
            f"limit rank profile {prof.taus} is not concentrated in [{lo},{hi}]"
        )

    fiber = _fiber_complex(limit.complex, q)
    report = verify_height_amplitude(fiber)
    heights = set(report.height_profile)
    if heights != {r}:
        raise HeightAmplitudeViolated(
            f"fiber support heights {sorted(heights)} differ from the budget {{{r}}}"
        )
    checks["fiber_vanishing_below_top"] = (
        report.part_iii["applicable"]
        and report.part_iii["lower_vanishing"]
        and report.part_iii["top_perfect"]
    )
    if not checks["fiber_vanishing_below_top"]:
        raise HeightAmplitudeViolated("fiber cohomology survives below the top degree")

    inv = report.top_invariants
    checks["projdim_eq_r"] = inv["projdim"] == r
    checks["depth_eq_budget"] = inv["depth"] == q - r
    if not checks["projdim_eq_r"] or not checks["depth_eq_budget"]:
        raise HeightAmplitudeViolated(
            f"fiber top module has projdim {inv['projdim']} and depth {inv['depth']}, "
            f"expected {r} and {q - r}"
        )

    # rank over the limit ring model, read off the base module
    base = tower.base.module.at_precision(precision)
    g = tower.g
    scale_cols = [p * np.eye(base.gens, dtype=np.int64)]
    for j in range(g):
        scale_cols.append(np.asarray(base.actions[j], dtype=np.int64))
    residue = base.quotient_by_columns(scale_cols)
    divisors = residue.divisors()
    if any(dv != p for dv in divisors):
        raise BaseMismatch("base module modulo (p, x) is not an F_p-space")
    rank = len(divisors)

    # base comparison: top cohomology of the limit with all variables killed
    coeff_cx = tensor_along(limit.complex, coefficient_ring(p, precision))
    top_pres = cohomology(coeff_cx, d)
    model = tower.model(precision)
    quotient = model.quotient(tower.base.ideal)
    base_div = base.divisors()
    got_div = top_pres.divisors()
    checks["base_iso"] = got_div == base_div and top_pres.cardinality() == quotient.cardinality() ** rank
    if not checks["base_iso"]:
        raise BaseMismatch(
            f"limit base fiber has divisors {got_div}, base module has {base_div}"
        )

    ideal_quot = model.quotient(limit.i_images)
    contained = all(quotient.contains(model.vector(img)) for img in limit.i_images)
    kills = not base.gens or all(
        base.contains(
            model.evaluate_at_matrices(img, [np.asarray(a) for a in base.actions], base.gens, base.modulus)
        )
        for img in limit.i_images
    )
    checks["surjection_iso"] = (
        contained and kills and ideal_quot.cardinality() == quotient.cardinality()
    )
    if not checks["surjection_iso"]:
        raise SurjectionNotIso(
            f"model modulo structure-map images has cardinality {ideal_quot.cardinality()}, "
            f"base ring has {quotient.cardinality()}"
        )

    reductions = {
        k: _reduced_complex(limit.complex, p, q, k) for k in range(1, precision + 1)
    }
    return FreenessCertificate(
        precision=precision,
        rank=rank,
        checks=checks,
        tau=dict(prof.taus),
        chain=list(limit.chain),
        limit=limit,
        reductions=reductions,
        ha_obj=report.to_obj(),
    )
