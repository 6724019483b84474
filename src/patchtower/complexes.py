"""Bounded complexes of free modules over one ring.

A complex is stored as a degree interval, per-degree free ranks, and one
matrix per differential (column-action: d(x) = M x, shape
rank[i+1] x rank[i]).  Operations: validation, canonical minimization by
unit-pivot cancellation, rank profiles of the minimal form, exact
cohomology over finite rings (through scalar expansion), base change
along ring maps, and dualization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import NotAComplex, ShapeMismatch, SpecMismatch, UnsupportedRing
from .linalg import (
    MAX_EXPANDED_CELLS,
    HowellCore,
    Matrix,
    QuotientStructure,
    SparseMatrix,
    Table,
    _echelon,
    _variable_expansions,
    check_cells,
    expand_scalars,
    smith_quotient,
    smith_transforms,
)
from .rings import RingSpec, RingTowerElement, _check_base_change, base_change


class FreeComplex:
    """A validated bounded cochain complex of free modules.  It is
    immutable, so its hash is computed on first use and kept."""

    __slots__ = ("spec", "lo", "ranks", "diffs", "_hash")

    def __init__(self, spec: RingSpec, lo: int, ranks, diffs, *, _checked: bool = False):
        ranks = tuple(int(r) for r in ranks)
        diffs = tuple(diffs)
        if any(r < 0 for r in ranks):
            raise ShapeMismatch("negative rank")
        if ranks and len(diffs) != len(ranks) - 1:
            raise ShapeMismatch("need exactly one differential per adjacent pair")
        if not ranks and diffs:
            raise ShapeMismatch("empty complex cannot carry differentials")
        for i, d in enumerate(diffs):
            if d.spec != spec:
                raise SpecMismatch("differential over the wrong ring")
            if d.rows != ranks[i + 1] or d.cols != ranks[i]:
                raise ShapeMismatch(
                    f"differential {i}: expected {ranks[i+1]}x{ranks[i]}, got {d.rows}x{d.cols}"
                )
        if not _checked:
            for i in range(len(diffs) - 1):
                if not (diffs[i + 1] @ diffs[i]).is_zero():
                    raise NotAComplex(f"d at degree {lo+i+1} composed with d at {lo+i} is nonzero")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "lo", lo if ranks else 0)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "diffs", diffs)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("FreeComplex is immutable")

    @property
    def hi(self) -> int:
        return self.lo + len(self.ranks) - 1

    @property
    def degrees(self) -> range:
        return range(self.lo, self.lo + len(self.ranks))

    def is_empty(self) -> bool:
        return not self.ranks

    def rank(self, degree: int) -> int:
        if degree in self.degrees:
            return self.ranks[degree - self.lo]
        return 0

    def differential(self, degree: int) -> Matrix:
        """The map leaving ``degree``; zero-shaped outside the stored range."""
        idx = degree - self.lo
        if 0 <= idx < len(self.diffs):
            return self.diffs[idx]
        return Matrix.zero(self.spec, self.rank(degree + 1), self.rank(degree))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeComplex)
            and self.spec == other.spec
            and self.lo == other.lo
            and self.ranks == other.ranks
            and self.diffs == other.diffs
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.spec, self.lo, self.ranks, self.diffs)))
        return self._hash

    def __repr__(self):
        return f"FreeComplex(degrees [{self.lo},{self.hi}], ranks {self.ranks})"


def make_complex(spec: RingSpec, lo: int, ranks, diffs) -> FreeComplex:
    """Validate and build; raises NotAComplex unless every d∘d vanishes."""
    return FreeComplex(spec, lo, ranks, diffs)


def empty_complex(spec: RingSpec) -> FreeComplex:
    return FreeComplex(spec, 0, (), ())


def direct_sum(*parts: FreeComplex) -> FreeComplex:
    """The direct sum of one or more complexes over one ring, their blocks
    in the order given: each differential is written block diagonal in
    one pass, with no intermediate sums."""
    spec = parts[0].spec
    if any(c.spec != spec for c in parts):
        raise SpecMismatch("direct sum across different rings")
    parts = [c for c in parts if not c.is_empty()] or parts[-1:]
    if len(parts) == 1:
        return parts[0]
    lo = min(c.lo for c in parts)
    hi = max(c.hi for c in parts)
    ranks = [sum(c.rank(d) for c in parts) for d in range(lo, hi + 1)]
    zero = RingTowerElement.zero(spec)
    diffs = []
    for d in range(lo, hi):
        ent = [[zero] * ranks[d - lo] for _ in range(ranks[d - lo + 1])]
        i = j = 0
        for c in parts:
            if c.lo <= d < c.hi:
                for k, row in enumerate(c.diffs[d - c.lo].entries, i):
                    ent[k][j : j + len(row)] = row
            i, j = i + c.rank(d + 1), j + c.rank(d)
        diffs.append(Matrix(spec, ent, ranks[d - lo]))
    return FreeComplex(spec, lo, ranks, diffs, _checked=True)


# ---------------------------------------------------------------------------
# minimization and rank profiles
# ---------------------------------------------------------------------------


def _cancellable(x: RingTowerElement) -> bool:
    # Over the graded model only scalar pivots admit exact elimination.
    if x.spec.kind == "graded":
        return x.is_constant() and not x.is_zero()
    return x.is_unit()


def _cancel_unit_pivots(ranks: list[int], diffs: list[list[list]]) -> None:
    """Gaussian elimination on a chain of row-lists, in place.

    ``diffs[i]`` has ``ranks[i+1]`` rows and ``ranks[i]`` columns.  A
    cancellable pivot at (a, b) of ``diffs[i]`` removes one rank from
    positions i and i+1, replaces ``diffs[i]`` by the Schur complement,
    deletes row b of ``diffs[i-1]`` and column a of ``diffs[i+1]``.  The
    scan (matrix order, then row-major) is fixed, so identical inputs
    give bit-identical outputs.
    """

    def find_pivot():
        for idx, mat in enumerate(diffs):
            for a, row in enumerate(mat):
                for b, x in enumerate(row):
                    if _cancellable(x):
                        return idx, a, b
        return None

    while (hit := find_pivot()) is not None:
        idx, a, b = hit
        mat = diffs[idx]
        uinv = mat[a][b].invert()
        new = []
        for k, row in enumerate(mat):
            if k == a:
                continue
            coef = row[b] * uinv
            new.append(
                [x - coef * mat[a][l] for l, x in enumerate(row) if l != b]
            )
        diffs[idx] = new
        ranks[idx] -= 1
        ranks[idx + 1] -= 1
        if idx > 0:
            diffs[idx - 1] = [row for k, row in enumerate(diffs[idx - 1]) if k != b]
        if idx + 1 < len(diffs):
            diffs[idx + 1] = [[x for l, x in enumerate(row) if l != a] for row in diffs[idx + 1]]


def minimize(c: FreeComplex) -> FreeComplex:
    """Canonical quasi-isomorphic complex with no unit differential entries,
    by cancelling unit pivots in degree order, then row-major."""
    ranks = list(c.ranks)
    diffs = [[list(row) for row in d.entries] for d in c.diffs]
    _cancel_unit_pivots(ranks, diffs)

    if c.spec.kind == "graded":
        for mat in diffs:
            for row in mat:
                for x in row:
                    if x.is_unit():
                        raise UnsupportedRing(
                            "minimization over the graded model hit a non-scalar unit entry"
                        )

    lo = c.lo
    while ranks and ranks[0] == 0:
        ranks.pop(0)
        lo += 1
        if diffs:
            diffs.pop(0)
    while ranks and ranks[-1] == 0:
        ranks.pop()
        if diffs:
            diffs.pop()
    if not ranks:
        return empty_complex(c.spec)
    out = [Matrix(c.spec, mat, ranks[i]) for i, mat in enumerate(diffs)]
    return FreeComplex(c.spec, lo, ranks, out)


@dataclass(frozen=True)
class TauProfile:
    """Per-degree ranks of the canonical minimal form, with derived bounds."""

    taus: dict[int, int] = field(default_factory=dict)

    @property
    def d_minus(self) -> int | None:
        return min(self.taus) if self.taus else None

    @property
    def d_plus(self) -> int | None:
        return max(self.taus) if self.taus else None

    @property
    def amplitude(self) -> int | None:
        if not self.taus:
            return None
        return self.d_plus - self.d_minus

    def is_zero(self) -> bool:
        return not self.taus

    def supported_in(self, lo: int, hi: int) -> bool:
        return all(lo <= d <= hi for d in self.taus)

    def __eq__(self, other):
        return isinstance(other, TauProfile) and self.taus == other.taus

    def __hash__(self):
        return hash(tuple(sorted(self.taus.items())))


def tau_profile(c: FreeComplex) -> TauProfile:
    """Ranks of minimize(c) in each degree (zero entries omitted)."""
    m = minimize(c)
    return TauProfile({d: m.rank(d) for d in m.degrees if m.rank(d)})


# ---------------------------------------------------------------------------
# base change and duality
# ---------------------------------------------------------------------------


def tensor_along(c: FreeComplex, target: RingSpec) -> FreeComplex:
    """Base-change every differential entry onto ``target``
    (``rings.base_change``); d∘d = 0 survives."""
    _check_base_change(c.spec, target)
    if c.is_empty():
        return empty_complex(target)
    diffs = tuple(d.map_entries(lambda x: base_change(x, target), target) for d in c.diffs)
    return FreeComplex(target, c.lo, c.ranks, diffs, _checked=True)


def dual(c: FreeComplex) -> FreeComplex:
    """Degrees negated, differentials transposed; an involution."""
    if c.is_empty():
        return c
    ranks = tuple(reversed(c.ranks))
    diffs = tuple(d.transpose() for d in reversed(c.diffs))
    return FreeComplex(c.spec, -c.hi, ranks, diffs, _checked=True)


def koszul_complex(
    spec: RingSpec, elements, lo: int = 0
) -> FreeComplex:
    """Cochain complex of exterior powers built from a list of elements.

    Rank in degree lo+i is C(c, i); the differential sends the basis
    subset S to the signed sum over f_j wedge S.  Useful both over the
    graded model and over finite tower rings.
    """
    elems = list(elements)
    cdeg = len(elems)
    zero = RingTowerElement.zero(spec)
    bases = [list(combinations(range(cdeg), i)) for i in range(cdeg + 1)]
    diffs = []
    for i in range(cdeg):
        src, tgt = bases[i], bases[i + 1]
        index = {s: k for k, s in enumerate(tgt)}
        ent = [[zero] * len(src) for _ in range(len(tgt))]
        for col, s in enumerate(src):
            for j in range(cdeg):
                if j in s:
                    continue
                t = tuple(sorted(s + (j,)))
                sign = (-1) ** sum(1 for x in s if x < j)
                val = elems[j] if sign > 0 else -elems[j]
                ent[index[t]][col] = ent[index[t]][col] + val
        diffs.append(Matrix(spec, ent))
    return FreeComplex(spec, lo, [len(b) for b in bases], diffs)


# ---------------------------------------------------------------------------
# cohomology over finite rings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteModuleData:
    """(Z/p^m)^gens modulo the column span of ``relations``.

    ``actions`` holds commuting matrices acting on the generators.  One
    Smith quotient of the relation span answers every question: a vector
    lies in the span exactly when its quotient coordinates vanish, and
    the quotient's exponents are the divisors.  Without relations the
    span is 0, and ``contains`` needs no quotient.
    """

    p: int
    m: int
    gens: int
    relations: np.ndarray  # gens x s, columns are relations
    actions: tuple[np.ndarray, ...] = ()

    @property
    def modulus(self) -> int:
        return self.p**self.m

    @cached_property
    def quotient(self) -> QuotientStructure:
        return smith_quotient(self.relations, self.gens, self.p, self.m)

    def contains(self, cols) -> bool:
        """Whether the vector ``cols``, or every column of it, lies in the
        relation span.  With no relations the span is 0, so that holds
        exactly when every entry vanishes mod p^m; it is read off the
        entries, with no Smith quotient."""
        if not self.relations.shape[1]:
            x = np.asarray(cols)
            return not (x.any() and (x % self.modulus).any())
        return not self.quotient.coords(cols).any()

    def matrices_equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return self.contains(np.asarray(a) - np.asarray(b))

    def divisors(self) -> tuple[int, ...]:
        return self.quotient.divisors()

    def cardinality(self) -> int:
        return math.prod(self.divisors())

    def at_precision(self, m2: int) -> "FiniteModuleData":
        N2 = self.p**m2
        return FiniteModuleData(
            self.p,
            m2,
            self.gens,
            self.relations % N2,
            tuple(a % N2 for a in self.actions),
        )

    def quotient_by_columns(self, extra_cols) -> "FiniteModuleData":
        rel = np.hstack([self.relations] + [np.asarray(c, dtype=np.int64) for c in extra_cols])
        return FiniteModuleData(self.p, self.m, self.gens, rel % self.modulus, self.actions)


_COHOMOLOGY_CACHE: dict[FreeComplex, dict[int, FiniteModuleData]] = {}


def cohomology(c: FreeComplex, degree: int) -> FiniteModuleData:
    """Exact cohomology at one degree over a finite tower ring.

    Works through scalar expansion: one diagonalization per expanded
    differential serves the kernel on one side and canonical quotient
    coordinates on the other, so generators, relations and variable
    actions all come out of small solves; the divisor profile is read
    from the module's Smith quotient when first asked for.  All degrees
    of a complex are computed together and cached.  The module sits on
    a minimal generating set with one action per ring variable; outside
    the support it is zero, with 0 x 0 actions.  A free degree, with no
    differential in or out, is its own cohomology and is built directly,
    with no elimination; one whose actions would pass 4 x
    ``MAX_EXPANDED_CELLS`` cells is refused with ``ExpansionTooLarge``.
    A top degree, with a differential in and none out, has its whole
    ambient module as kernel, on unit columns of which only those that
    its quotient coordinates read and the chosen generators are built,
    and is refused the same way when its dense work would pass that
    bound.
    """
    spec = c.spec
    if spec.kind == "graded":
        raise UnsupportedRing("use the graded-module cohomology for polynomial rings")
    table = _COHOMOLOGY_CACHE.get(c)
    if table is None:
        table = _all_cohomology(c)
        if len(_COHOMOLOGY_CACHE) > 64:
            _COHOMOLOGY_CACHE.clear()
        _COHOMOLOGY_CACHE[c] = table
    if degree in table:
        return table[degree]
    return _zero_module(spec)


def _zero_module(spec: RingSpec) -> FiniteModuleData:
    """The zero module, with one 0 x 0 action per ring variable."""
    zero = np.zeros((0, 0), dtype=np.int64)
    return FiniteModuleData(spec.p, spec.m, 0, zero, (zero,) * spec.q)


def _nakayama_choice(ek2: list[dict[int, int]], count: int, p: int, m: int) -> list[int]:
    """Indices of the columns of ``ek2`` that form its first basis.

    ``ek2`` gives a matrix of ``count`` columns as one ``{column:
    residue}`` dict per row.  Every column of ``ek2`` is killed by p: it
    holds coordinates of span(kernel) modulo p * span(kernel), or p *
    kernel is already zero.  So each entry is p^(m-1) times a residue mod
    p, and the Z/p^m-span of the columns is the F_p-span of
    ``ek2 // p^(m-1)``.  Keeping each column that lies outside the span of
    the columns before it gives the lexicographically first basis: the
    pivot columns of a row echelon form over F_p.
    """
    top = p ** (m - 1)
    if any(x % top for row in ek2 for x in row.values()):
        raise AssertionError("Nakayama coordinates are not killed by p")
    rows = [{j: x // top for j, x in row.items()} for row in ek2]
    return [j for _, j, _ in _echelon(rows, count, p, 1)]


def _transpose(rows, height: int) -> list[dict[int, int]]:
    """The ``height`` columns of the matrix whose (index, row dict) pairs
    ``rows`` lists, as row dicts."""
    out: list[dict[int, int]] = [{} for _ in range(height)]
    for i, row in rows:
        for k, x in row.items():
            out[k][i] = x
    return out


def _all_cohomology(c: FreeComplex) -> dict[int, FiniteModuleData]:
    """Cohomology of every degree of ``c``.

    Past the Smith forms everything stays on ``{index: residue}`` dicts
    in Python integers: the kernel columns come from V, the embedded
    kernel is kept by its nonempty rows, and the Nakayama choice, the
    Howell form of the chosen generators and the solves of the variable
    actions take row dicts; only the Nakayama quotient's Smith form takes
    a ``SparseMatrix``.  Only the relations and the actions of each
    returned module are made dense.
    """
    spec = c.spec
    p, m = spec.p, spec.m
    N = p**m
    rho = spec.coefficient_rank

    smiths: dict[int, object] = {}
    for idx, d in enumerate(c.diffs):
        deg = c.lo + idx
        if d.rows and d.cols:
            smiths[deg] = smith_transforms(expand_scalars(d), d.rows * rho, p, m, track_v=True)
    tables = _variable_expansions(spec)

    out: dict[int, FiniteModuleData] = {}
    for degree in c.degrees:
        rk = c.rank(degree)
        amb = rk * rho
        if amb == 0:
            out[degree] = _zero_module(spec)
            continue

        sm_out = smiths.get(degree)
        sm_in = smiths.get(degree - 1)
        if sm_out is None and sm_in is None:
            out[degree] = _free_module(spec, rk, tables)
            continue
        if sm_in is None:
            width, embed = amb, (lambda rows: rows)
        else:
            qs = sm_in.quotient()
            width, embed = qs.summands, qs.embed_rows
        if sm_out is None:
            # the kernel is the whole ambient module, on amb unit columns,
            # and the identity is its own transpose: only the rows that the
            # kept U rows of qs read, and the chosen generators, are built.
            # The count is larger than the relations and the q g x g
            # actions, g <= width, that are dense
            check_cells(
                2 * width * (amb + width), 4 * MAX_EXPANDED_CELLS,
                "the cohomology of a top degree of rank {rk} ({amb} coordinates, {summands} summands,"
                " {cells} cells) exceeds {limit} cells",
                rk=rk, amb=amb, summands=width,
            )
            count = amb
            krows = {i: {i: 1} for row in qs.rows for i in row}
        else:
            kernel = sm_out.kernel_columns()
            count = len(kernel)
            krows = {}
            for k, col in enumerate(kernel):
                for i, x in col.items():
                    krows.setdefault(i, {})[k] = x
        ek = embed(krows)

        # residue coordinates modulo p * span(kernel) as well, so that
        # every column of ek2 is killed by p (Nakayama).  The quotient is
        # taken only over the rows where ek has an entry: span(ek) lives
        # there, and dropping rows that are zero in every column moves no
        # F_p column rank profile, which is all the choice reads.
        sub = [ek[i] for i in sorted(ek)]
        base = [{k: y for k, x in row.items() if (y := p * x % N)} for row in sub]
        if any(base):
            qs2 = smith_quotient(SparseMatrix.of_rows(base, count), len(sub), p, m)
            ek2 = qs2.embed_rows(dict(enumerate(sub)))
            ek2 = [ek2.get(i, {}) for i in range(qs2.summands)]
        else:
            ek2 = sub
        chosen = _nakayama_choice(ek2, count, p, m)
        gens = [{k: 1} if sm_out is None else kernel[k] for k in chosen]
        at = {k: g for g, k in enumerate(chosen)}
        picked = ((i, {at[k]: x for k, x in row.items() if k in at}) for i, row in ek.items())
        solver = HowellCore(_transpose(picked, len(chosen)), width, p, m)
        relations = solver.kernel_rows().T
        actions = _variable_actions(tables, gens, embed, solver)

        out[degree] = FiniteModuleData(p, m, len(chosen), relations, actions)
    return out


def _free_module(spec: RingSpec, rk: int, tables: tuple[Table, ...]) -> FiniteModuleData:
    """A degree with no differential in or out: its cohomology is the
    free module itself, on the standard basis with no relations, and
    variable j acts on its rk blocks of rho monomial coordinates as
    I_rk (x) ``tables[j]``: the table's cells, read once, are scattered
    dense into every block at once.  The q amb^2 action cells, plus
    rk^2, are counted before anything is allocated."""
    rho = spec.coefficient_rank
    amb = rk * rho
    check_cells(
        len(tables) * amb * amb + rk * rk, 4 * MAX_EXPANDED_CELLS,
        "the actions on a free degree of rank {rk} ({q} x {amb}^2 cells) exceed {limit} cells",
        rk=rk, q=len(tables), amb=amb,
    )
    at = np.arange(rk, dtype=np.int64)[:, None] * rho
    actions = []
    for table in tables:
        cells = [(r, j, u) for j, col in enumerate(table) for r, u in col]
        rows, cols, vals = np.array(cells, dtype=np.int64).reshape(-1, 3).T
        out = np.zeros((amb, amb), dtype=np.int64)
        out[(at + rows).ravel(), (at + cols).ravel()] = np.tile(vals, rk)
        actions.append(out)
    return FiniteModuleData(spec.p, spec.m, amb, np.zeros((amb, 0), dtype=np.int64), tuple(actions))


def _variable_actions(tables: tuple[Table, ...], gens: list[dict[int, int]], embed, solver) -> tuple[np.ndarray, ...]:
    """Matrix of each variable on the cohomology generators ``gens``.

    ``gens`` holds each generator as a ``{coordinate: residue}`` dict,
    and their ambient free module is blocks of rho monomial coordinates,
    on each of which ``tables[j]`` multiplies by variable j.  So a
    generator's entry at (block b, coordinate i) moves to column i of
    ``tables[j]`` in block b: each (row, residue) pair of that column
    adds one product.  ``embed`` takes the moved rows to quotient
    coordinates, and one solve against ``solver`` (the embedded
    generators, one per row) writes all g images in the generators.
    """
    N = solver.N
    entries = [(c, k, x) for k, col in enumerate(gens) for c, x in col.items()]
    actions = []
    for table in tables:
        rho = len(table)
        moved: dict[int, dict[int, int]] = {}
        for c, k, x in entries:
            b, i = divmod(c, rho)
            for r, u in table[i]:
                row = moved.setdefault(b * rho + r, {})
                row[k] = row.get(k, 0) + u * x
        moved = {c: kept for c, row in moved.items() if (kept := {k: y for k, x in row.items() if (y := x % N)})}
        x = solver.solve(_transpose(embed(moved).items(), len(gens)))
        if x is None:
            raise AssertionError("variable action left the cohomology span")
        actions.append(x.T)
    return tuple(actions)
