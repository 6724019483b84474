"""Deterministic exact linear algebra over Z/p^m and finite tower rings.

Two layers:

* an exact ``Matrix`` of ring elements (any spec) with ring-level
  products, transposes and entrywise maps;
* a core over the chain ring Z/p^m: Smith forms with their
  transforms, whose quotient coordinates answer every span, divisor
  and cardinality question about a finite module, and Howell forms,
  which give cohomology its relation kernel and batched solve.
  Patch-ring matrices enter this layer through ``expand_scalars`` (the
  regular representation on the monomial basis), which is sparse from
  the ring entries on: the matrix of T^a is the nonzero columns of a
  companion-matrix power per variable, joined across the variables by
  Kronecker index arithmetic, and no dense rho x rho or expanded array
  is built unless a caller asks for it.

One sparse type, ``SparseMatrix`` (a matrix over Z/N by its nonzero
entries), carries a sparse matrix into this layer: the scalar
expansions and other inputs of the Smith kernel, and the variable
matrices that cohomology gathers columns from or writes block diagonal.
The Smith kernel is a sparse-row elimination in Python integers: the
scalar expansions it diagonalizes are almost empty (a padded 486 x 486
differential has 487 nonzeros), so it fills its row dicts straight
from the nonzeros of its input, keeps each row as a dict of its
nonzero residues, visits only the rows that meet the pivot column, and
finds pivots with one forward-only cursor per valuation layer.  Howell
forms run the same way, on ``{column: residue}`` row dicts in Python
integers with a column index of the rows, and take their input rows
and their right-hand sides as such dicts.  A Smith quotient keeps the
kept rows of U as the kernel leaves them, as such dicts: the quotient
coordinates of a dense vector or matrix are sums over them in Python
integers, and those of a matrix kept by its nonempty row dicts are
``QuotientStructure.embed_rows``.  Only what a caller reads itself
(the quotient projection, the Howell and kernel rows, a solve's
result) is made dense.  Every dense matrix
product over Z/p^m goes through ``matmul_mod``, which picks one of two
exact paths by the largest partial sum the product can reach: float32
BLAS below 2^24, Python integers past it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ExpansionTooLarge, InvalidParameter, ShapeMismatch, SpecMismatch
from .rings import RingSpec, RingTowerElement, _rewrite_rule

# int64 cells (128 MiB) past which a scalar expansion is refused; q=2,
# r=2 at level 3 needs 2187 x 1458, q=3 at level 3 would need 39366^2.
# The counts of a complex's free degrees (rank 60 over the q=2 level-2
# ring needs 2 x 4860^2 action cells) and top degrees may reach 4 times it.
MAX_EXPANDED_CELLS = 2**24


def check_cells(cells: int | float, limit: int, detail: str, **fields) -> None:
    """The one size refusal: ``ExpansionTooLarge`` past ``limit`` cells,
    with ``detail`` formatted by ``cells``, ``limit`` and ``fields``."""
    if cells > limit:
        raise ExpansionTooLarge(detail.format(cells=cells, limit=limit, **fields))


class Matrix:
    """Dense matrix of ring elements sharing one spec.

    Column-action convention throughout the package: a matrix of shape
    (rows, cols) maps column vectors of length ``cols`` to column
    vectors of length ``rows``.  A matrix without rows keeps its width:
    ``cols`` is read only when ``entries`` has no rows.
    """

    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec: RingSpec, entries, cols: int = 0):
        rows = tuple(tuple(row) for row in entries)
        for row in rows:
            for x in row:
                if x.spec != spec:
                    raise SpecMismatch("matrix entries must share the spec")
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            raise ShapeMismatch("ragged matrix rows")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", widths.pop() if widths else cols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, spec: RingSpec, rows: int, cols: int) -> "Matrix":
        z = RingTowerElement.zero(spec)
        return cls(spec, [[z] * cols for _ in range(rows)], cols)

    # -- structure -----------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.spec == other.spec
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.spec, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.spec.kind})"

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def transpose(self) -> "Matrix":
        out = [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return Matrix(self.spec, out, self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.spec != other.spec:
            raise SpecMismatch("matrix product across different rings")
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = RingTowerElement.zero(self.spec)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Matrix(self.spec, out, other.cols)

    def map_entries(self, fn, spec: RingSpec | None = None) -> "Matrix":
        return Matrix(spec or self.spec, [[fn(x) for x in row] for row in self.entries], self.cols)


# ---------------------------------------------------------------------------
# numpy core over Z/p^m
# ---------------------------------------------------------------------------


def _as_array(rows, cols_hint=0) -> np.ndarray:
    """int64 array; an empty input that is not already 2-d becomes
    0 x cols_hint, while an empty k x 0 or 0 x k matrix keeps its shape."""
    a = np.asarray(rows, dtype=np.int64)
    if a.size == 0 and a.ndim != 2:
        a = a.reshape(0, cols_hint)
    return a


def _modulus(p: int, m: int) -> int:
    """p^m, refused when int64 products of two residues could overflow.
    Past m = 63 no modulus fits, and p^m is never computed: for a huge m
    that would not finish."""
    if m > 63 or (p**m - 1) ** 2 >= 2**63:
        raise InvalidParameter(f"modulus {p}^{m} is too large for int64 elimination")
    return p**m


# float32 holds every integer below 2^24, so a product whose partial
# sums stay below it is exact in float32 BLAS
_FLOAT32_EXACT = 2**24


def _residues(x, N: int) -> np.ndarray:
    """x as int64 entries in [0, N); most inputs already are, and a
    range check costs far less than int64 ``%``."""
    x = np.asarray(x, dtype=np.int64)
    if x.size and (x.min() < 0 or x.max() >= N):
        return x % N
    return x


def matmul_mod(a, b, N: int) -> np.ndarray:
    """``a @ b`` mod N as int64, exact for every int64 input.

    Both factors are reduced into [0, N) first, so every partial sum of
    the product is an integer at most width * (N - 1)^2, where width is
    the inner dimension.  The product runs in float32 BLAS while that
    bound stays below 2^24, and in Python integers past it.
    """
    a = _residues(a, N)
    b = _residues(b, N)
    if a.shape[-1] * (N - 1) ** 2 < _FLOAT32_EXACT:
        return (a.astype(np.float32) @ b.astype(np.float32)).astype(np.int64) % N
    return ((a.astype(object) @ b.astype(object)) % N).astype(np.int64)


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """A matrix over Z/N by its nonzero entries.

    Entry (rows[k], cols[k]) is vals[k], a residue in (0, N), and each
    cell is listed once, in no set order.  ``size`` counts the dense
    cells, which are written only by ``block_diagonal``, for a caller
    that reads them.
    """

    shape: tuple[int, int]
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)

    @classmethod
    def of_entries(cls, shape, N: int, rows, cols, vals) -> "SparseMatrix":
        """The entries, each a residue mod N, summed per cell mod N,
        with the cells that cancel dropped, in row-major order (the
        order in which a dense scan meets them)."""
        width = max(shape[1], 1)
        keys = rows * width + cols
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        if keys.size:
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            keys, vals = keys[starts], np.add.reduceat(vals, starts) % N
        keep = vals != 0
        rows, cols = np.divmod(keys[keep], width)
        return cls(tuple(shape), rows, cols, vals[keep])

    @classmethod
    def of_rows(cls, vectors: list[dict[int, int]], width: int) -> "SparseMatrix":
        """The len(vectors) x width matrix whose row i is the dict
        ``vectors[i]`` of {column: residue}, as the Smith kernel keeps it."""
        rows = [i for i, row in enumerate(vectors) for _ in row]
        cols = [c for row in vectors for c in row]
        vals = [x for row in vectors for x in row.values()]
        return cls((len(vectors), width), *(np.array(x, dtype=np.int64) for x in (rows, cols, vals)))

    @classmethod
    def of_dense(cls, a: np.ndarray, N: int) -> "SparseMatrix":
        """The nonzero residues mod N of a 2-d int64 array, row-major."""
        flat = _residues(a, N).ravel()
        at = np.flatnonzero(flat != 0)  # several times faster than np.nonzero(a)
        rows, cols = np.divmod(at, max(a.shape[1], 1))
        return cls(a.shape, rows, cols, flat[at])

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    def block_diagonal(self, blocks: int) -> np.ndarray:
        """The dense I_blocks (x) self, written in one scatter."""
        (r, c), at = self.shape, np.arange(blocks, dtype=np.int64)[:, None]
        out = np.zeros((blocks * r, blocks * c), dtype=np.int64)
        out[(at * r + self.rows).ravel(), (at * c + self.cols).ravel()] = np.tile(self.vals, blocks)
        return out


def _valuation(x: int, p: int) -> int:
    """The p-adic valuation of a nonzero residue."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _echelon(rows: list[dict[int, int]], active: int, p: int, m: int) -> list[tuple[int, int, int]]:
    """In-place echelon of the row dicts over the columns below ``active``;
    returns the pivot list (row, col, val).

    Each row is a ``{column: residue}`` dict of its nonzero entries, and
    the list is reordered as the pivot rows are swapped into place.  The
    active columns with an entry at the start are visited in order: every
    update subtracts a multiple of the pivot row, so a column that is zero
    in every row stays zero.  At column j the pivot is the row of least
    valuation there, the first in row order among ties, among the rows
    from the current one down; it is swapped into place, scaled so that
    its entry is p^v, and subtracted from each row below with an entry in
    column j.  A column index of row ids, kept up to date as rows gain
    entries, finds those rows without a scan.
    """
    N = p**m
    n = len(rows)
    store = rows[:]  # by row id
    row_at = list(range(n))
    pos = list(range(n))
    in_col: dict[int, set[int]] = {}
    for i, row in enumerate(store):
        for c in row:
            if c < active:
                in_col.setdefault(c, set()).add(i)
    pivots = []
    r = 0
    for j in sorted(in_col):
        if r >= n:
            break
        live = [i for i in in_col[j] if pos[i] >= r and j in store[i]]
        if not live:
            continue
        vmin, _, i = min((_valuation(store[i][j], p), pos[i], i) for i in live)
        other = row_at[r]
        row_at[r], row_at[pos[i]] = i, other
        pos[other], pos[i] = pos[i], r
        prow = store[i]
        pv = p**vmin
        unit = prow[j] // pv
        if unit != 1:
            uinv = pow(unit, -1, N)
            for c in prow:
                prow[c] = prow[c] * uinv % N
        items = list(prow.items())
        for k in live:
            if k != i:
                _axpy(store[k], store[k][j] // pv, items, N)
                for c, _ in items:
                    if c < active:
                        in_col[c].add(k)
        pivots.append((r, j, vmin))
        r += 1
    rows[:] = [store[i] for i in row_at]
    return pivots


def _reduce_row(vec: dict[int, int], rows: list[dict[int, int]], at: dict[int, tuple[int, int]], p: int, N: int) -> None:
    """Reduce the row dict ``vec`` in place by the echelon ``rows``, whose
    pivots ``at`` maps from column to (row, val): pivot by pivot in column
    order, subtract the multiple of the pivot row that clears vec's entry
    when p^val divides it.  A pivot row is zero left of its pivot column,
    so the next pivot to act is the first pivot column where vec has an
    entry past the last one visited."""
    done = -1
    while True:
        j = min((c for c in vec if c > done and c in at), default=None)
        if j is None:
            return
        done = j
        r, v = at[j]
        pv = p**v
        if vec[j] % pv == 0:
            _axpy(vec, vec[j] // pv, list(rows[r].items()), N)


def _dense_rows(rows: list[dict[int, int]], width: int) -> np.ndarray:
    """The columns below ``width`` of the row dicts, as a dense int64 array."""
    out = np.zeros((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, x in row.items():
            if c < width:
                out[i, c] = x
    return out


class HowellCore:
    """Howell canonical form of a matrix over Z/p^m.

    Carries a companion block so that row operations are witnessed:
    ``transform @ original == howell`` mod p^m.  Pivoting happens on the
    first ``active`` columns only; rows whose active part vanishes
    collect span elements of the active-block kernel (complete by the
    Howell span property).

    ``rows`` gives the matrix, ``active`` columns wide, as one
    ``{column: residue}`` dict of nonzero residues per row.  The work is
    a copy of them in Python integers, the carry block in columns
    ``active`` onward, so the caller's list and dicts stay as they were.
    Only the views a caller reads (the Howell rows, the kernel rows and a
    solve's result) are made dense.  Every step is the same arithmetic on
    the same residues as the dense loop it replaced
    (``tests/util.py::DenseHowell``), so pivots and rows agree bit for bit.
    """

    def __init__(self, rows: list[dict[int, int]], active: int, p: int, m: int, carry: bool = True):
        self.p, self.m = p, m
        self.N = _modulus(p, m)
        self.orig_rows, self.active = len(rows), active
        self.width = active + (self.orig_rows if carry else 0)
        rows = [dict(row) for row in rows]
        if carry:
            for i, row in enumerate(rows):
                row[active + i] = 1
        self.pivots = self._howellize(rows)
        self.rows = rows

    def _howellize(self, rows: list[dict[int, int]]) -> list[tuple[int, int, int]]:
        p, m, N, active = self.p, self.m, self.N, self.active
        while True:
            pivots = _echelon(rows, active, p, m)
            at = {j: (r, v) for r, j, v in pivots}
            grew = False
            tails = []
            for r, j, v in pivots:
                if v == 0:
                    continue
                s = p ** (m - v)
                cand = {c: y for c, x in rows[r].items() if (y := x * s % N)}
                _reduce_row(cand, rows, at, p, N)
                if any(c < active for c in cand):
                    rows.append(cand)
                    grew = True
                elif cand:
                    # pure-carry remainder: a kernel witness, kept as a tail row
                    tails.append(cand)
            if not grew:
                break
        npiv = len(pivots)
        rows[npiv:] = [row for row in rows[npiv:] if row] + tails
        # reduce entries above each pivot into [0, p^v)
        in_col: dict[int, set[int]] = {}
        for k, row in enumerate(rows[:npiv]):
            for c in row:
                if c < active:
                    in_col.setdefault(c, set()).add(k)
        for r, j, v in pivots:
            pv = p**v
            items = list(rows[r].items())
            for k in [k for k in in_col[j] if k < r]:
                t = rows[k].get(j, 0) // pv
                if t:
                    _axpy(rows[k], t, items, N)
                    for c, _ in items:
                        if c < active:
                            in_col[c].add(k)
        return pivots

    # -- views ----------------------------------------------------------

    def howell_rows(self) -> np.ndarray:
        return _dense_rows(self.rows[: len(self.pivots)], self.active)

    def kernel_rows(self) -> np.ndarray:
        """Generators of {x : x A = 0} as rows (Howell-canonical)."""
        tail = self.rows[len(self.pivots) :]
        if not tail or self.width == self.active:
            return np.zeros((0, self.orig_rows), dtype=np.int64)
        a = self.active
        tail = [{c - a: x for c, x in row.items()} for row in tail]
        return HowellCore(tail, self.orig_rows, self.p, self.m, carry=False).howell_rows()

    def solve(self, b: list[dict[int, int]]) -> np.ndarray | None:
        """Some x with x A = b, one row per right-hand side, or None when
        any has none.

        Each right-hand side is a ``{column: residue}`` dict over the
        active columns.  ``_reduce_row`` clears it by the full pivot rows,
        carry block included: an active entry it leaves (where p^v does
        not divide a pivot entry) means no solution, and what it leaves in
        the carry block is minus x.
        """
        a, N = self.active, self.N
        at = {j: (r, v) for r, j, v in self.pivots}
        x = np.zeros((len(b), self.width - a), dtype=np.int64)
        for k, row in enumerate(b):
            vec = dict(row)
            _reduce_row(vec, self.rows, at, self.p, N)
            for c, y in vec.items():
                if c < a:
                    return None
                x[k, c - a] = N - y
        return x


def elementary_divisors(rel: np.ndarray, ambient: int, p: int, m: int) -> tuple[int, ...]:
    """Divisor profile of (Z/p^m)^ambient modulo the column span of ``rel``.

    Returned as a sorted tuple of prime powers p^e, 1 <= e <= m, one per
    nontrivial cyclic summand.
    """
    return smith_quotient(rel, ambient, p, m).divisors()


@dataclass(frozen=True)
class QuotientStructure:
    """Canonical coordinates on (Z/p^m)^ambient modulo a column span.

    Coordinate i of x, one per cyclic summand, is ``rows[i] . x`` taken
    modulo p**exponents[i].  ``rows`` holds the kept rows of the Smith
    row transform as the kernel leaves them, one ``{index: residue}``
    dict of nonzero entries per summand, and every coordinate is a sum
    over one of them.  ``projection``, the dense summands x ambient
    matrix, is built only for a caller that reads it.
    """

    p: int
    m: int
    ambient: int
    exponents: tuple[int, ...]
    rows: list[dict[int, int]] = field(repr=False)

    @property
    def summands(self) -> int:
        return len(self.exponents)

    @cached_property
    def projection(self) -> np.ndarray:
        return _dense_rows(self.rows, self.ambient)

    def coords(self, x) -> np.ndarray:
        """Quotient coordinates of x, or of each column of a 2-d x; they
        all vanish exactly when x lies in the column span.  Each is a sum
        in Python integers, reduced mod p^e once, so it is exact for any
        int64 x."""
        x = np.asarray(x, dtype=np.int64)
        vecs = x.T.tolist() if x.ndim == 2 else [x.tolist()]
        moduli = [self.p**e for e in self.exponents]
        out = [[sum(u * v[c] for c, u in row.items()) % q for v in vecs] for row, q in zip(self.rows, moduli)]
        out = np.array(out, dtype=np.int64).reshape(self.summands, len(vecs))
        return out if x.ndim == 2 else out[:, 0]

    def embed_rows(self, x: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
        """The quotient coordinates of each column of the matrix whose row
        c is the dict ``x[c]`` of its nonzero residues (absent when zero),
        scaled into (Z/p^m)^summands, where the summand of order p^e sits
        as p^(m - e) Z/p^m: row i of the result is p^(m - e_i) times the
        sum of rows[i][c] x[c], reduced mod p^m.  Only its nonempty rows
        are returned, as dicts."""
        p, m = self.p, self.m
        N = p**m
        out: dict[int, dict[int, int]] = {}
        for i, (urow, e) in enumerate(zip(self.rows, self.exponents)):
            row: dict[int, int] = {}
            for c, u in urow.items():
                xc = x.get(c)
                if xc:
                    _axpy(row, N - u, xc.items(), N)
            if e != m:
                s = p ** (m - e)
                row = {k: z for k, y in row.items() if (z := y * s % N)}
            if row:
                out[i] = row
        return out

    def divisors(self) -> tuple[int, ...]:
        return tuple(sorted(self.p**e for e in self.exponents))


@dataclass(frozen=True)
class SmithData:
    """U A V = D with D diagonal of prime powers; pivot_vals lists the exponents.

    The transforms are kept as the kernel left them: ``u_rows[i]`` is row
    i of U and ``v_cols[j]`` column j of V (None when V was not tracked),
    each a ``{index: residue}`` dict of its nonzero entries.  ``quotient``
    hands on the kept rows of U as they are, and ``kernel_columns``
    reads only the columns of V that it returns.
    """

    p: int
    m: int
    rows: int
    cols: int
    pivot_vals: tuple[int, ...]
    u_rows: list[dict[int, int]] = field(repr=False)
    v_cols: list[dict[int, int]] | None = field(repr=False)

    def _kept(self, n: int) -> tuple[list[int], tuple[int, ...]]:
        """The pivots of positive exponent and every index past the pivots
        up to n, with their exponents (m past the pivots)."""
        k = len(self.pivot_vals)
        kept = [i for i, v in enumerate(self.pivot_vals) if v > 0] + list(range(k, n))
        return kept, tuple(self.pivot_vals[i] if i < k else self.m for i in kept)

    def quotient(self) -> QuotientStructure:
        """Canonical coordinates of (Z/p^m)^rows modulo the column span:
        the kept rows of U, each with the exponent of its summand."""
        kept, exponents = self._kept(self.rows)
        return QuotientStructure(self.p, self.m, self.rows, exponents, [self.u_rows[i] for i in kept])

    def kernel_columns(self) -> list[dict[int, int]]:
        """Columns generating {v : A v = 0}, from the diagonal form: the
        kept columns of V, each times p^(m - e) for its exponent e, as
        ``{index: residue}`` dicts of their nonzero entries."""
        if self.v_cols is None:
            raise ValueError("column transform was not tracked")
        p, m = self.p, self.m
        N = p**m
        kept, exponents = self._kept(self.cols)
        return [
            {c: y for c, x in self.v_cols[i].items() if (y := x * p ** (m - e) % N)}
            for i, e in zip(kept, exponents)
        ]


def _axpy(y: dict[int, int], t: int, x, N: int) -> None:
    """y -= t x mod N on sparse vectors; ``x`` gives (index, residue) pairs."""
    for c, xc in x:
        yc = (y.get(c, 0) - t * xc) % N
        if yc:
            y[c] = yc
        else:
            y.pop(c, None)


def smith_transforms(rel_cols: np.ndarray, ambient: int, p: int, m: int, track_v: bool = False) -> SmithData:
    """Diagonalize over Z/p^m, tracking the row (and optionally column) transform.

    Pivots are taken by increasing valuation layer v, so every division is
    exact: the pivot of step k is the row-major first entry of the
    trailing block ``a[k:, k:]``, in the current (swapped) row and column
    order, that p^(v+1) does not divide.  Then the pivot row is scaled to
    p^v, the rows below are cleared with it, and the column clear, which
    leaves only a[k, k] in row k, is recorded in V alone.

    The elimination is sparse.  Each row is a ``{column id: residue}``
    dict keyed by its original row id, and position <-> id maps emulate
    the row and column swaps.  A column index lists, for each column, the
    rows that have or once had a nonzero there, so a row clear visits only
    those rows.  U is kept by row id and V by column id, both sparse.  A
    pivot row is emptied once it is used, so the dicts hold only the
    trailing block.

    The live rows of layer v are those with an entry that p^(v+1) does
    not divide.  A row that is not live stays so for the rest of the
    layer: its entry in the pivot column is divisible by p^(v+1), so its
    multiplier t = a[r, k] / p^v is divisible by p, and p^v divides the
    pivot row, so a row clear subtracts multiples of p^(v+1) from it.
    (A live row may stop being live; that only skips it.)  The positions
    passed over, and the row swapped out of position k into the pivot's
    place, are thus never live again, so the pivot row is found by one
    cursor per layer that only moves forward, instead of a scan of every
    row at every step.  A pivot row with one entry, the shape of almost
    every row of a padded expansion, needs no column scan: the cursor
    has already found that p^(v+1) does not divide that entry, so it is
    the pivot, and its row clears touch no other column.

    ``rel_cols`` is a ``SparseMatrix`` or a dense array, which is first
    made one; its nonzeros fill the row dicts and the column index
    directly, and each row is cleared by its own arithmetic, so the
    order of the entries moves no residue.

    Every step is the same arithmetic on the same residues as the dense
    loop it replaced (``tests/test_linalg.py::reference_smith``); only the
    zeros are skipped, so pivots, U and V agree bit for bit.
    """
    N = _modulus(p, m)
    if not isinstance(rel_cols, SparseMatrix):
        a = _as_array(rel_cols)
        rel_cols = SparseMatrix.of_dense(a if a.ndim == 2 and a.shape[1] else np.zeros((ambient, 0), dtype=np.int64), N)
    nrows, ncols = rel_cols.shape
    rows: list[dict[int, int]] = [{} for _ in range(nrows)]
    in_col: list[set[int]] = [set() for _ in range(ncols)]
    for i, j, x in zip(rel_cols.rows.tolist(), rel_cols.cols.tolist(), rel_cols.vals.tolist()):
        rows[i][j] = x
        in_col[j].add(i)
    U = [{i: 1} for i in range(ambient)]
    V = [{j: 1} for j in range(ncols)] if track_v else None
    row_at = list(range(nrows))
    col_at = list(range(ncols))
    col_pos = list(range(ncols))
    pivot_vals: list[int] = []
    k = 0
    for v in range(m):
        pv = p**v
        pmod = p ** (v + 1)
        cursor = k
        while True:
            while cursor < nrows and not any(x % pmod for x in rows[row_at[cursor]].values()):
                cursor += 1
            if cursor == nrows:
                break
            i = row_at[cursor]
            prow = rows[i]
            single = len(prow) == 1
            j = next(iter(prow)) if single else col_at[min(col_pos[c] for c, x in prow.items() if x % pmod)]
            row_at[k], row_at[cursor] = i, row_at[k]
            other = col_at[k]
            col_at[k], col_at[col_pos[j]] = j, other
            col_pos[other], col_pos[j] = col_pos[j], k
            unit = prow[j] // pv
            if unit != 1:
                uinv = pow(unit, -1, N)
                for c in prow:
                    prow[c] = prow[c] * uinv % N
                U[i] = {c: x * uinv % N for c, x in U[i].items()}
            rest = [] if single else [(c, x) for c, x in prow.items() if c != j]
            rows[i] = {}
            for r in in_col[j]:
                row = rows[r]
                if j not in row:
                    continue  # the entry has cancelled since r was indexed
                t = row.pop(j) // pv
                _axpy(row, t, rest, N)
                _axpy(U[r], t, U[i].items(), N)
                for c, _ in rest:
                    in_col[c].add(r)
            if V is not None:
                for c, x in rest:
                    _axpy(V[c], x // pv, V[j].items(), N)
            pivot_vals.append(v)
            k += 1
            cursor += 1
    u_rows = [U[i] for i in row_at] + U[nrows:]
    v_cols = None if V is None else [V[j] for j in col_at]
    return SmithData(p, m, ambient, ncols, tuple(pivot_vals), u_rows, v_cols)


def smith_quotient(rel_cols: np.ndarray, ambient: int, p: int, m: int) -> QuotientStructure:
    """Canonical coordinates for (Z/p^m)^ambient / colspan(rel)."""
    return smith_transforms(rel_cols, ambient, p, m).quotient()


# ---------------------------------------------------------------------------
# public operations on exact matrices over Z/p^m
# ---------------------------------------------------------------------------


_DENSE = "a dense {rows}x{cols} expansion exceeds {limit} cells"
_NONE = np.zeros(0, dtype=np.int64)


def _power(p: int, m: int, n: int, a: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, columns, residues) of the nonzero entries of C^a over Z/p^m,
    each cell once, where C multiplies 1, T, ..., T^(B-1), B = p^n, by T.
    Column j is T^(j+a): e_(j+a) while j + a < B, and past that
    C^(j+a-B+1) e_(B-1), each step of C being a shift plus the top entry
    times the rewrite column of T^B: O(a B), keeping only the nonzeros.
    Entries stay below N(N-1), which ``_modulus`` keeps inside int64."""
    B, N = p**n, _modulus(p, m)
    rows, cols = [np.arange(a, B)], [np.arange(B - a)]
    vals = [np.ones(B - a, dtype=np.int64)]
    if a:
        rewrite = np.zeros(B, dtype=np.int64)
        for k, c in _rewrite_rule(p, m, n):
            rewrite[k] = c
        col = np.zeros(B, dtype=np.int64)
        col[-1] = 1  # T^(B-1)
        for j in range(B - a, B):
            col = np.concatenate(([0], col[:-1])) + col[-1] * rewrite
            col %= N
            at = np.flatnonzero(col)
            rows.append(at)
            cols.append(np.full(at.size, j))
            vals.append(col[at])
    return tuple(np.concatenate(x) for x in (rows, cols, vals))


def _monomial_expansion(spec: RingSpec, exps: tuple[int, ...]) -> SparseMatrix:
    """Multiplication by T^exps on the monomial basis: the Kronecker
    product over the variables of C^(a_i), the first variable outermost,
    joined by index arithmetic: each pair of nonzeros gives the cell
    (r B + r', c B + c') and the residue of the product of the entries,
    so no cell repeats, and only the products that vanish are dropped.
    Its rho x rho cells are counted against ``MAX_EXPANDED_CELLS``."""
    rho, N = spec.coefficient_rank, _modulus(spec.p, spec.m)
    check_cells(rho * rho, MAX_EXPANDED_CELLS, _DENSE, rows=rho, cols=rho)
    B = spec.exponent_bound
    rows = cols = np.zeros(1, dtype=np.int64)
    vals = np.ones(1, dtype=np.int64)
    for a in exps:
        r, c, v = _power(spec.p, spec.m, spec.n, a)
        rows = (rows[:, None] * B + r).ravel()
        cols = (cols[:, None] * B + c).ravel()
        vals = (vals[:, None] * v % N).ravel()
    keep = vals != 0
    return SparseMatrix((rho, rho), rows[keep], cols[keep], vals[keep])


@lru_cache(maxsize=64)
def _variable_expansions(spec: RingSpec) -> tuple[SparseMatrix, ...]:
    """Multiplication by each variable of ``spec``, kept for the last 64
    rings: every cohomology computation over a ring reads them."""
    return tuple(_monomial_expansion(spec, tuple(int(i == j) for i in range(spec.q))) for j in range(spec.q))


def expand_scalars(a: Matrix) -> SparseMatrix:
    """Regular representation of a patch-ring matrix over Z/p^m.

    Returns the (rows*rho) x (cols*rho) matrix of the same map on the
    underlying free Z/p^m-modules, rho = p^(n q), sparse: block (i, j)
    is the sum of c times the matrix of T^e over the terms c T^e of
    entry (i, j), each term reduced mod p^m before the sum.  Its dense
    cells are counted against ``MAX_EXPANDED_CELLS`` before anything is
    built.  Functorial: expand(AB) = expand(A) @ expand(B) mod p^m.
    """
    spec = a.spec
    if spec.kind == "graded":
        raise SpecMismatch("graded matrices have no finite expansion")
    rho, N = spec.coefficient_rank, spec.modulus
    shape = (a.rows * rho, a.cols * rho)
    check_cells(shape[0] * shape[1], MAX_EXPANDED_CELLS, _DENSE, rows=shape[0], cols=shape[1])
    monomials: dict[tuple[int, ...], SparseMatrix] = {}
    rows, cols, vals = [_NONE], [_NONE], [_NONE]
    for i, row in enumerate(a.entries):
        for j, x in enumerate(row):
            for exps, c in x.coeffs.items():
                if exps not in monomials:
                    monomials[exps] = _monomial_expansion(spec, exps)
                mono = monomials[exps]
                rows.append(mono.rows + i * rho)
                cols.append(mono.cols + j * rho)
                vals.append(mono.vals * c % N)
    return SparseMatrix.of_entries(shape, N, *map(np.concatenate, (rows, cols, vals)))
