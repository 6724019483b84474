"""Deterministic exact linear algebra over Z/p^m and finite tower rings.

Two layers:

* an exact ``Matrix`` of ring elements (any spec) with ring-level
  products, transposes and entrywise maps;
* a core over the chain ring Z/p^m: Smith forms with their
  transforms, whose quotient coordinates answer every span, divisor
  and cardinality question about a finite module, and Howell forms,
  which give cohomology its relation kernel and batched solve.
  Patch-ring matrices enter this layer through ``expand_scalars`` (the
  regular representation on the monomial basis), in Python integers
  from the ring entries on: the matrix of T^a is a table of its columns,
  each the (row, residue) pairs of its nonzeros, built from the
  companion-matrix powers of each variable, joined across the
  variables, and kept in a bounded memo; no dense rho x rho or expanded
  array is built unless a caller asks for it.

One sparse type, ``SparseMatrix`` (a matrix over Z/N as its shape and
the ``{column: residue}`` dicts of its nonempty rows), carries a sparse
matrix into the Smith kernel: the scalar expansions, the Nakayama base
and dense relations, which are made one first.  Cohomology reads the
variables' actions from the monomial tables themselves.  The Smith
kernel is a sparse-row elimination in Python integers: the scalar
expansions it diagonalizes are almost empty (a padded 486 x 486
differential has 487 nonzeros), so it copies its input's row dicts,
keeps each row as a dict of its nonzero residues, visits only the rows
that meet the pivot column, and finds pivots with one forward-only
cursor per valuation layer.  Howell forms run the same way, on
``{column: residue}`` row dicts in Python integers with a column index
of the rows, and take their input rows and their right-hand sides as
such dicts.  A Smith quotient keeps the kept rows of U as the kernel
leaves them, as such dicts: the quotient coordinates of a dense vector
or matrix are sums over them in Python integers, and those of a matrix
kept by its nonempty row dicts are ``QuotientStructure.embed_rows``.
Only what a caller reads itself (the quotient projection, the Howell and
kernel rows, a solve's result) is made dense.  Every dense matrix
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
    ``cols`` is read only when ``entries`` has no rows.  It is immutable,
    so its hash is computed on first use and kept.
    """

    __slots__ = ("spec", "rows", "cols", "entries", "_hash")

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
        object.__setattr__(self, "_hash", None)

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
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.spec, self.rows, self.cols, self.entries)))
        return self._hash

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

    ``rows[i]`` is the ``{column: residue}`` dict of row i's nonzero
    residues, each in (0, N), and a row with no entry is absent: the
    input form of the Smith kernel, which copies the dicts before it
    works on them.  ``size`` counts the dense cells.
    """

    shape: tuple[int, int]
    rows: dict[int, dict[int, int]] = field(repr=False)

    @classmethod
    def of_rows(cls, vectors: list[dict[int, int]], width: int) -> "SparseMatrix":
        """The len(vectors) x width matrix whose row i is the dict
        ``vectors[i]`` of {column: residue}, wrapped, not copied."""
        return cls((len(vectors), width), {i: row for i, row in enumerate(vectors) if row})

    @classmethod
    def of_dense(cls, a: np.ndarray, N: int) -> "SparseMatrix":
        """The nonzero residues mod N of a 2-d int64 array; one with no
        cells is read no further."""
        rows: dict[int, dict[int, int]] = {}
        if a.size:
            flat = _residues(a, N).ravel()
            at = np.flatnonzero(flat)  # several times faster than np.nonzero(a)
            width = a.shape[1]
            for k, x in zip(at.tolist(), flat[at].tolist()):
                i, j = divmod(k, width)
                row = rows.get(i)
                if row is None:
                    rows[i] = {j: x}
                else:
                    row[j] = x
        return cls(a.shape, rows)

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]


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
    """U A V = D with D diagonal of prime powers; pivot_vals lists the
    exponents, in non-decreasing order.

    The transforms are kept as the kernel left them, by original index
    and only where it touched them: ``u_by_id[i]`` is the row of U that
    started as row i, ``v_by_id[j]`` the column of V that started as
    column j (``v_by_id`` is None when V was not tracked), each a
    ``{index: residue}`` dict of its nonzero entries, and an index absent
    from the map still holds its unit vector.  Position k of the diagonal
    holds original row ``row_at[k]`` (k itself past the input's rows) and
    original column ``col_at.get(k, k)``.  ``u_row`` and ``v_col`` read
    one row or column at a position, so ``quotient`` and
    ``kernel_columns`` build dicts only for those they return.
    """

    p: int
    m: int
    rows: int
    cols: int
    pivot_vals: tuple[int, ...]
    u_by_id: dict[int, dict[int, int]] = field(repr=False)
    v_by_id: dict[int, dict[int, int]] | None = field(repr=False)
    row_at: list[int] = field(repr=False)
    col_at: dict[int, int] = field(repr=False)

    def u_row(self, k: int) -> dict[int, int]:
        """Row k of U, as the kernel left it."""
        i = self.row_at[k] if k < len(self.row_at) else k
        row = self.u_by_id.get(i)
        return {i: 1} if row is None else row

    def v_col(self, k: int) -> dict[int, int]:
        """Column k of V, as the kernel left it; V must be tracked."""
        j = self.col_at.get(k, k)
        col = self.v_by_id.get(j)
        return {j: 1} if col is None else col

    def _kept(self, n: int) -> tuple[range, tuple[int, ...]]:
        """The pivots of positive exponent and every index past the pivots
        up to n, with their exponents (m past the pivots).  The exponents
        do not decrease, so the kept indices are one range from the first
        positive pivot."""
        z = self.pivot_vals.count(0)
        return range(z, n), self.pivot_vals[z:] + (self.m,) * (n - len(self.pivot_vals))

    def quotient(self) -> QuotientStructure:
        """Canonical coordinates of (Z/p^m)^rows modulo the column span:
        the kept rows of U, each with the exponent of its summand."""
        kept, exponents = self._kept(self.rows)
        return QuotientStructure(self.p, self.m, self.rows, exponents, [self.u_row(k) for k in kept])

    def kernel_columns(self) -> list[dict[int, int]]:
        """Columns generating {v : A v = 0}, from the diagonal form: the
        kept columns of V, each times p^(m - e) for its exponent e, as
        ``{index: residue}`` dicts of their nonzero entries."""
        if self.v_by_id is None:
            raise ValueError("column transform was not tracked")
        p, m = self.p, self.m
        N = p**m
        kept, exponents = self._kept(self.cols)
        return [
            {c: y for c, x in self.v_col(k).items() if (y := x * p ** (m - e) % N)}
            for k, e in zip(kept, exponents)
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

    The elimination is sparse, and its work follows the nonzeros.  Each
    nonempty row is a ``{column id: residue}`` dict kept by its original
    row id, and position <-> id maps emulate the row and column swaps: a
    list for the rows, which the cursor walks, and maps for the columns
    that hold only the columns a swap has moved.  A column index lists,
    for each column with a nonzero, the rows that have or once had one
    there, so a row clear visits only those rows; a pivot's column is
    zero once it is cleared, and its entry is dropped.  U is kept by row
    id and V by column id, both sparse and both filled on first touch:
    a row of U is written when its row is scaled or cleared, a column of
    V when a column clear updates it, and every other row or column is
    still its unit vector.  A pivot row is dropped once it is used, so
    the dicts hold only the trailing block.

    The live rows of layer v are those with an entry that p^(v+1) does
    not divide.  A row that is not live stays so for the rest of the
    layer: its entry in the pivot column is divisible by p^(v+1), so its
    multiplier t = a[r, k] / p^v is divisible by p, and p^v divides the
    pivot row, so a row clear subtracts multiples of p^(v+1) from it.
    (A live row may stop being live; that only skips it.)  The positions
    passed over, and the row swapped out of position k into the pivot's
    place, are thus never live again, so the pivot rows of a layer are
    found by one cursor that visits each position once, instead of a
    scan of every row at every step.  One plain loop over a row's values
    tests whether it is live and finds its pivot column, the live entry
    first in the current column order.  A row with one entry, the shape
    of almost every row of a padded expansion, needs no loop: that entry
    is the pivot when p^(v+1) does not divide it, and its row clears
    touch no other column.

    ``rel_cols`` is a ``SparseMatrix`` or a dense array, which is first
    made one.  Its row dicts are copied as the kernel's rows, so the
    input is never changed, and only the column index is built from
    them; each row is cleared by its own arithmetic, so the order of the
    entries moves no residue.

    Every step is the same arithmetic on the same residues as the dense
    loop it replaced (``tests/test_linalg.py::reference_smith``); only the
    zeros are skipped, so pivots, U and V agree bit for bit.
    """
    N = _modulus(p, m)
    if not isinstance(rel_cols, SparseMatrix):
        a = _as_array(rel_cols)
        rel_cols = SparseMatrix.of_dense(a, N) if a.ndim == 2 and a.shape[1] else SparseMatrix((ambient, 0), {})
    nrows, ncols = rel_cols.shape
    rows: dict[int, dict[int, int]] = {}
    in_col: dict[int, set[int]] = {}
    for i, src in rel_cols.rows.items():
        rows[i] = dict(src)
        for j in src:
            col = in_col.get(j)
            if col is None:
                in_col[j] = {i}
            else:
                col.add(i)
    U: dict[int, dict[int, int]] = {}
    V: dict[int, dict[int, int]] | None = {} if track_v else None
    row_at = list(range(nrows))
    col_at: dict[int, int] = {}
    col_pos: dict[int, int] = {}
    pivot_vals: list[int] = []
    k = 0
    for v in range(m):
        pv = p**v
        pmod = p ** (v + 1)
        for cursor in range(k, nrows):
            i = row_at[cursor]
            prow = rows.get(i)
            if not prow:
                continue
            if len(prow) == 1:
                ((j, x),) = prow.items()
                if not x % pmod:
                    continue
                rest = ()
            else:
                j, first = None, ncols
                for c, x in prow.items():
                    if x % pmod:
                        at = col_pos.get(c, c)
                        if at < first:
                            j, first = c, at
                if j is None:
                    continue
                rest = [(c, x) for c, x in prow.items() if c != j]
            row_at[k], row_at[cursor] = i, row_at[k]
            at = col_pos.get(j, j)
            if at != k:
                other = col_at.get(k, k)
                col_at[k], col_at[at] = j, other
                col_pos[other], col_pos[j] = at, k
            unit = prow[j] // pv
            if unit != 1:
                uinv = pow(unit, -1, N)
                rest = [(c, x * uinv % N) for c, x in rest]
                ui = U.get(i)
                U[i] = {i: uinv} if ui is None else {c: x * uinv % N for c, x in ui.items()}
            del rows[i]
            col = in_col.pop(j)
            if len(col) > 1:
                ui = U.get(i)
                u_items = ((i, 1),) if ui is None else ui.items()
                for r in col:
                    row = rows.get(r)
                    if row is None or j not in row:
                        continue  # r is the pivot row, or its entry has cancelled
                    t = row.pop(j) // pv
                    if rest:
                        _axpy(row, t, rest, N)
                        for c, _ in rest:
                            in_col[c].add(r)
                    ur = U.get(r)
                    if ur is None:
                        U[r] = ur = {r: 1}
                    _axpy(ur, t, u_items, N)
            if V is not None and rest:
                vj = V.get(j)
                v_items = ((j, 1),) if vj is None else vj.items()
                for c, x in rest:
                    vc = V.get(c)
                    if vc is None:
                        V[c] = vc = {c: 1}
                    _axpy(vc, x // pv, v_items, N)
            pivot_vals.append(v)
            k += 1
    return SmithData(p, m, ambient, ncols, tuple(pivot_vals), U, V, row_at, col_at)


def smith_quotient(rel_cols: np.ndarray, ambient: int, p: int, m: int) -> QuotientStructure:
    """Canonical coordinates for (Z/p^m)^ambient / colspan(rel)."""
    return smith_transforms(rel_cols, ambient, p, m).quotient()


# ---------------------------------------------------------------------------
# public operations on exact matrices over Z/p^m
# ---------------------------------------------------------------------------


_DENSE = "a dense {rows}x{cols} expansion exceeds {limit} cells"

# A table is the matrix of one monomial on the monomial basis, kept as
# its columns, each the (row, residue) pairs of its nonzero entries.
Table = tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=256)
def _power(p: int, m: int, n: int, a: int) -> Table:
    """The columns of C^a over Z/p^m, a < B = p^n, where C multiplies 1,
    T, ..., T^(B-1) by T, kept for the last 256 (ring, a).  Column j is
    T^(j+a): e_(j+a) while j + a < B, shared with C^0, and past that
    C^(j+a-B+1) e_(B-1), each step of C being a shift plus the top entry
    times the rewrite column of T^B: a steps, each touching only the
    nonzeros."""
    B, N = p**n, _modulus(p, m)
    if not a:
        return tuple(((k, 1),) for k in range(B))
    out = list(_power(p, m, n, 0)[a:])
    rewrite = _rewrite_rule(p, m, n)
    col = {B - 1: 1}  # T^(B-1)
    for _ in range(a):
        top = col.pop(B - 1, 0)
        col = {r + 1: x for r, x in col.items()}
        if top:
            for k, c in rewrite:
                y = (col.get(k, 0) + top * c) % N
                if y:
                    col[k] = y
                else:
                    col.pop(k, None)
        out.append(tuple(sorted(col.items())))
    return tuple(out)


@lru_cache(maxsize=128)
def _monomial_expansion(spec: RingSpec, exps: tuple[int, ...]) -> Table:
    """Multiplication by T^exps on the monomial basis, as the table of
    its rho columns, kept for the last 128 monomials: every differential
    entry with a term T^exps, and the action of a variable, reads it.
    It is the Kronecker product over the variables of C^(a_i), the first
    variable outermost: column c B + c' joins column c of the first
    factor with column c' of the second, each pair of nonzeros giving
    the row r B + r' and the residue of their product, so no cell
    repeats, and only the products that vanish are dropped.  Its
    rho x rho cells are counted against ``MAX_EXPANDED_CELLS`` before
    anything is built.  A table is shared: no caller may change it."""
    rho, N = spec.coefficient_rank, _modulus(spec.p, spec.m)
    check_cells(rho * rho, MAX_EXPANDED_CELLS, _DENSE, rows=rho, cols=rho)
    if not exps:
        return (((0, 1),),)
    B = spec.exponent_bound
    table = _power(spec.p, spec.m, spec.n, exps[0])
    for a in exps[1:]:
        power = _power(spec.p, spec.m, spec.n, a)
        table = tuple([
            tuple([(r * B + s, z) for r, x in col for s, y in factor if (z := x * y % N)])
            for col in table
            for factor in power
        ])
    return table


def _variable_expansions(spec: RingSpec) -> tuple[Table, ...]:
    """The table of each variable of ``spec``, from the monomial memo."""
    return tuple(_monomial_expansion(spec, tuple(int(i == j) for i in range(spec.q))) for j in range(spec.q))


def expand_scalars(a: Matrix) -> SparseMatrix:
    """Regular representation of a patch-ring matrix over Z/p^m.

    Returns the (rows*rho) x (cols*rho) matrix of the same map on the
    underlying free Z/p^m-modules, rho = p^(n q), as row dicts: block
    (i, j) is the sum of c times the table of T^e over the terms c T^e
    of entry (i, j), scattered cell by cell in Python integers, each
    cell summed mod p^m and dropped when it cancels.  Its dense cells
    are counted against ``MAX_EXPANDED_CELLS`` before anything is built.
    Functorial: expand(AB) = expand(A) @ expand(B) mod p^m.
    """
    spec = a.spec
    if spec.kind == "graded":
        raise SpecMismatch("graded matrices have no finite expansion")
    rho, N = spec.coefficient_rank, spec.modulus
    shape = (a.rows * rho, a.cols * rho)
    check_cells(shape[0] * shape[1], MAX_EXPANDED_CELLS, _DENSE, rows=shape[0], cols=shape[1])
    rows: dict[int, dict[int, int]] = {}
    for i, entries in enumerate(a.entries):
        top = i * rho
        for j, x in enumerate(entries):
            for exps, c in x.coeffs.items():
                for col, pairs in enumerate(_monomial_expansion(spec, exps), j * rho):
                    for r, u in pairs:
                        r += top
                        row = rows.get(r)
                        if row is None:
                            if y := c * u % N:
                                rows[r] = {col: y}
                        elif y := (row.get(col, 0) + c * u) % N:
                            row[col] = y
                        else:
                            row.pop(col, None)
                            if not row:
                                del rows[r]
    return SparseMatrix(shape, rows)
