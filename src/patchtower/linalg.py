"""Deterministic exact linear algebra over Z/p^m and finite tower rings.

Two layers:

* an exact ``Matrix`` of ring elements (any spec) with ring-level
  products, transposes and entrywise maps;
* a numpy int64 core over the chain ring Z/p^m: Smith forms with
  their transforms, whose quotient coordinates answer every span,
  divisor and cardinality question about a finite module, and Howell
  forms, which give cohomology its relation kernel and batched solve.
  Patch-ring matrices enter this layer through ``expand_scalars`` (the
  regular representation on the monomial basis).

Everything is integer arithmetic; numpy only supplies array storage and
vectorised modular row operations.  Every matrix product over Z/p^m
outside the elimination loops goes through ``matmul_mod``, which picks
one of two exact paths by the largest partial sum the product can
reach: float32 BLAS below 2^24, Python integers past it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExpansionTooLarge, InvalidParameter, ShapeMismatch, SpecMismatch
from .rings import RingMap, RingSpec, RingTowerElement, _rewrite_rule

# int64 cells (128 MiB) past which a scalar expansion is refused; q=2,
# r=2 at level 3 needs 2187 x 1458, q=3 at level 3 would need 39366^2
MAX_EXPANDED_CELLS = 2**24


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

    @classmethod
    def identity(cls, spec: RingSpec, size: int) -> "Matrix":
        z = RingTowerElement.zero(spec)
        o = RingTowerElement.one(spec)
        return cls(spec, [[o if i == j else z for j in range(size)] for i in range(size)])

    @classmethod
    def from_int_rows(cls, spec: RingSpec, rows) -> "Matrix":
        return cls(spec, [[RingTowerElement.constant(spec, int(x)) for x in row] for row in rows])

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

    def apply_map(self, f: RingMap) -> "Matrix":
        if f.source != self.spec:
            raise SpecMismatch("map source does not match matrix spec")
        return self.map_entries(f.apply, f.target)


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
    """p^m, refused when int64 products of two residues could overflow."""
    N = p**m
    if (N - 1) ** 2 >= 2**63:
        raise InvalidParameter(f"modulus {p}^{m} is too large for int64 elimination")
    return N


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


def _valuations(col: np.ndarray, p: int, m: int) -> np.ndarray:
    """p-adic valuation of each entry, with val(0) = m."""
    val = np.zeros(col.shape, dtype=np.int64)
    cur = col.copy()
    nonzero = col != 0
    for _ in range(m - 1):
        div = nonzero & (cur % p == 0) & (val < m)
        val += div
        cur = np.where(div, cur // p, cur)
    val[~nonzero] = m
    return val


def _echelon(work: np.ndarray, active: int, p: int, m: int):
    """In-place echelon over active columns; returns pivot list (row, col, val).

    Updates touch only the rows with a nonzero entry in the pivot column
    and only columns from the pivot rightward (everything to the left of
    the pivot is already zero below the previous pivot row).
    """
    N = p**m
    nrows = work.shape[0]
    pivots = []
    r = 0
    for j in range(active):
        if r >= nrows:
            break
        col = work[r:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        vals = _valuations(col[nz], p, m)
        k = int(np.argmin(vals))
        vmin = int(vals[k])
        i = r + int(nz[k])
        if i != r:
            work[[r, i]] = work[[i, r]]
        pv = p**vmin
        unit = int(work[r, j]) // pv
        if unit % N != 1:
            uinv = pow(unit % N, -1, N)
            work[r, j:] = (work[r, j:] * uinv) % N
        sub = work[r + 1 :, j:]
        nzb = np.nonzero(work[r + 1 :, j])[0]
        if nzb.size:
            t = work[r + 1 + nzb, j] // pv
            sub[nzb] = (sub[nzb] - np.outer(t, work[r, j:])) % N
        pivots.append((r, j, vmin))
        r += 1
    return pivots


def _reduce_row(vec: np.ndarray, work: np.ndarray, pivots, p: int, m: int) -> np.ndarray:
    N = p**m
    vec = vec % N
    for r, j, v in pivots:
        e = int(vec[j])
        if e == 0:
            continue
        pv = p**v
        if e % pv == 0:
            vec = (vec - (e // pv) * work[r]) % N
    return vec


class HowellCore:
    """Howell canonical form of an integer matrix over Z/p^m.

    Carries a companion block so that row operations are witnessed:
    ``transform @ original == howell`` mod p^m.  Pivoting happens on the
    first ``active`` columns only; rows whose active part vanishes
    collect span elements of the active-block kernel (complete by the
    Howell span property).
    """

    def __init__(self, a: np.ndarray, p: int, m: int, carry: bool = True):
        self.p, self.m = p, m
        self.N = _modulus(p, m)
        a = _as_array(a)
        self.active = a.shape[1]
        self.orig_rows = a.shape[0]
        if carry:
            work = np.hstack([a % self.N, np.eye(a.shape[0], dtype=np.int64)])
        else:
            work = a % self.N
        self.work, self.pivots = self._howellize(work)

    def _howellize(self, work):
        p, m, N = self.p, self.m, self.N
        while True:
            pivots = _echelon(work, self.active, p, m)
            grew = False
            tails = []
            for r, j, v in pivots:
                if v == 0:
                    continue
                cand = (work[r] * (p ** (m - v))) % N
                cand = _reduce_row(cand, work, pivots, p, m)
                if cand[: self.active].any():
                    work = np.vstack([work, cand[None, :]])
                    grew = True
                elif cand.any():
                    # pure-carry remainder: a kernel witness, kept as a tail row
                    tails.append(cand)
            if grew:
                continue
            npiv = len(pivots)
            old_tails = [row for row in work[npiv:] if row.any()]
            rows = [work[:npiv]]
            if old_tails:
                rows.append(np.array(old_tails))
            if tails:
                rows.append(np.array(tails))
            work = np.vstack(rows) if len(rows) > 1 else work[:npiv].copy()
            break
        # reduce entries above each pivot into [0, p^v)
        for r, j, v in pivots:
            if r == 0:
                continue
            pv = p**v
            t = work[:r, j] // pv
            nza = np.nonzero(t)[0]
            if nza.size:
                sub = work[:r, j:]
                sub[nza] = (sub[nza] - np.outer(t[nza], work[r, j:])) % N
        return work, pivots

    # -- views ----------------------------------------------------------

    def howell_rows(self) -> np.ndarray:
        return self.work[: len(self.pivots), : self.active].copy()

    def transform_rows(self) -> np.ndarray:
        return self.work[: len(self.pivots), self.active :].copy()

    def kernel_rows(self) -> np.ndarray:
        """Generators of {x : x A = 0} as rows (Howell-canonical)."""
        tail = self.work[len(self.pivots) :, self.active :]
        if tail.size == 0:
            return np.zeros((0, self.orig_rows), dtype=np.int64)
        inner = HowellCore(tail, self.p, self.m, carry=False)
        return inner.howell_rows()

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        return _reduce_row(np.asarray(vec, dtype=np.int64), self.work[:, : self.active], self.pivots, self.p, self.m)

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        """Some x with x A = b, or None.

        A 2-d ``b`` holds one right-hand side per row and gets one
        solution per row, or None when any row has none.  Each pivot
        touches only the rows with a nonzero entry in its column; the
        coefficients collected there combine the transform rows in one
        product.
        """
        N = self.N
        rhs = np.atleast_2d(np.asarray(b, dtype=np.int64) % N)
        coef = np.zeros((rhs.shape[0], len(self.pivots)), dtype=np.int64)
        for r, j, v in self.pivots:
            rows = np.flatnonzero(rhs[:, j])
            if rows.size == 0:
                continue
            pv = self.p**v
            e = rhs[rows, j]
            if (e % pv).any():
                return None
            coef[rows, r] = e // pv
            rhs[rows] = (rhs[rows] - np.outer(coef[rows, r], self.work[r, : self.active])) % N
        if rhs.any():
            return None
        x = matmul_mod(coef, self.work[: len(self.pivots), self.active :], N)
        return x if np.ndim(b) == 2 else x[0]


def elementary_divisors(rel: np.ndarray, ambient: int, p: int, m: int) -> tuple[int, ...]:
    """Divisor profile of (Z/p^m)^ambient modulo the column span of ``rel``.

    Returned as a sorted tuple of prime powers p^e, 1 <= e <= m, one per
    nontrivial cyclic summand.
    """
    return smith_quotient(rel, ambient, p, m).divisors()


@dataclass(frozen=True)
class QuotientStructure:
    """Canonical coordinates on (Z/p^m)^ambient modulo a column span.

    ``projection @ x`` are the coordinates of x in the quotient, one per
    cyclic summand; coordinate i is taken modulo p**exponents[i].
    """

    p: int
    m: int
    exponents: tuple[int, ...]
    projection: np.ndarray

    @property
    def summands(self) -> int:
        return len(self.exponents)

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Quotient coordinates of x, or of each column of a 2-d x; they
        all vanish exactly when x lies in the column span."""
        out = matmul_mod(self.projection, x, self.p**self.m)
        moduli = self.p ** np.array(self.exponents, dtype=np.int64)
        return out % moduli.reshape((-1,) + (1,) * (out.ndim - 1))

    def divisors(self) -> tuple[int, ...]:
        return tuple(sorted(self.p**e for e in self.exponents))


@dataclass(frozen=True)
class SmithData:
    """U A V = D with D diagonal of prime powers; pivot_vals lists the exponents."""

    p: int
    m: int
    rows: int
    cols: int
    pivot_vals: tuple[int, ...]
    U: np.ndarray
    V: np.ndarray | None

    def quotient(self) -> QuotientStructure:
        """Canonical coordinates of (Z/p^m)^rows modulo the column span."""
        exponents = []
        kept = []
        for idx, v in enumerate(self.pivot_vals):
            if v > 0:
                exponents.append(v)
                kept.append(idx)
        for idx in range(len(self.pivot_vals), self.rows):
            exponents.append(self.m)
            kept.append(idx)
        return QuotientStructure(self.p, self.m, tuple(exponents), self.U[kept] % (self.p**self.m))

    def column_kernel(self) -> np.ndarray:
        """Columns generating {v : A v = 0}, from the diagonal form."""
        if self.V is None:
            raise ValueError("column transform was not tracked")
        N = self.p**self.m
        cols = []
        for idx, v in enumerate(self.pivot_vals):
            if v > 0:
                cols.append((self.V[:, idx] * self.p ** (self.m - v)) % N)
        for idx in range(len(self.pivot_vals), self.cols):
            cols.append(self.V[:, idx] % N)
        if not cols:
            return np.zeros((self.cols, 0), dtype=np.int64)
        return np.array(cols, dtype=np.int64).T


def smith_transforms(rel_cols: np.ndarray, ambient: int, p: int, m: int, track_v: bool = False) -> SmithData:
    """Diagonalize over Z/p^m, tracking the row (and optionally column) transform.

    Pivots are taken by increasing valuation layer v, so every division is
    exact: the pivot of step k is the row-major first entry of the
    trailing block ``a[k:, k:]`` that p^(v+1) does not divide.  Two
    invariants keep each step proportional to the rows and columns it
    touches rather than to the trailing block:

    * ``live[r]`` says whether row r has an entry of valuation <= v in
      columns >= k (rows above k are zero there).  It is computed once per layer, swapped with
      its row, and recomputed only for the rows a row clear changes:
      column swaps stay inside columns >= k, and every other row is
      already zero in column k, so advancing k leaves it as it was.  The
      pivot is the first live row and its first qualifying column.
    * After the row clear, column k is zero off row k, a[k, k] = p^v and
      p^v divides row k, so the column clear ``a -= outer(a[:, k], t)``
      amounts to zeroing ``a[k, k+1:]``; only V has to record it.

    Transform updates touch only the nonzero columns of ``U[k]`` and the
    nonzero rows of ``V[:, k]``.
    """
    N = _modulus(p, m)
    a = _as_array(rel_cols, cols_hint=0) % N
    if a.ndim != 2 or a.shape[1] == 0:
        a = np.zeros((ambient, 0), dtype=np.int64)
    nrows, ncols = a.shape
    size = min(nrows, ncols)
    U = np.eye(ambient, dtype=np.int64)
    V = np.eye(ncols, dtype=np.int64) if track_v else None
    pivot_vals: list[int] = []
    k = 0
    for v in range(m):
        pv = p**v
        pmod = p ** (v + 1)
        live = (a[:, k:] % pmod != 0).any(axis=1)
        while k < size:
            i = k + int(np.argmax(live[k:]))
            if not live[i]:
                break
            j = k + int(np.flatnonzero(a[i, k:] % pmod)[0])
            if i != k:
                a[[k, i]] = a[[i, k]]
                U[[k, i]] = U[[i, k]]
                live[i] = live[k]
            if j != k:
                a[:, [k, j]] = a[:, [j, k]]
                if V is not None:
                    V[:, [k, j]] = V[:, [j, k]]
            unit = int(a[k, k]) // pv
            if unit != 1:
                uinv = pow(unit, -1, N)
                a[k, k:] = (a[k, k:] * uinv) % N
                U[k] = (U[k] * uinv) % N
            rows = k + 1 + np.flatnonzero(a[k + 1 :, k])
            if rows.size:
                t = a[rows, k] // pv
                nz = k + np.flatnonzero(a[k, k:])
                a[np.ix_(rows, nz)] = (a[np.ix_(rows, nz)] - np.outer(t, a[k, nz])) % N
                nz = np.flatnonzero(U[k])
                U[np.ix_(rows, nz)] = (U[np.ix_(rows, nz)] - np.outer(t, U[k, nz])) % N
                live[rows] = (a[rows, k + 1 :] % pmod != 0).any(axis=1)
            cols = k + 1 + np.flatnonzero(a[k, k + 1 :])
            if cols.size:
                if V is not None:
                    t = a[k, cols] // pv
                    nz = np.flatnonzero(V[:, k])
                    V[np.ix_(nz, cols)] = (V[np.ix_(nz, cols)] - np.outer(V[nz, k], t)) % N
                a[k, cols] = 0
            pivot_vals.append(v)
            k += 1
    return SmithData(p, m, ambient, ncols, tuple(pivot_vals), U, V)


def smith_quotient(rel_cols: np.ndarray, ambient: int, p: int, m: int) -> QuotientStructure:
    """Canonical coordinates for (Z/p^m)^ambient / colspan(rel)."""
    return smith_transforms(rel_cols, ambient, p, m).quotient()


# ---------------------------------------------------------------------------
# public operations on exact matrices over Z/p^m
# ---------------------------------------------------------------------------


def _monomial_matrix(spec: RingSpec, exps: tuple[int, ...]) -> np.ndarray:
    """Multiplication by T^exps: the Kronecker product over the variables
    of C^(a_i), where C multiplies 1, T, ..., T^(p^n - 1) by T.  Only a
    product of two non-identity factors can leave [0, p^m) and is reduced."""
    rho, N = spec.coefficient_rank, _modulus(spec.p, spec.m)
    _dense_shape(rho, rho)
    rewrite = np.zeros(spec.exponent_bound, dtype=np.int64)  # T^(p^n)
    for k, c in _rewrite_rule(spec.p, spec.m, spec.n):
        rewrite[k] = c
    out = np.ones((1, 1), dtype=np.int64)
    for i, a in enumerate(exps):
        power = _companion_power(rewrite, a, N)
        out = np.kron(out, power) if i else power
        if a and any(exps[:i]):
            out %= N
    return out


def _companion_power(rewrite: np.ndarray, a: int, N: int) -> np.ndarray:
    """C^a, where C shifts 1, ..., T^(B-1) up one degree and its last
    column ``rewrite`` holds T^B.  Column j is T^(j+a): e_(j+a) while
    j + a < B, and past that C^(j+a-B+1) e_(B-1), each step of C being
    a shift plus the top entry times ``rewrite``: O(a B), no product.
    Entries stay below N(N-1), which ``_modulus`` keeps inside int64."""
    B = rewrite.size
    out = np.eye(B, k=-a, dtype=np.int64)
    col = np.zeros(B, dtype=np.int64)
    col[-1] = 1  # T^(B-1)
    for k in range(1, a + 1):
        col = np.concatenate(([0], col[:-1])) + col[-1] * rewrite
        col %= N
        if a - k < B:
            out[:, B - 1 - a + k] = col
    return out


def multiplication_matrix(x: RingTowerElement) -> np.ndarray:
    """Matrix of multiplication by x on the monomial basis, over Z/p^m:
    the sum of c times the matrix of T^a over the terms c T^a of x."""
    spec, N = x.spec, x.spec.modulus
    if len(x.coeffs) == 1 and 1 in x.coeffs.values():
        return _monomial_matrix(spec, *x.coeffs)
    out = np.zeros(_dense_shape(spec.coefficient_rank, spec.coefficient_rank), dtype=np.int64)
    for exps, c in x.coeffs.items():
        term = _monomial_matrix(spec, exps)
        out += term if c == 1 else term * c % N
    return out % N


def _dense_shape(rows: int, cols: int) -> tuple[int, int]:
    if rows * cols > MAX_EXPANDED_CELLS:
        raise ExpansionTooLarge(f"a dense {rows}x{cols} expansion exceeds {MAX_EXPANDED_CELLS} cells")
    return rows, cols


def expand_scalars(a: Matrix) -> np.ndarray:
    """Regular representation of a patch-ring matrix over Z/p^m.

    Returns the (rows*rho) x (cols*rho) integer matrix of the same map
    on underlying free Z/p^m-modules, rho = p^(n q).  Functorial:
    expand(AB) = expand(A) @ expand(B) mod p^m.
    """
    spec = a.spec
    if spec.kind == "graded":
        raise SpecMismatch("graded matrices have no finite expansion")
    rho = spec.coefficient_rank
    out = np.zeros(_dense_shape(a.rows * rho, a.cols * rho), dtype=np.int64)
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.entries[i][j]
            if not x.is_zero():
                out[i * rho : (i + 1) * rho, j * rho : (j + 1) * rho] = multiplication_matrix(x)
    return out
