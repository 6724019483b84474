import importlib.util
import itertools
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchtower.complexes import _free_module
from patchtower.errors import InvalidParameter, SpecMismatch, UnsupportedRing
from patchtower.linalg import (
    HowellCore,
    Matrix,
    QuotientStructure,
    elementary_divisors,
    SparseMatrix,
    _dense_rows,
    _echelon,
    _monomial_expansion,
    _variable_expansions,
    expand_scalars,
    matmul_mod,
    smith_quotient,
    smith_transforms,
)
from patchtower.rings import RingTowerElement, coefficient_ring, graded_ring, make_patch_ring
from util import (
    SMALL_PATCH_SPECS,
    DenseHowell,
    dense_column_kernel,
    dense_expand_scalars,
    dense_monomial_matrix,
    dense_solve,
    embed_dense,
    dense_work,
    int_matrix,
    monomial_basis,
    random_patch_complex,
    dense_echelon,
    howell_core,
    identity_matrix,
    reference_coords,
    reference_echelon,
    reference_embed,
    reference_multiplication_matrix,
    reference_solve,
    row_dicts,
    run_under_memory_limit,
    smith_u,
    smith_v,
    sparse_cells,
    sparse_dense,
    transform_rows,
)

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# (p, m) of Z/4 and Z/9
Z4 = (2, 2)
Z9 = (3, 2)


def howell(rows, spec) -> np.ndarray:
    return howell_core(np.array(rows, dtype=np.int64), *spec).howell_rows()


class TestHowell:
    def test_two_is_already_canonical(self):
        assert howell([[2]], Z4).tolist() == [[2]]

    def test_row_reduction_example(self):
        assert howell([[1, 2], [0, 2]], Z4).tolist() == [[1, 0], [0, 2]]

    def test_zero_matrix(self):
        assert howell([[0, 0], [0, 0]], Z4).shape[0] == 0

    def test_witness_transform(self):
        a = np.array([[3, 1, 4], [6, 2, 0], [0, 3, 3]], dtype=np.int64)
        core = howell_core(a, *Z9)
        assert ((transform_rows(core) @ a) % 9).tolist() == core.howell_rows().tolist()

    @given(
        st.lists(
            st.lists(st.integers(0, 8), min_size=2, max_size=2),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_howell_preserves_the_row_span(self, rows):
        a = np.array(rows, dtype=np.int64) % 9
        assert span_of_rows(howell(a, Z9), 9) == span_of_rows(a, 9)

    @pytest.mark.parametrize("spec", [Z4, Z9], ids=["Z4", "Z9"])
    def test_canonical_under_row_mixing(self, spec):
        # same row span after random invertible row operations -> same form
        rng = random.Random(5)
        p, m = spec
        N = p**m
        for _ in range(25):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(1, 4)
            a = [[rng.randrange(N) for _ in range(cols)] for _ in range(rows)]
            b = [row[:] for row in a]
            for _ in range(6):
                i, j = rng.randrange(rows), rng.randrange(rows)
                if i == j:
                    u = rng.choice([u for u in range(1, N) if u % p])
                    b[i] = [(u * x) % N for x in b[i]]
                else:
                    c = rng.randrange(N)
                    b[i] = [(x + c * y) % N for x, y in zip(b[i], b[j])]
            assert howell(a, spec).tolist() == howell(b, spec).tolist()


@st.composite
def echelon_inputs(draw):
    """A matrix over Z/N, N in {2, 9, 25, 27}, with some columns zeroed
    wherever they fall (leading, interior, trailing), 0 to 5 rows, and an
    ``active`` block that may stop short of the width, as HowellCore's
    carry block does."""
    p, m = draw(st.sampled_from([(2, 1), (3, 2), (5, 2), (3, 3)]))
    N = p**m
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 8))
    entries = st.one_of(st.just(0), st.sampled_from([p % N, p ** (m - 1), N - 1]), st.integers(0, N - 1))
    a = np.array(draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64)
    a = a.reshape(rows, cols)
    a[:, draw(st.lists(st.booleans(), min_size=cols, max_size=cols))] = 0
    return a, draw(st.integers(0, cols)), p, m


class TestEchelon:
    @given(echelon_inputs())
    @settings(max_examples=300, deadline=None)
    @example((np.array([[0, 3, 0, 1, 0, 0], [0, 6, 0, 4, 0, 0], [0, 0, 0, 2, 0, 0]]), 6, 3, 2))
    @example((np.array([[0, 0, 5, 10, 0]]), 5, 5, 2))
    @example((np.zeros((0, 4), dtype=np.int64), 4, 2, 1))
    @example((np.array([[0, 2, 1, 0], [0, 1, 0, 1], [0, 0, 0, 1]]), 2, 3, 3))
    @example((np.array([[0, 0, 9, 1], [0, 0, 18, 2]]), 2, 3, 3))
    def test_matches_reference_loop(self, case):
        # the same pivots and the same worked array, on copies of one
        # input: the dense one-scan loop, and the row dicts of _echelon
        a, active, p, m = case
        got, want = a.copy(), a.copy()
        rows = row_dicts(a, p**m)
        pivots = reference_echelon(want, active, p, m)
        assert dense_echelon(got, active, p, m) == pivots
        assert np.array_equal(got, want)
        assert _echelon(rows, active, p, m) == pivots
        assert np.array_equal(_dense_rows(rows, a.shape[1]), want)


@st.composite
def howell_cases(draw):
    """A matrix over Z/p^m, p in {2, 3, 5} and m <= 3, with 0 to 5 rows
    (or one row of 1 to 3 nonzeros, the shape cohomology passes) and 0 to
    6 columns, each row scaled by a power of p; the carry block on or
    off; and right-hand sides that are combinations of its rows, some
    with an arbitrary vector added, which may make them unsolvable."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    N = p**m
    cols = draw(st.integers(0, 6))
    if cols and draw(st.booleans()):
        a = np.zeros((1, cols), dtype=np.int64)
        for j in draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=min(3, cols), unique=True)):
            a[0, j] = draw(st.integers(1, N - 1))
    else:
        rows = draw(st.integers(0, 5))
        a = np.array(draw(st.lists(st.integers(0, N - 1), min_size=rows * cols, max_size=rows * cols)), dtype=np.int64)
        a = a.reshape(rows, cols)
    scales = draw(st.lists(st.integers(0, m), min_size=a.shape[0], max_size=a.shape[0]))
    a = a * p ** np.array(scales, dtype=np.int64).reshape(-1, 1) % N
    rhs = []
    for _ in range(draw(st.integers(1, 3))):
        x = np.array(draw(st.lists(st.integers(0, N - 1), min_size=a.shape[0], max_size=a.shape[0])), dtype=np.int64)
        b = (x @ a) % N
        if draw(st.integers(0, 3)) == 0:
            b = (b + np.array(draw(st.lists(st.integers(0, N - 1), min_size=cols, max_size=cols)), dtype=np.int64)) % N
        rhs.append(b)
    return a, p, m, draw(st.booleans()), np.array(rhs, dtype=np.int64).reshape(len(rhs), cols)


class TestSparseHowell:
    """``HowellCore`` on row dicts against the dense int64 elimination it
    replaced (``util.DenseHowell``): the same pivots, Howell rows,
    transform and tail rows, kernel rows and solutions."""

    @given(howell_cases())
    @settings(max_examples=400, deadline=None)
    @example((np.zeros((0, 4), dtype=np.int64), 3, 2, True, np.zeros((1, 4), dtype=np.int64)))
    @example((np.zeros((3, 0), dtype=np.int64), 2, 3, True, np.zeros((2, 0), dtype=np.int64)))
    @example((np.zeros((3, 0), dtype=np.int64), 5, 1, False, np.zeros((1, 0), dtype=np.int64)))
    @example((np.array([[0, 3, 6]]), 3, 2, True, np.array([[0, 3, 6], [0, 1, 0]])))
    @example((np.array([[4, 0, 2, 0]]), 2, 3, False, np.array([[4, 0, 2, 0], [0, 0, 6, 0]])))
    def test_matches_dense_reference(self, case):
        a, p, m, carry, rhs = case
        want = DenseHowell(a, p, m, carry)
        got = howell_core(a, p, m, carry)
        assert got.pivots == want.pivots
        assert np.array_equal(got.howell_rows(), want.howell_rows())
        assert np.array_equal(dense_work(got), want.work)
        if carry:
            assert np.array_equal(transform_rows(got), want.work[: len(want.pivots), a.shape[1] :])
        kernel = got.kernel_rows()
        assert kernel.dtype == np.int64 and np.array_equal(kernel, want.kernel_rows())
        solves = [(dense_solve(got, rhs), want.solve(rhs))]
        solves += [(dense_solve(got, b), want.solve(b)) for b in rhs]
        for x, y in solves:
            assert (x is None) == (y is None)
            if y is not None:
                assert x.shape == y.shape and np.array_equal(x, y)


def brute_kernel(a: np.ndarray, N: int) -> set:
    rows = a.shape[0]
    out = set()
    for x in itertools.product(range(N), repeat=rows):
        if not ((np.array(x) @ a) % N).any():
            out.add(x)
    return out


def span_of_rows(k: np.ndarray, N: int) -> set:
    if k.shape[0] == 0:
        return {(0,) * k.shape[1]}
    out = set()
    for combo in itertools.product(range(N), repeat=k.shape[0]):
        out.add(tuple(int(v) for v in (np.array(combo) @ k) % N))
    return out


class TestKernelAndSolve:
    def test_kernel_of_two_over_z4(self):
        k = howell_core(np.array([[2]]), *Z4).kernel_rows()
        assert span_of_rows(k, 4) == {(0,), (2,)}

    def test_solve_by_substitution(self):
        x = dense_solve(howell_core(np.array([[2]]), *Z4), np.array([2]))
        assert (x @ np.array([[2]])) % 4 == np.array([[2]])

    def test_identity_kernel_trivial(self):
        assert howell_core(np.eye(2, dtype=np.int64), *Z4).kernel_rows().shape[0] == 0

    def test_no_solution(self):
        assert dense_solve(howell_core(np.array([[2]]), *Z4), np.array([1])) is None

    @pytest.mark.parametrize("spec", [Z4, Z9], ids=["Z4", "Z9"])
    def test_kernel_matches_enumeration(self, spec):
        rng = random.Random(11)
        p, m = spec
        N = p**m
        for _ in range(20):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(1, 4)
            a = np.array([[rng.randrange(N) for _ in range(cols)] for _ in range(rows)])
            k = howell_core(a, p, m).kernel_rows()
            assert span_of_rows(k, N) == brute_kernel(a, N)

    def test_leaves_the_callers_rows_as_they_were(self):
        # over Z/4 the row [1, 3] becomes the first pivot row, ahead of
        # [2, 0], and the Howell step appends a kernel row to the work;
        # the benchmark's tracer reads the row count of the first argument
        # after the call returns
        rows = [{0: 2}, {0: 1, 1: 3}]
        before, ids = [dict(row) for row in rows], [id(row) for row in rows]
        core = HowellCore(rows, 2, *Z4)
        assert core.rows[0][0] == 1 and len(core.rows) == 3
        assert rows == before and [id(row) for row in rows] == ids
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        )
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer._shape(rows)[0] == 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matrix_without_columns(self, k):
        # a k x 0 matrix maps every x to the empty row, so every x of
        # length k solves x A = () and the kernel is all of (Z/9)^k
        core = howell_core(np.zeros((k, 0), dtype=np.int64), *Z9)
        x = dense_solve(core, np.zeros(0, dtype=np.int64))
        assert x.shape == (k,)
        kernel = core.kernel_rows()
        assert kernel.shape[1] == k
        assert span_of_rows(kernel, 9) == set(itertools.product(range(9), repeat=k))


@st.composite
def small_rings(draw, qs=range(4), max_rank=729):
    """Patch rings (and, for q = 0, coefficient rings) of rank <= max_rank."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    q = draw(st.sampled_from(qs))
    n = draw(st.integers(1, 3).filter(lambda n: p ** (n * q) <= max_rank))
    return make_patch_ring(p, m, n, q)


@st.composite
def ring_elements(draw, spec):
    """Elements with 0-5 terms whose coefficients may lie outside [0, N)."""
    N = spec.modulus
    exps = st.tuples(*[st.integers(0, spec.exponent_bound - 1)] * spec.q)
    return RingTowerElement(spec, draw(st.dictionaries(exps, st.integers(-2 * N, 2 * N), max_size=5)))


def multiplication_matrix(x: RingTowerElement) -> np.ndarray:
    """The dense matrix of multiplication by x: its 1 x 1 expansion."""
    return sparse_dense(expand_scalars(Matrix(x.spec, [[x]])))


class TestExpandScalars:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_multiplication_matrix_matches_ring_products(self, data):
        spec = data.draw(small_rings())
        x = data.draw(ring_elements(spec))
        y = data.draw(ring_elements(spec))
        mx = multiplication_matrix(x)
        assert np.array_equal(mx, reference_multiplication_matrix(x))
        # a lone monomial with coefficient 1 is never reduced as a sum
        # or a multiple, only after its Kronecker products
        for e in {**x.coeffs, **y.coeffs}:
            mono = RingTowerElement(spec, {e: 1})
            assert np.array_equal(multiplication_matrix(mono), reference_multiplication_matrix(mono))
        assert np.array_equal(matmul_mod(mx, multiplication_matrix(y), spec.modulus), multiplication_matrix(x * y))

    def test_high_power_of_the_variable(self):
        # rho = 243: the last 157 columns of T^200 pass T^242 and come
        # from walking the rewrite column
        spec = make_patch_ring(3, 2, 5, 1)
        x = RingTowerElement(spec, {(200,): 1})
        assert np.array_equal(multiplication_matrix(x), reference_multiplication_matrix(x))

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_functorial_with_several_variables(self, data):
        # rank <= 125 keeps the 2 rho x 2 rho products on the float32 path
        spec = data.draw(small_rings(qs=(2, 3), max_rank=125))
        N = spec.modulus
        a, b = (
            Matrix(spec, [[data.draw(ring_elements(spec)) for _ in range(2)] for _ in range(2)])
            for _ in range(2)
        )
        ea, eb = sparse_dense(expand_scalars(a)), sparse_dense(expand_scalars(b))
        assert np.array_equal(sparse_dense(expand_scalars(a @ b)), matmul_mod(ea, eb, N))
        total = Matrix(spec, [[a[i, j] + b[i, j] for j in range(2)] for i in range(2)])
        assert np.array_equal(sparse_dense(expand_scalars(total)), (ea + eb) % N)

    @pytest.mark.parametrize("which", ["zero", "one", "variable"])
    def test_graded_rings_are_refused(self, which):
        spec = graded_ring(3, 2)
        x = {
            "zero": RingTowerElement.zero(spec),
            "one": RingTowerElement.one(spec),
            "variable": RingTowerElement.variable(spec, 1),
        }[which]
        with pytest.raises(UnsupportedRing):
            _monomial_expansion(spec, next(iter(x.coeffs), (0, 0)))
        with pytest.raises(SpecMismatch):
            expand_scalars(Matrix(spec, [[x]]))

    def test_oversized_expansion_is_a_typed_error(self):
        # rho = 3^9: the 2 x 2 expansion would take 11.5 GiB dense and one
        # multiplication matrix 2.9 GiB; both keep the dense cell bound,
        # and the child's address space is capped at 2 GiB, so a
        # regression ends there in MemoryError
        code = "\n".join([
            "from patchtower.errors import ExpansionTooLarge",
            "from patchtower.linalg import Matrix, _monomial_expansion, expand_scalars",
            "from patchtower.rings import RingTowerElement, make_patch_ring",
            "spec = make_patch_ring(3, 2, 3, 3)",
            "o, z = RingTowerElement.one(spec), RingTowerElement.zero(spec)",
            "for call in (lambda: expand_scalars(Matrix(spec, [[o, z], [z, o]])),",
            "             lambda: _monomial_expansion(spec, (1, 0, 0))):",
            "    try:",
            "        call()",
            "    except ExpansionTooLarge as exc:",
            "        print(type(exc).__name__)",
        ])
        done = run_under_memory_limit(code)
        assert (done.returncode, done.stdout.split(), done.stderr) == (0, ["ExpansionTooLarge"] * 2, "")

    def test_multiplication_by_t(self):
        spec = make_patch_ring(3, 1, 1, 1)
        t = RingTowerElement.variable(spec, 0)
        got = sparse_dense(expand_scalars(Matrix(spec, [[t]])))
        assert got.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]

    def test_identity_expands_to_identity(self):
        spec = make_patch_ring(3, 1, 1, 1)
        got = sparse_dense(expand_scalars(identity_matrix(spec, 2)))
        assert (got == np.eye(6, dtype=np.int64)).all()

    def test_no_variables_is_trivial(self):
        spec = make_patch_ring(3, 2, 1, 0)
        got = sparse_dense(expand_scalars(int_matrix(spec, [[5]])))
        assert got.tolist() == [[5]]

    def test_functorial_on_products_and_sums(self):
        spec = make_patch_ring(2, 2, 1, 1)
        rng = random.Random(3)

        def rand_elem():
            return RingTowerElement(
                spec, {e: rng.randrange(4) for e in monomial_basis(spec)}
            )

        for _ in range(10):
            a = Matrix(spec, [[rand_elem(), rand_elem()], [rand_elem(), rand_elem()]])
            b = Matrix(spec, [[rand_elem(), rand_elem()], [rand_elem(), rand_elem()]])
            ea, eb = sparse_dense(expand_scalars(a)), sparse_dense(expand_scalars(b))
            assert (sparse_dense(expand_scalars(a @ b)) == (ea @ eb) % 4).all()
            sum_entries = [
                [a.entries[i][j] + b.entries[i][j] for j in range(2)] for i in range(2)
            ]
            assert (sparse_dense(expand_scalars(Matrix(spec, sum_entries))) == (ea + eb) % 4).all()

    def test_units_expand_to_invertible(self):
        spec = make_patch_ring(3, 1, 1, 1)
        one_plus_t = RingTowerElement.one(spec) + RingTowerElement.variable(spec, 0)
        e = sparse_dense(expand_scalars(Matrix(spec, [[one_plus_t]])))
        inv = sparse_dense(expand_scalars(Matrix(spec, [[one_plus_t.invert()]])))
        assert ((e @ inv) % 3 == np.eye(3, dtype=np.int64)).all()


# q up to 3, so the Kronecker index order is pinned past two factors
EXPANSION_SPECS = SMALL_PATCH_SPECS + [
    make_patch_ring(3, 2, 1, 2),
    make_patch_ring(2, 3, 1, 3),
    make_patch_ring(3, 2, 1, 3),
    make_patch_ring(5, 2, 1, 1),
]


@st.composite
def sparse_cases(draw):
    """A matrix of residues mod N = p^m of any shape, empty ones and rows
    with no entries included, and a vector or 2-d block of any int64
    entries (negative, past N, near int64's bounds) to multiply it with;
    N runs up to 3^19, whose residues have products near 2^60."""
    p, m = draw(st.sampled_from([(2, 2), (3, 2), (5, 1), (3, 19)]))
    N = p**m
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 8))
    residue = st.one_of(st.just(0), st.integers(1, N - 1), st.integers(N - 3, N - 1))
    a = np.array(draw(st.lists(residue, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64)
    k = draw(st.one_of(st.none(), st.integers(0, 3)))
    shape = (cols,) if k is None else (cols, k)
    entry = st.one_of(st.integers(-3 * N, 3 * N), st.integers(N - 3, N + 3), st.integers(INT64_MIN, INT64_MAX))
    x = draw(st.lists(entry, min_size=math.prod(shape), max_size=math.prod(shape)))
    return a.reshape(rows, cols), np.array(x, dtype=np.int64).reshape(shape), p, m


def sparse_forms(a: np.ndarray, N: int) -> list[SparseMatrix]:
    """The residue matrix ``a`` through each constructor: ``of_dense``,
    and ``of_rows`` on one ``{column: residue}`` dict per row.  Cells
    that are summed and cancel are ``expand_scalars``' own work, tested
    on it below."""
    by_rows = [{j: int(x) for j, x in enumerate(row) if x} for row in a]
    return [SparseMatrix.of_dense(a, N), SparseMatrix.of_rows(by_rows, a.shape[1])]


class TestSparseExpansion:
    """``SparseMatrix`` against dense arrays, and ``expand_scalars``
    against the dense reference ``util.dense_expand_scalars`` on the
    ``random_patch_complex`` corpus."""

    @given(sparse_cases())
    # 8 terms of (3^19 - 1)^2 pass 2^63 unless each is reduced first
    @example((np.full((2, 8), 3**19 - 1), np.full((8, 3), -1), 3, 19))
    @example((np.full((2, 8), 3**19 - 2), np.full(8, 3**19 - 2), 3, 19))
    # empty shapes, ambient 0 among them, and rows with no entries
    @example((np.zeros((0, 4), dtype=np.int64), np.arange(4) - 5, 3, 2))
    @example((np.zeros((4, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64), 3, 2))
    @example((np.zeros((0, 0), dtype=np.int64), np.zeros((0, 2), dtype=np.int64), 3, 2))
    @example((np.array([[0, 0, 0], [0, 4, 0], [0, 0, 0]]), np.array([[5, -1], [7, 20], [8, 9]]), 3, 2))
    @settings(max_examples=300, deadline=None)
    def test_constructors_and_product_match_dense(self, case):
        a, x, p, m = case
        N = p**m
        for sparse in sparse_forms(a, N):
            assert (sparse.shape, sparse.size) == (a.shape, a.size)
            assert np.array_equal(sparse_dense(sparse), a)
            # each nonzero cell once, a residue, and no empty row
            cells = sparse_cells(sparse)
            assert len(cells) == np.count_nonzero(a) and all(0 < x < N for x in cells.values())
            assert all(sparse.rows.values())
        # the product, as the coordinates of a quotient whose kept rows are
        # the rows of a, each a summand of order N
        by_rows = [{j: int(y) for j, y in enumerate(row) if y} for row in a]
        got = QuotientStructure(p, m, a.shape[1], (m,) * a.shape[0], by_rows).coords(x)
        want = (a.astype(object) @ x.astype(object)) % N
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want.astype(np.int64))

    @pytest.mark.parametrize("spec", EXPANSION_SPECS, ids=lambda s: f"p{s.p}-m{s.m}-n{s.n}-q{s.q}")
    def test_random_differentials_match_dense_reference(self, spec):
        N = spec.modulus
        seen = 0
        for seed in range(8):
            for d in random_patch_complex(random.Random(seed), spec, max_rank=3).diffs:
                got, want = expand_scalars(d), dense_expand_scalars(d)
                assert got.shape == want.shape and got.size == want.size
                assert np.array_equal(sparse_dense(got), want)
                # each nonzero cell once, keyed by its cell, a residue, and no empty row
                cells = sparse_cells(got)
                assert set(cells) == set(zip(*map(np.ndarray.tolist, np.nonzero(want))))
                assert all(0 < x < N for x in cells.values())
                assert len(cells) == np.count_nonzero(want) and all(got.rows.values())
                seen += 1
        assert seen

    @pytest.mark.parametrize("spec", EXPANSION_SPECS, ids=lambda s: f"p{s.p}-m{s.m}-n{s.n}-q{s.q}")
    def test_every_monomial_matches_ring_products(self, spec):
        for e in monomial_basis(spec):
            x = RingTowerElement(spec, {e: 1})
            assert np.array_equal(multiplication_matrix(x), reference_multiplication_matrix(x))

    def test_cells_that_cancel_are_dropped(self):
        # over Z/9 with T^3 = 6T + 6T^2, x = T^2 + 3T sends T to
        # 6T + 6T^2 + 3T^2 = 6T: both terms meet in cell (2, 1) and cancel
        spec = make_patch_ring(3, 2, 1, 1)
        x = RingTowerElement(spec, {(2,): 1, (1,): 3})
        got = expand_scalars(Matrix(spec, [[x]]))
        assert np.array_equal(sparse_dense(got), reference_multiplication_matrix(x))
        assert sparse_dense(got)[2, 1] == 0 and (2, 1) not in sparse_cells(got)
        assert sparse_dense(got)[1, 1] == 6

    def test_terms_that_vanish_at_their_first_cell(self):
        # over Z/9 with T^9 = 6T^3 + 6T^6, 3T sends T^8 to 18T^3 + 18T^6 = 0:
        # cells (3, 8) and (6, 8) get a first term of 0 in rows that already
        # hold the 3 of cells (3, 2) and (6, 5); 3T^8 sends T to 3T^9 = 0,
        # a first term of 0 in rows 3 and 6 before they hold anything
        spec = make_patch_ring(3, 2, 2, 1)
        want_cells = {(r + 1, r): 3 for r in range(8)}, {(8, 0): 3}
        for exps, want in zip(((1,), (8,)), want_cells):
            d = Matrix(spec, [[RingTowerElement(spec, {exps: 3})]])
            got = expand_scalars(d)
            assert np.array_equal(sparse_dense(got), dense_expand_scalars(d))
            assert sparse_cells(got) == want and all(got.rows.values())

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_reference(self, data):
        spec = data.draw(st.one_of(small_rings(qs=range(1, 4), max_rank=81), st.builds(
            coefficient_ring, st.sampled_from([2, 3, 5]), st.integers(1, 3))))
        rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        d = Matrix(spec, [[data.draw(ring_elements(spec)) for _ in range(cols)] for _ in range(rows)], cols)
        got, want = expand_scalars(d), dense_expand_scalars(d)
        assert got.shape == want.shape
        assert np.array_equal(sparse_dense(got), want)
        cells = sparse_cells(got)
        assert len(cells) == np.count_nonzero(want) and all(0 < x < spec.modulus for x in cells.values())
        assert all(got.rows.values())

    @pytest.mark.parametrize("spec", EXPANSION_SPECS, ids=lambda s: f"p{s.p}-m{s.m}-n{s.n}-q{s.q}")
    def test_free_module_actions_are_block_diagonal(self, spec):
        # ``_free_module`` writes I_rk (x) the table of each variable
        for rk in (1, 2, 3):
            module = _free_module(spec, rk, _variable_expansions(spec))
            assert len(module.actions) == spec.q
            for j, action in enumerate(module.actions):
                unit = tuple(int(i == j) for i in range(spec.q))
                want = np.kron(np.eye(rk, dtype=np.int64), dense_monomial_matrix(spec, unit))
                assert action.dtype == np.int64 and np.array_equal(action, want)

    def test_product_reduces_each_term(self):
        # int64 products of residues near 3^19 would wrap if summed unreduced
        spec = make_patch_ring(3, 19, 1, 1)
        N = spec.modulus
        x = RingTowerElement(spec, {(0,): N - 1, (1,): N - 2, (2,): N - 1})
        a = expand_scalars(Matrix(spec, [[x]]))
        assert all(0 < y < N for y in sparse_cells(a).values())
        # and its product, as the coordinates of a quotient whose kept rows
        # are its rows, each a summand of order N
        vec = np.full((3, 2), N - 1, dtype=np.int64)
        want = (sparse_dense(a).astype(object) @ vec.astype(object)) % N
        by_rows = [{j: int(y) for j, y in enumerate(row) if y} for row in sparse_dense(a)]
        assert np.array_equal(QuotientStructure(3, 19, 3, (19,) * 3, by_rows).coords(vec), want.astype(np.int64))


class TestDivisors:
    def test_cyclic_quotient(self):
        assert elementary_divisors(np.array([[2]]), 1, 2, 2) == (2,)

    def test_free_module(self):
        assert elementary_divisors(np.zeros((2, 0)), 2, 3, 2) == (9, 9)

    def test_smith_quotient_matches_divisors(self):
        rng = random.Random(4)
        for _ in range(60):
            t = rng.randrange(1, 4)
            s = rng.randrange(0, 4)
            p, m = rng.choice([(2, 2), (3, 2), (2, 3)])
            rel = np.array(
                [[rng.randrange(p**m) for _ in range(s)] for _ in range(t)]
            ).reshape(t, s)
            qs = smith_quotient(rel, t, p, m)
            assert qs.divisors() == elementary_divisors(rel, t, p, m) == reference_divisors(rel, t, p, m)
            for col in rel.T:
                c = qs.coords(col)
                assert not c.any()

    def test_multiplication_matrix_respects_relation(self):
        spec = make_patch_ring(2, 2, 1, 1)
        t = RingTowerElement.variable(spec, 0)
        mt = multiplication_matrix(t)
        # T^2 = 2T over this ring
        assert ((mt @ mt) % 4 == multiplication_matrix(t * t)).all()


def reference_smith(a: np.ndarray, ambient: int, p: int, m: int):
    """The rescanning Smith loop: first hit of a[k:, k:] % p^(v+1), full-height clears.

    Returns (pivot_vals, U, V) for comparison with ``smith_transforms``,
    whose transforms must match it bit for bit.
    """
    N = p**m
    a = a.astype(np.int64) % N
    U = np.eye(ambient, dtype=np.int64)
    V = np.eye(a.shape[1], dtype=np.int64)
    pivot_vals = []
    k = 0
    for v in range(m):
        pv = p**v
        while k < min(a.shape):
            hits = np.argwhere(a[k:, k:] % p ** (v + 1) != 0)
            if hits.size == 0:
                break
            i, j = int(hits[0][0]) + k, int(hits[0][1]) + k
            a[[k, i]] = a[[i, k]]
            U[[k, i]] = U[[i, k]]
            a[:, [k, j]] = a[:, [j, k]]
            V[:, [k, j]] = V[:, [j, k]]
            uinv = pow(int(a[k, k]) // pv, -1, N)
            a[k] = (a[k] * uinv) % N
            U[k] = (U[k] * uinv) % N
            t = a[k + 1 :, k] // pv
            a[k + 1 :] = (a[k + 1 :] - np.outer(t, a[k])) % N
            U[k + 1 :] = (U[k + 1 :] - np.outer(t, U[k])) % N
            t = a[k, k + 1 :] // pv
            a[:, k + 1 :] = (a[:, k + 1 :] - np.outer(a[:, k], t)) % N
            V[:, k + 1 :] = (V[:, k + 1 :] - np.outer(V[:, k], t)) % N
            pivot_vals.append(v)
            k += 1
    return tuple(pivot_vals), U, V


def reference_divisors(a: np.ndarray, ambient: int, p: int, m: int) -> tuple[int, ...]:
    """Divisor profile in Python integers, pivoting on a global minimum valuation.

    Such a pivot divides every entry, so clearing its column by row
    operations leaves a column clear that touches no other row: the
    quotient continues on the matrix without the pivot row and column.
    """
    N = p**m
    rows = [[int(x) % N for x in row] for row in a.tolist()]

    def val(x):
        return next(e for e in range(m) if x % p ** (e + 1))

    vals = []
    while True:
        hits = [(val(x), i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
        if not hits:
            break
        v, i, j = min(hits)
        uinv = pow(rows[i][j] // p**v, -1, N)
        for r, row in enumerate(rows):
            if r != i and row[j]:
                c = (row[j] // p**v) * uinv
                rows[r] = [(x - c * y) % N for x, y in zip(row, rows[i])]
        rows = [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(rows) if r != i]
        vals.append(v)
    return tuple(sorted([p**v for v in vals if v > 0] + [N] * (ambient - len(vals))))


def exact_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y in Python integers, one column update per nonzero entry of y."""
    out = np.zeros((x.shape[0], y.shape[1]), dtype=object)
    xo = x.astype(object)
    for k, j in zip(*np.nonzero(y)):
        out[:, j] += xo[:, k] * int(y[k, j])
    return out


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank over F_p, by elimination in Python integers."""
    a = a.astype(object) % p
    rank = 0
    for c in range(a.shape[1]):
        nz = [i for i in range(rank, a.shape[0]) if a[i, c]]
        if not nz:
            continue
        a[[rank, nz[0]]] = a[[nz[0], rank]]
        a[rank] = (a[rank] * pow(int(a[rank, c]), -1, p)) % p
        for i in np.nonzero(a[:, c])[0]:
            if i != rank:
                a[i] = (a[i] - a[i, c] * a[rank]) % p
        rank += 1
    return rank


def assert_smith_witness(a: np.ndarray, p: int, m: int) -> None:
    """U A V = diag(p^pivot_vals) mod p^m, U and V units, exponents non-decreasing."""
    N = p**m
    rows, cols = a.shape
    sd = smith_transforms(a, rows, p, m, track_v=True)
    d = np.zeros((rows, cols), dtype=object)
    for i, v in enumerate(sd.pivot_vals):
        d[i, i] = p**v
    assert ((exact_product(exact_product(smith_u(sd), a), smith_v(sd)) - d) % N == 0).all()
    assert rank_mod_p(smith_u(sd), p) == rows
    assert rank_mod_p(smith_v(sd), p) == cols
    assert list(sd.pivot_vals) == sorted(sd.pivot_vals)


def padded_expansion(p: int, m: int, n: int, seed: int) -> np.ndarray:
    """The scalar expansion of diag(T, 1), a companion block beside a
    unit block, with its rows and columns shuffled."""
    spec = make_patch_ring(p, m, n, 1)
    t = RingTowerElement.variable(spec, 0)
    one, zero = RingTowerElement.one(spec), RingTowerElement.zero(spec)
    a = sparse_dense(expand_scalars(Matrix(spec, [[t, zero], [zero, one]])))
    rng = np.random.default_rng(seed)
    return a[rng.permutation(a.shape[0])][:, rng.permutation(a.shape[1])]


@st.composite
def smith_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    N = p**m
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(0, 7))
    entries = st.integers(0, N - 1)
    kind = draw(st.sampled_from(["dense", "sparse", "scaled"]))
    if kind == "sparse":
        entries = st.one_of(st.just(0), st.just(0), st.just(0), entries)
    a = np.array(
        draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)),
        dtype=np.int64,
    ).reshape(rows, cols)
    if kind == "scaled":
        scales = draw(st.lists(st.integers(0, m), min_size=rows * cols, max_size=rows * cols))
        a = (a * p ** np.array(scales, dtype=np.int64).reshape(rows, cols)) % N
    return a, p, m


class TestSmithTransforms:
    @given(smith_inputs())
    @settings(max_examples=200, deadline=None)
    def test_witness_identity(self, case):
        a, p, m = case
        assert_smith_witness(a, p, m)

    @given(smith_inputs())
    @settings(max_examples=200, deadline=None)
    # a permuted padded expansion: almost every pivot row has one entry
    @example((padded_expansion(3, 2, 3, seed=0), 3, 2))
    # rows whose only entry is p times a unit: their pivots come at v > 0
    @example((np.array([[0, 6, 0], [3, 0, 0], [0, 0, 0], [0, 0, 12]]), 3, 3))
    # single-entry rows beside rows with several, at v = 0 and v = 1
    @example((np.array([[0, 0, 3, 0], [1, 2, 0, 4], [2, 0, 1, 3]]), 5, 2))
    @example((np.array([[0, 5, 0], [1, 2, 3], [0, 0, 10], [5, 0, 0]]), 5, 2))
    @example((np.array([[6]]), 2, 3))
    @example((np.zeros((3, 0), dtype=np.int64), 3, 2))
    # 1 x 486 rows, the shape of a padded Nakayama base: one entry p, whose
    # pivot comes at v = 1, and one unit other than 1, which scales U
    @example((np.eye(1, 486, 17, dtype=np.int64) * 3, 3, 2))
    @example((np.eye(1, 486, 485, dtype=np.int64) * 5, 3, 2))
    def test_matches_reference_loop(self, case):
        a, p, m = case
        rows = a.shape[0]
        pivot_vals, U, V = reference_smith(a, rows, p, m)
        for given_as in (a, sparse_of(a, p**m)):
            sd = smith_transforms(given_as, rows, p, m, track_v=True)
            assert sd.pivot_vals == pivot_vals
            assert np.array_equal(smith_u(sd), U)
            assert np.array_equal(smith_v(sd), V)
        assert elementary_divisors(a, rows, p, m) == reference_divisors(a, rows, p, m)

    def test_bookkeeping_follows_the_nonzeros(self):
        # one nonzero in a 1 x 100,000 row: U, V and the column index
        # hold only what the one pivot touches, not a dict or set per index
        a = SparseMatrix((1, 100_000), {0: {99_998: 5}})
        tracemalloc.start()
        try:
            sd = smith_transforms(a, 1, 3, 2, track_v=True)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 1.0, f"{peak:.1f} MiB"
        assert sd.pivot_vals == (0,) and sd.u_row(0) == {0: 2}
        assert sd.v_col(0) == {99_998: 1} and sd.v_col(99_998) == {0: 1} and sd.v_col(5) == {5: 1}

    def test_padded_level_five_differential(self):
        # diag(T, 1) over (Z/9)[T]/((1+T)^243 - 1) expands to 486 x 486
        spec = make_patch_ring(3, 2, 5, 1)
        t = RingTowerElement.variable(spec, 0)
        one, zero = RingTowerElement.one(spec), RingTowerElement.zero(spec)
        a = expand_scalars(Matrix(spec, [[t, zero], [zero, one]]))
        assert (a.shape, len(sparse_cells(a))) == ((486, 486), 487)
        assert_smith_witness(sparse_dense(a), 3, 2)


def reference_quotient(pivot_vals, U: np.ndarray, p: int, m: int):
    """(exponents, projection) read from a dense U: the rows of the
    pivots of positive exponent and every row past the pivots."""
    kept = [i for i, v in enumerate(pivot_vals) if v > 0] + list(range(len(pivot_vals), U.shape[0]))
    exponents = tuple(pivot_vals[i] if i < len(pivot_vals) else m for i in kept)
    return exponents, U[kept] % p**m


def reference_column_kernel(pivot_vals, V: np.ndarray, p: int, m: int) -> np.ndarray:
    """Kernel columns read from a dense V: column i times p^(m - v) for
    each pivot of exponent v > 0, and every column past the pivots."""
    N = p**m
    cols = [V[:, i] * p ** (m - v) % N for i, v in enumerate(pivot_vals) if v > 0]
    cols += [V[:, i] % N for i in range(len(pivot_vals), V.shape[1])]
    return np.array(cols, dtype=np.int64).reshape(len(cols), V.shape[0]).T


def sparse_of(a: np.ndarray, N: int) -> SparseMatrix:
    """The nonzero entries of a dense array, as a ``SparseMatrix`` of row dicts."""
    return SparseMatrix.of_rows(row_dicts(a, N), a.shape[1])


def assert_matches_reference(a: np.ndarray, p: int, m: int) -> None:
    """``smith_transforms`` on a dense array and on its sparse form
    against the dense reference loop."""
    rows = a.shape[0]
    pivot_vals, U, V = reference_smith(a, rows, p, m)
    exponents, projection = reference_quotient(pivot_vals, U, p, m)
    sparse = sparse_of(a, p**m)
    before = sparse_cells(sparse)
    for track_v, given_as in itertools.product((True, False), (a, sparse)):
        sd = smith_transforms(given_as, rows, p, m, track_v=track_v)
        # the kernel works on copies of its input's row dicts
        assert sparse_cells(sparse) == before
        assert sd.pivot_vals == pivot_vals
        assert np.array_equal(smith_u(sd), U)
        qs = sd.quotient()
        assert qs.exponents == exponents
        assert np.array_equal(qs.projection, projection)
        if track_v:
            assert np.array_equal(smith_v(sd), V)
            assert np.array_equal(dense_column_kernel(sd), reference_column_kernel(pivot_vals, V, p, m))
        else:
            assert smith_v(sd) is None


class TestSmithAtRealShapes:
    """The kernel against the dense reference loop on scalar expansions
    of random patch-ring differentials, where the sparse rows, the
    column index and the forward-only cursor all do real work."""

    @pytest.mark.parametrize(
        "spec, shapes",
        [
            (make_patch_ring(3, 2, 2, 2), [(162, 81), (81, 162), (162, 81)]),
            (make_patch_ring(3, 3, 1, 2), [(18, 9), (9, 9), (9, 9), (9, 18)]),
            (make_patch_ring(2, 3, 2, 1), [(8, 4), (4, 8), (4, 4), (8, 8)]),
        ],
        ids=["3^2-rho81", "3^3-rho9", "2^3-rho4"],
    )
    def test_expanded_differentials(self, spec, shapes):
        rng = random.Random(7)
        diffs: list[Matrix] = []
        while len(diffs) < len(shapes):
            diffs += random_patch_complex(rng, spec).diffs
        mats = [expand_scalars(d) for d in diffs[: len(shapes)]]
        assert [a.shape for a in mats] == shapes
        N = spec.modulus
        for sparse, d in zip(mats, diffs):
            a = sparse_dense(sparse)
            assert np.array_equal(a, dense_expand_scalars(d))
            # the expansion itself, as the cohomology path hands it over
            want = smith_transforms(a, a.shape[0], spec.p, spec.m, track_v=True)
            got = smith_transforms(sparse, a.shape[0], spec.p, spec.m, track_v=True)
            assert got.pivot_vals == want.pivot_vals
            assert np.array_equal(smith_u(got), smith_u(want)) and np.array_equal(smith_v(got), smith_v(want))
            assert_matches_reference(a, spec.p, spec.m)
            # a multiple of p puts every pivot past layer 0
            assert_matches_reference(a * spec.p % N, spec.p, spec.m)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)], ids=["0x5", "5x0", "0x0"])
    def test_empty_inputs(self, shape):
        assert_matches_reference(np.zeros(shape, dtype=np.int64), 3, 2)


class TestOverflowGuard:
    @pytest.mark.parametrize("p, m", [(3, 25), (65521, 2)], ids=["3^25", "65521^2"])
    def test_refuses_moduli_past_int64(self, p, m):
        a = np.array([[1, 2], [3, 4]], dtype=np.int64)
        with pytest.raises(InvalidParameter):
            howell_core(a, p, m)
        with pytest.raises(InvalidParameter):
            smith_transforms(a, 2, p, m)
        with pytest.raises(InvalidParameter):
            elementary_divisors(a, 2, p, m)

    @pytest.mark.parametrize("p, m", [(3, 19), (2, 31)], ids=["3^19", "2^31"])
    def test_largest_moduli_keep_witness_identities(self, p, m):
        N = p**m
        rng = random.Random(19)
        for _ in range(20):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            a = np.array(
                [[rng.randrange(N) * p ** rng.randrange(3) % N for _ in range(cols)] for _ in range(rows)],
                dtype=np.int64,
            )
            core = howell_core(a, p, m)
            h = core.howell_rows().astype(object)
            assert ((exact_product(transform_rows(core), a) - h) % N == 0).all()
            assert_smith_witness(a, p, m)




def straddling_moduli(bound: int, width: int) -> tuple[int, int]:
    """The largest N with width * (N - 1)^2 < bound, and N + 1."""
    below = math.isqrt((bound - 1) // width) + 1
    return below, below + 1


@st.composite
def product_cases(draw):
    width = draw(st.sampled_from([0, 1, 2, 3, 7, 16]))
    if width and draw(st.booleans()):
        bound = draw(st.sampled_from([2**24, 2**53, 2**63]))
        N = draw(st.sampled_from(straddling_moduli(bound, width)))
    else:
        N = draw(st.sampled_from([2, 9, 3**19, 3**25, 65521**2]))
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    entry = st.one_of(
        st.integers(-3 * N, 3 * N),
        st.integers(INT64_MIN, INT64_MAX),
        st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
    )
    if draw(st.booleans()):
        # every entry is -1 mod N, so the product reaches width * (N - 1)^2
        entry = st.sampled_from([-1, N - 1, 2 * N - 1, -N - 1])

    def matrix(r, c):
        return np.array(draw(st.lists(entry, min_size=r * c, max_size=r * c)), dtype=np.int64).reshape(r, c)

    return matrix(rows, width), matrix(width, cols), N


class TestMatmulMod:
    @given(product_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_python_integers(self, case):
        a, b, N = case
        got = matmul_mod(a, b, N)
        assert got.dtype == np.int64
        assert got.shape == (a.shape[0], b.shape[1])
        assert np.array_equal(got, (a.astype(object) @ b.astype(object)) % N)

    @pytest.mark.parametrize("width", [1, 2, 3, 7])
    def test_largest_partial_sums_at_the_float32_threshold(self, width):
        for N in straddling_moduli(2**24, width):
            a = np.full((2, width), -1, dtype=np.int64)
            b = np.full((width, 3), N - 1, dtype=np.int64)
            assert np.array_equal(matmul_mod(a, b, N), np.full((2, 3), width % N, dtype=np.int64))

    @pytest.mark.parametrize("shape_a, shape_b", [((0, 3), (3, 0)), ((3, 0), (0, 2)), ((0, 0), (0, 0))])
    @pytest.mark.parametrize("N", [9, 3**25, 65521**2])
    def test_empty_shapes(self, shape_a, shape_b, N):
        got = matmul_mod(np.zeros(shape_a, dtype=np.int64), np.zeros(shape_b, dtype=np.int64), N)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.zeros((shape_a[0], shape_b[1]), dtype=np.int64))

    def test_vector_operands(self):
        a = np.array([[INT64_MAX, -5], [3, INT64_MIN]], dtype=np.int64)
        x = np.array([INT64_MIN, 7], dtype=np.int64)
        N = 3**25
        assert np.array_equal(matmul_mod(a, x, N), (a.astype(object) @ x.astype(object)) % N)
        assert np.array_equal(matmul_mod(x, a, N), (x.astype(object) @ a.astype(object)) % N)


@st.composite
def quotient_cases(draw):
    """A Smith input of any shape, empty ones included, and a vector or a
    2-d block of columns of any int64 entries to take coordinates of;
    some blocks lie in the column span."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    N = p**m
    ambient = draw(st.integers(0, 6))
    s = draw(st.integers(0, 6))
    flat = draw(st.lists(st.integers(0, N - 1), min_size=ambient * s, max_size=ambient * s))
    scales = draw(st.lists(st.integers(0, m), min_size=ambient * s, max_size=ambient * s))
    a = np.array(flat, dtype=np.int64).reshape(ambient, s) * p ** np.array(scales, dtype=np.int64).reshape(ambient, s) % N
    k = draw(st.one_of(st.none(), st.integers(0, 4)))

    def block(rows, entry):
        shape = (rows,) if k is None else (rows, k)
        size = math.prod(shape)
        return np.array(draw(st.lists(entry, min_size=size, max_size=size)), dtype=np.int64).reshape(shape)

    if s and draw(st.booleans()):
        # a span element, shifted by a multiple of N
        x = (a @ block(s, st.integers(0, N - 1))) % N + N * draw(st.integers(-2, 2))
    else:
        x = block(ambient, st.one_of(st.integers(-3 * N, 3 * N), st.integers(INT64_MIN, INT64_MAX)))
    return a, x, p, m


class TestSparseQuotientCoords:
    """``QuotientStructure.coords`` and ``embed_rows`` against the dense
    gather-and-``matmul_mod`` path they replaced."""

    @given(quotient_cases())
    @settings(max_examples=300, deadline=None)
    def test_match_dense_reference(self, case):
        a, x, p, m = case
        qs = smith_quotient(a, a.shape[0], p, m)
        got = qs.coords(x)
        assert got.dtype == np.int64
        assert got.shape == (qs.summands,) + x.shape[1:]
        assert np.array_equal(got, reference_coords(qs, x))
        if x.ndim == 2:
            assert np.array_equal(embed_dense(qs, x), reference_embed(qs, x))
        if a.shape[1]:
            assert not qs.coords(a).any()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)], ids=["0x3", "3x0", "0x0"])
    def test_empty_shapes(self, shape):
        ambient = shape[0]
        qs = smith_quotient(np.zeros(shape, dtype=np.int64), ambient, 3, 2)
        assert qs.summands == ambient
        for x in (np.arange(ambient) - 5, np.arange(2 * ambient).reshape(ambient, 2) + 7, np.zeros((ambient, 0))):
            got = qs.coords(x)
            assert got.shape == (ambient,) + x.shape[1:]
            assert np.array_equal(got, reference_coords(qs, x))
            if x.ndim == 2:
                assert np.array_equal(embed_dense(qs, x), reference_embed(qs, x))

    def test_rows_without_terms(self):
        qs = QuotientStructure(3, 2, 3, (2, 1, 2), [{}, {1: 4}, {}])
        x = np.array([[5, -1], [7, 20], [8, 9]], dtype=np.int64)
        assert np.array_equal(qs.coords(x), reference_coords(qs, x))
        assert np.array_equal(embed_dense(qs, x), reference_embed(qs, x))
        assert np.array_equal(qs.coords(x[:, 1]), reference_coords(qs, x[:, 1]))

    @pytest.mark.parametrize("p, m", [(3, 19), (2**31 - 1, 1)], ids=["3^19", "(2^31-1)^1"])
    def test_full_rows_at_the_largest_moduli(self, p, m):
        # 32 terms of about (N - 1)^2 each: a row sum taken before reducing
        # each term would pass 2^63, and so would an unreduced row sum of
        # 3^19 scaled by 3^18 into the summand of order 3
        N = p**m
        width = 32
        assert width * (N - 17) ** 2 > INT64_MAX
        rows = [{j: N - 1 - (i + j) % 5 for j in range(width)} for i in range(3)]
        exponents = (m, 1, m)
        qs = QuotientStructure(p, m, width, exponents, rows)
        # the last column keeps each reduced term near N, and so the sum
        x = np.array([[N - 1 - (j * k) % 7 for k in range(3)] + [1 + j % 2] for j in range(width)], dtype=np.int64)
        exact = (qs.projection.astype(object) @ x.astype(object)) % N
        coords = np.array([exact[i] % p**e for i, e in enumerate(exponents)], dtype=np.int64)
        embedded = np.array([exact[i] * p ** (m - e) % N for i, e in enumerate(exponents)], dtype=np.int64)
        for shift in (0, -N, N, -2 * N):
            assert np.array_equal(qs.coords(x + shift), coords)
            assert np.array_equal(qs.coords(x[:, 0] + shift), coords[:, 0])
            assert np.array_equal(embed_dense(qs, x + shift), embedded)
        rng = random.Random(31)
        a = np.array([[rng.randrange(N) for _ in range(4)] for _ in range(7)], dtype=np.int64)
        a[:, 3] = a[:, 0] * p % N
        real = smith_quotient(a, 7, p, m)
        y = np.array([[N - 1 - rng.randrange(3) for _ in range(3)] for _ in range(7)], dtype=np.int64)
        assert np.array_equal(real.coords(y), reference_coords(real, y))
        assert np.array_equal(embed_dense(real, y), reference_embed(real, y))
        assert not real.coords(a).any()


@st.composite
def solve_cases(draw):
    """A matrix over Z/p^m and right-hand sides, most of them in its row span."""
    a, p, m = draw(smith_inputs())
    N = p**m
    rows, cols = a.shape
    residues = st.lists(st.integers(0, N - 1), min_size=rows, max_size=rows)
    rhs = []
    for _ in range(draw(st.integers(0, 5))):
        x = np.array(draw(residues), dtype=np.int64)
        b = (x @ a) % N
        if draw(st.integers(0, 4)) == 0:
            b = (b + np.array(draw(st.lists(st.integers(0, N - 1), min_size=cols, max_size=cols)), dtype=np.int64)) % N
        rhs.append(b)
    return a, np.array(rhs, dtype=np.int64).reshape(len(rhs), cols), p, m


class TestBatchedSolve:
    @given(solve_cases())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_one_column_solves(self, case):
        a, rhs, p, m = case
        core = howell_core(a, p, m)
        one_by_one = [reference_solve(core, b) for b in rhs]
        for b, want in zip(rhs, one_by_one):
            got = dense_solve(core, b)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)
        got = dense_solve(core, rhs)
        if any(x is None for x in one_by_one):
            assert got is None
        else:
            assert np.array_equal(got, np.array(one_by_one, dtype=np.int64).reshape(got.shape))
            assert np.array_equal(matmul_mod(got, a, p**m), rhs)

    def test_one_unsolvable_row_refuses_the_batch(self):
        # over Z/9, [1, 0] is outside the row span of [[3, 0], [0, 1]]
        core = howell_core(np.array([[3, 0], [0, 1]], dtype=np.int64), 3, 2)
        rhs = np.array([[3, 2], [6, 0], [1, 0]], dtype=np.int64)
        assert dense_solve(core, rhs[:2]).tolist() == [[1, 2], [2, 0]]
        assert dense_solve(core, rhs[2]) is None
        assert dense_solve(core, rhs) is None
