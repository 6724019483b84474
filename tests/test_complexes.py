import contextlib
import functools
import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchtower import complexes
from patchtower.complexes import (
    FiniteModuleData,
    cohomology,
    direct_sum,
    dual,
    empty_complex,
    koszul_complex,
    make_complex,
    minimize,
    tau_profile,
    tensor_along,
)
from patchtower.errors import ExpansionTooLarge, NotAComplex, ShapeMismatch, SpecMismatch, UnsupportedRing
from patchtower.linalg import MAX_EXPANDED_CELLS, Matrix, _dense_rows, _monomial_expansion, smith_quotient
from patchtower.rings import (
    RingTowerElement,
    coefficient_ring,
    graded_ring,
    make_patch_ring,
)
from patchtower.scenarios import ScenarioParams, _level_data, _limit_complex, _pad_contractible, gen_scenario
from patchtower.serialize import complex_from_obj, complex_to_obj
from util import (
    SMALL_PATCH_SPECS,
    Admitted,
    dense_solve,
    dense_variable_actions,
    euler_characteristic,
    fingerprint,
    howell_core,
    howell_reduce,
    random_patch_complex,
    reference_all_cohomology,
    reference_direct_sum,
    reference_solve,
    row_dicts,
    size_checks,
    table_dense,
    tall_complex,
)

F3T = make_patch_ring(3, 1, 1, 1)
T = RingTowerElement.variable(F3T, 0)
ONE = RingTowerElement.one(F3T)
ZERO = RingTowerElement.zero(F3T)


def single(spec, x):
    return Matrix(spec, [[x]])


class TestValidation:
    def test_non_complex_rejected(self):
        with pytest.raises(NotAComplex):
            make_complex(F3T, 0, [1, 1, 1], [single(F3T, T), single(F3T, T)])

    def test_square_zero_accepted(self):
        c = make_complex(F3T, 0, [1, 1, 1], [single(F3T, T * T), single(F3T, T)])
        assert c.ranks == (1, 1, 1)

    def test_empty_complex(self):
        c = empty_complex(F3T)
        assert c.is_empty() and euler_characteristic(c) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            make_complex(F3T, 0, [1, 2], [single(F3T, T)])


class TestMinimize:
    def test_identity_is_contractible(self):
        c = make_complex(F3T, 0, [1, 1], [single(F3T, ONE)])
        assert minimize(c).is_empty()

    def test_unit_pivot_cancellation(self):
        d = Matrix(F3T, [[ONE, ZERO], [ZERO, T]])
        c = make_complex(F3T, 0, [2, 2], [d])
        m = minimize(c)
        assert m.ranks == (1, 1)
        assert m.diffs[0].entries == ((T,),)

    def test_already_minimal_unchanged(self):
        c = make_complex(F3T, 0, [1, 1], [single(F3T, T)])
        assert minimize(c) == c

    def test_minimize_idempotent_bit_exact(self):
        rng = random.Random(0)
        for spec in SMALL_PATCH_SPECS:
            for _ in range(6):
                c = random_patch_complex(rng, spec)
                m = minimize(c)
                assert minimize(m) == m

    def test_euler_characteristic_preserved(self):
        rng = random.Random(1)
        for spec in SMALL_PATCH_SPECS[:2]:
            for _ in range(8):
                c = random_patch_complex(rng, spec)
                assert euler_characteristic(minimize(c)) == euler_characteristic(c)


def shape(a: Matrix) -> tuple[int, int]:
    return a.rows, a.cols


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
class TestEmptyShapes:
    """A matrix without rows or columns keeps both dimensions."""

    def test_matrix_operations(self, rows, cols):
        a = Matrix.zero(F3T, rows, cols)
        assert shape(a) == (rows, cols)
        assert shape(a.transpose()) == (cols, rows)
        assert shape(a.transpose().transpose()) == (rows, cols)
        assert shape(a @ Matrix.zero(F3T, cols, 2)) == (rows, 2)
        assert shape(Matrix.zero(F3T, 2, rows) @ a) == (2, cols)
        assert shape(a.map_entries(lambda x: x + ONE)) == (rows, cols)

    def test_direct_sum_with_rank_zero_degree(self, rows, cols):
        a = make_complex(F3T, 0, [cols, rows], [Matrix.zero(F3T, rows, cols)])
        b = make_complex(F3T, -1, [1], [])
        s = direct_sum(a, b)
        assert s.lo == -1 and s.ranks == (1, cols, rows)
        assert [shape(d) for d in s.diffs] == [(cols, 1), (rows, cols)]
        assert direct_sum(a, b, empty_complex(F3T), a) == reference_direct_sum(reference_direct_sum(a, b), a)

    def test_minimize_leaves_rank_zero_inner_degree(self, rows, cols):
        # one unit pivot in the middle cancels a rank from degrees 1 and
        # 2; every other entry is zero, so the ends keep rank 1
        pivot = Matrix(F3T, [[ONE if i == j == 0 else ZERO for j in range(cols + 1)] for i in range(rows + 1)])
        c = make_complex(
            F3T, 0, [1, cols + 1, rows + 1, 1],
            [Matrix.zero(F3T, cols + 1, 1), pivot, Matrix.zero(F3T, 1, rows + 1)],
        )
        m = minimize(c)
        assert m.ranks == (1, cols, rows, 1)
        assert [shape(d) for d in m.diffs] == [(cols, 1), (rows, cols), (1, rows)]
        assert complex_from_obj(complex_to_obj(m)) == m


class TestTau:
    def test_single_free_module(self):
        c = make_complex(F3T, 0, [1], [])
        prof = tau_profile(c)
        assert prof.taus == {0: 1} and prof.amplitude == 0 and prof.d_plus == 0

    def test_cancellation_profile(self):
        d = Matrix(F3T, [[ONE, ZERO], [ZERO, T]])
        c = make_complex(F3T, 0, [2, 2], [d])
        prof = tau_profile(c)
        assert prof.taus == {0: 1, 1: 1} and prof.amplitude == 1

    def test_zero_complex_profile_empty(self):
        prof = tau_profile(empty_complex(F3T))
        assert prof.is_zero() and prof.amplitude is None


class TestCohomology:
    def test_multiplication_by_t(self):
        c = make_complex(F3T, 0, [1, 1], [single(F3T, T)])
        h0, h1 = cohomology(c, 0), cohomology(c, 1)
        assert h0.divisors() == (3,) and h0.cardinality() == 3
        assert h1.divisors() == (3,) and h1.cardinality() == 3

    def test_zero_differential(self):
        c = make_complex(F3T, 0, [1, 1], [Matrix.zero(F3T, 1, 1)])
        assert cohomology(c, 0).cardinality() == 27
        assert cohomology(c, 1).cardinality() == 27

    def test_identity_differential(self):
        # an exact complex: inside and outside its degrees the cohomology is
        # the zero module, carrying one 0 x 0 action per ring variable
        zero = np.zeros((0, 0), dtype=np.int64)
        for spec in (F3T, make_patch_ring(3, 1, 1, 2)):
            c = make_complex(spec, 0, [1, 1], [single(spec, RingTowerElement.one(spec))])
            for deg in (-1, 0, 1, 2):
                h = cohomology(c, deg)
                assert isinstance(h, FiniteModuleData)
                assert h.gens == 0 and h.relations.shape == (0, 0) and h.cardinality() == 1
                assert len(h.actions) == spec.q
                assert all(np.array_equal(a, zero) for a in h.actions)
            # the generator writes g zero-size action matrices per degree
            x_actions, top = _level_data(ScenarioParams(p=3, q=spec.q, r=0, d=1), c)
            assert set(x_actions) == {0, 1} and top.gens == 0
            for xs in x_actions.values():
                assert len(xs) == spec.q and all(np.array_equal(x, zero) for x in xs)

    def test_graded_rejected(self):
        g = graded_ring(3, 1)
        c = make_complex(g, 0, [1], [])
        with pytest.raises(UnsupportedRing):
            cohomology(c, 0)

    def test_quasi_isomorphism_invariance(self):
        rng = random.Random(7)
        for spec in SMALL_PATCH_SPECS:
            for _ in range(5):
                c = random_patch_complex(rng, spec)
                m = minimize(c)
                for deg in range(c.lo - 1, c.hi + 2):
                    a = cohomology(c, deg)
                    b = cohomology(m, deg)
                    assert fingerprint(a) == fingerprint(b), (spec, deg)

    def test_nakayama_top_degree(self):
        # the top nonzero entry of the rank profile is the top nonzero cohomology
        rng = random.Random(13)
        for spec in SMALL_PATCH_SPECS[:2]:
            for _ in range(10):
                c = random_patch_complex(rng, spec)
                prof = tau_profile(c)
                tops = [deg for deg in c.degrees if cohomology(c, deg).cardinality() > 1]
                if prof.is_zero():
                    assert not tops
                else:
                    assert tops and max(tops) == prof.d_plus


def reference_nakayama_choice(ek2: np.ndarray, p: int, m: int) -> list[int]:
    """The greedy selection loop: keep column l when a Howell form of the
    columns kept so far does not reduce it to zero, then rebuild the form.

    ``complexes._nakayama_choice`` must pick the same columns.
    """
    chosen: list[int] = []
    rows: list[np.ndarray] = []
    core = None
    for l in range(ek2.shape[1]):
        w = ek2[:, l]
        rem = howell_reduce(core, w) if core is not None else w
        if not rem.any():
            continue
        chosen.append(l)
        rows.append(w)
        core = howell_core(np.array(rows), p, m, carry=False)
    return chosen


@st.composite
def p_torsion_columns(draw):
    """p^(m-1) * X with X mod p, some columns zero or copies of earlier ones."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 8))
    x = np.array(
        draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)),
        dtype=np.int64,
    ).reshape(rows, cols)
    for l in range(cols):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy"]))
        if kind == "zero":
            x[:, l] = 0
        elif kind == "copy" and l:
            x[:, l] = x[:, draw(st.integers(0, l - 1))]
    return (x * p ** (m - 1)) % p**m, p, m


NAKAYAMA_SPECS = SMALL_PATCH_SPECS + [
    make_patch_ring(5, 1, 1, 1),
    make_patch_ring(3, 2, 1, 1),
    make_patch_ring(2, 3, 1, 1),
]


# q = 2 with m >= 2 pins the block order of I_rk (x) C_j in the actions
FREE_SPECS = NAKAYAMA_SPECS + [make_patch_ring(2, 2, 1, 2), make_patch_ring(3, 2, 1, 2)]


class TestNakayamaChoice:
    @given(p_torsion_columns())
    @settings(max_examples=300, deadline=None)
    def test_matches_greedy_loop(self, case):
        ek2, p, m = case
        got = complexes._nakayama_choice(row_dicts(ek2, p**m), ek2.shape[1], p, m)
        assert got == reference_nakayama_choice(ek2, p, m)

    @given(st.sampled_from(NAKAYAMA_SPECS), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_greedy_loop_inside_cohomology(self, spec, seed):
        seen = []
        real = complexes._nakayama_choice

        def checked(ek2, count, p, m):
            got = real(ek2, count, p, m)
            assert got == reference_nakayama_choice(_dense_rows(ek2, count), p, m)
            seen.append(got)
            return got

        c = random_patch_complex(random.Random(seed), spec, max_rank=3)
        with mock.patch.object(complexes, "_nakayama_choice", checked):
            complexes._all_cohomology(c)
        # a free degree, with no differential in or out, is built directly
        bordered = [
            deg
            for deg in c.degrees
            if c.rank(deg) and any(d.rows and d.cols for d in (c.differential(deg - 1), c.differential(deg)))
        ]
        assert len(seen) == len(bordered)

    @pytest.mark.parametrize("p, m", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])
    def test_refuses_input_not_killed_by_p(self, p, m):
        ek2 = np.zeros((2, 3), dtype=np.int64)
        ek2[1, 2] = p ** (m - 2)
        with pytest.raises(AssertionError):
            complexes._nakayama_choice(row_dicts(ek2, p**m), ek2.shape[1], p, m)


def reference_variable_actions(mults, gens, rk, embed, solver, N):
    """The block-diagonal product and one-column solve loop:
    ``complexes._variable_actions`` must give the same matrices."""
    g = gens.shape[1]
    actions = []
    for mult in mults:
        if not g:
            actions.append(np.zeros((0, 0), dtype=np.int64))
            continue
        big = np.kron(np.eye(rk, dtype=np.int64), mult)
        targets = embed((big @ gens) % N)
        cols = [reference_solve(solver, targets[:, l])[:g] for l in range(g)]
        actions.append(np.array(cols, dtype=np.int64).T % N)
    return actions


class TestVariableActions:
    @pytest.mark.parametrize("spec", NAKAYAMA_SPECS, ids=lambda s: f"p{s.p}-m{s.m}-n{s.n}-q{s.q}")
    def test_match_block_product_and_column_loop(self, spec):
        seen = []
        ranks = []  # of the degrees still to reach ``_variable_actions``
        real = complexes._variable_actions

        def checked(mults, gens, embed, solver):
            got = real(mults, gens, embed, solver)
            rk = ranks.pop(0)

            def dense_embed(x):
                # ``embed`` on the rows of x, scattered dense
                rows = {c: {k: int(y) for k, y in enumerate(row) if y} for c, row in enumerate(x % spec.modulus)}
                out = np.zeros((solver.active, x.shape[1]), dtype=np.int64)
                for i, row in embed(rows).items():
                    out[i, list(row)] = list(row.values())
                return out

            dense = [table_dense(table) for table in mults]
            embed_, gens = dense_embed, _dense_rows(gens, rk * spec.coefficient_rank).T
            want = reference_variable_actions(dense, gens, rk, embed_, solver, spec.modulus)
            assert len(got) == len(want) == spec.q
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
            # and the dense product of the moved reference copy
            copied = dense_variable_actions(dense, gens, rk, embed_, lambda b: dense_solve(solver, b), spec.modulus)
            assert all(np.array_equal(x, y) for x, y in zip(got, copied))
            seen.append((rk, gens.shape[1]))
            return got

        with mock.patch.object(complexes, "_variable_actions", checked):
            for seed in range(10):
                c = random_patch_complex(random.Random(seed), spec, max_rank=3)
                # every degree of nonzero rank with a differential in or out, in order
                ranks[:] = [
                    c.rank(deg)
                    for deg in c.degrees
                    if c.rank(deg) and any(d.rows and d.cols for d in (c.differential(deg - 1), c.differential(deg)))
                ]
                complexes._all_cohomology(c)
                assert not ranks
        # blocks are reshaped only when a degree has rank >= 2
        assert any(rk >= 2 and g for rk, g in seen)


def test_cohomology_leaves_the_memo_tables_unchanged():
    # the table of T is read by the expansion of a differential entry T and
    # by the action of T; neither the Smith kernel nor the actions may
    # change it, so a second run gives the same modules
    spec = make_patch_ring(3, 2, 2, 1)
    t, one, zero = (RingTowerElement.variable(spec, 0), RingTowerElement.one(spec), RingTowerElement.zero(spec))
    table = _monomial_expansion(spec, (1,))
    before = table_dense(table)
    complexes_ = [
        make_complex(spec, 0, [1, 1], [Matrix(spec, [[t]])]),
        make_complex(spec, 0, [2, 2], [Matrix(spec, [[t, zero], [zero, one]])]),
    ]
    first = [complexes._all_cohomology(c) for c in complexes_]
    assert _monomial_expansion(spec, (1,)) is table and np.array_equal(table_dense(table), before)
    second = [complexes._all_cohomology(c) for c in complexes_]
    assert np.array_equal(table_dense(table), before)
    for a, b in zip(first, second):
        assert a.keys() == b.keys()
        for deg in a:
            x, y = a[deg], b[deg]
            assert (x.p, x.m, x.gens) == (y.p, y.m, y.gens)
            assert np.array_equal(x.relations, y.relations)
            assert len(x.actions) == len(y.actions) and all(map(np.array_equal, x.actions, y.actions))
    # T on the 9 coordinates of one block: H^1 of [[T]] is (Z/9)[T]/(T), one generator
    assert first[0][1].gens == 1


class TestSparseQuotientsInCohomology:
    """Every quotient coordinate of cohomology (the embedding into the
    incoming differential's quotient and the Nakayama step) against the
    dense projection products of ``util.reference_all_cohomology``."""

    @pytest.mark.parametrize("spec", NAKAYAMA_SPECS, ids=lambda s: f"p{s.p}-m{s.m}-n{s.n}-q{s.q}")
    def test_random_complexes_match_dense_path(self, spec):
        nakayama = []
        real = complexes.smith_quotient

        def counted(*args):
            nakayama.append(args[1])
            return real(*args)

        for seed in range(12):
            c = random_patch_complex(random.Random(seed), spec, max_rank=3)
            with mock.patch.object(complexes, "smith_quotient", counted):
                got = complexes._all_cohomology(c)
            assert_same_modules(got, reference_all_cohomology(c))
        # the Nakayama quotient runs whenever p does not kill the kernel
        assert nakayama or spec.m == 1

    @pytest.mark.parametrize("spec", FREE_SPECS, ids=lambda s: f"p{s.p}-m{s.m}-n{s.n}-q{s.q}")
    def test_free_degrees_match_dense_path(self, spec):
        # one-term complexes, a free degree beside a rank-zero one, and a
        # free degree next to (or summed into) a random complex
        for rk in (1, 2, 3):
            c = make_complex(spec, 0, [rk], [])
            assert_same_modules(complexes._all_cohomology(c), reference_all_cohomology(c))
            c = make_complex(spec, -1, [0, rk, 0], [Matrix.zero(spec, rk, 0), Matrix.zero(spec, 0, rk)])
            assert_same_modules(complexes._all_cohomology(c), reference_all_cohomology(c))
        for seed in range(6):
            rng = random.Random(seed)
            one = make_complex(spec, rng.randrange(-1, 5), [rng.randrange(1, 4)], [])
            c = direct_sum(random_patch_complex(rng, spec, max_rank=3), one)
            assert_same_modules(complexes._all_cohomology(c), reference_all_cohomology(c))

    @pytest.mark.parametrize("spec", FREE_SPECS, ids=lambda s: f"p{s.p}-m{s.m}-n{s.n}-q{s.q}")
    def test_free_degree_needs_no_elimination(self, spec):
        rk = 3
        amb = rk * spec.coefficient_rank

        def refuse(*_, **__):
            raise AssertionError("a free degree reached the elimination path")

        c = make_complex(spec, 0, [rk], [])
        with (
            identity_sizes() as eyes,
            mock.patch.object(complexes, "smith_quotient", refuse),
            mock.patch.object(complexes, "_nakayama_choice", refuse),
            mock.patch.object(complexes, "HowellCore", refuse),
        ):
            module = complexes._all_cohomology(c)[0]
        assert amb not in eyes
        assert (module.gens, module.relations.shape) == (amb, (amb, 0))

    def test_oversized_free_degree_is_refused_before_allocation(self):
        # over the q=2 level-2 ring (rho = 81) rank 60 needs 2 x 4860^2
        # action cells, inside 4 x MAX_EXPANDED_CELLS; rank 90 needs 2 x 7290^2
        spec = make_patch_ring(3, 2, 2, 2)
        with identity_sizes() as eyes, pytest.raises(ExpansionTooLarge, match="rank 90 "):
            complexes._all_cohomology(make_complex(spec, 0, [90], []))
        # neither the rank-90 identity of the Kronecker products nor an
        # ambient 7290 x 7290 one was made
        assert not {90, 90 * 81} & set(eyes)
        assert 2 * (60 * 81) ** 2 + 60**2 <= 4 * MAX_EXPANDED_CELLS < 2 * (90 * 81) ** 2

    def test_padded_levels_match_dense_path(self):
        # a 1-generator module in 486 summands at level 5, as in the
        # padded q=1 r=1 towers
        params = ScenarioParams(3, 1, 1, precisions=(1, 2, 2, 2, 2)).resolved()
        for level in (3, 5):
            c = _pad_contractible(_limit_complex(params, level, 2), 0)
            assert_same_modules(complexes._all_cohomology(c), reference_all_cohomology(c))

    def test_nakayama_quotient_on_the_kernel_rows(self):
        # levels 1-4 of the padded q=1, r=1 towers at precisions
        # (1, 2, 2, 2): the kernel of [[T, 0], [0, 1]] lives in the first
        # block, so its columns have zero rows, and the Nakayama quotient
        # of degree 0 is taken over fewer than the 2 rho ambient rows
        # (over all of them in the full-ambient reference)
        params = ScenarioParams(3, 1, 1, precisions=(1, 2, 2, 2)).resolved()
        real = complexes.smith_quotient
        for level, precision in enumerate(params.precisions, 1):
            c = _pad_contractible(_limit_complex(params, level, precision), 0)
            ambients = []

            def counted(rel, ambient, p, m):
                ambients.append(ambient)
                return real(rel, ambient, p, m)

            with mock.patch.object(complexes, "smith_quotient", counted):
                got = complexes._all_cohomology(c)
            assert_same_modules(got, reference_all_cohomology(c))
            if precision == 1:
                assert not ambients  # p kills every module over F_3
            else:
                assert ambients[0] < 2 * c.spec.coefficient_rank

    def test_no_quotient_when_p_kills_the_kernel(self):
        # d = 3 over (Z/9)[T]/((1+T)^3 - 1): the kernel 3 (Z/9)^3 and the
        # cokernel (Z/3)^3, scaled into Z/9, are both killed by 3
        spec = make_patch_ring(3, 2, 1, 1)
        c = make_complex(spec, 0, [1, 1], [single(spec, RingTowerElement.constant(spec, 3))])

        def refuse(*_):
            raise AssertionError("a Nakayama quotient was taken")

        with mock.patch.object(complexes, "smith_quotient", refuse):
            got = complexes._all_cohomology(c)
        assert [got[d].gens for d in (0, 1)] == [3, 3]
        assert_same_modules(got, reference_all_cohomology(c))


class TestTopDegrees:
    """A degree with a differential in and none out: its kernel is the
    whole ambient module on unit columns, kept as row dicts and embedded
    like any other kernel, with no ambient identity matrix."""

    @pytest.mark.parametrize("spec", FREE_SPECS, ids=lambda s: f"p{s.p}-m{s.m}-n{s.n}-q{s.q}")
    def test_no_ambient_identity(self, spec):
        for rank in (1, 3):
            c = tall_complex(spec, rank)
            with identity_sizes() as eyes:
                got = complexes._all_cohomology(c)
            assert rank * spec.coefficient_rank not in eyes
            assert_same_modules(got, reference_all_cohomology(c))

    def test_refused_before_allocation(self):
        # level 2 of the q=1 tower (rho = 9): 455 x 9 coordinates with
        # 4,087 summands count 2 * 4087 * (4095 + 4087) cells, inside
        # 4 x MAX_EXPANDED_CELLS; rank 456 counts 67,174,400, past it
        spec = make_patch_ring(3, 2, 2, 1)
        assert 2 * 4087 * (4095 + 4087) <= 4 * MAX_EXPANDED_CELLS < 2 * 4096 * (4104 + 4096)

        def top_degree(calls):
            return [(f["rk"], f["amb"], f["summands"]) for _, _, f in calls]

        with (
            size_checks(complexes) as counted,
            identity_sizes() as eyes,
            pytest.raises(ExpansionTooLarge, match="top degree of rank 456 "),
        ):
            complexes._all_cohomology(tall_complex(spec, 456))
        assert top_degree(counted) == [(456, 4104, 4096)] and 4104 not in eyes
        # rank 455 passes the check, and stops there
        with size_checks(complexes, stop=True) as counted, pytest.raises(Admitted):
            complexes._all_cohomology(tall_complex(spec, 455))
        assert top_degree(counted) == [(455, 4095, 4087)]


class TestCohomologyMemory:
    """tracemalloc peaks of ``_all_cohomology``, with the cohomology
    cache cleared: scalar expansion stays sparse into the Smith kernel,
    and no ambient identity or dense rho x rho matrix is made."""

    @staticmethod
    def peak_mib(c) -> float:
        complexes._COHOMOLOGY_CACHE.clear()
        tracemalloc.start()
        try:
            complexes._all_cohomology(c)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_padded_dense_level(self):
        # the padded level-5 complex of the q=1, r=1 tower at precisions
        # (1, 2, 2, 2, 2), seed 14: its differential expands to 486 x 486
        # cells with 487 nonzeros; 2.74 MiB with dense expansion
        tower, _, _ = gen_scenario(ScenarioParams(3, 1, 1, precisions=(1, 2, 2, 2, 2), seed=14))
        c = tower.levels[4].complex
        assert c.ranks == (2, 2)
        assert self.peak_mib(c) < 1

    def test_three_variable_level(self):
        # q=3, r=1 at precisions (1, 2), level 2: rho = 729; 21.7 MiB
        # with dense expansion
        tower, _, _ = gen_scenario(ScenarioParams(3, 3, 1, precisions=(1, 2), seed=0))
        c = tower.levels[1].complex
        assert c.spec.coefficient_rank == 729
        assert self.peak_mib(c) < 10

    def test_tall_top_degree(self):
        # a top degree of 900 coordinates, whose embedded basis and
        # Nakayama coordinates are freed before the Howell step and the
        # actions: 61.3 MiB, and 79.6 MiB with them kept alive
        c = tall_complex(make_patch_ring(3, 2, 2, 1), 100)
        assert self.peak_mib(c) < 70

    @pytest.mark.parametrize("rank, bound_mib", [(100, 36.6), (200, 147.3)])
    def test_tall_top_degree_within_its_counted_cells(self, rank, bound_mib):
        # the peak stays within 1.5 x the int64 cells that the top
        # degree's size check counts: 61.2 and 246 MiB with the dense
        # embedded basis, Nakayama coordinates and Howell work
        with size_checks(complexes) as counted:
            peak = self.peak_mib(tall_complex(make_patch_ring(3, 2, 2, 1), rank))
        bound = 1.5 * counted[0][0] * 8 / 2**20
        assert round(bound, 1) == bound_mib
        assert peak <= bound


@contextlib.contextmanager
def identity_sizes():
    """Record the size of every ``np.eye`` made inside the block."""
    sizes = []
    real = np.eye

    def eye(n, *args, **kwargs):
        sizes.append(n)
        return real(n, *args, **kwargs)

    with mock.patch.object(np, "eye", eye):
        yield sizes


def assert_same_modules(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for degree, module in got.items():
        other = want[degree]
        assert (module.p, module.m, module.gens) == (other.p, other.m, other.gens)
        assert (module.relations.shape, module.relations.dtype) == (other.relations.shape, other.relations.dtype)
        assert np.array_equal(module.relations, other.relations)
        assert len(module.actions) == len(other.actions)
        for x, y in zip(module.actions, other.actions):
            assert (x.shape, x.dtype) == (y.shape, y.dtype) and np.array_equal(x, y)


def brute_force_span(rel: np.ndarray, N: int) -> set[tuple[int, ...]]:
    """Every Z/N-combination of the columns of ``rel``."""
    gens, s = rel.shape
    return {
        tuple(int(x) for x in (rel @ np.array(c, dtype=np.int64)) % N) if s else (0,) * gens
        for c in itertools.product(range(N), repeat=s)
    }


@st.composite
def modules_with_queries(draw):
    """A module with zero and duplicate relation columns, and query columns
    that are span elements or arbitrary vectors."""
    p = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 2))
    N = p**m
    gens = draw(st.integers(0, 3))
    s = draw(st.integers(0, 3))

    def matrix(cols):
        flat = draw(st.lists(st.integers(0, N - 1), min_size=gens * cols, max_size=gens * cols))
        return np.array(flat, dtype=np.int64).reshape(gens, cols)

    rel = matrix(s)
    for l in range(s):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy", "scale"]))
        if kind == "zero":
            rel[:, l] = 0
        elif kind == "copy" and l:
            rel[:, l] = rel[:, draw(st.integers(0, l - 1))]
        elif kind == "scale":
            rel[:, l] = (rel[:, l] * p) % N
    k = draw(st.integers(0, 3))
    queries = matrix(k)
    for l in range(k):
        if s and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(0, N - 1), min_size=s, max_size=s))
            queries[:, l] = (rel @ np.array(coeffs, dtype=np.int64)) % N
    return FiniteModuleData(p, m, gens, rel), queries, matrix(k)


@st.composite
def relation_free_queries(draw):
    """A module with no relations and a 1-d or 2-d query whose entries are
    negative, at least p^m or exact multiples of p^m (up to 2^62); in
    about half the queries every entry is such a multiple."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 3))
    N = p**m
    amb = draw(st.integers(0, 5))
    shape = draw(st.sampled_from([(amb,), (amb, draw(st.integers(0, 3)))]))
    multiple = st.integers(-(2**62) // N, 2**62 // N).map(lambda k: k * N)
    cell = multiple if draw(st.booleans()) else st.one_of(multiple, st.integers(-3 * N, 3 * N))
    size = math.prod(shape)
    x = np.array(draw(st.lists(cell, min_size=size, max_size=size)), dtype=np.int64).reshape(shape)
    return FiniteModuleData(p, m, amb, np.zeros((amb, 0), dtype=np.int64)), x


class TestFiniteModuleData:
    @given(modules_with_queries())
    @settings(max_examples=300, deadline=None)
    def test_span_questions_match_enumeration(self, case):
        module, queries, other = case
        N = module.modulus
        span = brute_force_span(module.relations, N)
        inside = [tuple(int(x) for x in col) in span for col in queries.T]
        assert module.contains(queries) == all(inside)
        for l, col in enumerate(queries.T):
            assert module.contains(col) == inside[l]
        assert module.matrices_equal((other + queries) % N, other) == all(inside)
        assert module.cardinality() * len(span) == N**module.gens

    @given(relation_free_queries())
    @example((FiniteModuleData(3, 2, 0, np.zeros((0, 0), dtype=np.int64)), np.zeros((0, 2), dtype=np.int64)))
    @example((FiniteModuleData(2, 1, 0, np.zeros((0, 0), dtype=np.int64)), np.zeros(0, dtype=np.int64)))
    @settings(max_examples=300, deadline=None)
    def test_relation_free_contains_matches_the_smith_quotient(self, case):
        module, x = case
        want = not smith_quotient(module.relations, module.gens, module.p, module.m).coords(x).any()

        def refuse(*_, **__):
            raise AssertionError("a relation-free module built its Smith quotient")

        with mock.patch.object(complexes, "smith_quotient", refuse):
            assert module.contains(x) == want
            if x.ndim == 2:
                for col in x.T:
                    assert module.contains(col) == (not (col % module.modulus).any())
        assert "quotient" not in module.__dict__


class TestBaseChangeAndDual:
    def test_tensor_reduction_keeps_entries(self):
        src = make_patch_ring(3, 1, 2, 2)
        tgt = make_patch_ring(3, 1, 1, 2)
        t2 = RingTowerElement.variable(src, 1)
        c = make_complex(src, 0, [1, 1], [single(src, t2)])
        out = tensor_along(c, tgt)
        assert out.diffs[0].entries == ((RingTowerElement.variable(tgt, 1),),)

    def test_tensor_to_residue_field(self):
        c = make_complex(F3T, 0, [1, 1], [single(F3T, T)])
        out = tensor_along(c, coefficient_ring(3, 1))
        assert out.diffs[0].is_zero()

    def test_tensor_identity(self):
        c = make_complex(F3T, 0, [1, 1], [single(F3T, T)])
        assert tensor_along(c, F3T) == c

    def test_minimal_stays_minimal_under_reduction(self):
        src = make_patch_ring(2, 2, 2, 1)
        tgt = make_patch_ring(2, 1, 1, 1)
        t = RingTowerElement.variable(src, 0)
        c = make_complex(src, 0, [1, 1], [single(src, t.scale(3) + t * t)])
        out = tensor_along(minimize(c), tgt)
        assert all(
            not x.is_unit() for dmat in out.diffs for row in dmat.entries for x in row
        )

    def test_dual_transposes_and_negates(self):
        d = Matrix(F3T, [[T, ZERO], [T * T, T]])
        c = make_complex(F3T, 0, [2, 2], [d])
        dc = dual(c)
        assert (dc.lo, dc.hi) == (-1, 0)
        assert dc.diffs[0] == d.transpose()

    def test_dual_is_an_involution(self):
        rng = random.Random(2)
        for _ in range(6):
            c = random_patch_complex(rng, SMALL_PATCH_SPECS[0])
            assert dual(dual(c)) == c
        assert dual(empty_complex(F3T)).is_empty()


@pytest.mark.parametrize("seed", range(12))
def test_direct_sum_of_many_is_the_folded_binary_sum(seed):
    rng = random.Random(seed)
    spec = SMALL_PATCH_SPECS[seed % len(SMALL_PATCH_SPECS)]
    parts = []
    for _ in range(rng.randrange(1, 6)):
        c = random_patch_complex(rng, spec, max_rank=3) if rng.random() < 0.8 else empty_complex(spec)
        parts.append(make_complex(spec, rng.randrange(-2, 3), c.ranks, c.diffs))
    assert direct_sum(*parts) == functools.reduce(reference_direct_sum, parts)
    other = SMALL_PATCH_SPECS[(seed + 1) % len(SMALL_PATCH_SPECS)]
    with pytest.raises(SpecMismatch):
        direct_sum(*parts, empty_complex(other))


def test_koszul_complex_squares_to_zero_and_direct_sum():
    spec = make_patch_ring(3, 1, 1, 2)
    t1 = RingTowerElement.variable(spec, 0)
    t2 = RingTowerElement.variable(spec, 1)
    k = koszul_complex(spec, [t1, t2], lo=0)
    assert k.ranks == (1, 2, 1)
    s = direct_sum(k, k)
    assert s.ranks == (2, 4, 2)
    assert tau_profile(k).taus == {0: 1, 1: 2, 2: 1}
