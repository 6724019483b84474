import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchtower import groebner as gb
from patchtower.complexes import koszul_complex, make_complex, tau_profile
from patchtower.errors import NotMinimalInput, UnsupportedRing
from patchtower.graded import (
    HILBERT_DEGREE,
    GradedModule,
    columns_to_matrix,
    complex_cohomology_module,
    ext_module,
    groebner_basis,
    matrix_columns,
    minimal_graded_resolution,
    module_depth,
    module_dimension,
    module_invariants,
    module_is_zero,
    presentation_data,
    support_height_profile,
    verify_height_amplitude,
)
from patchtower.linalg import Matrix
from patchtower.rings import RingTowerElement, graded_ring
from patchtower.serialize import canonical_dumps, complex_from_obj, graded_module_from_obj
from util import (
    monomial_minimal_prime_heights,
    random_graded_module,
    random_minimal_graded_complex,
    random_monomial_ideal,
    random_unit_presentation,
    reference_module_depth,
    reference_prune_presentation,
)

R2 = graded_ring(3, 2)
R3 = graded_ring(3, 3)


def variables(spec):
    return [RingTowerElement.variable(spec, i) for i in range(spec.q)]


class TestGroebnerSurface:
    def test_principal(self):
        (t1, _) = variables(R2)
        assert groebner_basis([t1]) == [t1]

    def test_lex_example(self):
        t1, t2 = variables(R2)
        out = groebner_basis([t1 - t2, t2 * t2], order="lex")
        assert out == [t1 - t2, t2 * t2]

    def test_monomial_autoreduced(self):
        t1, t2 = variables(R2)
        out = groebner_basis([t1 * t2, t1 * t1])
        assert set(out) == {t1 * t2, t1 * t1}


class TestResolutions:
    def test_residue_field_koszul(self):
        t1, t2 = variables(R2)
        cx, betti = minimal_graded_resolution(GradedModule.quotient_by_ideal(R2, [t1, t2]))
        assert betti == (1, 2, 1)
        assert (cx.lo, cx.hi) == (-2, 0)

    def test_free_module(self):
        cx, betti = minimal_graded_resolution(GradedModule.free(R2, 1))
        assert betti == (1,)
        assert cx.ranks == (1,)

    def test_principal_ideal_on_a_domain(self):
        t1, t2 = variables(R2)
        _, betti = minimal_graded_resolution(GradedModule.quotient_by_ideal(R2, [t1 * t2]))
        assert betti == (1, 1)

    def test_resolution_entries_avoid_units(self):
        rng = random.Random(21)
        for _ in range(10):
            m = random_graded_module(rng, R2)
            cx, _ = minimal_graded_resolution(m)
            for d in cx.diffs:
                for row in d.entries:
                    for x in row:
                        assert x.constant_term() == 0


class TestInvariants:
    def test_residue_field(self):
        t1, t2 = variables(R2)
        inv = module_invariants(GradedModule.quotient_by_ideal(R2, [t1, t2]))
        assert inv["dim"] == 0 and inv["depth"] == 0
        assert inv["grade"] == 2 and inv["projdim"] == 2
        assert inv["perfect"] is True
        assert inv["grade"] + inv["dim"] == 2

    def test_free(self):
        inv = module_invariants(GradedModule.free(R2, 1))
        assert (inv["dim"], inv["depth"], inv["grade"], inv["projdim"]) == (2, 2, 0, 0)

    def test_hyperplane(self):
        (t1, _) = variables(R2)
        inv = module_invariants(GradedModule.quotient_by_ideal(R2, [t1]))
        assert (inv["dim"], inv["depth"], inv["grade"], inv["projdim"]) == (1, 1, 1, 1)
        assert inv["amplitude"] == inv["projdim"] == 1

    def test_zero_module_conventions(self):
        one = RingTowerElement.one(R2)
        inv = module_invariants(GradedModule.quotient_by_ideal(R2, [one]))
        assert inv["dim"] == -1
        assert inv["depth"] is None and inv["projdim"] is None

    def test_random_modules_satisfy_the_standard_identities(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(12):
            m = random_graded_module(rng, R2)
            if module_is_zero(m):
                continue
            inv = module_invariants(m)
            assert inv["depth"] + inv["projdim"] == 2          # Auslander-Buchsbaum
            assert inv["grade"] + inv["dim"] == 2              # CM identity
            assert inv["grade"] <= inv["projdim"]
            assert inv["amplitude"] == inv["projdim"]
            checked += 1
        assert checked >= 6


class TestModuleDepth:
    """Depth read from the resolution at T = 0 against Koszul homology of
    the cover (``reference_module_depth``)."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_koszul_reference(self, p, q):
        """Presentations mixing scalar pivots, units such as 1+T (whose
        modules have (T)M = M), non-homogeneous columns and zero columns,
        then homogeneous ones in the maximal ideal."""
        spec = graded_ring(p, q)
        rng = random.Random(1000 + 10 * p + q)
        modules = [random_unit_presentation(rng, spec, max_size=4 if q < 3 else 2) for _ in range(25)]
        modules += [random_graded_module(rng, spec, max_size=3 if q < 3 else 2) for _ in range(5)]
        depths = []
        for m in modules:
            want = reference_module_depth(m)
            assert module_depth(m) == want
            depths.append(want)
        assert None in depths and any(d is not None for d in depths)

    def test_named_cases(self):
        t1, t2 = variables(R2)
        one = RingTowerElement.one(R2)
        assert module_depth(GradedModule.quotient_by_ideal(R2, [one + t1])) is None
        assert module_depth(GradedModule.quotient_by_ideal(R2, [t1 + t2 * t2])) == 1
        assert module_depth(GradedModule.free(graded_ring(5, 3), 2)) == 3
        assert module_depth(GradedModule.quotient_by_ideal(R2, [one])) is None
        assert module_depth(GradedModule(R2, 0, Matrix.zero(R2, 0, 0))) is None


class TestExt:
    def test_residue_field_duals(self):
        t1, t2 = variables(R2)
        k = GradedModule.quotient_by_ideal(R2, [t1, t2])
        assert module_is_zero(ext_module(k, 0))
        assert module_is_zero(ext_module(k, 1))
        top = ext_module(k, 2)
        assert not module_is_zero(top)
        assert module_dimension(top) == 0

    def test_free_dual(self):
        free = GradedModule.free(R2, 1)
        assert not module_is_zero(ext_module(free, 0))
        assert module_is_zero(ext_module(free, 1))

    def test_hyperplane_dual(self):
        (t1, _) = variables(R2)
        m = GradedModule.quotient_by_ideal(R2, [t1])
        e1 = ext_module(m, 1)
        assert not module_is_zero(e1)
        assert module_dimension(e1) == 1
        assert module_invariants(e1)["projdim"] == 1

    def test_ext_dimension_bound(self):
        rng = random.Random(8)
        for _ in range(8):
            m = random_graded_module(rng, R2)
            for i in range(3):
                e = ext_module(m, i)
                if not module_is_zero(e):
                    assert module_dimension(e) <= 2 - i


class TestSupport:
    def test_hyperplane_profile(self):
        (t1, _) = variables(R2)
        assert support_height_profile(GradedModule.quotient_by_ideal(R2, [t1])) == {1}

    def test_point_profile(self):
        t1, t2 = variables(R2)
        assert support_height_profile(GradedModule.quotient_by_ideal(R2, [t1, t2])) == {2}

    def test_two_incomparable_components(self):
        u1, u2, u3 = variables(R3)
        zero = RingTowerElement.zero(R3)
        rel = Matrix(R3, [[u1, zero, zero], [zero, u2, u3]])
        assert support_height_profile(GradedModule(R3, 2, rel)) == {1, 2}

    def test_embedded_component_is_not_reported(self):
        # (T1^2, T1*T2) has support the hyperplane only
        t1, t2 = variables(R2)
        m = GradedModule.quotient_by_ideal(R2, [t1 * t1, t1 * t2])
        assert support_height_profile(m) == {1}

    def test_zero_module_empty_profile(self):
        one = RingTowerElement.one(R2)
        assert support_height_profile(GradedModule.quotient_by_ideal(R2, [one])) == set()

    @pytest.mark.parametrize("q", [2, 3])
    def test_monomial_oracle(self, q):
        spec = graded_ring(3, q)
        rng = random.Random(q)
        for _ in range(12):
            gens = random_monomial_ideal(rng, spec)
            got = support_height_profile(GradedModule.quotient_by_ideal(spec, gens))
            want = monomial_minimal_prime_heights(spec, gens)
            assert got == want, [repr(g) for g in gens]


class TestHeightAmplitude:
    def test_koszul_pair(self):
        t1, t2 = variables(R2)
        rep = verify_height_amplitude(koszul_complex(R2, [t1, t2]))
        assert rep.amplitude == 2 and rep.height_profile == {2}
        assert rep.part_i["pass"] and rep.part_iii["applicable"]
        assert rep.part_iii["lower_vanishing"] and rep.part_iii["top_perfect"]
        assert rep.duality["hilbert_match"] and rep.duality["radical_match"]
        assert rep.all_pass

    def test_single_hyperplane(self):
        (t1, _) = variables(R2)
        rep = verify_height_amplitude(koszul_complex(R2, [t1]))
        assert rep.amplitude == 1 and rep.height_profile == {1}
        assert rep.part_iii["applicable"] and rep.all_pass

    def test_zero_differential(self):
        rep = verify_height_amplitude(make_complex(R2, 0, [1, 1], [Matrix.zero(R2, 1, 1)]))
        assert rep.amplitude == 1
        assert rep.height_profile == {0}
        assert rep.part_i["pass"]
        assert not rep.part_iii["applicable"]

    def test_rejects_unit_entries(self):
        one = RingTowerElement.one(R2)
        c = make_complex(R2, 0, [1, 1], [Matrix(R2, [[one]])])
        with pytest.raises(NotMinimalInput):
            verify_height_amplitude(c)

    def test_random_minimal_complexes_satisfy_part_i(self):
        rng = random.Random(17)
        for _ in range(10):
            c = random_minimal_graded_complex(rng, R3)
            rep = verify_height_amplitude(c)
            assert rep.part_i["pass"], (c.ranks, rep.height_profile, rep.amplitude)


def test_complex_cohomology_module_matches_tau_direction():
    (t1, _) = variables(R2)
    c = koszul_complex(R2, [t1])
    h0 = complex_cohomology_module(c, 0)
    h1 = complex_cohomology_module(c, 1)
    assert module_is_zero(h0)
    assert not module_is_zero(h1)
    assert tau_profile(c).d_plus == 1


def reference_ext_module(m: GradedModule, i: int) -> GradedModule:
    """The derived dual built by hand from the resolution's columns: the
    kernel of the transposed step i modulo the image of the transposed
    step i-1, with unit vectors as the kernel at i = length.

    ``ext_module`` must present the same relation submodule on the same
    number of generators.
    """
    ring = m.ring
    p, q = ring.p, ring.q
    cx, betti = minimal_graded_resolution(m)
    length = len(betti) - 1
    if i > length:
        return GradedModule(ring, 0, Matrix.zero(ring, 0, 0))
    steps = [matrix_columns(cx.diffs[length - 1 - k]) for k in range(length)]

    def transpose_cols(cols, rows):
        out = [dict() for _ in range(rows)]
        for j, col in enumerate(cols):
            for (pos, e), c in col.items():
                out[pos][(j, e)] = c
        return out

    if i == length:
        kernel = [{(l, (0,) * q): 1} for l in range(betti[i])]
    else:
        kernel = gb.syzygy_generators(transpose_cols(steps[i], betti[i]), betti[i + 1], p, q)
    image = transpose_cols(steps[i - 1], betti[i - 1]) if i else []
    rel = gb.relations_modulo(kernel, image, betti[i], p, q) if kernel else []
    return GradedModule(ring, len(kernel), columns_to_matrix(ring, rel, len(kernel)))


def reference_shifted_hilbert(rel_cols, gens: int, shifts: list[int], p: int, q: int) -> dict[int, int]:
    """Standard monomial-position pairs per absolute degree up to
    HILBERT_DEGREE, counted one generator at a time.

    ``groebner.standard_monomial_counts`` must give the same counts in
    the same order.
    """
    if gens == 0:
        return {}
    basis = gb.buchberger(rel_cols, p) if rel_cols else []
    order = gb.ModuleOrder()
    leads_by_pos: dict[int, list[tuple[int, ...]]] = {}
    for g in basis:
        pos, e = gb.lead(g, order)
        leads_by_pos.setdefault(pos, []).append(e)
    out: dict[int, int] = {}
    for j in range(gens):
        depth = HILBERT_DEGREE - shifts[j]
        if depth < 0:
            continue
        leads = leads_by_pos.get(j, [])

        def rec(prefix, remaining, slots):
            if slots == 0:
                yield prefix
                return
            for k in range(remaining + 1):
                yield from rec(prefix + (k,), remaining - k, slots - 1)

        for e in rec((), depth, q):
            if not any(all(x >= y for x, y in zip(e, le)) for le in leads):
                d = sum(e) + shifts[j]
                out[d] = out.get(d, 0) + 1
    return {d: n for d, n in sorted(out.items()) if n}


class TestAgainstReferences:
    @given(st.sampled_from([R2, R3]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_ext_matches_reference(self, spec, seed):
        m = random_graded_module(random.Random(seed), spec, max_size=3 if spec.q == 2 else 2)
        _, betti = minimal_graded_resolution(m)
        for i in range(len(betti) + 1):  # every index up to length + 1
            got, want = ext_module(m, i), reference_ext_module(m, i)
            assert got.gens == want.gens
            assert gb.buchberger(matrix_columns(got.relations), spec.p) == gb.buchberger(
                matrix_columns(want.relations), spec.p
            )

    @given(st.sampled_from([R2, R3]), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_standard_counts_match_reference(self, spec, seed, data):
        p, q = spec.p, spec.q
        gens, cols = presentation_data(random_graded_module(random.Random(seed), spec))
        shifts = data.draw(
            st.lists(st.integers(-3, HILBERT_DEGREE + 3), min_size=gens, max_size=gens)
        )
        got = gb.standard_monomial_counts(gb.buchberger(cols, p), shifts, q, HILBERT_DEGREE)
        assert list(got.items()) == list(reference_shifted_hilbert(cols, gens, shifts, p, q).items())

    def test_standard_counts_with_negative_and_oversized_shifts(self):
        t1, _ = variables(R2)
        zero = RingTowerElement.zero(R2)
        rel = Matrix(R2, [[t1, zero], [zero, t1], [zero, zero]])
        cols = matrix_columns(rel)
        shifts = [-2, HILBERT_DEGREE + 1, HILBERT_DEGREE]
        got = gb.standard_monomial_counts(gb.buchberger(cols, 3), shifts, 2, HILBERT_DEGREE)
        want = reference_shifted_hilbert(cols, 3, shifts, 3, 2)
        assert list(got.items()) == list(want.items())
        assert min(got) == -2 and got[HILBERT_DEGREE] == 2


    @pytest.mark.parametrize(
        "q, cols, shifts",
        [
            pytest.param(0, [{(1, ()): 1}], [-2, 0, HILBERT_DEGREE], id="q=0"),
            pytest.param(2, [{(0, (1, 0)): 1}], [HILBERT_DEGREE, HILBERT_DEGREE], id="D=0"),
            pytest.param(2, [{(1, (1, 1)): 1}], [HILBERT_DEGREE + 1, 0], id="shift-past-max-degree"),
            pytest.param(2, [], [HILBERT_DEGREE + 1, HILBERT_DEGREE + 5], id="every-shift-past-max-degree"),
            pytest.param(
                3,
                [{(0, (2, 0, 1)): 1, (0, (0, 1, 2)): 2}, {(0, (0, 3, 0)): 1, (0, (1, 1, 1)): 1}],
                [HILBERT_DEGREE - 20],
                id="D=20-q=3",
            ),
            pytest.param(2, [{(1, (1, 0)): 1}, {(1, (0, 2)): 1}], [1, -1, 3], id="positions-without-leads"),
        ],
    )
    def test_standard_counts_at_the_edges(self, q, cols, shifts):
        got = gb.standard_monomial_counts(gb.buchberger(cols, 3), shifts, q, HILBERT_DEGREE)
        want = reference_shifted_hilbert(cols, len(shifts), shifts, 3, q)
        assert list(got.items()) == list(want.items())

class TestPruning:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_reference_loop(self, p, q):
        """Generator count and relation columns equal the dict-column loop's,
        zero columns dropped on both sides, on presentations that mix
        scalar pivots, 1+T-style units, zeros and zero columns."""
        spec = graded_ring(p, q)
        rng = random.Random(100 * p + q)
        cancelled = 0
        for _ in range(60):
            m = random_unit_presentation(rng, spec)
            gens, cols = presentation_data(m)
            want_gens, want_cols, _ = reference_prune_presentation(m.gens, matrix_columns(m.relations), p, q)
            assert (gens, cols) == (want_gens, [col for col in want_cols if col])
            cancelled += m.gens - gens
        assert cancelled >= 30

    def test_non_scalar_unit_is_left_to_minimize(self):
        """Pruning keeps a 1+T entry; only minimize refuses it."""
        t1, t2 = variables(R2)
        one = RingTowerElement.one(R2)
        unit = GradedModule(R2, 1, Matrix(R2, [[one + t1, t2]]))
        assert presentation_data(unit) == (1, matrix_columns(unit.relations))
        with pytest.raises(UnsupportedRing):
            module_invariants(unit)
        # 1 = (1 + T1 T2) - T2 * T1, so this module is zero and has invariants
        zero = GradedModule(R2, 1, Matrix(R2, [[t1, one + t1 * t2]]))
        assert module_invariants(zero)["dim"] == -1


POOL_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def test_graded_pool_bytes_are_pinned():
    """Canonical bytes of the verifier on complexes 0-23 and of the
    invariants on every module of the graded pool, against the sha256
    digests recorded with it."""
    pool = json.loads((POOL_DATA / "ha_pool.json").read_text())
    want = json.loads((POOL_DATA / "reference.json").read_text())["ha-graded"]

    def sha(obj):
        return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()

    wrong = []
    for index in range(24):
        rep = verify_height_amplitude(complex_from_obj(pool["complexes"][index]))
        if sha(rep.to_obj()) != want["complexes"][index]:
            wrong.append(("complexes", index))
    for index, obj in enumerate(pool["modules"]):
        inv = module_invariants(graded_module_from_obj(obj))
        if sha({k: (list(v) if isinstance(v, tuple) else v) for k, v in inv.items()}) != want["modules"][index]:
            wrong.append(("modules", index))
    assert not wrong


class TestPerModuleMemo:
    def test_no_module_is_asked_twice_whether_it_is_zero(self, monkeypatch):
        """Complex 28 of the graded pool has amplitude 2 and part iii
        applies, so the verifier asks for the grade, depth and duals of
        its top cohomology as well as every degree's zero test."""
        pool = json.loads((POOL_DATA / "ha_pool.json").read_text())
        cx = complex_from_obj(pool["complexes"][28])
        asked = []
        real = gb.module_is_zero

        def counted(rel_cols, t, p, q):
            # a module's relation columns are one cached list, so identity
            # names the module; keeping the lists alive keeps ids unique
            asked.append(rel_cols)
            return real(rel_cols, t, p, q)

        monkeypatch.setattr(gb, "module_is_zero", counted)
        report = verify_height_amplitude(cx)
        assert report.part_iii["applicable"]
        assert len(asked) > 1
        assert len({id(cols) for cols in asked}) == len(asked)

    def test_ext_module_is_kept_per_index(self):
        t1, t2 = variables(R2)
        m = GradedModule.quotient_by_ideal(R2, [t1, t2])
        assert ext_module(m, 2) is ext_module(m, 2)
        assert ext_module(m, 1) is not ext_module(m, 2)

    def test_equal_modules_keep_their_own_entries(self):
        t1, t2 = variables(R2)
        a = GradedModule.quotient_by_ideal(R2, [t1, t2 * t2])
        b = GradedModule.quotient_by_ideal(R2, [t1, t2 * t2])
        assert ext_module(a, 1) is not ext_module(b, 1)
        assert presentation_data(a) is not presentation_data(b)
        assert presentation_data(a) == presentation_data(b)
        assert module_invariants(a) == module_invariants(b)
        assert a._cache is not b._cache and a._cache.keys() == b._cache.keys()
