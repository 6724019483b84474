"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact (integer equality); the only numeric bounds are
the stated wall-clock budgets.
"""

import itertools
import random
import time

import numpy as np
import pytest

from patchtower.complexes import cohomology, koszul_complex, tau_profile, tensor_along
from patchtower.errors import MathViolation
from patchtower.graded import (
    GradedModule,
    annihilator_ideal,
    complex_cohomology_module,
    minimal_graded_resolution,
    module_invariants,
    module_is_zero,
    support_height_profile,
    verify_height_amplitude,
)
from patchtower.groebner import ideal_product
from patchtower.graded import vec_to_poly
from patchtower.patcher import certify, patch, validate_hypotheses
from patchtower.rings import RingTowerElement, graded_ring, make_patch_ring
from patchtower.scenarios import PERTURBATIONS, ScenarioParams, gen_scenario
from util import (
    SMALL_PATCH_SPECS,
    dense_solve,
    fingerprint,
    howell_core,
    monomial_minimal_prime_heights,
    random_graded_consistent_complex,
    random_graded_module,
    random_minimal_graded_complex,
    random_monomial_ideal,
    random_patch_complex,
)


def report(criterion: int, passed: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def test_criterion_1_amplitude_equals_projective_dimension():
    t0 = time.time()
    checked = 0
    for p in (2, 3):
        spec = graded_ring(p, 2)
        rng = random.Random(100 + p)
        while checked < (25 if p == 2 else 50):
            m = random_graded_module(rng, spec, max_size=3, max_degree=2)
            if module_is_zero(m):
                continue
            cx, betti = minimal_graded_resolution(m)
            projdim = len(betti) - 1
            amplitude = tau_profile(cx).amplitude
            assert amplitude == projdim, (betti, amplitude)
            checked += 1
    elapsed = time.time() - t0
    report(1, checked >= 50 and elapsed < 10.0, f"{checked} modules, {elapsed:.2f}s")


# the criterion-2 complexes are shared with criterion 4
_SUITE2: list = []


def test_criterion_2_height_bounded_by_amplitude():
    t0 = time.time()
    spec3 = graded_ring(3, 3)
    spec2 = graded_ring(2, 3)
    rng = random.Random(7)
    total = 0
    monomial_checked = 0
    for i in range(110):
        spec = spec3 if i % 2 == 0 else spec2
        if i % 4 == 3:
            # a few with no grading constraint: the height bound holds for
            # any minimal complex, graded or not
            c = random_minimal_graded_complex(rng, spec, max_rank=3, max_length=2)
        else:
            c = random_graded_consistent_complex(rng, spec, max_rank=3, max_length=2)
        rep = verify_height_amplitude(c)
        assert rep.part_i["pass"], (c.ranks, rep.amplitude, sorted(rep.height_profile))
        _SUITE2.append((c, rep))
        total += 1
        # cross-check against the brute-force monomial oracle whenever the
        # combined annihilator is a monomial ideal
        anns = []
        for dd in c.degrees:
            mod = complex_cohomology_module(c, dd)
            if not module_is_zero(mod):
                anns.append(annihilator_ideal(mod))
        if anns:
            prod = anns[0]
            for other in anns[1:]:
                prod = ideal_product(prod, other, spec.p, spec.q)
            polys = [vec_to_poly(spec, v) for v in prod]
            if polys and all(len(x.coeffs) == 1 for x in polys):
                oracle = monomial_minimal_prime_heights(spec, polys)
                assert oracle == set(rep.height_profile), (polys, oracle, rep.height_profile)
                monomial_checked += 1
    # plus a dedicated monomial-module suite, q up to 4
    for q in (2, 3, 4):
        spec = graded_ring(3, q)
        mrng = random.Random(40 + q)
        rounds = 12 if q < 4 else 6
        for _ in range(rounds):
            gens = random_monomial_ideal(mrng, spec)
            got = support_height_profile(GradedModule.quotient_by_ideal(spec, gens))
            want = monomial_minimal_prime_heights(spec, gens)
            assert got == want, [repr(g) for g in gens]
            monomial_checked += 1
    elapsed = time.time() - t0
    report(
        2,
        total >= 100 and elapsed < 60.0,
        f"{total} complexes, {monomial_checked} monomial-oracle agreements, {elapsed:.2f}s",
    )


def _linear_form(rng: random.Random, spec):
    while True:
        coeffs = {}
        for i in range(spec.q):
            c = rng.randrange(spec.p)
            if c:
                coeffs[tuple(1 if j == i else 0 for j in range(spec.q))] = c
        if coeffs:
            return RingTowerElement(spec, coeffs)


def _independent_linear_forms(rng, spec, count):
    while True:
        forms = [_linear_form(rng, spec) for _ in range(count)]
        rows = []
        for f in forms:
            row = [0] * spec.q
            for e, c in f.coeffs.items():
                row[e.index(1)] = c
            rows.append(row)
        # regular exactly when the coefficient rows are independent mod p
        if howell_core(np.array(rows, dtype=np.int64), spec.p, 1).kernel_rows().shape[0] == 0:
            return forms


_SUITE3: list = []


def test_criterion_3_koszul_concentration_and_perfection():
    checked = 0
    for q in (1, 2, 3):
        spec = graded_ring(3, q)
        rng = random.Random(60 + q)
        for c_len in range(1, q + 1):
            for trial in range(2):
                forms = _independent_linear_forms(rng, spec, c_len)
                cx = koszul_complex(spec, forms)
                for i in range(c_len):
                    assert module_is_zero(complex_cohomology_module(cx, i)), (q, c_len)
                top = complex_cohomology_module(cx, c_len)
                inv = module_invariants(top)
                assert inv["grade"] == inv["projdim"] == c_len, inv
                rep = verify_height_amplitude(cx)
                assert rep.part_iii["applicable"] and rep.all_pass
                _SUITE3.append((cx, rep))
                checked += 1
    report(3, checked >= 12, f"{checked} Koszul complexes, each concentrated and perfect")


def test_criterion_4_duality_identity_through_degree_six():
    # runs over every complex of suites 2-3 that satisfies the part-iii
    # hypothesis (all support heights equal to the amplitude)
    if not _SUITE2:
        test_criterion_2_height_bounded_by_amplitude()
    if not _SUITE3:
        test_criterion_3_koszul_concentration_and_perfection()
    applicable = 0
    for cx, rep in _SUITE2 + _SUITE3:
        if not rep.part_iii["applicable"] or rep.duality is None:
            continue
        assert rep.duality["radical_match"], (cx.ranks, rep.duality)
        if rep.duality["graded"]:
            applicable += 1
            assert rep.duality["hilbert_match"], (cx.ranks, rep.duality)
    report(4, applicable >= 12, f"{applicable} complexes compared through degree 6")


def test_criterion_5_top_degree_from_rank_profile():
    rng = random.Random(31)
    total = 0
    while total < 100:
        for spec in SMALL_PATCH_SPECS:
            c = random_patch_complex(rng, spec, max_rank=2, max_length=2)
            prof = tau_profile(c)
            tops = [deg for deg in c.degrees if cohomology(c, deg).cardinality() > 1]
            if prof.is_zero():
                assert not tops, (spec, c.ranks)
            else:
                assert tops and max(tops) == prof.d_plus, (spec, c.ranks, prof.taus, tops)
            total += 1
    report(5, total >= 100, f"{total} complexes over rings with at most 81 elements")


def _enumeration_kernel(a: np.ndarray, N: int) -> set:
    out = set()
    for x in itertools.product(range(N), repeat=a.shape[0]):
        if not ((np.array(x) @ a) % N).any():
            out.add(x)
    return out


def _span(rows: np.ndarray, N: int, width: int) -> set:
    if rows.shape[0] == 0:
        return {(0,) * width}
    out = set()
    for combo in itertools.product(range(N), repeat=rows.shape[0]):
        out.add(tuple(int(v) for v in (np.array(combo) @ rows) % N))
    return out


def test_criterion_6_howell_matches_exhaustive_enumeration():
    cases = 0
    for p, m in ((2, 2), (3, 2)):
        N = p**m
        # every 1x1 and 2x2 matrix, plus seeded 3x3 samples
        small = [np.array([[x]]) for x in range(N)]
        small += [
            np.array([[a, b], [c, d]])
            for a, b, c, d in itertools.product(range(N), repeat=4)
            if (a + b + c + d) % 3 == 0  # deterministic thinning
        ]
        rng = random.Random(N)
        for _ in range(120):
            cols = rng.randrange(1, 4)
            small.append(
                np.array([[rng.randrange(N) for _ in range(cols)] for _ in range(3)])
            )
        for a in small:
            core = howell_core(a, p, m)
            got = _span(core.kernel_rows(), N, a.shape[0])
            want = _enumeration_kernel(a, N)
            assert got == want, a
            # solving: a reachable target and an enumeration-checked failure
            x = np.array([rng.randrange(N) for _ in range(a.shape[0])])
            b = (x @ a) % N
            assert ((dense_solve(core, b) @ a) % N == b).all()
            bad = np.array([rng.randrange(N) for _ in range(a.shape[1])])
            reachable = any(
                not ((np.array(v) @ a - bad) % N).any()
                for v in itertools.product(range(N), repeat=a.shape[0])
            )
            assert (dense_solve(core, bad) is not None) == reachable, (a, bad)
            cases += 1
    report(6, cases > 400, f"{cases} matrices, kernels and solves all match enumeration")


TOWER_CONFIGS = [(1, 0), (1, 1), (2, 1), (2, 2)]
_TOWERS: dict = {}


def _tower(q: int, r: int):
    if (q, r) not in _TOWERS:
        params = ScenarioParams(p=3, q=q, r=r, precisions=(1, 2, 2), seed=2024)
        _TOWERS[(q, r)] = (params, *gen_scenario(params))
    return _TOWERS[(q, r)]


def test_criterion_7_end_to_end_towers():
    details = []
    for q, r in TOWER_CONFIGS:
        params, tower, sidecar, expected = _tower(q, r)
        t0 = time.time()
        limit = patch(tower, 2)
        cert = certify(tower, limit)
        elapsed = time.time() - t0
        assert elapsed < 30.0, f"(q={q},r={r}) took {elapsed:.1f}s"
        assert cert.rank == sidecar["expected"]["rank"], (q, r, cert.rank)
        assert cert.valid
        assert limit.complex == expected
        # level-wise cohomology of the limit differentials matches the
        # generator's chosen limit at every covered precision step
        for k in (1, 2):
            spec_k = make_patch_ring(3, k, k, q)
            got = tensor_along(limit.complex, spec_k)
            want = tensor_along(expected, spec_k)
            for dd in want.degrees:
                assert fingerprint(cohomology(got, dd)) == fingerprint(cohomology(want, dd))
        if (q, r) == (2, 1):
            low = tower.d - 1
            for lev in tower.levels:
                assert cohomology(lev.complex, low).cardinality() > 1
            assert cert.ha_obj["cohomology_zero"][str(low)] is True
        details.append(f"(q={q},r={r}) rank {cert.rank} in {elapsed:.1f}s")
    report(7, True, "; ".join(details))


def test_criterion_8_negative_suite_rejects_every_perturbation():
    rejected = 0
    for q, r in TOWER_CONFIGS:
        params, _, _, _ = _tower(q, r)
        for name in PERTURBATIONS:
            tower, sidecar, _ = gen_scenario(params, perturbation=name)
            expect = sidecar["expected_error"]
            reportv = validate_hypotheses(tower)
            assert not reportv.ok, (q, r, name)
            assert reportv.failures[0]["error_name"] == expect, (q, r, name)
            with pytest.raises(MathViolation):
                limit = patch(tower, 2)
                certify(tower, limit)
            rejected += 1
    report(8, rejected == 20, f"{rejected}/20 perturbed towers rejected with designated errors")
