import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchtower.cli import main
from patchtower.complexes import cohomology, make_complex, minimize, tensor_along
from patchtower.errors import (
    ActionMismatch,
    AugmentationNotKilled,
    BaseMismatch,
    ExpansionTooLarge,
    HeightAmplitudeViolated,
    InsufficientTower,
    NoCompatibleChain,
    ShapeMismatch,
    TauNotConstant,
    TauOutOfRange,
)
from patchtower.linalg import Matrix, matmul_mod
from patchtower import patcher
from patchtower.patcher import (
    PatchLimit,
    RInfinityModel,
    _rebase_onto,
    certify,
    patch,
    validate_hypotheses,
)
from patchtower.rings import RingTowerElement, make_patch_ring
from patchtower.serialize import canonical_dumps, tower_to_obj
from patchtower.scenarios import (
    EXPECTED_ERRORS,
    PERTURBATIONS,
    ScenarioParams,
    gen_scenario,
)
from util import (
    TruncatedQuotient,
    random_patch_complex,
    reference_evaluate_at_matrices,
    reference_rebase_onto,
    refresh_level,
    run_cli_under_memory_limit,
    shear_matrix,
    sheared_tower,
    transform_complex,
)

FAST = ScenarioParams(p=3, q=1, r=1, precisions=(1, 2, 2), seed=5)


class TestRInfinityModel:
    def test_truncation(self):
        model = RInfinityModel(p=3, m=2, g=1, degree=2)
        x = model.variable(0)
        assert model.mul(model.mul(x, x), x) == {}
        assert model.power(model.add(model.one(), x), 2) == {(0,): 1, (1,): 2, (2,): 1}

    @pytest.mark.parametrize("g, degree", [(0, 3), (1, 4), (2, 3), (3, 2)])
    def test_basis_lists_every_exponent_vector_within_the_degree(self, g, degree):
        model = RInfinityModel(p=3, m=1, g=g, degree=degree)
        every = itertools.product(range(degree + 1), repeat=g)
        assert model.basis() == sorted(e for e in every if sum(e) <= degree)

    def test_oversized_quotient_is_refused_before_the_basis(self):
        model = RInfinityModel(p=3, m=1, g=2, degree=2**40)
        with pytest.raises(ExpansionTooLarge):
            model.quotient([model.variable(0)])
        # an empty ideal still needs the basis and its coordinate vectors
        with pytest.raises(ExpansionTooLarge):
            model.quotient([])
        small = RInfinityModel(p=3, m=1, g=2, degree=20)
        assert small.quotient([small.variable(0), small.variable(1)]).cardinality() == 3

    def test_evaluate_at_matrices(self):
        model = RInfinityModel(p=3, m=2, g=1, degree=2)
        mats = [np.array([[0, 0], [1, 0]], dtype=np.int64)]
        val = model.evaluate_at_matrices({(1,): 2, (0,): 1}, mats, 2, 9)
        assert val.tolist() == [[1, 0], [2, 1]]

    def test_evaluate_at_a_high_exponent(self):
        # the recursive power cache went one frame per power and raised
        # RecursionError near exponent 1,000; [[1, 1], [0, 1]]^k = [[1, k], [0, 1]]
        model = RInfinityModel(p=3, m=2, g=1, degree=2000)
        mats = [np.array([[1, 1], [0, 1]], dtype=np.int64)]
        val = model.evaluate_at_matrices({(1500,): 2, (1,): 1}, mats, 2, 9)
        assert val.tolist() == [[3, (2 * 1500 + 1) % 9], [0, 3]]

    def test_evaluate_at_a_huge_exponent_by_squaring(self, monkeypatch):
        # a power cache made one product per power, so x^(2^62) never finished
        products = []

        def counted(a, b, N):
            products.append(N)
            return matmul_mod(a, b, N)

        monkeypatch.setattr(patcher, "matmul_mod", counted)
        model = RInfinityModel(p=3, m=2, g=2, degree=2)
        mats = [np.array([[1, 1], [0, 1]], dtype=np.int64), np.array([[2, 0], [0, 1]], dtype=np.int64)]
        k = 2**62 + 5
        val = model.evaluate_at_matrices({(k, 10**9): 1}, mats, 2, 9)
        assert val.tolist() == [[pow(2, 10**9, 9), k % 9], [0, 1]]
        assert len(products) <= 2 * (k.bit_length() + (10**9).bit_length())

    def test_evaluate_at_matrices_matches_the_recursive_cache(self):
        rng = random.Random(1901)
        for _ in range(60):
            g, size, modulus = rng.randint(1, 3), rng.randint(1, 3), rng.choice((3, 9, 25))
            model = RInfinityModel(p=3, m=2, g=g, degree=12)
            mats = [np.array([[rng.randrange(-modulus, modulus) for _ in range(size)] for _ in range(size)]) for _ in range(g)]
            a = {tuple(rng.randint(0, 6) for _ in range(g)): rng.randrange(1, 50) for _ in range(rng.randint(0, 4))}
            want = reference_evaluate_at_matrices(model, a, mats, size, modulus)
            got = model.evaluate_at_matrices(a, mats, size, modulus)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_quotient_cardinalities(self):
        model = RInfinityModel(p=3, m=2, g=1, degree=2)
        assert model.quotient([]).cardinality() == 9**3
        assert model.quotient([model.variable(0)]).cardinality() == 9
        three = {(0,): 3}
        assert model.quotient([three]).cardinality() == 3**3


@st.composite
def models_with_ideals(draw):
    """A small truncated model, an ideal of up to two elements and a query."""
    p = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 2))
    g = draw(st.integers(1, 2))
    model = RInfinityModel(p=p, m=m, g=g, degree=draw(st.integers(1, 2)))
    basis = model.basis()

    def element():
        coeffs = draw(st.lists(st.integers(0, p**m - 1), min_size=len(basis), max_size=len(basis)))
        return {e: c for e, c in zip(basis, coeffs) if c and draw(st.booleans())}

    ideal = [element() for _ in range(draw(st.integers(0, 2)))]
    return model, ideal, element()


class TestModelQuotient:
    @given(models_with_ideals())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_quotient(self, case):
        model, ideal, x = case
        quotient = model.quotient(ideal)
        reference = TruncatedQuotient(model, ideal)
        assert quotient.cardinality() == reference.cardinality()
        assert quotient.contains(model.vector(x)) == reference.is_zero(x)
        for gen in ideal:
            assert quotient.contains(model.vector(model.mul(gen, x)))


# a tower whose top cohomology is zero at every level, with a zero base
# module and no x-actions: it validates, and certification refuses it
ZERO_TOP_TOWER = {
    "params": {"p": 3, "q": 1, "r": 0, "d": 1, "precisions": [1, 2], "rinf_degree": 2, "base_precision": 2},
    "base": {"ring_ideal": [[[[1], 1]]], "module": {"gens": 0, "relations": [], "x_actions": [[]]}},
    "levels": [
        {
            "level": n,
            "precision": n,
            "complex": {
                "ring": {"p": 3, "m": n, "n": n, "q": 1, "kind": "patch"},
                "lo": 0,
                "ranks": [1, 1],
                "differentials": [[[[[[0], 1]]]]],
            },
            "i_images": [[[[1], 1]]],
            "phi_images": [[]],
            "x_actions": {},
            "base_iso": [],
        }
        for n in (1, 2)
    ],
}


def test_zero_top_tower_is_refused_by_certification(capsys, tmp_path):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(ZERO_TOP_TOWER))
    assert main(["patch", str(path), "--format", "json"]) == 1
    assert capsys.readouterr().out == (
        '{"detail":"limit rank profile {} is not concentrated in [1,1]","error":"ConcentrationFailed"}\n'
    )


class TestGroundTruthPipeline:
    def test_validate_patch_certify(self):
        tower, sidecar, expected = gen_scenario(FAST)
        report = validate_hypotheses(tower)
        assert report.ok
        limit = patch(tower, 2)
        assert limit.complex == expected
        cert = certify(tower, limit)
        assert cert.valid and cert.rank == 1
        assert set(cert.checks) == {
            "tau_concentrated",
            "fiber_vanishing_below_top",
            "projdim_eq_r",
            "depth_eq_budget",
            "base_iso",
            "surjection_iso",
        }

    def test_monotone_precision(self):
        tower, _, _ = gen_scenario(FAST)
        cert2 = certify(tower, patch(tower, 2))
        cert1 = certify(tower, patch(tower, 1))
        assert cert2.valid and cert1.valid
        assert cert1.rank == cert2.rank

    def test_insufficient_tower(self):
        tower, _, _ = gen_scenario(FAST)
        tower.levels = tower.levels[:1]
        with pytest.raises(InsufficientTower):
            patch(tower, 2)
        tower2, _, _ = gen_scenario(FAST)
        tower2.levels = [lev for lev in tower2.levels if lev.level == 1]
        with pytest.raises(InsufficientTower):
            patch(tower2, 2)

    def test_higher_rank_scenario(self):
        params = ScenarioParams(p=2, q=1, r=1, precisions=(1, 2), seed=9, rank=2)
        tower, sidecar, expected = gen_scenario(params)
        limit = patch(tower, 2)
        cert = certify(tower, limit)
        assert cert.rank == 2 == sidecar["expected"]["rank"]


class TestOracleGrid:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("q", [1, 2])
    def test_every_rank_budget_roundtrips(self, p, q):
        # two-level towers keep the grid fast; three-level towers are
        # exercised by the acceptance suite
        for r in range(q + 1):
            for seed in (0, 3):
                params = ScenarioParams(p=p, q=q, r=r, precisions=(1, 2), seed=seed)
                tower, sidecar, expected = gen_scenario(params)
                limit = patch(tower, 2)
                cert = certify(tower, limit)
                assert cert.valid
                assert cert.rank == sidecar["expected"]["rank"], (p, q, r, seed)
                assert limit.complex == expected


class TestPerturbations:
    @pytest.mark.parametrize("name", PERTURBATIONS)
    def test_designated_error(self, name):
        tower, sidecar, _ = gen_scenario(FAST, perturbation=name)
        report = validate_hypotheses(tower)
        assert not report.ok
        assert report.failures[0]["error_name"] == sidecar["expected_error"]
        with pytest.raises(
            {
                "TauNotConstant": TauNotConstant,
                "TauOutOfRange": TauOutOfRange,
                "ActionMismatch": ActionMismatch,
                "AugmentationNotKilled": AugmentationNotKilled,
                "BaseMismatch": BaseMismatch,
            }[sidecar["expected_error"]]
        ):
            patch(tower, 2)

    def test_expected_error_table_is_total(self):
        assert set(EXPECTED_ERRORS) == set(PERTURBATIONS)


def _zero_witness(lev):
    lev.base_iso = np.zeros_like(np.asarray(lev.base_iso))


class TestValidationOrder:
    def test_first_failure_per_level(self):
        # the action fault sits on level 3; a zero witness there is
        # never reached, since only a level's first failure is recorded
        tower, _, _ = gen_scenario(FAST, perturbation="action_mismatch")
        _zero_witness(tower.levels[-1])
        report = validate_hypotheses(tower)
        assert [(f["level"], f["hypothesis"], f["error_name"]) for f in report.failures] == [
            (3, "ii", "ActionMismatch")
        ]

    def test_one_failure_per_faulty_level_in_level_order(self):
        tower, _, _ = gen_scenario(FAST, perturbation="action_mismatch")
        _zero_witness(tower.levels[0])
        report = validate_hypotheses(tower)
        assert [(f["level"], f["hypothesis"], f["error_name"]) for f in report.failures] == [
            (1, "iii", "BaseMismatch"),
            (3, "ii", "ActionMismatch"),
        ]
        assert report.failures[0]["detail"] == "level 1: witness is not surjective onto the base module"
        assert report.failures[1]["detail"] == (
            "level 3 degree 0: variable 1 acts differently from its structure-map image"
        )

    def test_action_shape_is_refused_before_any_check_of_its_degree(self, monkeypatch):
        # level 1 of this tower has one nonzero cohomology degree, of size 3
        tower, _, _ = gen_scenario(ScenarioParams(p=3, q=1, r=0, precisions=(1, 2), seed=0))
        lev = tower.levels[0]
        lev.x_actions[1] = [np.zeros((2, 2), dtype=np.int64)]
        products = []

        def counted(*args):
            products.append(args)
            return matmul_mod(*args)

        monkeypatch.setattr(patcher, "matmul_mod", counted)
        with pytest.raises(ShapeMismatch, match=r"level 1 degree 1: action matrices of shapes \[\(2, 2\)\]"):
            validate_hypotheses(tower)
        assert products == []


class TestBasisChangeFallback:
    # seed 0 generates both levels without contractible padding, so the
    # middle term has rank exactly 2 and hand-built transforms fit
    PARAMS = ScenarioParams(p=3, q=2, r=2, precisions=(1, 2), seed=0)

    def _swap(self, spec, size, i, j):
        one = RingTowerElement.one(spec)
        zero = RingTowerElement.zero(spec)
        ent = [[one if (a == b and a not in (i, j)) else zero for b in range(size)] for a in range(size)]
        ent[i][j] = one
        ent[j][i] = one
        m = Matrix(spec, ent)
        return m, m

    def test_permuted_level_is_recovered(self):
        tower, _, expected = gen_scenario(self.PARAMS)
        lev = tower.levels[1]
        mid = tower.d - 1
        pair = self._swap(lev.complex.spec, lev.complex.rank(mid), 0, 1)
        permuted = transform_complex(lev.complex, {mid: pair})
        refresh_level(tower, 1, self.PARAMS, permuted)
        assert validate_hypotheses(tower).ok
        limit = patch(tower, 2)
        assert limit.used_basis_change
        cert = certify(tower, limit)
        assert cert.valid and cert.rank == 1

    def test_shear_exhausts_the_catalog(self):
        tower, _, _ = gen_scenario(self.PARAMS)
        lev = tower.levels[1]
        spec = lev.complex.spec
        mid = tower.d - 1
        one = RingTowerElement.one(spec)
        zero = RingTowerElement.zero(spec)
        shear = Matrix(spec, [[one, one], [zero, one]])
        unshear = Matrix(spec, [[one, -one], [zero, one]])
        permuted = transform_complex(lev.complex, {mid: (shear, unshear)})
        refresh_level(tower, 1, self.PARAMS, permuted)
        assert validate_hypotheses(tower).ok
        with pytest.raises(NoCompatibleChain):
            patch(tower, 2)


def _signed_change(rng: random.Random, spec, size: int) -> tuple[Matrix, Matrix]:
    """A random signed permutation matrix and its inverse."""
    perm = rng.sample(range(size), size)
    signs = [rng.choice((1, -1)) for _ in range(size)]
    zero = RingTowerElement.zero(spec)
    ent = [[zero] * size for _ in range(size)]
    inv = [[zero] * size for _ in range(size)]
    for i, (j, s) in enumerate(zip(perm, signs)):
        ent[i][j] = inv[j][i] = RingTowerElement.constant(spec, s)
    return Matrix(spec, ent), Matrix(spec, inv)


def _rebase_cases():
    """(name, base, candidate): random complexes of two or more terms
    over Z/p^2 with level 1, and bases over Z/p that are the base change
    of the candidate moved by random signed permutations, sheared in one
    degree, or of the candidate with one more term.  Sheared candidates
    have ranks of at most 2, so their failing searches stay short."""
    rng = random.Random(1818)

    def draw(spec, max_rank):
        while True:
            cand = random_patch_complex(rng, spec, max_rank=max_rank)
            if len(cand.ranks) >= 2 and max(cand.ranks) >= 2:
                return cand

    cases = []
    for p in (2, 3):
        high, low = make_patch_ring(p, 2, 1, 1), make_patch_ring(p, 1, 1, 1)
        for _ in range(2):
            cand = draw(high, 3)
            moved = {deg: _signed_change(rng, high, cand.rank(deg)) for deg in cand.degrees}
            cases.append(("moved", tensor_along(transform_complex(cand, moved), low), cand))
            longer = make_complex(high, cand.lo, cand.ranks + (0,), [*cand.diffs, Matrix.zero(high, 0, cand.ranks[-1])])
            cases.append(("ranks", tensor_along(longer, low), cand))
            cand = draw(high, 2)
            deg = next(deg for deg in cand.degrees if cand.rank(deg) == 2)
            a = rng.randrange(1, p * p)
            sheared = transform_complex(cand, {deg: (shear_matrix(high, 2, a), shear_matrix(high, 2, -a))})
            cases.append(("sheared", tensor_along(sheared, low), cand))
    return cases


class TestRebaseOnto:
    @pytest.mark.parametrize("case", _rebase_cases(), ids=lambda c: c[0])
    def test_agrees_with_the_matrix_search_at_every_budget(self, monkeypatch, case):
        # the same complex, or None, at every budget pins the attempt at
        # which each search succeeds, so the order and the count agree
        _, base, cand = case
        for budget in range(1, 201):
            monkeypatch.setattr(patcher, "BASIS_CHANGE_BUDGET", budget)
            assert _rebase_onto(base, cand) == reference_rebase_onto(base, cand), budget


class TestShearedTowers:
    def test_search_does_no_ring_products_per_attempt(self, monkeypatch):
        assert patcher.BASIS_CHANGE_BUDGET == 20000
        calls = []
        mul = RingTowerElement.__mul__

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(RingTowerElement, "__mul__", counted)
        counts = []
        for budget in (1000, 20000):
            monkeypatch.setattr(patcher, "BASIS_CHANGE_BUDGET", budget)
            tower = sheared_tower((1, 2))
            calls.clear()
            with pytest.raises(NoCompatibleChain):
                patch(tower, 2)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_three_levels_rebase_the_last_two(self):
        limit = patch(sheared_tower((1, 2, 2)), 2)
        assert (limit.chain, limit.used_basis_change) == ([2, 3], True)

    @pytest.mark.parametrize(
        "precisions, argv, code",
        [((1, 2), [], 3), ((1, 2, 2), [], 0), ((1, 2, 3, 3), ["--precision", "3"], 3)],
        ids=["2-levels", "3-levels", "4-levels"],
    )
    def test_patch_finishes_in_a_child(self, tmp_path, precisions, argv, code):
        # each took 4-25 s through two ring-matrix products per attempt
        path = tmp_path / "tower.json"
        path.write_text(canonical_dumps(tower_to_obj(sheared_tower(precisions))))
        done = run_cli_under_memory_limit(["patch", str(path), "--format", "json", *argv], timeout=30)
        assert done.returncode == code, done.stderr
        obj = json.loads(done.stdout)
        if code:
            assert obj["error"] == "NoCompatibleChain"
        else:
            assert (obj["chain"], obj["used_basis_change"], obj["valid"]) == ([2, 3], True, True)


class TestAdversarialCertify:
    def test_zero_limit_violates_the_height_budget(self):
        tower, _, _ = gen_scenario(FAST)
        spec = make_patch_ring(3, 2, 2, 1)
        bad = PatchLimit(
            precision=2,
            complex=minimize(
                __import__("patchtower.complexes", fromlist=["make_complex"]).make_complex(
                    spec, tower.d - 1, [1, 1], [Matrix.zero(spec, 1, 1)]
                )
            ),
            i_images=[dict(x) for x in tower.levels[-1].i_images],
            phi_images=[dict(x) for x in tower.levels[-1].phi_images],
            chain=[1, 2],
            used_basis_change=False,
        )
        with pytest.raises(HeightAmplitudeViolated):
            certify(tower, bad)


def test_lower_cohomology_kill_in_the_standard_tower():
    params = ScenarioParams(p=3, q=2, r=1, precisions=(1, 2), seed=2)
    tower, _, _ = gen_scenario(params)
    limit = patch(tower, 2)
    cert = certify(tower, limit)
    low = tower.d - 1
    for lev in tower.levels:
        assert cohomology(lev.complex, low).cardinality() > 1
    assert cert.ha_obj["cohomology_zero"][str(low)] is True
    assert cert.ha_obj["cohomology_zero"][str(tower.d)] is False
