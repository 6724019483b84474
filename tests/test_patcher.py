import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchtower.cli import main
from patchtower.complexes import cohomology, minimize
from patchtower.errors import (
    ActionMismatch,
    AugmentationNotKilled,
    BaseMismatch,
    HeightAmplitudeViolated,
    InsufficientTower,
    NoCompatibleChain,
    TauNotConstant,
    TauOutOfRange,
)
from patchtower.linalg import Matrix, smith_quotient
from patchtower.patcher import (
    PatchLimit,
    RInfinityModel,
    _transform_complex,
    certify,
    patch,
    validate_hypotheses,
)
from patchtower.rings import RingTowerElement, make_patch_ring
from patchtower.scenarios import (
    EXPECTED_ERRORS,
    PERTURBATIONS,
    ScenarioParams,
    _level_data,
    gen_scenario,
)
from util import TruncatedQuotient

FAST = ScenarioParams(p=3, q=1, r=1, precisions=(1, 2, 2), seed=5)


class TestRInfinityModel:
    def test_truncation(self):
        model = RInfinityModel(p=3, m=2, g=1, degree=2)
        x = model.variable(0)
        assert model.mul(model.mul(x, x), x) == {}
        assert model.power(model.add(model.one(), x), 2) == {(0,): 1, (1,): 2, (2,): 1}

    def test_evaluate_at_matrices(self):
        model = RInfinityModel(p=3, m=2, g=1, degree=2)
        mats = [np.array([[0, 0], [1, 0]], dtype=np.int64)]
        val = model.evaluate_at_matrices({(1,): 2, (0,): 1}, mats, 2, 9)
        assert val.tolist() == [[1, 0], [2, 1]]

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


def _refresh_level(tower, idx, params, new_complex):
    """Recompute the machinery-derived data of one level for a new complex."""
    params = params.resolved()
    lev = tower.levels[idx]
    lev.complex = new_complex
    x_actions, top_pres = _level_data(params, new_complex)
    lev.x_actions = x_actions
    quot = top_pres.quotient_by_columns(top_pres.actions)
    qs = smith_quotient(quot.relations, quot.gens, tower.p, lev.precision)
    lev.base_iso = qs.projection % (tower.p**lev.precision)


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
        permuted = _transform_complex(lev.complex, {mid: pair})
        _refresh_level(tower, 1, self.PARAMS, permuted)
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
        permuted = _transform_complex(lev.complex, {mid: (shear, unshear)})
        _refresh_level(tower, 1, self.PARAMS, permuted)
        assert validate_hypotheses(tower).ok
        with pytest.raises(NoCompatibleChain):
            patch(tower, 2)


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
