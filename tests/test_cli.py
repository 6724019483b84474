import contextlib
import hashlib
import itertools
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from patchtower import graded, serialize
from patchtower.cli import main
from patchtower.complexes import koszul_complex, make_complex
from patchtower.errors import ExpansionTooLarge, InsufficientTower, InvalidInput, InvalidParameter, InvalidParams
from patchtower.graded import GradedModule
from patchtower.linalg import Matrix
from patchtower.rings import RingTowerElement, graded_ring, make_patch_ring
from patchtower.patcher import certify, patch
from patchtower.scenarios import ScenarioParams, gen_scenario
from util import run_cli_under_memory_limit, run_under_memory_limit


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def koszul_file(tmp_path):
    spec = graded_ring(3, 2)
    t1, t2 = RingTowerElement.variable(spec, 0), RingTowerElement.variable(spec, 1)
    path = tmp_path / "koszul.json"
    path.write_text(serialize.canonical_dumps(serialize.complex_to_obj(koszul_complex(spec, [t1, t2]))))
    return path


class TestVerifyHA:
    def test_passes_on_koszul(self, capsys, koszul_file):
        code, out = run(capsys, ["verify-ha", str(koszul_file), "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["all_pass"] and obj["height_profile"] == [2]

    def test_text_format(self, capsys, koszul_file):
        code, out = run(capsys, ["verify-ha", str(koszul_file)])
        assert code == 0 and "overall: pass" in out

    def test_malformed_json_is_invalid_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, out = run(capsys, ["verify-ha", str(bad), "--format", "json"])
        assert code == 2
        assert json.loads(out)["error"] == "InvalidInput"

    def test_unit_entry_is_invalid_input(self, capsys, tmp_path):
        spec = graded_ring(3, 1)
        one = RingTowerElement.one(spec)
        cx = make_complex(spec, 0, [1, 1], [Matrix(spec, [[one]])])
        path = tmp_path / "unit.json"
        path.write_text(serialize.canonical_dumps(serialize.complex_to_obj(cx)))
        code, out = run(capsys, ["verify-ha", str(path), "--format", "json"])
        assert code == 2
        assert json.loads(out)["error"] == "NotMinimalInput"


GRADED_RING = {"p": 3, "m": 1, "n": 0, "q": 1, "kind": "graded"}


@pytest.mark.parametrize(
    "command, obj",
    [
        pytest.param(
            "verify-ha",
            {"ring": GRADED_RING, "lo": 0, "ranks": [1, 1], "differentials": 5},
            id="differentials-not-a-list",
        ),
        pytest.param(
            "verify-ha",
            {"ring": GRADED_RING, "lo": 0, "ranks": [1, 1], "differentials": [[5]]},
            id="verify-ha-row-not-a-list",
        ),
        pytest.param(
            "minimize",
            {"ring": GRADED_RING, "lo": 0, "ranks": [1, 1], "differentials": [[5]]},
            id="minimize-row-not-a-list",
        ),
        pytest.param(
            "invariants",
            {"ring": GRADED_RING, "gens": 1, "relations": [5]},
            id="relation-row-not-a-list",
        ),
    ],
)
def test_malformed_file_is_invalid_input(capsys, tmp_path, command, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, [command, str(path), "--format", "json"])
    assert code == 2
    assert json.loads(out)["error"] == "InvalidInput"
    assert "Traceback" not in out


class TestInvariantsAndMinimize:
    def test_invariants_record(self, capsys, tmp_path):
        spec = graded_ring(3, 2)
        t1 = RingTowerElement.variable(spec, 0)
        mod = GradedModule.quotient_by_ideal(spec, [t1])
        path = tmp_path / "mod.json"
        path.write_text(serialize.canonical_dumps(serialize.graded_module_to_obj(mod)))
        code, out = run(capsys, ["invariants", str(path), "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["projdim"] == 1 and obj["dim"] == 1 and obj["perfect"] is True

    def test_minimize_roundtrip(self, capsys, tmp_path):
        spec = make_patch_ring(3, 1, 1, 1)
        one = RingTowerElement.one(spec)
        t = RingTowerElement.variable(spec, 0)
        zero = RingTowerElement.zero(spec)
        cx = make_complex(spec, 0, [2, 2], [Matrix(spec, [[one, zero], [zero, t]])])
        path = tmp_path / "cx.json"
        path.write_text(serialize.canonical_dumps(serialize.complex_to_obj(cx)))
        code, out = run(capsys, ["minimize", str(path), "--format", "json"])
        assert code == 0
        back = serialize.complex_from_obj(json.loads(out))
        assert back.ranks == (1, 1)
        assert back.diffs[0].entries == ((t,),)


class TestGenPatch:
    def test_roundtrip_and_determinism(self, capsys, tmp_path):
        argv = ["gen", "--q", "1", "--r", "1", "--seed", "4", "--out-dir", str(tmp_path / "a"), "--format", "json"]
        code, _ = run(capsys, argv)
        assert code == 0
        argv2 = ["gen", "--q", "1", "--r", "1", "--seed", "4", "--out-dir", str(tmp_path / "b"), "--format", "json"]
        run(capsys, argv2)
        a = (tmp_path / "a" / "tower.json").read_bytes()
        b = (tmp_path / "b" / "tower.json").read_bytes()
        assert a == b

        code, out = run(capsys, ["patch", str(tmp_path / "a" / "tower.json"), "--precision", "2", "--format", "json"])
        assert code == 0
        cert = json.loads(out)
        sidecar = json.loads((tmp_path / "a" / "expected.json").read_text())
        assert cert["rank"] == sidecar["expected"]["rank"]
        assert cert["valid"] is True
        assert cert["tau"] == sidecar["expected"]["tau"]
        assert cert["limit_differentials"] == sidecar["expected"]["limit_differentials"]

    def test_violation_exit_code(self, capsys, tmp_path):
        argv = [
            "gen", "--q", "1", "--r", "1", "--seed", "4",
            "--perturbation", "tau_out_of_range",
            "--out-dir", str(tmp_path), "--format", "json",
        ]
        run(capsys, argv)
        code, out = run(capsys, ["patch", str(tmp_path / "tower.json"), "--precision", "2", "--format", "json"])
        assert code == 1
        assert json.loads(out)["error"] == "TauOutOfRange"

    def test_invalid_params_exit_code(self, capsys, tmp_path):
        code, out = run(capsys, ["gen", "--q", "1", "--r", "2", "--out-dir", str(tmp_path), "--format", "json"])
        assert code == 2

    @pytest.mark.parametrize("precisions", [["2", "1"], ["1", "1", "3"]], ids=["2-1", "1-1-3"])
    def test_gen_refuses_precisions_that_no_chain_covers(self, capsys, tmp_path, precisions):
        # gen wrote these towers with exit 0 and a sidecar promising a
        # certificate, which patch then refused with exit 2 and exit 3
        argv = ["gen", "--q", "1", "--r", "1", "--precisions", *precisions, "--out-dir", str(tmp_path), "--format", "json"]
        code, out = run(capsys, argv)
        assert (code, json.loads(out)["error"]) == (2, "InvalidParams")
        assert not (tmp_path / "tower.json").exists()

    @pytest.mark.parametrize("precisions", [(2, 1), (1, 1, 3)], ids=["2-1", "1-1-3"])
    def test_patch_refuses_a_tower_that_no_chain_covers(self, capsys, tmp_path, precisions):
        # (1, 1, 3) has a level covering each step but no increasing chain
        # of them, and patch searched for one until NoCompatibleChain (exit 3)
        with mock.patch.object(ScenarioParams, "validate", lambda self: None):
            tower, _, _ = gen_scenario(ScenarioParams(p=2, q=1, r=1, precisions=precisions))
        path = tmp_path / "tower.json"
        path.write_text(serialize.canonical_dumps(serialize.tower_to_obj(tower)))
        code, out = run(capsys, ["patch", str(path), "--format", "json"])
        assert (code, json.loads(out)["error"]) == (2, "InsufficientTower")

    def test_every_tower_gen_accepts_patches_to_its_sidecar(self):
        # every list of 2 or 3 precisions in {1, 2, 3}: patch and certify
        # reach what the sidecar says for every list that gen accepts, and
        # patch refuses the tower of every list that gen refuses
        refused = 0
        for q, r in [(1, 1), (1, 0), (2, 0)]:
            for precisions in itertools.chain(*(itertools.product((1, 2, 3), repeat=n) for n in (2, 3))):
                params = ScenarioParams(p=2, q=q, r=r, precisions=precisions)
                target = min(max(precisions), len(precisions))
                try:
                    tower, sidecar, _ = gen_scenario(params)
                except InvalidParams:
                    refused += 1
                    with mock.patch.object(ScenarioParams, "validate", lambda self: None):
                        tower, _, _ = gen_scenario(params)
                    with pytest.raises(InsufficientTower):
                        patch(tower, target)
                    continue
                want = sidecar["expected"]
                assert want["target_precision"] == target
                cert = serialize.certificate_to_obj(certify(tower, patch(tower, target)))
                assert cert["valid"] is True
                assert (cert["precision"], cert["rank"], cert["tau"]) == (target, want["rank"], want["tau"])
                assert cert["limit_differentials"] == want["limit_differentials"]
        # the 16 lists per (q, r) that gen wrote and patch then refused
        assert refused == 3 * 16

    def test_tower_file_roundtrip(self, capsys, tmp_path):
        run(capsys, ["gen", "--q", "1", "--r", "0", "--seed", "8", "--out-dir", str(tmp_path), "--format", "json"])
        obj = json.loads((tmp_path / "tower.json").read_text())
        tower = serialize.tower_from_obj(obj)
        again = serialize.canonical_dumps(serialize.tower_to_obj(tower))
        assert again == (tmp_path / "tower.json").read_text()

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda o: o["params"].update(p=4), id="p-differs-from-level-rings"),
            pytest.param(lambda o: o["levels"][0].pop("complex"), id="level-without-complex"),
            pytest.param(
                lambda o: o["levels"][0].update(x_actions=list(o["levels"][0]["x_actions"].values())),
                id="x-actions-as-list",
            ),
            pytest.param(lambda o: o["levels"][1]["base_iso"][0].__setitem__(0, 10**30), id="huge-integer"),
            pytest.param(
                lambda o: o["base"]["module"].update(relations=[[3], [3]]), id="base-relations-too-many-rows"
            ),
            pytest.param(
                lambda o: o["base"]["module"].update(x_actions=[[[1, 2], [3, 4]]]), id="base-action-wrong-shape"
            ),
        ],
    )
    def test_malformed_tower_is_invalid_input(self, capsys, tmp_path, mutate):
        run(capsys, ["gen", "--q", "1", "--r", "0", "--seed", "8", "--out-dir", str(tmp_path), "--format", "json"])
        obj = json.loads((tmp_path / "tower.json").read_text())
        mutate(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(serialize.canonical_dumps(obj))
        code, out = run(capsys, ["patch", str(bad), "--format", "json"])
        assert code == 2
        assert json.loads(out)["error"] == "InvalidInput"

    @pytest.mark.parametrize("extra", [[], ["--precision", "1"]], ids=["default-precision", "precision-1"])
    def test_tower_without_levels_is_insufficient(self, capsys, tmp_path, extra):
        run(capsys, ["gen", "--q", "1", "--r", "0", "--seed", "0", "--out-dir", str(tmp_path), "--format", "json"])
        obj = json.loads((tmp_path / "tower.json").read_text())
        obj["levels"] = []
        bad = tmp_path / "empty.json"
        bad.write_text(serialize.canonical_dumps(obj))
        code, out = run(capsys, ["patch", str(bad), "--format", "json", *extra])
        assert (code, json.loads(out)) == (
            2, {"error": "InsufficientTower", "detail": "need at least two levels"}
        )


def round_trip_digests(capsys, tmp_path, gen_argv) -> dict:
    """sha256 of tower.json, expected.json and ``patch --format json`` stdout."""
    code, _ = run(capsys, ["gen", *gen_argv, "--out-dir", str(tmp_path)])
    assert code == 0
    code, out = run(capsys, ["patch", str(tmp_path / "tower.json"), "--format", "json"])
    assert code == 0
    return {
        "tower": hashlib.sha256((tmp_path / "tower.json").read_bytes()).hexdigest(),
        "expected": hashlib.sha256((tmp_path / "expected.json").read_bytes()).hexdigest(),
        "output": hashlib.sha256(out.encode("utf-8")).hexdigest(),
    }


# sha256 of the canonical bytes of one padded q=1 tower: the "tower-dense"
# item "0:none" recorded in perfbench/data/reference.json
DENSE_SEED0_SHA256 = {
    "tower": "488c851dc7aa4cbb3267a44beec2e59dffd8184782fa4851c94bc5470e5497aa",
    "expected": "a12a51aac443880895cb80bac8dc06f0b80b0234c6748d135445eb1f2addc27e",
    "output": "366c35a26770d83fbe51a91ec4b07cf6cf09f4584c6614cca9f21f4a1a53369c",
}

# the same for one q=2, r=0 tower: the "tower-wide" item "0:none"
WIDE_SEED0_SHA256 = {
    "tower": "0d7cbd0d99a713a7baecf60e31f50e4ee4d73963af8fec94091a348f44106027",
    "expected": "424b17706410b2864e7f26c25d948aa61498aa8d57bb6a5b33170751d83f68c3",
    "output": "63cbbe8c824c0fbc382af13ac35a2e669f1b665d1c2a9715542d247d9790cded",
}


# the same for one q=2, r=1 tower at the default precisions (1, 2, 2): its
# certificate reads the top cohomology's divisors over a two-variable ring
Q2R1_SEED7_SHA256 = {
    "tower": "068d1f82aa5a8c5aa652070080dc22b12ab62774e70d3e80b3e0e4cc1f3d191e",
    "expected": "6cab38fdcc128dbff6b697ba5f02ba0e12f210d1485df5407026e6dc0ce90b26",
    "output": "974f0a65b841badb1031590b69e7c551812de13c28d87f404d4a2773a88660d0",
}


def test_padded_tower_round_trip_bytes_are_pinned(capsys, tmp_path):
    argv = ["--p", "3", "--q", "1", "--r", "1", "--precisions", "1", "2", "2", "2", "2", "--seed", "0"]
    assert round_trip_digests(capsys, tmp_path, argv) == DENSE_SEED0_SHA256


def test_wide_tower_round_trip_bytes_are_pinned(capsys, tmp_path):
    argv = ["--p", "3", "--q", "2", "--r", "0", "--precisions", "1", "2", "--seed", "0"]
    assert round_trip_digests(capsys, tmp_path, argv) == WIDE_SEED0_SHA256


def test_q2_r1_tower_round_trip_bytes_are_pinned(capsys, tmp_path):
    argv = ["--p", "3", "--q", "2", "--r", "1", "--seed", "7"]
    assert round_trip_digests(capsys, tmp_path, argv) == Q2R1_SEED7_SHA256


def test_accepted_patch_computes_the_top_invariants_once(capsys, tmp_path):
    # the height-amplitude report's part iii already holds the invariants
    # of the top cohomology; certify used to rebuild the module and run
    # module_invariants on it a second time
    argv = ["--p", "3", "--q", "2", "--r", "1", "--seed", "7"]
    assert run(capsys, ["gen", *argv, "--out-dir", str(tmp_path)])[0] == 0
    real = graded.module_invariants
    calls = []

    def counted(m):
        calls.append(m)
        return real(m)

    # every patchtower namespace that holds the function, as the tracer does
    holders = [
        mod for name, mod in sys.modules.items()
        if name.startswith("patchtower") and getattr(mod, "module_invariants", None) is real
    ]
    with contextlib.ExitStack() as stack:
        for mod in holders:
            stack.enter_context(mock.patch.object(mod, "module_invariants", counted))
        code, out = run(capsys, ["patch", str(tmp_path / "tower.json"), "--format", "json"])
    assert (code, len(calls)) == (0, 1)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == Q2R1_SEED7_SHA256["output"]


@pytest.mark.parametrize(
    "relations, code, sha256",
    [
        # the top cohomology modulo the variables has 9 elements, the base 3
        ([[3]], 1, "e02f00a5a889a94bf439915afe78bb4eba6dd313fa8dabaef9f1a549752b30b0"),
        ([[0]], 0, "366c35a26770d83fbe51a91ec4b07cf6cf09f4584c6614cca9f21f4a1a53369c"),
    ],
)
def test_base_module_with_relations(capsys, tmp_path, relations, code, sha256):
    argv = ["gen", "--p", "3", "--q", "1", "--r", "1", "--precisions", "1", "2", "2", "--seed", "5"]
    run(capsys, [*argv, "--out-dir", str(tmp_path)])
    obj = json.loads((tmp_path / "tower.json").read_text())
    obj["base"]["module"]["relations"] = relations
    path = tmp_path / "edited.json"
    path.write_text(serialize.canonical_dumps(obj))
    got, out = run(capsys, ["patch", str(path), "--format", "json"])
    assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, sha256)


def test_action_entries_past_int64_products_keep_the_verdict(capsys, tmp_path):
    # entries congruent to the generated ones mod 9 whose int64 product
    # x_1[0, 1] * x_2[1, 0] = (9 * 1000000007)^2 would wrap past 2^63
    argv = ["--p", "3", "--q", "2", "--r", "0", "--precisions", "1", "2", "--seed", "0"]
    clean = round_trip_digests(capsys, tmp_path, argv)
    obj = json.loads((tmp_path / "tower.json").read_text())
    x1, x2 = obj["levels"][1]["x_actions"]["2"]
    x1[0][1] += 9 * 1000000007
    x2[1][0] += 9 * 1000000007
    path = tmp_path / "edited.json"
    path.write_text(serialize.canonical_dumps(obj))
    code, out = run(capsys, ["patch", str(path), "--format", "json"])
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (0, clean["output"])


def test_oversized_tower_is_refused_with_exit_2(tmp_path):
    # level 3 with q=3 would expand a 2 x 2 differential to 39366 x 39366
    # (11.5 GiB); its 19683 x 19683 multiplication matrices are refused
    # first, and the child's address space is capped at 2 GiB
    argv = ["gen", "--p", "3", "--q", "3", "--r", "1", "--precisions", "1", "2", "2", "--seed", "7"]
    done = run_cli_under_memory_limit([*argv, "--out-dir", str(tmp_path)], timeout=120)
    assert done.returncode == 2
    assert done.stdout.startswith("ExpansionTooLarge: ")
    assert "Traceback" not in done.stdout + done.stderr


@pytest.fixture(scope="module")
def padded_tower_obj(tmp_path_factory):
    out = tmp_path_factory.mktemp("padded")
    argv = ["gen", "--q", "1", "--r", "1", "--precisions", "1", "2", "2", "2", "2", "--seed", "0"]
    assert main([*argv, "--out-dir", str(out), "--format", "json"]) == 0
    return json.loads((out / "tower.json").read_text())


@pytest.mark.parametrize("precision", [3, 2**70], ids=["3", "2^70"])
def test_uncovered_precision_is_refused_before_the_chain_search(capsys, tmp_path, padded_tower_obj, precision):
    # levels 1-5 at precisions (1, 2, 2, 2, 2) cover steps 1 and 2; one
    # list of levels per step up to --precision was built before the
    # refusal, so 3 * 10^6 took 3.6 s and 2^70 never finished
    path = tmp_path / "tower.json"
    path.write_text(serialize.canonical_dumps(padded_tower_obj))
    argv = ["patch", str(path), "--precision", str(precision), "--format", "json"]
    want = (2, {"error": "InsufficientTower", "detail": f"no level covers every precision step up to {precision}"})
    code, out = run(capsys, argv)
    assert (code, json.loads(out)) == want
    done = run_cli_under_memory_limit(argv)
    assert (done.returncode, json.loads(done.stdout)) == want


def _modulus_too_large(m: int) -> str:
    return f"modulus 3^{m} is too large for int64 elimination"


def _too_large(q: int) -> str:
    return f"the level-3 ring's 3^{3 * q} x 3^{3 * q} multiplication matrix exceeds 16777216 cells"


@pytest.mark.parametrize(
    "argv, error, detail",
    [
        pytest.param(["--q", "1", "--r", "1", "--rank", str(2**70)], "InvalidParams", f"rank must be <= 65536, got {2**70}", id="rank-2^70"),
        pytest.param(["--q", "1", "--r", "1", "--rank", "65537"], "InvalidParams", "rank must be <= 65536, got 65537", id="rank-2^16+1"),
        pytest.param(["--q", "65536", "--r", "0"], "ExpansionTooLarge", _too_large(65536), id="q-2^16"),
        pytest.param(["--q", str(2**70), "--r", "0"], "ExpansionTooLarge", _too_large(2**70), id="q-2^70"),
        # at the default three levels q = 2 gives rho = 3^6 = 729, q = 3 rho = 3^9
        pytest.param(["--q", "3", "--r", "0"], "ExpansionTooLarge", _too_large(3), id="q-3"),
        pytest.param(["--q", "1", "--r", "1", "--precisions", "1", str(2**62)], "InvalidParameter", _modulus_too_large(2**62), id="precision-2^62"),
        pytest.param(["--q", "1", "--r", "1", "--precisions", "1", str(2**70)], "InvalidParameter", _modulus_too_large(2**70), id="precision-2^70"),
    ],
)
def test_huge_gen_sizes_are_refused_at_once(capsys, tmp_path, argv, error, detail):
    # a rank of 2^70 hung in the direct-sum loop, a q of 2^16 or 2^70 in
    # building the structure maps, with q^2 exponent entries, and a
    # precision of 2^62 in computing 3^(2^62) for the level ring
    full = ["gen", *argv, "--out-dir", str(tmp_path), "--format", "json"]
    want = (2, {"error": error, "detail": detail})
    code, out = run(capsys, full)
    assert (code, json.loads(out)) == want
    done = run_cli_under_memory_limit(full)
    assert (done.returncode, json.loads(done.stdout)) == want
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "p, q, precisions, refused",
    [(3, 2, (1, 2, 2), False), (3, 3, (1, 2, 2), True), (2, 6, (1, 2), False), (2, 7, (1, 2), True)],
)
def test_top_ring_bound_is_exact(p, q, precisions, refused):
    # rho = p^(levels * q); rho^2 = 2^24 itself still passes
    params = ScenarioParams(p, q, 0, precisions=precisions).resolved()
    if refused:
        with pytest.raises(ExpansionTooLarge):
            params.validate()
    else:
        params.validate()
    ScenarioParams(3, 1, 1, rank=65536).resolved().validate()
    with pytest.raises(InvalidParams):
        ScenarioParams(3, 1, 1, rank=65537).resolved().validate()


def test_precision_bound_is_the_modulus_bound():
    # (3^19 - 1)^2 < 2^63 <= (3^20 - 1)^2; the first refused level is named
    ScenarioParams(3, 1, 1, precisions=(1, 2, 2)).resolved().validate()
    ScenarioParams(3, 1, 1, precisions=(1, 19)).resolved().validate()
    for precisions, m in [((1, 20), 20), ((1, 40, 2**62), 40)]:
        with pytest.raises(InvalidParameter, match=f"^modulus 3\\^{m} is"):
            ScenarioParams(3, 1, 1, precisions=precisions).resolved().validate()


@pytest.mark.parametrize("base_precision", [-1, -(2**70)], ids=["-1", "-2^70"])
def test_non_positive_base_precision_is_invalid_input(capsys, tmp_path, padded_tower_obj, base_precision):
    obj = json.loads(json.dumps(padded_tower_obj))
    obj["params"]["base_precision"] = base_precision
    path = tmp_path / "bad.json"
    path.write_text(serialize.canonical_dumps(obj))
    code, out = run(capsys, ["patch", str(path), "--format", "json"])
    assert (code, json.loads(out)) == (
        2, {"error": "InvalidInput", "detail": f"base precision must be >= 1, got {base_precision}"}
    )


def _level_ring_m(m):
    def mutate(obj):
        obj["levels"][0]["complex"]["ring"]["m"] = m

    return mutate


def _level_precision(m):
    def mutate(obj):
        obj["levels"][0]["complex"]["ring"]["m"] = m
        obj["levels"][0]["precision"] = m

    return mutate


def _base_precision(m):
    def mutate(obj):
        obj["params"]["base_precision"] = m

    return mutate


@pytest.mark.parametrize(
    "mutate, error, detail",
    [
        pytest.param(
            _level_ring_m(10**7), "InvalidInput",
            f"level 1 ring has (p, q, m, n) = (3, 1, {10**7}, 1), expected (3, 1, 1, 1)", id="ring-m-10^7",
        ),
        pytest.param(
            _level_ring_m(2**70), "InvalidInput",
            f"level 1 ring has (p, q, m, n) = (3, 1, {2**70}, 1), expected (3, 1, 1, 1)", id="ring-m-2^70",
        ),
        pytest.param(
            _level_precision(2**70), "InvalidParameter",
            f"modulus 3^{2**70} is too large for int64 elimination", id="level-precision-2^70",
        ),
        pytest.param(
            _base_precision(2**70), "InvalidParameter",
            f"modulus 3^{2**70} is too large for int64 elimination", id="base-precision-2^70",
        ),
    ],
)
def test_huge_precision_is_refused_before_loading_elements(tmp_path, padded_tower_obj, mutate, error, detail):
    # building level 1's elements under a ring m of 10^7 took 4.6 s, and
    # under 2^70 (or a level or base precision of 2^70) never finished;
    # the ring header and the modulus are now checked first
    obj = json.loads(json.dumps(padded_tower_obj))
    mutate(obj)
    with mock.patch.object(serialize, "element_from_obj", side_effect=AssertionError("element built")):
        with pytest.raises(InvalidInput, match="level 1 ring|too large"):
            serialize.tower_from_obj(obj)
    path = tmp_path / "bad.json"
    path.write_text(serialize.canonical_dumps(obj))
    done = run_cli_under_memory_limit(["patch", str(path), "--format", "json"])
    assert done.returncode == 2
    assert json.loads(done.stdout) == {"error": error, "detail": detail}


@pytest.fixture(scope="module")
def q1r1_tower_obj(tmp_path_factory):
    out = tmp_path_factory.mktemp("q1r1")
    argv = ["gen", "--q", "1", "--r", "1", "--precisions", "1", "2", "2", "--seed", "5"]
    assert main([*argv, "--out-dir", str(out), "--format", "json"]) == 0
    return json.loads((out / "tower.json").read_text())


def _level_and_ring_n(value):
    def edit(obj):
        obj["levels"][0]["level"] = obj["levels"][0]["complex"]["ring"]["n"] = value

    return edit


def _level_rings_p(value):
    def edit(obj):
        for level in obj["levels"]:
            level["complex"]["ring"]["p"] = value

    return edit


@pytest.mark.parametrize(
    "edit, detail",
    [
        pytest.param(_level_rings_p(3.0), "3.0", id="level-rings-p-3.0"),
        pytest.param(lambda o: o["params"].update(q=1.5), "1.5", id="q-1.5"),
        pytest.param(lambda o: o["params"].update(q="1"), "'1'", id="q-string"),
        pytest.param(lambda o: o["params"].update(q=True), "True", id="q-true"),
        pytest.param(lambda o: o["params"].update(d=1.9), "1.9", id="d-1.9"),
        pytest.param(lambda o: o["params"].update(rinf_degree=2.5), "2.5", id="rinf-degree-2.5"),
        pytest.param(lambda o: o["levels"][0].update(precision=1.7), "1.7", id="level-precision-1.7"),
        pytest.param(lambda o: o["levels"][0]["complex"].update(lo="0"), "'0'", id="complex-lo-string"),
        pytest.param(lambda o: o["params"].update(precisions=[7, "x", None]), "got 'x'", id="precisions-junk"),
        pytest.param(lambda o: o["params"].update(precisions=[1.0, 2, 2]), "got 1.0", id="precisions-float"),
        pytest.param(lambda o: o["params"].update(precisions=[2, 2, 1]), "[2, 2, 1] differ from the levels' [1, 2, 2]", id="precisions-reordered"),
        pytest.param(_level_and_ring_n(2**70), f"{2**70} is outside [0, 65536]", id="level-and-ring-n-2^70"),
    ],
)
def test_tower_field_out_of_contract_is_invalid_input(capsys, tmp_path, q1r1_tower_obj, edit, detail):
    # each of these loaded on the old loaders, and patch exited 0 with the
    # unedited certificate, or 1 with a traceback (ring p 3.0); a level
    # of 2^70 never finished computing the exponent bound 3^(2^70)
    obj = json.loads(json.dumps(q1r1_tower_obj))
    edit(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, ["patch", str(path), "--format", "json"])
    assert code == 2
    got = json.loads(out)
    assert got["error"] == "InvalidInput" and detail in got["detail"]


@pytest.mark.parametrize(
    "edit, detail",
    [
        pytest.param(lambda o: o["levels"][0].update(base_iso=[]), "0 rows, expected 1", id="base-iso-empty"),
        pytest.param(
            lambda o: o["levels"][1]["base_iso"].append([1]), "2 rows, expected 1", id="base-iso-extra-row"
        ),
        pytest.param(
            lambda o: o["base"]["module"].update(relations=[]), "0 rows, expected 1", id="base-relations-empty"
        ),
    ],
)
def test_integer_matrix_rows_are_checked_at_load(capsys, tmp_path, q1r1_tower_obj, edit, detail):
    # a base_iso of [] or with an extra row loaded and patch reported
    # BaseMismatch (exit 1); base relations of [] loaded as a gens x 0
    # matrix and patch exited 0
    obj = json.loads(json.dumps(q1r1_tower_obj))
    edit(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, ["patch", str(path), "--format", "json"])
    assert (code, json.loads(out)) == (2, {"error": "InvalidInput", "detail": f"integer matrix has {detail}"})


def test_witness_column_count_is_checked_in_validation(capsys, tmp_path, q1r1_tower_obj):
    # the loader cannot know the top cohomology's generator count, so a
    # base_iso row of the wrong width reached validation and was reported
    # as BaseMismatch (exit 1)
    obj = json.loads(json.dumps(q1r1_tower_obj))
    obj["levels"][0]["base_iso"] = [[]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, ["patch", str(path), "--format", "json"])
    detail = "level 1: witness matrix has shape (1, 0), expected (1, 1)"
    assert (code, json.loads(out)) == (2, {"error": "ShapeMismatch", "detail": detail})


@pytest.fixture(scope="module")
def q2r0_tower_text(tmp_path_factory):
    # g = 2: a base module on one generator with no relations ([[]]), two
    # 1 x 1 base actions, and two 9 x 9 (level 1) and 81 x 81 (level 2)
    # action matrices in degree 2 of each level
    out = tmp_path_factory.mktemp("q2r0")
    argv = ["gen", "--q", "2", "--r", "0", "--precisions", "1", "2", "--seed", "0"]
    assert main([*argv, "--out-dir", str(out), "--format", "json"]) == 0
    return (out / "tower.json").read_text()


# one cell in each integer matrix of a q=2 r=0 tower: the empty row of the
# base relations gains it; the others have it put over an existing cell
MATRIX_CELLS = {
    "base-relations": lambda o: o["base"]["module"]["relations"][0],
    "base-x-action": lambda o: o["base"]["module"]["x_actions"][1][0],
    "level-x-action": lambda o: o["levels"][1]["x_actions"]["2"][0][40],
    "base-iso": lambda o: o["levels"][0]["base_iso"][0],
}
NOT_INT64 = {"true": True, "3.0": 3.0, "string-3": "3", "null": None, "list-1": [1], "2^63": 2**63, "-2^63-1": -(2**63) - 1}


def _put_cell(where, value):
    def edit(obj):
        row = MATRIX_CELLS[where](obj)
        if row:
            row[len(row) // 2] = value
        else:
            row.append(value)

    return edit


def _bool_row(where):
    def edit(obj):
        row = MATRIX_CELLS[where](obj)
        row[:] = [True] + [0] * (len(row) - 1)

    return edit


@pytest.mark.parametrize(
    "edit",
    [pytest.param(_put_cell(w, v), id=f"{w}-{k}") for w in MATRIX_CELLS for k, v in NOT_INT64.items()]
    + [pytest.param(_bool_row(w), id=f"{w}-row-of-true-and-zeros") for w in MATRIX_CELLS if w != "base-relations"]
    + [
        pytest.param(lambda o, row=row: o["base"]["module"].update(relations=[row]), id=f"base-relations-row-{k}")
        for k, row in {"empty-string": "", "empty-object": {}}.items()
    ],
)
def test_integer_matrix_cells_are_checked_at_load(capsys, tmp_path, q2r0_tower_text, edit):
    # numpy alone reads a True among ints as 1 and 3.0 as 3; each of these
    # must stay malformed input.  A row of "" or {} loaded as an empty row
    # (patch exited 0 on the relations below)
    obj = json.loads(q2r0_tower_text)
    edit(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, ["patch", str(path), "--format", "json"])
    assert (code, json.loads(out)["error"]) == (2, "InvalidInput")


def _level_actions(edit_degree):
    def edit(obj):
        actions = obj["levels"][0]["x_actions"]
        for key in list(actions):
            edit_degree(actions, key)

    return edit


@pytest.mark.parametrize(
    "tower, edit, detail",
    [
        pytest.param(
            "q1r1",
            _level_actions(lambda a, k: a.update({k: [[[1, 0]]]})),
            "level 1 degree 0: action matrices of shapes [(1, 2)], expected 0 of shape (1, 1)",
            id="g0-one-matrix",
        ),
        pytest.param(
            "q2r0",
            _level_actions(lambda a, k: a[k].pop()),
            "level 1 degree 2: action matrices of shapes [(9, 9)], expected 2 of shape (9, 9)",
            id="g2-one-matrix",
        ),
        pytest.param(
            "q2r0",
            _level_actions(lambda a, k: a.pop(k)),
            "level 1 degree 2: action matrices of shapes [], expected 2 of shape (9, 9)",
            id="g2-degree-missing",
        ),
        pytest.param(
            "q2r0",
            _level_actions(lambda a, k: a[k][1].pop()),
            "level 1 degree 2: action matrices of shapes [(9, 9), (8, 9)], expected 2 of shape (9, 9)",
            id="g2-row-missing",
        ),
    ],
)
def test_level_action_count_and_shape_are_checked_in_validation(
    capsys, tmp_path, q1r1_tower_obj, q2r0_tower_text, tower, edit, detail
):
    # a wrong count or shape was reported as ActionMismatch (exit 1), and
    # with g = 0 the count was not checked at all
    obj = json.loads(json.dumps(q1r1_tower_obj)) if tower == "q1r1" else json.loads(q2r0_tower_text)
    edit(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, ["patch", str(path), "--format", "json"])
    assert (code, json.loads(out)) == (2, {"error": "ShapeMismatch", "detail": detail})


def test_oversized_free_degree_is_refused_with_exit_2(tmp_path):
    # every level a one-term complex of rank 20000 (60000 coordinates):
    # its cohomology allocated a 60000 x 60000 identity (26.8 GiB) and
    # died in numpy with exit 1; the child's address space is capped at 2 GiB
    argv = ["gen", "--q", "1", "--r", "0", "--precisions", "1", "2", "--seed", "0"]
    assert main([*argv, "--out-dir", str(tmp_path), "--format", "json"]) == 0
    obj = json.loads((tmp_path / "tower.json").read_text())
    for level in obj["levels"]:
        assert level["complex"]["differentials"] == []
        level["complex"]["ranks"] = [20000]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    done = run_cli_under_memory_limit(["patch", str(path)])
    assert done.returncode == 2
    assert done.stdout.startswith("ExpansionTooLarge: ")
    assert "Traceback" not in done.stdout + done.stderr


def test_tall_top_degree_is_refused_with_exit_2(tmp_path):
    # every level ranks [1, 3000] with d = (T, 0, ..., 0)^T: the
    # expansions are only 9000 x 3 and 27000 x 9 cells, but the top
    # degree's cohomology built an 8998 x 9000 embedded kernel and died in
    # numpy with exit 1; the child's address space is capped at 2 GiB
    argv = ["gen", "--q", "1", "--r", "1", "--precisions", "1", "2", "--seed", "5"]
    assert main([*argv, "--out-dir", str(tmp_path), "--format", "json"]) == 0
    obj = json.loads((tmp_path / "tower.json").read_text())
    t, zero = [[[1], 1]], []
    for level in obj["levels"]:
        level["complex"]["ranks"] = [1, 3000]
        level["complex"]["differentials"] = [[[t]] + [[zero]] * 2999]
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(obj))
    done = run_cli_under_memory_limit(["patch", str(path), "--format", "json"])
    assert "Traceback" not in done.stdout + done.stderr
    got = json.loads(done.stdout)
    assert (done.returncode, got["error"]) == (2, "ExpansionTooLarge")
    assert got["detail"].startswith("the cohomology of a top degree of rank 3000 (9000 coordinates")

def test_oversized_power_series_model_is_refused_with_exit_2(tmp_path):
    # the base quotient of a degree-2^40 model in two variables listed
    # (2^40+1)^2 exponent vectors before any check
    argv = ["gen", "--q", "2", "--r", "0", "--precisions", "1", "2", "--seed", "0"]
    assert main([*argv, "--out-dir", str(tmp_path), "--format", "json"]) == 0
    obj = json.loads((tmp_path / "tower.json").read_text())
    obj["params"]["rinf_degree"] = 2**40
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    done = run_cli_under_memory_limit(["patch", str(path)])
    assert done.returncode == 2
    assert done.stdout.startswith("ExpansionTooLarge: ")
    assert "Traceback" not in done.stdout + done.stderr


def test_high_structure_map_exponent_gives_a_verdict(tmp_path):
    # an image exponent of 1500, admitted under rinf_degree 2000, raised
    # RecursionError in evaluate_at_matrices and patch exited 1 with a traceback
    argv = ["gen", "--q", "1", "--r", "0", "--precisions", "1", "2", "--seed", "0"]
    assert main([*argv, "--out-dir", str(tmp_path), "--format", "json"]) == 0
    obj = json.loads((tmp_path / "tower.json").read_text())
    obj["params"]["rinf_degree"] = 2000
    for level in obj["levels"]:
        level["i_images"] = [[[[1], 1], [[1500], 3]]]
    path = tmp_path / "high.json"
    path.write_text(json.dumps(obj))
    done = run_cli_under_memory_limit(["patch", str(path), "--format", "json"], timeout=60)
    assert "Traceback" not in done.stdout + done.stderr
    got = json.loads(done.stdout)
    assert (done.returncode, got["valid"], got["i_images"]) == (0, True, [[[[1], 1], [[1500], 3]]])


@pytest.mark.parametrize("exponent", [10**9, 2**62, -1])
def test_structure_map_exponent_outside_the_size_bound_is_refused(tmp_path, exponent):
    # 10**9 made a billion matrix products in a power cache; -1 sent the
    # recursive cache down without end and indexed the list cache from its end
    argv = ["gen", "--q", "1", "--r", "0", "--precisions", "1", "2", "--seed", "0"]
    assert main([*argv, "--out-dir", str(tmp_path), "--format", "json"]) == 0
    obj = json.loads((tmp_path / "tower.json").read_text())
    obj["params"]["rinf_degree"] = 2
    obj["levels"][-1]["i_images"] = [[[[exponent], 1]]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    done = run_cli_under_memory_limit(["patch", str(path), "--format", "json"], timeout=30)
    assert "Traceback" not in done.stdout + done.stderr
    got = json.loads(done.stdout)
    assert (done.returncode, got["error"]) == (2, "InvalidInput")
    assert str(exponent) in got["detail"]


@pytest.mark.parametrize("exponent", [[], [1, 0]])
def test_structure_map_exponent_of_the_wrong_length_is_refused(capsys, tmp_path, exponent):
    # [1, 0] for g = 1 raised IndexError in evaluate_at_matrices, and []
    # was read as a constant
    argv = ["gen", "--q", "1", "--r", "0", "--precisions", "1", "2", "--seed", "0"]
    assert main([*argv, "--out-dir", str(tmp_path), "--format", "json"]) == 0
    obj = json.loads((tmp_path / "tower.json").read_text())
    obj["levels"][-1]["i_images"] = [[[exponent, 1]]]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    code, out = run(capsys, ["patch", str(path), "--format", "json"])
    assert code == 2
    assert json.loads(out) == {
        "error": "InvalidInput",
        "detail": f"power-series exponents must have length g=1, got [{tuple(exponent)}]",
    }


def test_structure_map_exponent_at_the_size_bound_gives_a_verdict(tmp_path):
    argv = ["gen", "--q", "1", "--r", "0", "--precisions", "1", "2", "--seed", "0"]
    assert main([*argv, "--out-dir", str(tmp_path), "--format", "json"]) == 0
    obj = json.loads((tmp_path / "tower.json").read_text())
    obj["params"]["rinf_degree"] = 2
    for level in obj["levels"]:
        level["i_images"] = [[[[1], 1], [[2**16], 3]]]
    path = tmp_path / "high.json"
    path.write_text(json.dumps(obj))
    done = run_cli_under_memory_limit(["patch", str(path), "--format", "json"], timeout=30)
    assert "Traceback" not in done.stdout + done.stderr
    got = json.loads(done.stdout)
    assert (done.returncode, got["valid"]) == (0, True)


def _graded_module_over(p: int) -> dict:
    # F_p[T1,T2]/(T1, T1^2 - T2): a complete intersection of projdim 2
    return {
        "ring": {"p": p, "m": 1, "n": 0, "q": 2, "kind": "graded"},
        "gens": 1,
        "relations": [[[[[1, 0], 1]], [[[0, 1], p - 1], [[2, 0], 1]]]],
    }


@pytest.mark.parametrize(
    "p, code",
    [(2**61 - 1, 0), (2**64 - 59, 0), (2**64, 2), (2**89 - 1, 2)],
    ids=["2^61-1", "2^64-59", "2^64", "2^89-1"],
)
def test_large_graded_prime_is_decided_at_once(tmp_path, p, code):
    # primality was trial division up to sqrt(p): at 2^61-1 the loader was
    # still dividing when stopped after minutes; past 2^64 no base set of
    # the Miller-Rabin test is known to decide it, so p is refused
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(_graded_module_over(p)))
    argv = ["invariants", str(path), "--format", "json"]
    done = run_cli_under_memory_limit(argv)
    assert done.returncode == code
    got = json.loads(done.stdout)
    if code == 0:
        assert (got["projdim"], got["dim"]) == (2, 0)
    else:
        assert got["error"] == "InvalidParameter"


def test_invariants_refusal_after_a_long_syzygy_run(tmp_path):
    # the resolution of this 2-generator module over F_7[T1,T2,T3] spent
    # about a minute in one syzygy run before the refusal, with only the
    # coprime criterion pruning pairs and pairs taken by lcm alone
    ring = graded_ring(7, 3)
    cols = [
        {(1, (1, 0, 2)): 3, (1, (0, 1, 2)): 5, (0, (0, 0, 0)): 6},
        {(0, (0, 0, 1)): 1, (0, (1, 2, 0)): 2},
        {(1, (1, 0, 2)): 2, (1, (1, 1, 1)): 3, (0, (0, 1, 0)): 1, (1, (0, 0, 0)): 3},
        {(1, (1, 2, 0)): 2, (0, (1, 0, 0)): 3},
    ]
    mod = GradedModule(ring, 2, graded.columns_to_matrix(ring, cols, 2))
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(serialize.graded_module_to_obj(mod)))
    done = run_cli_under_memory_limit(["invariants", str(path), "--format", "json"], timeout=30)
    assert done.returncode == 2
    assert json.loads(done.stdout) == {
        "error": "UnsupportedRing",
        "detail": "minimization over the graded model hit a non-scalar unit entry",
    }


POOL = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "data" / "ha_pool.json").read_text())


@pytest.mark.parametrize(
    "command, kind, key",
    [
        ("verify-ha", "complexes", "p"),
        ("minimize", "complexes", "p"),
        ("invariants", "modules", "p"),
        ("invariants", "modules", "q"),
    ],
)
def test_pool_ring_float_is_invalid_input(capsys, tmp_path, command, kind, key):
    # verify-ha and invariants gave a traceback, and minimize exited 0
    # writing every coefficient as a float
    obj = json.loads(json.dumps(POOL[kind][0]))
    obj["ring"][key] = float(obj["ring"][key])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, [command, str(path), "--format", "json"])
    assert (code, json.loads(out)) == (
        2, {"error": "InvalidInput", "detail": f"malformed ring descriptor: expected an integer, got {obj['ring'][key]}"}
    )


GRADED_Q2 = {"p": 3, "m": 1, "n": 0, "q": 2, "kind": "graded"}


@pytest.mark.parametrize(
    "command, obj, detail",
    [
        pytest.param(
            "verify-ha", {"ring": GRADED_Q2, "lo": 0, "ranks": [2**70], "differentials": []},
            f"malformed complex: {2**70} is outside [0, 65536]", id="rank-2^70",
        ),
        pytest.param(
            "verify-ha", {"ring": GRADED_Q2, "lo": 0, "ranks": [65537], "differentials": []},
            "malformed complex: 65537 is outside [0, 65536]", id="rank-2^16+1",
        ),
        pytest.param(
            "verify-ha", {"ring": dict(GRADED_Q2, q=2**70), "lo": 0, "ranks": [1], "differentials": []},
            f"malformed ring descriptor: {2**70} is outside [0, 65536]", id="variables-2^70",
        ),
        pytest.param(
            "verify-ha",
            {"ring": GRADED_Q2, "lo": 0, "ranks": [1, 1], "differentials": [[[[[[2**70, 0], 1], [[0, 1], 1]]]]]},
            f"malformed element: {2**70} is outside [0, 65536]", id="exponent-2^70",
        ),
        pytest.param(
            "invariants", {"ring": GRADED_Q2, "gens": 1, "relations": [[[[[2**70, 0], 1]], [[[0, 1], 1]]]]},
            f"malformed element: {2**70} is outside [0, 65536]", id="module-exponent-2^70",
        ),
        pytest.param(
            "minimize",
            {"ring": {"p": 3, "m": 2**70, "n": 1, "q": 1, "kind": "patch"}, "lo": 0, "ranks": [1, 1],
             "differentials": [[[[[[0], 1]]]]]},
            f"malformed ring descriptor: {2**70} is outside [0, 65536]", id="ring-m-2^70",
        ),
        pytest.param(
            "minimize", {"ring": GRADED_Q2, "lo": 0, "ranks": [1, 2], "differentials": [[]]},
            "matrix has 0 rows, expected 2", id="rows-left-out",
        ),
    ],
)
def test_unbounded_size_is_invalid_input(capsys, tmp_path, command, obj, detail):
    # on the old loaders the first three ran out of time or memory
    # building a rank-2^70 free module or a ring in 2^70 variables, the
    # exponents never finished reducing, the modulus 3^(2^70) was never
    # computed, and a matrix given as [] was read as a zero matrix of any
    # declared height
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, [command, str(path), "--format", "json"])
    assert (code, json.loads(out)) == (2, {"error": "InvalidInput", "detail": detail})


K4090_SHA256 = "91a695f5ad7f620c01d85352622b7aa6ecc5fd7a518b5e0e09b2dfc60c5b48b7"


@pytest.mark.parametrize("k", [20000, 4090], ids=["T1^20000", "T1^4090"])
def test_graded_duality_with_a_large_exponent_is_answered(tmp_path, k):
    # d = [[T1, 0], [T2, T1^k]] gives left shifts [0, 1 - k], so the
    # Hilbert counts are k + 6 numbers, from degree 1 - k to 6, over the
    # C(k + 7, 2) exponent pairs of degree <= k + 5 (2.0e8 at k = 20000)
    t1, t2, t1k = [[[1, 0], 1]], [[[0, 1], 1]], [[[k, 0], 1]]
    obj = {"ring": GRADED_Q2, "lo": 0, "ranks": [2, 2], "differentials": [[[t1, []], [t2, t1k]]]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(obj))
    done = run_cli_under_memory_limit(["verify-ha", str(path), "--format", "json"], timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    report = json.loads(done.stdout)
    left = report["duality"]["hilbert_left"]
    assert report["all_pass"] and left == report["duality"]["hilbert_right"]
    assert (len(left), left[str(1 - k)], left["0"]) == (k + 6, 1, k + 1)
    if k == 4090:
        # the bytes of the exponent-table counter, which answered k = 4090
        assert hashlib.sha256(done.stdout.encode("utf-8")).hexdigest() == K4090_SHA256


@pytest.mark.parametrize("command", ["patch", "verify-ha", "invariants", "minimize"])
@pytest.mark.parametrize("kind", ["directory", "name-too-long", "not-utf-8", "deeply-nested", "5000-digit-integer"])
def test_unreadable_input_file_is_invalid_input(capsys, tmp_path, command, kind):
    # a directory, a path that open() refuses, bytes that are not UTF-8,
    # nesting past the recursion limit (RecursionError) and an integer
    # past int()'s digit limit (a ValueError that is not a JSONDecodeError)
    # escaped the loader with a traceback and exit 1
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "name-too-long":
        path = tmp_path / ("x" * 300 + ".json")
    elif kind == "deeply-nested":
        path.write_text("[" * 200_000)
    elif kind == "5000-digit-integer":
        path.write_text('{"p": ' + "7" * 5000 + "}")
    else:
        path.write_bytes(b"\xff\xfe{")
    code, out = run(capsys, [command, str(path), "--format", "json"])
    got = json.loads(out)
    assert (code, got["error"]) == (2, "InvalidInput")
    assert got["detail"].startswith(f"cannot read {path}: ")


def test_missing_and_malformed_input_keep_their_messages(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out = run(capsys, ["patch", str(missing), "--format", "json"])
    assert (code, json.loads(out)) == (2, {"error": "InvalidInput", "detail": f"no such file: {missing}"})
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out = run(capsys, ["patch", str(bad), "--format", "json"])
    assert (code, json.loads(out)["detail"]) == (2, f"malformed JSON in {bad}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)")


def test_out_dir_below_a_file_is_invalid_input(capsys, tmp_path):
    # mkdir under a regular file raised NotADirectoryError with exit 1
    blocker = tmp_path / "x.json"
    blocker.write_text("{}")
    out_dir = blocker / "sub"
    code, out = run(capsys, ["gen", "--q", "1", "--r", "1", "--out-dir", str(out_dir), "--format", "json"])
    got = json.loads(out)
    assert (code, got["error"]) == (2, "InvalidInput")
    assert got["detail"].startswith(f"cannot write to {out_dir}: ")
    assert blocker.read_text() == "{}"


@pytest.mark.parametrize(
    "degree, error, detail",
    [
        pytest.param("0", "InvalidParameter", "truncation degree must be >= 1", id="degree-0"),
        pytest.param("-3", "InvalidParameter", "truncation degree must be >= 1", id="degree-negative"),
        pytest.param(
            "100000",
            "ExpansionTooLarge",
            "the degree-100000 model has 100001 monomials, and its quotient by 1 generators 10000200001 cells, past 16777216",
            id="degree-100000",
        ),
    ],
)
def test_gen_refuses_a_power_series_degree_that_patch_refuses(capsys, tmp_path, degree, error, detail):
    # gen wrote these towers with exit 0, and patch then refused them
    argv = ["gen", "--q", "1", "--r", "0", "--rinf-degree", degree, "--out-dir", str(tmp_path), "--format", "json"]
    code, out = run(capsys, argv)
    assert (code, json.loads(out)) == (2, {"error": error, "detail": detail})
    assert not any(tmp_path.iterdir())


def test_gen_keeps_a_power_series_degree_that_patch_accepts(capsys, tmp_path):
    argv = ["gen", "--q", "1", "--r", "0", "--rinf-degree", "1", "--out-dir", str(tmp_path), "--format", "json"]
    assert run(capsys, argv)[0] == 0
    code, out = run(capsys, ["patch", str(tmp_path / "tower.json"), "--format", "json"])
    assert code == 0 and "error" not in json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="no-command"),
        pytest.param(["bogus"], id="unknown-command"),
        pytest.param(["gen", "--r", "1", "--out-dir", "x"], id="gen-without-q"),
        pytest.param(["gen", "--q", "1", "--r", "1", "--seed", "1.5", "--out-dir", "x"], id="seed-not-an-int"),
        pytest.param(["patch", "t.json", "--format", "xml"], id="format-not-a-choice"),
        pytest.param(["patch", "t.json", "u.json"], id="extra-positional"),
        pytest.param(["patch", "t.json", "--bogus"], id="unknown-option"),
    ],
)
def test_argv_usage_error_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ") and ": error: " in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"]], ids=["top-level", "gen"])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_abbreviated_and_inline_options_give_the_same_bytes(capsys, tmp_path):
    argv = ["gen", "--q", "1", "--r", "1", "--precisions", "1", "2", "2", "--seed", "5", "--out-dir", str(tmp_path)]
    assert run(capsys, argv)[0] == 0
    tower = str(tmp_path / "tower.json")
    spelled = run(capsys, ["patch", tower, "--precision", "2"])
    assert spelled[0] == 0
    assert run(capsys, ["patch", tower, "--prec", "2"]) == spelled
    assert run(capsys, ["patch", tower, "--precision=2"]) == spelled
    as_json = run(capsys, ["patch", "--format", "json", tower])
    assert as_json[0] == 0
    assert run(capsys, ["patch", "--format=json", tower]) == as_json


def test_commands_import_nothing_after_the_cli_module(tmp_path):
    # the cold cost of a command is its work: parsing the command line
    # pulls in no module (argparse's gettext calls loaded locale)
    code = "\n".join([
        "import contextlib, io, json, sys",
        "import patchtower.cli as cli",
        "before = set(sys.modules)",
        f"d = {str(tmp_path)!r}",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    gen = cli.main(['gen', '--q', '1', '--r', '1', '--precisions', '1', '2', '2', '--seed', '5', '--out-dir', d])",
        "    patch = cli.main(['patch', d + '/tower.json'])",
        "print(json.dumps([gen, patch, sorted(set(sys.modules) - before)]))",
    ])
    done = run_under_memory_limit(code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, 0, []]
