"""The one size policy: every refusal by a dense-cell count is raised by
``linalg.check_cells``, and each site's count and message are pinned at
the edge of its bound."""

import ast
from pathlib import Path

import pytest

from patchtower import complexes, linalg, patcher, scenarios
from patchtower.errors import ExpansionTooLarge
from patchtower.linalg import MAX_EXPANDED_CELLS, Matrix, _monomial_expansion, expand_scalars
from patchtower.patcher import RInfinityModel
from patchtower.rings import make_patch_ring
from patchtower.scenarios import ScenarioParams
from util import Admitted, size_checks, tall_complex

SRC = Path(__file__).resolve().parent.parent / "src" / "patchtower"


def constructions(node) -> list[ast.Call]:
    """The calls of ``ExpansionTooLarge`` or ``<module>.ExpansionTooLarge`` under ``node``."""
    names = ("id", "attr")
    return [
        n for n in ast.walk(node)
        if isinstance(n, ast.Call) and "ExpansionTooLarge" in (getattr(n.func, name, None) for name in names)
    ]


def test_only_check_cells_constructs_expansion_too_large():
    # a refusal written out by hand at a size site would bypass the one policy
    found, allowed = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, call.lineno) for call in constructions(tree)}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) == ("linalg.py", "check_cells"):
                allowed |= {(path.name, call.lineno) for call in constructions(fn)}
    assert len(allowed) == 1 and found == allowed


F9T2 = make_patch_ring(3, 2, 2, 1)  # rho = 9
F3_L3_Q2 = make_patch_ring(3, 1, 3, 2)  # rho = 729
F9_L2_Q2 = make_patch_ring(3, 2, 2, 2)  # rho = 81

# site, the module whose check_cells it calls, the call at size n, the
# largest admitted n, its count, the limit, and the refusal at n + 1
EDGES = [
    pytest.param(
        linalg, lambda n: expand_scalars(Matrix.zero(F3_L3_Q2, 1, n)), 31, 729 * 729 * 31, MAX_EXPANDED_CELLS,
        "a dense 729x23328 expansion exceeds 16777216 cells", id="expand_scalars",
    ),
    pytest.param(
        linalg, lambda q: _monomial_expansion(make_patch_ring(2, 1, 1, q), (1,) + (0,) * (q - 1)), 12, 2**24,
        MAX_EXPANDED_CELLS, "a dense 8192x8192 expansion exceeds 16777216 cells", id="monomial_expansion",
    ),
    pytest.param(
        scenarios, lambda q: ScenarioParams(2, q, 0, precisions=(1, 2)).resolved().validate(), 6, 2**24,
        MAX_EXPANDED_CELLS, "the level-2 ring's 2^14 x 2^14 multiplication matrix exceeds 16777216 cells",
        id="level_ring",
    ),
    pytest.param(
        complexes, lambda n: complexes._all_cohomology(tall_complex(F9T2, n)), 455, 2 * 4087 * (4095 + 4087),
        4 * MAX_EXPANDED_CELLS,
        "the cohomology of a top degree of rank 456 (4104 coordinates, 4096 summands, 67174400 cells)"
        " exceeds 67108864 cells",
        id="top_degree",
    ),
    pytest.param(
        complexes, lambda n: complexes._all_cohomology(complexes.make_complex(F9_L2_Q2, 0, [n], [])), 71,
        2 * 5751**2 + 71**2, 4 * MAX_EXPANDED_CELLS,
        "the actions on a free degree of rank 72 (2 x 5832^2 cells) exceed 67108864 cells", id="free_degree",
    ),
    pytest.param(
        patcher, lambda d: (model := RInfinityModel(3, 1, 1, d)).quotient([model.variable(0)]), 4095, 4096**2,
        MAX_EXPANDED_CELLS,
        "the degree-4096 model has 4097 monomials, and its quotient by 1 generators 16785409 cells, past 16777216",
        id="rinf_quotient",
    ),
]


@pytest.mark.parametrize("module, call, n, cells, limit, message", EDGES)
def test_size_bound_edges(module, call, n, cells, limit, message):
    # the largest admitted input stops right after its count is checked,
    # so nothing it admits is allocated; one step past it is refused
    with size_checks(module, stop=True) as counted, pytest.raises(Admitted):
        call(n)
    assert [c[:2] for c in counted] == [(cells, limit)]
    with size_checks(module) as counted, pytest.raises(ExpansionTooLarge) as refused:
        call(n + 1)
    assert str(refused.value) == message
    assert len(counted) == 1 and counted[0][0] > limit
