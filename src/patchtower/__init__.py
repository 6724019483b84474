"""Exact-arithmetic engine for minimal complexes over finite local rings,
graded homological invariants, and tower patching certificates."""

from .complexes import (
    FiniteModuleData,
    FreeComplex,
    TauProfile,
    cohomology,
    dual,
    koszul_complex,
    make_complex,
    minimize,
    tau_profile,
    tensor_along,
)
from .graded import (
    GradedModule,
    HAReport,
    ext_module,
    groebner_basis,
    minimal_graded_resolution,
    module_invariants,
    support_height_profile,
    verify_height_amplitude,
)
from .linalg import Matrix, expand_scalars
from .patcher import (
    FreenessCertificate,
    PatchingTower,
    RInfinityModel,
    certify,
    patch,
    validate_hypotheses,
)
from .rings import (
    RingSpec,
    RingTowerElement,
    base_change,
    coefficient_ring,
    graded_ring,
    make_patch_ring,
)
from .scenarios import ScenarioParams, gen_scenario

__version__ = "0.1.0"
