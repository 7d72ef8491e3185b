"""sheafkit: contextuality analysis for finite measurement scenarios.

The toolkit decides whether locally consistent measurement data admit a
global explanation.  Scenarios define contexts and their overlaps; empirical
models attach probability tables; the gluing module decides the
contextuality hierarchy and the contextual fraction; the cohomology module
computes integer-coefficient obstruction witnesses; the logic module
classifies cross-context truth patterns into seven modes; and the dynamics
module integrates the lambda-interpolated wave/classical equations.
"""

from .cohomology import (
    CechInvariants,
    CoboundaryMatrices,
    ObstructionReport,
    SectionObstruction,
    build_coboundary_matrices,
    cech_invariants,
    obstruction,
    obstruction_report,
)
from .ctxlogic import (
    Atom,
    And,
    Classification,
    Implies,
    Not,
    Or,
    Proposition,
    SevenValue,
    ThreeValue,
    classify,
    eval_in_context,
    parse_proposition,
    seven_value_of,
)
from .errors import (
    DensityCollapse,
    DominatedContext,
    DuplicateObservable,
    EmptyCover,
    EmptySupport,
    IncompatibleModel,
    InvalidModel,
    InvalidScenario,
    NonMonotoneMap,
    NotASubcontext,
    OutcomeOutOfRange,
    ParseError,
    SheafkitError,
    SizeLimitExceeded,
    SolverBudgetExceeded,
    StabilityViolation,
    UnknownObservable,
)
from .gluing import (
    ContextualityVerdict,
    FractionReport,
    IncidenceMatrix,
    build_incidence,
    classify_contextuality,
    contextual_fraction,
    model_from_global_weights,
    sheaf_check,
)
from .presheaf import (
    CompatibilityViolation,
    EmpiricalModel,
    LocalSection,
    SupportModel,
    build_model,
    check_compatibility,
    enumerate_sections,
    marginalize,
    restriction_map,
    support_of,
)
from .scenario import (
    Context,
    MeasurementScenario,
    Observable,
    build_scenario,
    load_scenario,
)

__version__ = "0.1.0"

# The dynamics pulls in numpy, which the combinatorial layers never need, so
# its names are imported on first access (PEP 562) rather than with the package.
_DYNAMICS_EXPORTS = frozenset({
    "Grid",
    "LambdaState",
    "Observables",
    "PhysicalParams",
    "compute_observables",
    "evolve",
    "gaussian_state",
    "harmonic_potential",
    "lambda_from_sigma",
    "physical_params",
    "polar_compose",
    "polar_decompose",
    "quantum_potential",
    "step",
    "two_gaussian_state",
})


def __getattr__(name: str):
    if name in _DYNAMICS_EXPORTS:
        from . import dynamics

        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _DYNAMICS_EXPORTS)
