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
    Cochain0,
    Cochain1,
    CoboundaryMatrices,
    FreeAbelianSection,
    ObstructionReport,
    SectionObstruction,
    build_coboundary_matrices,
    cech_invariants,
    coboundary0,
    fa_section,
    obstruction,
    obstruction_report,
    zf_restrict,
)
from .ctxlogic import (
    Atom,
    And,
    Classification,
    ContextProfile,
    Implies,
    Not,
    Or,
    Proposition,
    SevenValue,
    ThreeValue,
    classify,
    eval_in_context,
    parse_proposition,
    profile,
    seven_value_of,
)
from .dynamics import (
    Grid,
    LambdaState,
    Observables,
    PhysicalParams,
    compute_observables,
    evolve,
    gaussian_state,
    harmonic_potential,
    lambda_from_sigma,
    physical_params,
    polar_compose,
    polar_decompose,
    quantum_potential,
    step,
    two_gaussian_state,
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
    GlobalAssignment,
    IncidenceMatrix,
    NoncontextualityResult,
    build_incidence,
    classify_contextuality,
    contextual_fraction,
    enumerate_globals,
    is_noncontextual,
    model_from_global_weights,
    sheaf_check,
)
from .presheaf import (
    CompatibilityReport,
    CompatibilityViolation,
    EmpiricalModel,
    LocalSection,
    SupportModel,
    build_model,
    check_compatibility,
    deterministic_support,
    enumerate_sections,
    load_model,
    marginalize,
    model_to_dict,
    restrict,
    support_of,
)
from .scenario import (
    Context,
    ContextPoset,
    MeasurementScenario,
    Nerve,
    Observable,
    build_context_poset,
    build_nerve,
    build_scenario,
    load_scenario,
)

__version__ = "0.1.0"
