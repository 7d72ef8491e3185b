"""sheafkit: contextuality analysis for finite measurement scenarios.

The toolkit decides whether locally consistent measurement data admit a
global explanation.  Scenarios define contexts and their overlaps; empirical
models attach probability tables; the gluing module decides the
contextuality hierarchy and the contextual fraction; the cohomology module
computes integer-coefficient obstruction witnesses; the logic module
classifies cross-context truth patterns into seven modes; and the dynamics
module integrates the lambda-interpolated wave/classical equations.

Each layer is imported on first access to one of its names (PEP 562), so a
caller loads only the layers it uses: the combinatorial ones never import
numpy, and the dynamics never imports the combinatorial ones.
"""

__version__ = "0.1.0"

#: public name -> the layer module that defines it
_EXPORTS = {
    name: layer
    for layer, names in (
        ("cohomology", """
            CechInvariants CoboundaryMatrices ObstructionReport SectionObstruction
            build_coboundary_matrices cech_invariants obstruction obstruction_report
        """),
        ("ctxlogic", """
            Atom And Classification Implies Not Or Proposition SevenValue ThreeValue
            classify eval_in_context parse_proposition proposition_to_str seven_value_of
        """),
        ("dynamics", """
            Grid LambdaState Observables PhysicalParams compute_observables evolve
            gaussian_state harmonic_potential lambda_from_sigma physical_params
            polar_compose polar_decompose quantum_potential step two_gaussian_state
        """),
        ("errors", """
            DensityCollapse DominatedContext DuplicateObservable EmptyCover EmptySupport
            IncompatibleModel InvalidModel InvalidScenario NonMonotoneMap NotASubcontext
            OutcomeOutOfRange ParseError SheafkitError SizeLimitExceeded
            SolverBudgetExceeded StabilityViolation UnknownObservable
        """),
        ("gluing", """
            ContextualityVerdict FractionReport IncidenceMatrix build_incidence
            classify_contextuality contextual_fraction model_from_global_weights
            sheaf_check
        """),
        ("presheaf", """
            CompatibilityViolation EmpiricalModel SupportModel build_model check_compatibility
            enumerate_sections marginalize model_from_dict restriction_map section_label
            support_of
        """),
        ("scenario", "Context MeasurementScenario Observable build_scenario load_scenario"),
    )
    for name in names.split()
}

#: the package's modules, reachable as attributes after a bare ``import sheafkit``
_LAYERS = frozenset(_EXPORTS.values()) | {"intlinalg", "simplex"}


def __getattr__(name: str):
    layer = _EXPORTS.get(name, name)
    if layer not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it in this namespace.  Unlike
    # importlib.import_module, __import__ shows in ``-X importtime``.
    __import__(f"{__name__}.{layer}")
    if name != layer:
        globals()[name] = getattr(globals()[layer], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPORTS.keys() | _LAYERS)
