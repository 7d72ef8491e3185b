"""Global sections and the contextuality hierarchy.

A support model is strongly contextual when no outcome assignment over all
observables restricts into every context's support, and logically contextual
when some supported section extends to no such assignment.  At the
probabilistic level a model is noncontextual when a distribution over global
assignments reproduces every table; the noncontextual fraction generalizes
this to the maximal explainable subdistribution, computed exactly by the
revised simplex of :mod:`sheafkit.simplex`.  The LP is max sum(x) subject
to M x <= p, x >= 0, with M the 0/1 incidence of global assignments against
context sections and unit costs.  M exists only as its columns: each global
assignment is the k rows it restricts to, one per context, which the solver
prices as a sum of k dual entries under Bland's rule.  That one LP decides
noncontextuality too: a model is noncontextual exactly when its
noncontextual fraction is 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Union

from . import simplex
from .errors import GLOBAL_LIMIT, NODE_BUDGET, IncompatibleModel, InvalidModel, SizeLimitExceeded
from .presheaf import (
    EmpiricalModel,
    Section,
    SupportModel,
    build_model,
    check_compatibility,
    enumerate_sections,
    marginalize,
    restriction_map,
    section_count,
    support_of,
)
from .scenario import Context, MeasurementScenario

Number = Union[Fraction, float]


# ---------------------------------------------------------------------------
# Possibilistic level: sheaf condition on supports.


@dataclass(frozen=True)
class ContextualityVerdict:
    """Hierarchy verdict; ``noncontextual`` is None when undecided.

    ``sheaf_check`` alone cannot affirm probabilistic noncontextuality, so it
    leaves the field None unless logical contextuality already refutes it;
    :func:`classify_contextuality` fills it from the contextual-fraction LP.
    ``global_section_unique`` reports uniqueness of the gluing on supports
    (meaningful only when a global support section exists), which is an
    outcome tuple over ``scenario.observable_ids``.
    """

    noncontextual: bool | None
    logically_contextual: bool
    strongly_contextual: bool
    nonextendable_section: tuple[int, Section] | None
    global_support_section: Section | None
    global_section_unique: bool | None


class _Backtracker:
    """Depth-first assignment search with per-context forward pruning."""

    def __init__(self, support_model: SupportModel, node_budget: int) -> None:
        scenario = support_model.scenario
        self.scenario = scenario
        self.node_budget = node_budget
        self.nodes = 0
        degree = {oid: 0 for oid in scenario.observable_ids}
        for ctx in scenario.cover:
            for m in ctx.members:
                degree[m] += 1
        # Descending cover-degree maximizes early pruning; ties keep scenario
        # order so runs are reproducible.
        self.order = sorted(
            scenario.observable_ids, key=lambda o: (-degree[o], scenario.index(o))
        )
        self.contexts = [(ctx.members, support_model.support(ctx)) for ctx in scenario.cover]

    def _consistent(self, asg: dict[str, int]) -> bool:
        for members, tuples in self.contexts:
            positions = [(i, asg[m]) for i, m in enumerate(members) if m in asg]
            if not positions:
                continue
            if not any(all(t[i] == v for i, v in positions) for t in tuples):
                return False
        return True

    def search(self, fixed: Mapping[str, int], max_solutions: int) -> list[Section]:
        solutions: list[Section] = []
        asg = dict(fixed)
        todo = [o for o in self.order if o not in fixed]
        if not self._consistent(asg):
            return []

        def recurse(depth: int) -> bool:
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise SizeLimitExceeded(f"backtracking exceeded {self.node_budget} nodes")
            if depth == len(todo):
                solutions.append(tuple(asg[m] for m in self.scenario.observable_ids))
                return len(solutions) >= max_solutions
            obs = todo[depth]
            for value in range(self.scenario.arity(obs)):
                asg[obs] = value
                if self._consistent(asg) and recurse(depth + 1):
                    del asg[obs]
                    return True
                del asg[obs]
            return False

        recurse(0)
        return solutions


def sheaf_check(support_model: SupportModel, node_budget: int = NODE_BUDGET) -> ContextualityVerdict:
    """Decide strong/logical contextuality of a support model.

    Backtracks over observables with forward pruning against each context's
    support; witnesses are deterministic (cover order, then lexicographic
    section order).
    """
    bt = _Backtracker(support_model, node_budget)
    gluings = bt.search({}, max_solutions=2)
    strongly = not gluings

    nonextendable: tuple[int, Section] | None = None
    for ci, ctx in enumerate(support_model.scenario.cover):
        for section in support_model.support(ctx):
            if strongly:
                nonextendable = (ci, section)
                break
            if not bt.search(dict(zip(ctx.members, section)), max_solutions=1):
                nonextendable = (ci, section)
                break
        if nonextendable:
            break

    logically = nonextendable is not None
    return ContextualityVerdict(
        noncontextual=False if logically else None,
        logically_contextual=logically,
        strongly_contextual=strongly,
        nonextendable_section=nonextendable,
        global_support_section=gluings[0] if gluings else None,
        global_section_unique=(len(gluings) == 1) if gluings else None,
    )


# ---------------------------------------------------------------------------
# Probabilistic level: incidence matrix and linear programs.


@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 matrix pairing (cover context, section) rows with global columns.

    Each column is a global assignment, an outcome tuple over
    ``scenario.observable_ids``.  It holds exactly one 1 per cover context, in
    the row of the section that the column restricts to; ``column_rows[j]``
    lists those k rows in cover order.
    """

    rows: tuple[tuple[int, Section], ...]
    columns: tuple[Section, ...]
    column_rows: tuple[tuple[int, ...], ...]


def build_incidence(scenario: MeasurementScenario, limit: int = GLOBAL_LIMIT) -> IncidenceMatrix:
    """The gluing-condition matrix of a scenario, as the rows of each column."""
    everything = Context(scenario.observable_ids)
    if section_count(everything, scenario) > limit:
        raise SizeLimitExceeded(f"more than {limit} global assignments")
    columns = tuple(enumerate_sections(everything, scenario, limit))
    rows: list[tuple[int, Section]] = []
    per_context = []
    for ci, ctx in enumerate(scenario.cover):
        # every section of a context is the restriction of some global
        sections, positions = restriction_map(columns, everything, ctx)
        first = len(rows)
        rows.extend((ci, s) for s in sections)
        per_context.append([first + r for r in positions])
    return IncidenceMatrix(tuple(rows), columns, tuple(zip(*per_context)))


def probability_vector(model: EmpiricalModel, incidence: IncidenceMatrix) -> list[Number]:
    """Model probabilities aligned with the incidence row order."""
    return [model.table(model.scenario.cover[ci])[sec] for ci, sec in incidence.rows]


@dataclass(frozen=True)
class FractionReport:
    """Optimal noncontextually-explainable weight and its complement.

    ``weights`` is an optimal x of max sum(x) s.t. incidence . x <= p, x >= 0,
    and ``dual`` an optimal y >= 0 with y . incidence >= 1 componentwise.
    ``noncontextual`` says whether a global distribution reproduces the model:
    whether the mass of p that the weights leave unexplained,
    sum(p - incidence . x) = sum(p) - k * NCF for k cover contexts, is zero
    (exactly in rational mode, at most ``simplex.FLOAT_TOL`` in float mode).
    For tables that sum to 1 this is NCF = 1.  In float mode NCF is capped
    at 1, so CF >= 0, and weights at most ``simplex.FLOAT_TOL`` read 0.

    The report certifies either verdict.  When noncontextual, the weights
    are a global distribution: each context's rows of incidence . x sum to
    NCF = 1, so incidence . x = p exactly.  When contextual, y - 1/k is a
    Farkas vector against incidence . x = p, x >= 0: it is nonnegative on
    every column (each has k ones and y . incidence >= 1), and
    (y - 1/k) . p = NCF - sum(p)/k < 0.
    """

    noncontextual_fraction: Number
    contextual_fraction: Number
    incidence: IncidenceMatrix
    weights: tuple[Number, ...]
    dual: tuple[Number, ...]
    noncontextual: bool


def contextual_fraction(
    model: EmpiricalModel,
    limit: int = GLOBAL_LIMIT,
    budget: int = simplex.PIVOT_BUDGET,
) -> FractionReport:
    """Maximize the total weight of a subdistribution on global assignments
    dominated by the model (incidence . x <= p, x >= 0)."""
    incidence = build_incidence(model.scenario, limit)
    p = probability_vector(model, incidence)
    result = simplex.maximize_leq(incidence.column_rows, p, model.mode, budget)
    ncf, weights = result.objective, result.x
    # every incidence column has k ones, so sum(incidence . x) = k * NCF
    unexplained = sum(p) - len(model.scenario.cover) * ncf
    tol = 0 if model.mode == "rational" else simplex.FLOAT_TOL
    noncontextual = unexplained <= tol
    if model.mode != "rational":
        # below the tolerance the sign of CF and the weights is round-off
        ncf = min(ncf, 1.0)
        weights = [0.0 if w <= tol else w for w in weights]
    one = Fraction(1) if model.mode == "rational" else 1.0
    return FractionReport(ncf, one - ncf, incidence, tuple(weights), tuple(result.dual),
                          noncontextual)


def classify_contextuality(
    model: EmpiricalModel,
    node_budget: int = NODE_BUDGET,
    limit: int = GLOBAL_LIMIT,
    budget: int = simplex.PIVOT_BUDGET,
) -> ContextualityVerdict:
    """Full hierarchy verdict for a compatible empirical model.

    Logical contextuality settles the verdict on supports alone; otherwise
    ``noncontextual`` is a view of the contextual-fraction LP
    (:attr:`FractionReport.noncontextual`), which runs only then.  Raises
    :class:`IncompatibleModel`, carrying the violations, when the
    marginals disagree.
    """
    violations = check_compatibility(model)
    if violations:
        worst = max(violations, key=lambda v: v.discrepancy)
        raise IncompatibleModel(
            f"marginals disagree on {worst.overlap.label()} by {worst.discrepancy}", violations
        )
    verdict = sheaf_check(support_of(model), node_budget)
    if verdict.logically_contextual:
        return verdict
    fraction = contextual_fraction(model, limit, budget)
    return replace(verdict, noncontextual=fraction.noncontextual)


def model_from_global_weights(
    scenario: MeasurementScenario,
    weights: Mapping[Section, Number],
    mode: str = "rational",
) -> EmpiricalModel:
    """Project a distribution on global assignments to cover tables.

    ``weights`` maps global assignments, outcome tuples over
    ``scenario.observable_ids``, to their weight.  Models built this way are
    compatible and noncontextual by construction, which makes this the
    canonical generator for round-trip tests.
    """
    if not isinstance(weights, Mapping):
        raise InvalidModel(f"global weights must be a mapping, not {type(weights).__name__}")
    ids = scenario.observable_ids
    if any(not isinstance(g, tuple) or len(g) != len(ids) for g in weights):
        raise InvalidModel(f"each global assignment must be an outcome tuple over {list(ids)}")
    tables = {ctx: marginalize(weights, ids, ctx) for ctx in scenario.cover}
    return build_model(scenario, tables, mode)
