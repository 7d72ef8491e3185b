"""Local sections, empirical models, marginal compatibility, and supports.

The event presheaf assigns to each context the set of outcome assignments
over its members; restriction is projection.  An empirical model holds one
probability table per cover context; the compatibility law (no-signalling)
requires marginals to agree on overlaps.  The support model keeps only the
sections with probability above a threshold and is the coefficient base for
the cohomology module.

Two numeric modes are supported per model: exact rationals (the default for
analysis, so verdicts never hinge on rounding) and floats for ingest of
measured data.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    EmptySupport,
    InvalidModel,
    NotASubcontext,
    OutcomeOutOfRange,
    ParseError,
    SizeLimitExceeded,
)
from .scenario import Context, MeasurementScenario, load_scenario, scenario_from_dict

#: Default ceiling on the number of sections enumerated for one context.
SECTION_LIMIT = 2**20
#: Tolerance for table sums and marginal agreement in float mode.
FLOAT_ATOL = 1e-9
#: Support threshold in float mode (exact zero in rational mode).
FLOAT_SUPPORT_THRESHOLD = 1e-12

Number = Union[Fraction, float]

#: Largest decimal exponent read from a probability string: Fraction builds
#: 10**exp first, and Python caps the digits of a "p/q" string at this bound.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?0*(\d+)\s*$", re.IGNORECASE)


#: A section over a context: its outcome tuple, in the context's member order.
Section = tuple[int, ...]


def section_label(outcomes: Section) -> str:
    """Section key: concatenated digits, comma-joined above one digit."""
    if all(o < 10 for o in outcomes):
        return "".join(str(o) for o in outcomes)
    return ",".join(str(o) for o in outcomes)


def restriction_map(
    sections: Iterable[Section],
    domain: Context | Sequence[str],
    subcontext: Context | Iterable[str],
) -> tuple[tuple[Section, ...], tuple[int, ...]]:
    """Project sections over ``domain`` onto a subcontext, pooling equal
    projections.

    Returns the distinct restrictions in lexicographic order and, for each
    input section, the position of its restriction among them.  A restriction
    lists its outcomes in the domain's member order.
    """
    wanted = set(subcontext)
    positions = tuple(i for i, m in enumerate(domain) if m in wanted)
    if len(positions) != len(wanted):
        raise NotASubcontext(f"{sorted(wanted)} is not contained in section domain {list(domain)}")
    keys = [tuple(section[i] for i in positions) for section in sections]
    distinct = sorted(set(keys))
    index = {key: r for r, key in enumerate(distinct)}
    return tuple(distinct), tuple(index[key] for key in keys)


def section_count(context: Context, scenario: MeasurementScenario) -> int:
    n = 1
    for m in context.members:
        n *= scenario.arity(m)
    return n


def enumerate_sections(
    context: Context,
    scenario: MeasurementScenario,
    limit: int = SECTION_LIMIT,
) -> list[Section]:
    """All sections of a context, in lexicographic order."""
    if section_count(context, scenario) > limit:
        raise SizeLimitExceeded(
            f"context {context.label()} has more than {limit} sections"
        )
    ranges = [range(scenario.arity(m)) for m in context.members]
    return list(itertools.product(*ranges))


@dataclass(frozen=True)
class EmpiricalModel:
    """Per-cover-context probability tables over local sections.

    Tables are dense: every section of the context, as its outcome tuple,
    appears as a key, with zero probability where the data had no entry.
    """

    scenario: MeasurementScenario
    mode: str
    tables: Mapping[Context, Mapping[Section, Number]]

    def table(self, context: Context) -> Mapping[Section, Number]:
        return self.tables[context]

    @property
    def atol(self) -> float:
        return 0.0 if self.mode == "rational" else FLOAT_ATOL


def _coerce(value: object, mode: str) -> Number:
    if isinstance(value, bool):
        raise InvalidModel(f"probability {value!r} is not a number")
    exponent = _EXPONENT.search(value.replace("_", "")) if isinstance(value, str) else None
    if exponent and (len(exponent[1]) > len(str(_MAX_EXPONENT))
                     or int(exponent[1]) > _MAX_EXPONENT):
        raise InvalidModel(f"exponent of {value!r} exceeds {_MAX_EXPONENT} in magnitude")
    if mode == "rational":
        if isinstance(value, float):
            raise InvalidModel(
                f"rational mode cannot ingest float {value!r}; use 'p/q' strings"
            )
        try:
            return Fraction(value)  # type: ignore[arg-type]
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise InvalidModel(f"cannot read {value!r} as a rational") from exc
    try:
        # accept "p/q" strings too, so rational files can be re-read as float
        number = float(Fraction(value)) if isinstance(value, str) else float(value)  # type: ignore[arg-type]
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise InvalidModel(f"cannot read {value!r} as a float") from exc
    if not math.isfinite(number):
        raise InvalidModel(f"probability {value!r} is not finite")
    return number


def build_model(
    scenario: MeasurementScenario,
    tables: Mapping[object, Mapping[object, object]],
    mode: str = "rational",
) -> EmpiricalModel:
    """Validate tables (domains, non-negativity, normalization) into a model.

    ``tables`` maps each cover context (Context or iterable of ids) to a
    mapping from sections (outcome tuples in the context's member order) to
    probabilities.  Missing sections read as zero.
    """
    if mode not in ("rational", "float"):
        raise InvalidModel(f"unknown numeric mode {mode!r}")
    by_context: dict[Context, dict[object, object]] = {}
    for raw_ctx, raw_table in tables.items():
        ctx = raw_ctx if isinstance(raw_ctx, Context) else scenario.context(raw_ctx)
        if ctx in by_context:
            raise InvalidModel(f"two tables given for context {ctx.label()}")
        by_context[ctx] = dict(raw_table)
    missing = [c for c in scenario.cover if c not in by_context]
    if missing:
        raise InvalidModel(f"missing tables for {[c.label() for c in missing]}")
    extra = [c for c in by_context if c not in scenario.cover]
    if extra:
        raise InvalidModel(f"tables for non-cover contexts {[c.label() for c in extra]}")

    dense: dict[Context, dict[Section, Number]] = {}
    zero: Number = Fraction(0) if mode == "rational" else 0.0
    for ctx in scenario.cover:
        full = {s: zero for s in enumerate_sections(ctx, scenario)}
        for raw_sec, raw_p in by_context[ctx].items():
            sec = _as_section(raw_sec, ctx, scenario)
            full[sec] = _coerce(raw_p, mode)
        total = sum(full.values())
        if any(p < 0 for p in full.values()):
            raise InvalidModel(f"negative probability in context {ctx.label()}")
        if mode == "rational":
            if total != 1:
                raise InvalidModel(f"table for {ctx.label()} sums to {total}, not 1")
        elif abs(total - 1.0) > FLOAT_ATOL:
            raise InvalidModel(f"table for {ctx.label()} sums to {total!r}, not 1")
        dense[ctx] = full
    return EmpiricalModel(scenario, mode, dense)


def _as_section(raw: object, ctx: Context, scenario: MeasurementScenario) -> Section:
    if not isinstance(raw, tuple) or len(raw) != len(ctx):
        raise InvalidModel(f"cannot read table key {raw!r} as a section of {ctx.label()}")
    for m, o in zip(ctx.members, raw):
        if not isinstance(o, int) or isinstance(o, bool):
            raise InvalidModel(f"outcome {o!r} of observable {m!r} is not an integer")
        if not 0 <= o < scenario.arity(m):
            raise OutcomeOutOfRange(f"outcome {o} out of range for observable {m!r}")
    return raw


def marginalize(
    table: Mapping[Section, Number],
    domain: Context | Sequence[str],
    overlap: Context | Iterable[str],
) -> dict[Section, Number]:
    """Push a distribution over ``domain`` down to a subcontext by summation."""
    if not table:
        raise InvalidModel("cannot marginalize an empty table")
    restricted, positions = restriction_map(table, domain, overlap)
    sums: list[Number] = [0] * len(restricted)
    for r, p in zip(positions, table.values()):
        sums[r] += p
    return dict(zip(restricted, sums))


@dataclass(frozen=True)
class CompatibilityViolation:
    pair: tuple[int, int]
    overlap: Context
    discrepancy: Number


def check_compatibility(model: EmpiricalModel) -> tuple[CompatibilityViolation, ...]:
    """Check marginal agreement on every non-empty cover overlap, up to
    ``model.atol``.

    Failure is data, not an exception: the violations, empty when the model
    is compatible, carry the max-norm discrepancy per offending pair.
    """
    cover = model.scenario.cover
    violations = []
    for i, j in itertools.combinations(range(len(cover)), 2):
        overlap = cover[i].intersect(cover[j])
        if not overlap.members:
            continue
        mi = marginalize(model.table(cover[i]), cover[i], overlap)
        mj = marginalize(model.table(cover[j]), cover[j], overlap)
        disc = max(abs(mi[s] - mj[s]) for s in mi)
        if disc > model.atol:
            violations.append(CompatibilityViolation((i, j), overlap, disc))
    return tuple(violations)


@dataclass(frozen=True)
class SupportModel:
    """Per-cover-context possible (above-threshold) sections, each support
    held as a duplicate-free tuple in lexicographic outcome order."""

    scenario: MeasurementScenario
    supports: Mapping[Context, tuple[Section, ...]]

    def __post_init__(self) -> None:
        ordered = {c: tuple(sorted(set(s))) for c, s in self.supports.items()}
        object.__setattr__(self, "supports", ordered)

    def support(self, context: Context) -> tuple[Section, ...]:
        return self.supports[context]


def support_of(model: EmpiricalModel) -> SupportModel:
    """Sections with probability above 0 (rational mode) or above
    ``FLOAT_SUPPORT_THRESHOLD`` (float mode), per context."""
    threshold = 0 if model.mode == "rational" else FLOAT_SUPPORT_THRESHOLD
    supports = {}
    for ctx in model.scenario.cover:
        supp = [s for s, p in model.table(ctx).items() if p > threshold]
        if not supp:
            raise EmptySupport(f"context {ctx.label()} has empty support")
        supports[ctx] = supp
    return SupportModel(model.scenario, supports)


# ---------------------------------------------------------------------------
# JSON model files:
#   {"scenario": <inline object or path>, "mode": "rational"|"float",
#    "tables": [{"context": ["a1","b1"], "probs": {"00": "1/2", "11": "1/2"}}]}
# Section keys concatenate outcomes in the order the context is written in
# the file (comma-separated once any outcome needs more than one digit).

def _parse_section_key(key: str, declared: list[str], scenario: MeasurementScenario) -> tuple[int, ...]:
    if "," in key:
        parts = key.split(",")
    else:
        parts = list(key)
    if len(parts) != len(declared):
        raise ParseError(f"section key {key!r} does not match context {declared}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"non-integer outcome in section key {key!r}") from None


def model_from_dict(data: dict, base_dir: Path | None = None) -> EmpiricalModel:
    if not isinstance(data, dict):
        raise ParseError("model must be a JSON object")
    unknown = set(data) - {"scenario", "mode", "tables"}
    if unknown:
        raise ParseError(f"unknown model keys: {sorted(unknown)}")
    if "scenario" not in data or "tables" not in data:
        raise ParseError("model needs 'scenario' and 'tables' keys")
    raw_scenario = data["scenario"]
    if isinstance(raw_scenario, str):
        path = Path(raw_scenario)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        scenario = load_scenario(path)
    else:
        scenario = scenario_from_dict(raw_scenario)
    mode = data.get("mode", "rational")
    if mode not in ("rational", "float"):
        raise ParseError(f"unknown mode {mode!r}")

    tables: dict[Context, dict[tuple[int, ...], object]] = {}
    if not isinstance(data["tables"], list):
        raise ParseError("'tables' must be a list")
    for entry in data["tables"]:
        if not isinstance(entry, dict):
            raise ParseError("each table must be an object")
        extra = set(entry) - {"context", "probs"}
        if extra:
            raise ParseError(f"unknown table keys: {sorted(extra)}")
        if "context" not in entry or "probs" not in entry:
            raise ParseError("each table needs 'context' and 'probs'")
        declared = entry["context"]
        if not isinstance(declared, list) or not all(isinstance(m, str) for m in declared):
            raise ParseError("each table's context must be a list of observable ids")
        ctx = scenario.context(declared)
        if ctx in tables:
            raise ParseError(f"context {declared} has a second table")
        probs: dict[tuple[int, ...], object] = {}
        if not isinstance(entry["probs"], dict):
            raise ParseError("'probs' must be an object")
        for key, value in entry["probs"].items():
            outs = _parse_section_key(key, declared, scenario)
            by_id = dict(zip(declared, outs))
            section = tuple(by_id[m] for m in ctx.members)
            if section in probs:
                raise ParseError(f"section key {key!r} names a section another key already gave")
            probs[section] = value
        tables[ctx] = probs
    try:
        return build_model(scenario, tables, mode)
    except (InvalidModel, OutcomeOutOfRange) as exc:
        raise ParseError(str(exc)) from exc

