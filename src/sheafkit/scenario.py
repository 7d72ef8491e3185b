"""Measurement scenarios and the combinatorial base they induce.

A scenario is a finite set of observables together with a cover of maximal
contexts (jointly measurable subsets).  Everything downstream lives over this
base.  Its nerve, the non-empty pairwise and triple overlaps that carry the
cochain complex, is enumerated where it is used: by
:func:`~sheafkit.cohomology.build_coboundary_matrices`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    DominatedContext,
    DuplicateObservable,
    EmptyCover,
    InvalidScenario,
    ParseError,
    UnknownObservable,
)


@dataclass(frozen=True)
class Observable:
    """A measurable quantity with outcomes canonicalized to 0..arity-1."""

    id: str
    arity: int

    def __post_init__(self) -> None:
        if type(self.arity) is not int or self.arity < 2:  # bool is an int subclass
            raise InvalidScenario(
                f"observable {self.id!r} needs an integer arity >= 2, got {self.arity!r}")


@dataclass(frozen=True)
class Context:
    """An ordered, duplicate-free set of observable ids.

    Instances produced by this module are canonical: members follow the
    owning scenario's observable order, so set-equal contexts compare equal.
    """

    members: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[str]:
        return iter(self.members)

    def __contains__(self, obs_id: object) -> bool:
        return obs_id in self.members

    def is_subset_of(self, other: "Context") -> bool:
        return set(self.members) <= set(other.members)

    def intersect(self, other: "Context") -> "Context":
        """Elementwise intersection; canonical order is preserved."""
        other_set = set(other.members)
        return Context(tuple(m for m in self.members if m in other_set))

    def label(self) -> str:
        return "{" + ",".join(self.members) + "}"


@dataclass(frozen=True)
class MeasurementScenario:
    """Validated observables plus a maximal cover."""

    observables: tuple[Observable, ...]
    cover: tuple[Context, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_arity", {o.id: o.arity for o in self.observables})
        object.__setattr__(self, "_index", {o.id: i for i, o in enumerate(self.observables)})

    @property
    def observable_ids(self) -> tuple[str, ...]:
        return tuple(o.id for o in self.observables)

    def arity(self, obs_id: str) -> int:
        try:
            return self._arity[obs_id]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownObservable(f"unknown observable {obs_id!r}") from None

    def index(self, obs_id: str) -> int:
        try:
            return self._index[obs_id]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownObservable(f"unknown observable {obs_id!r}") from None

    def context(self, members: Iterable[str]) -> Context:
        """Canonicalize an id collection into a Context of this scenario."""
        members = list(members)
        if not members:
            raise InvalidScenario("a context must contain at least one observable")
        seen = set()
        for m in members:
            if m in seen:
                raise DuplicateObservable(f"duplicate observable {m!r} in context")
            seen.add(m)
            self.index(m)  # raises UnknownObservable
        return Context(tuple(sorted(seen, key=self.index)))


def build_scenario(
    observables: Iterable[Observable | tuple[str, int]],
    cover: Iterable[Iterable[str]],
) -> MeasurementScenario:
    """Validate and assemble a measurement scenario.

    Rejects duplicate observable ids, contexts naming unknown observables,
    an empty cover, cover contexts dominated by (contained in) another, and
    observables that appear in no cover context.
    """
    obs_list: list[Observable] = []
    for o in observables:
        obs_list.append(o if isinstance(o, Observable) else Observable(*o))
    ids = [o.id for o in obs_list]
    for i, oid in enumerate(ids):
        if oid in ids[:i]:
            raise DuplicateObservable(f"duplicate observable id {oid!r}")

    scenario = MeasurementScenario(tuple(obs_list), cover=())
    contexts = [scenario.context(c) for c in cover]
    if not contexts:
        raise EmptyCover("cover must contain at least one context")
    for a, b in itertools.permutations(contexts, 2):
        if a.is_subset_of(b):
            raise DominatedContext(f"cover context {a.label()} is contained in {b.label()}")
    covered = {m for c in contexts for m in c}
    missing = [oid for oid in ids if oid not in covered]
    if missing:
        raise InvalidScenario(f"observables in no cover context: {missing}")
    return MeasurementScenario(tuple(obs_list), tuple(contexts))


# ---------------------------------------------------------------------------
# JSON scenario files: {"observables":[{"id":"a1","arity":2},...],
#                       "cover":[["a1","b1"],...]}

def scenario_from_dict(data: dict) -> MeasurementScenario:
    if not isinstance(data, dict):
        raise ParseError("scenario must be a JSON object")
    unknown = set(data) - {"observables", "cover"}
    if unknown:
        raise ParseError(f"unknown scenario keys: {sorted(unknown)}")
    try:
        raw_obs = data["observables"]
        raw_cover = data["cover"]
    except KeyError as exc:
        raise ParseError(f"scenario missing key {exc}") from None
    if not isinstance(raw_obs, list) or not isinstance(raw_cover, list):
        raise ParseError("scenario 'observables' and 'cover' must be lists")
    observables = []
    for entry in raw_obs:
        if not isinstance(entry, dict):
            raise ParseError("each observable must be an object")
        extra = set(entry) - {"id", "arity"}
        if extra:
            raise ParseError(f"unknown observable keys: {sorted(extra)}")
        if not isinstance(entry.get("id"), str) or not isinstance(entry.get("arity"), int):
            raise ParseError("observable needs string 'id' and integer 'arity'")
        observables.append(Observable(entry["id"], entry["arity"]))
    for ctx in raw_cover:
        if not isinstance(ctx, list) or not all(isinstance(m, str) for m in ctx):
            raise ParseError("each cover context must be a list of observable ids")
    return build_scenario(observables, raw_cover)


def load_scenario(source: str | Path) -> MeasurementScenario:
    """Load a scenario from a JSON file."""
    try:
        text = Path(source).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {source}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {source}: {exc}") from exc
    return scenario_from_dict(data)
