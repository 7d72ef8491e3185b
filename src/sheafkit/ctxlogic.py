"""Seven-valued contextual logic over support models.

Within one context a proposition is evaluated by supervaluation over the
supported sections: each section fixes every in-context atom to true or
false (out-of-context atoms stay indeterminate), connectives act on the
three-element Heyting chain F < U < T per section, and the context's value
is T when every section agrees on T, F when every section agrees on F, and
U otherwise.  Indeterminacy therefore covers both complementarity (an atom
about an observable the context cannot measure) and genuine openness (a
mixed support).

Across contexts, the pattern of values is the object of interest: the
non-empty subset of {T, F, U} attained by a profile picks exactly one of
seven modes.  Excluded middle fails on the chain (U or not-U = U), which is
what the seventh-mode bookkeeping rests on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, Iterator, Mapping, Union

from .errors import OutcomeOutOfRange, ParseError
from .presheaf import SupportModel
from .scenario import Context, MeasurementScenario


class ThreeValue(IntEnum):
    """The three-element Heyting chain F < U < T."""

    F = 0
    U = 1
    T = 2


F, U, T = ThreeValue.F, ThreeValue.U, ThreeValue.T


def and_(a: ThreeValue, b: ThreeValue) -> ThreeValue:
    return min(a, b)


def or_(a: ThreeValue, b: ThreeValue) -> ThreeValue:
    return max(a, b)


def implies(a: ThreeValue, b: ThreeValue) -> ThreeValue:
    return T if a <= b else b


def not_(a: ThreeValue) -> ThreeValue:
    return implies(a, F)


# ---------------------------------------------------------------------------
# Propositions.


@dataclass(frozen=True)
class Atom:
    observable: str
    outcome: int


@dataclass(frozen=True)
class Not:
    operand: "Proposition"


@dataclass(frozen=True)
class And:
    left: "Proposition"
    right: "Proposition"


@dataclass(frozen=True)
class Or:
    left: "Proposition"
    right: "Proposition"


@dataclass(frozen=True)
class Implies:
    left: "Proposition"
    right: "Proposition"


Proposition = Union[Atom, Not, And, Or, Implies]


def atoms(prop: Proposition) -> Iterator[Atom]:
    if isinstance(prop, Atom):
        yield prop
    elif isinstance(prop, Not):
        yield from atoms(prop.operand)
    else:
        yield from atoms(prop.left)
        yield from atoms(prop.right)


def validate_proposition(prop: Proposition, scenario: MeasurementScenario) -> None:
    for atom in atoms(prop):
        arity = scenario.arity(atom.observable)  # raises UnknownObservable
        if not 0 <= atom.outcome < arity:
            raise OutcomeOutOfRange(
                f"outcome {atom.outcome} out of range for {atom.observable!r} (arity {arity})"
            )


def proposition_to_str(prop: Proposition) -> str:
    if isinstance(prop, Atom):
        return f"{prop.observable}={prop.outcome}"
    if isinstance(prop, Not):
        return f"!{_wrap(prop.operand, (Atom, Not))}"
    if isinstance(prop, And):
        # right operand of a same-operator chain keeps its parentheses so
        # printing and re-parsing preserve the tree shape exactly
        return f"{_wrap(prop.left, (Atom, Not, And))} & {_wrap(prop.right, (Atom, Not))}"
    if isinstance(prop, Or):
        return f"{_wrap(prop.left, (Atom, Not, And, Or))} | {_wrap(prop.right, (Atom, Not, And))}"
    return f"{_wrap(prop.left, (Atom, Not, And, Or))} -> {proposition_to_str(prop.right)}"


def _wrap(prop: Proposition, bare: tuple[type, ...]) -> str:
    text = proposition_to_str(prop)
    return text if isinstance(prop, bare) else f"({text})"


# Mini-language: atoms `obs=k`; operators `!`, `&`, `|`, `->` with that
# precedence (tightest first) and right-associative implication.

#: Deepest nesting a proposition may have.  The parser counts a level for each
#: `!`, `(` and `->` it descends into; the parsed tree counts one for each
#: connective.  Parsing, evaluating and printing recurse a few frames per
#: level, so the deepest accepted proposition stays inside the recursion limit.
_MAX_DEPTH = 100

_TOKEN = re.compile(r"\s*(->|[()&|!=]|[A-Za-z_][A-Za-z_0-9]*|\d+)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"bad character {text[pos:].strip()[0]!r} at offset {pos}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], text: str) -> None:
        self.tokens = tokens
        self.text = text
        self.pos = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of proposition {self.text!r}")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r} in {self.text!r}")
        self.pos += 1
        return tok

    def nested(self, rule: Callable[[], Proposition]) -> Proposition:
        """Parse ``rule`` one level deeper."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"proposition nested deeper than {_MAX_DEPTH} levels")
        node = rule()
        self.depth -= 1
        return node

    def parse(self) -> Proposition:
        prop = self.implication()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r} in {self.text!r}")
        return prop

    def implication(self) -> Proposition:
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.nested(self.implication))
        return left

    def disjunction(self) -> Proposition:
        node = self.conjunction()
        while self.peek() == "|":
            self.take()
            node = Or(node, self.conjunction())
        return node

    def conjunction(self) -> Proposition:
        node = self.unary()
        while self.peek() == "&":
            self.take()
            node = And(node, self.unary())
        return node

    def unary(self) -> Proposition:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.nested(self.unary))
        if tok == "(":
            self.take()
            node = self.nested(self.implication)
            self.take(")")
            return node
        return self.atom()

    def atom(self) -> Proposition:
        name = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise ParseError(f"expected an observable name, found {name!r}")
        self.take("=")
        value = self.take()
        if not value.isdigit():
            raise ParseError(f"expected an outcome integer after {name}=, found {value!r}")
        return Atom(name, int(value))


def parse_proposition(text: str) -> Proposition:
    """Parse the CLI mini-language into a proposition tree."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty proposition")
    prop = _Parser(tokens, text).parse()
    # `&` and `|` chains nest in the tree without nesting the parse
    level, depth = [prop], 0
    while level := [c for p in level if not isinstance(p, Atom)
                    for c in ((p.operand,) if isinstance(p, Not) else (p.left, p.right))]:
        depth += 1
    if depth > _MAX_DEPTH:
        raise ParseError(f"proposition nested deeper than {_MAX_DEPTH} levels")
    return prop


# ---------------------------------------------------------------------------
# Evaluation.


def eval_against_section(prop: Proposition, assignment: Mapping[str, int]) -> ThreeValue:
    """Heyting-chain value of a proposition under one section's outcomes."""
    if isinstance(prop, Atom):
        if prop.observable not in assignment:
            return U
        return T if assignment[prop.observable] == prop.outcome else F
    if isinstance(prop, Not):
        return not_(eval_against_section(prop.operand, assignment))
    left = eval_against_section(prop.left, assignment)
    right = eval_against_section(prop.right, assignment)
    if isinstance(prop, And):
        return and_(left, right)
    if isinstance(prop, Or):
        return or_(left, right)
    return implies(left, right)


def eval_in_context(
    support_model: SupportModel,
    context: Context,
    prop: Proposition,
) -> ThreeValue:
    """Supervaluation over the context's supported sections."""
    validate_proposition(prop, support_model.scenario)
    values = {
        eval_against_section(prop, dict(zip(context.members, section)))
        for section in support_model.support(context)
    }
    if values == {T}:
        return T
    if values == {F}:
        return F
    return U


# ---------------------------------------------------------------------------
# The seven predication modes.


class SevenValue(Enum):
    """Non-empty subsets of {T, F, U}, named in the traditional order."""

    TRUE = ("i", frozenset({T}))
    FALSE = ("ii", frozenset({F}))
    INDETERMINATE = ("iii", frozenset({U}))
    TRUE_AND_FALSE = ("iv", frozenset({T, F}))
    TRUE_AND_INDETERMINATE = ("v", frozenset({T, U}))
    FALSE_AND_INDETERMINATE = ("vi", frozenset({F, U}))
    TRUE_FALSE_AND_INDETERMINATE = ("vii", frozenset({T, F, U}))

    @property
    def mode(self) -> str:
        return self.value[0]

    @property
    def attained(self) -> frozenset[ThreeValue]:
        return self.value[1]


_BY_ATTAINED = {v.attained: v for v in SevenValue}


@dataclass(frozen=True)
class Classification:
    """A profile's mode plus the context families backing each value.

    The families play the role of the mutually exclusive conditions in the
    compound modes (e.g. mode iv needs disjoint context families where the
    proposition is true and where it is false); disjointness is automatic
    because each context carries exactly one value.
    """

    value: SevenValue
    witnesses: Mapping[ThreeValue, tuple[Context, ...]]


def classify(prof: Mapping[Context, ThreeValue]) -> Classification:
    """Map a total profile, one value per context, to exactly one of the
    seven modes."""
    attained = frozenset(prof.values())
    if not attained:
        raise ValueError("cannot classify an empty profile")
    witnesses = {
        value: tuple(ctx for ctx, v in prof.items() if v == value)
        for value in sorted(attained, reverse=True)
    }
    return Classification(_BY_ATTAINED[attained], witnesses)


def seven_value_of(
    support_model: SupportModel,
    prop: Proposition,
) -> tuple[Classification, dict[Context, ThreeValue]]:
    """Evaluate a proposition in every cover context, in cover order, and
    classify the pattern."""
    prof = {ctx: eval_in_context(support_model, ctx, prop) for ctx in support_model.scenario.cover}
    return classify(prof), prof
