import itertools
import random
from fractions import Fraction

import pytest

import sheafkit as sk
from sheafkit import ctxlogic
from sheafkit.ctxlogic import (
    And,
    Atom,
    F,
    Implies,
    Not,
    Or,
    SevenValue,
    T,
    U,
    and_,
    classify,
    eval_in_context,
    implies,
    not_,
    or_,
    parse_proposition,
    proposition_to_str,
    seven_value_of,
)
from sheafkit.errors import OutcomeOutOfRange, ParseError, UnknownObservable
from helpers import (
    deterministic_model,
    deterministic_support,
    random_scenario,
    triangle_anticorrelated_model,
    triangle_scenario,
)

VALUES = [F, U, T]


# --- the three-element Heyting chain ---------------------------------------


def test_chain_order():
    assert F < U < T


def test_connective_tables():
    assert not_(F) == T and not_(U) == F and not_(T) == F
    for a, b in itertools.product(VALUES, repeat=2):
        assert and_(a, b) == min(a, b)
        assert or_(a, b) == max(a, b)
        assert implies(a, b) == (T if a <= b else b)


def test_heyting_laws_exhaustive():
    for a in VALUES:
        assert and_(a, a) == a
        assert implies(a, a) == T
        assert not_(not_(a)) != a or a in (F, T)  # double negation fails only at U
    for a, b in itertools.product(VALUES, repeat=2):
        # modus ponens inequality: a & (a -> b) <= b
        assert and_(a, implies(a, b)) <= b
        # currying/residuation: a & b <= c  iff  a <= b -> c
        for c in VALUES:
            assert (and_(a, b) <= c) == (a <= implies(b, c))


def test_double_negation_fails_at_u():
    assert not_(U) == F
    assert not_(F) == T
    assert not_(not_(U)) == T != U


def test_excluded_middle_fails_at_u():
    assert or_(U, not_(U)) == U != T
    # and holds on the Boolean fragment
    assert or_(T, not_(T)) == T
    assert or_(F, not_(F)) == T


# --- parser -------------------------------------------------------------------


def test_parse_atom():
    assert parse_proposition("x=0") == Atom("x", 0)


def test_parse_precedence():
    prop = parse_proposition("!x=0 & y=1 | z=0 -> w=1")
    # precedence ! > & > | > ->
    assert prop == Implies(
        Or(And(Not(Atom("x", 0)), Atom("y", 1)), Atom("z", 0)), Atom("w", 1)
    )


def test_parse_right_associative_implication():
    prop = parse_proposition("x=0 -> y=0 -> z=0")
    assert prop == Implies(Atom("x", 0), Implies(Atom("y", 0), Atom("z", 0)))


def test_parse_parentheses():
    prop = parse_proposition("(x=0 | y=0) & z=1")
    assert prop == And(Or(Atom("x", 0), Atom("y", 0)), Atom("z", 1))


def test_parse_errors():
    for bad in ("", "x=", "x==1", "x=1 &", "(x=1", "x=1)", "x = % 1", "1=x", "x->1"):
        with pytest.raises(ParseError):
            parse_proposition(bad)


NESTINGS = {
    "not": lambda n: "!" * n + "x=0",
    "parentheses": lambda n: "(" * n + "x=0" + ")" * n,
    "implication": lambda n: " -> ".join(["x=0"] * (n + 1)),
    "conjunction": lambda n: " & ".join(["x=0"] * (n + 1)),
    "disjunction": lambda n: " | ".join(["x=0"] * (n + 1)),
}


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_nesting_is_capped(shape):
    cap = ctxlogic._MAX_DEPTH
    prop = parse_proposition(NESTINGS[shape](cap))
    # the deepest accepted proposition evaluates, prints and re-parses
    supp = deterministic_support(triangle_scenario(), {"x": 0, "y": 0, "z": 0})
    assert eval_in_context(supp, supp.scenario.cover[0], prop) in VALUES
    assert parse_proposition(proposition_to_str(prop)) == prop
    with pytest.raises(ParseError, match="nested deeper"):
        parse_proposition(NESTINGS[shape](cap + 1))


def test_round_trip_through_pretty_printer():
    rng = random.Random(9)

    def random_prop(depth):
        if depth == 0 or rng.random() < 0.3:
            return Atom(rng.choice("xyz"), rng.randint(0, 1))
        kind = rng.choice([And, Or, Implies, Not])
        if kind is Not:
            return Not(random_prop(depth - 1))
        return kind(random_prop(depth - 1), random_prop(depth - 1))

    for _ in range(100):
        prop = random_prop(4)
        assert parse_proposition(proposition_to_str(prop)) == prop


# --- contextual evaluation -----------------------------------------------------


def anticorrelated_support():
    return sk.support_of(triangle_anticorrelated_model())


def test_atom_mixed_support_indeterminate():
    supp = anticorrelated_support()
    ctx = supp.scenario.cover[0]  # {x, y} supporting (0,1) and (1,0)
    assert eval_in_context(supp, ctx, Atom("x", 0)) == U


def test_atom_singleton_support_true():
    supp = sk.support_of(deterministic_model())
    ctx = supp.scenario.cover[0]  # {a1, b1} with point mass on (0, 0)
    assert eval_in_context(supp, ctx, Atom("a1", 0)) == T
    assert eval_in_context(supp, ctx, Atom("a1", 1)) == F


def test_out_of_context_atom_indeterminate():
    supp = anticorrelated_support()
    ctx = supp.scenario.cover[0]  # {x, y}; z is not measurable here
    assert eval_in_context(supp, ctx, Atom("z", 0)) == U


def test_equality_proposition_false_on_anticorrelated_context():
    supp = anticorrelated_support()
    ctx = supp.scenario.cover[0]
    prop = parse_proposition("(x=0 & y=0) | (x=1 & y=1)")
    assert eval_in_context(supp, ctx, prop) == F


def test_tautology_true_when_support_fixes_atom():
    supp = sk.support_of(deterministic_model())
    ctx = supp.scenario.cover[0]
    prop = parse_proposition("a1=0 | !a1=0")
    assert eval_in_context(supp, ctx, prop) == T


def test_excluded_middle_indeterminate_on_mixed_support():
    # supervaluation keeps per-section excluded middle for in-context atoms,
    # but an out-of-context atom stays indeterminate
    supp = anticorrelated_support()
    ctx = supp.scenario.cover[0]
    assert eval_in_context(supp, ctx, parse_proposition("z=0 | !z=0")) == U


def test_eval_validates_atoms():
    supp = anticorrelated_support()
    ctx = supp.scenario.cover[0]
    with pytest.raises(UnknownObservable):
        eval_in_context(supp, ctx, Atom("nope", 0))
    with pytest.raises(OutcomeOutOfRange):
        eval_in_context(supp, ctx, Atom("x", 5))


# --- profiles and the seven modes ------------------------------------------------


def test_triangle_equality_profile_and_mode():
    supp = anticorrelated_support()
    prop = parse_proposition("(x=0 & y=0) | (x=1 & y=1)")
    classification, prof = seven_value_of(supp, prop)
    assert list(prof) == list(supp.scenario.cover)
    by_ctx = {c.members: v for c, v in prof.items()}
    assert by_ctx[("x", "y")] == F
    assert by_ctx[("y", "z")] == U
    assert by_ctx[("x", "z")] == U
    assert classification.value == SevenValue.FALSE_AND_INDETERMINATE
    assert classification.value.mode == "vi"
    # witnessing context families are disjoint and cover the cover
    families = list(classification.witnesses.values())
    all_ctxs = [c for fam in families for c in fam]
    assert len(all_ctxs) == len(set(all_ctxs)) == len(supp.scenario.cover)


def test_profile_single_context():
    sc = sk.build_scenario([("a", 2)], [["a"]])
    model = sk.build_model(sc, {("a",): {(0,): Fraction(1)}})
    classification, prof = seven_value_of(sk.support_of(model), Atom("a", 0))
    assert list(prof.values()) == [T]
    assert classify(prof) == classification
    assert classification.value == SevenValue.TRUE


def test_classify_modes():
    ctxs = tuple(sk.Context((f"c{i}",)) for i in range(3))
    cases = {
        (T, T, T): "i",
        (F, F, F): "ii",
        (U, U, U): "iii",
        (T, F, T): "iv",
        (T, U, U): "v",
        (F, U, F): "vi",
        (T, F, U): "vii",
    }
    for values, mode in cases.items():
        got = classify(dict(zip(ctxs, values)))
        assert got.value.mode == mode


def test_classification_partitions_all_profiles():
    for k in (1, 2, 3, 4):
        ctxs = tuple(sk.Context((f"c{i}",)) for i in range(k))
        seen = {v: 0 for v in SevenValue}
        for values in itertools.product(VALUES, repeat=k):
            cls = classify(dict(zip(ctxs, values)))
            assert cls.value.attained == frozenset(values)
            seen[cls.value] += 1
            # witnesses partition the contexts
            members = [c for fam in cls.witnesses.values() for c in fam]
            assert sorted(members, key=str) == sorted(ctxs, key=str)
        expected_nonzero = {v for v in SevenValue if len(v.attained) <= k}
        assert {v for v, n in seen.items() if n > 0} == expected_nonzero
        assert sum(seen.values()) == 3**k


def test_monotone_refinement_of_atomic_values():
    # enlarging a support can only move an atomic value toward U
    rng = random.Random(123)
    sc = triangle_scenario()
    ctx = sc.cover[0]
    sections = sk.enumerate_sections(ctx, sc)
    filler = {c.members: frozenset(sk.enumerate_sections(c, sc)) for c in sc.cover}
    for _ in range(200):
        small = rng.sample(sections, rng.randint(1, len(sections) - 1))
        extra = rng.sample([s for s in sections if s not in small], 1)
        big = small + extra
        supports_small = {
            c: (frozenset(small) if c == ctx else filler[c.members]) for c in sc.cover
        }
        supports_big = {
            c: (frozenset(big) if c == ctx else filler[c.members]) for c in sc.cover
        }
        atom = Atom(rng.choice(["x", "y"]), rng.randint(0, 1))
        v_small = eval_in_context(sk.SupportModel(sc, supports_small), ctx, atom)
        v_big = eval_in_context(sk.SupportModel(sc, supports_big), ctx, atom)
        if v_small == T:
            assert v_big in (T, U)
        elif v_small == F:
            assert v_big in (F, U)
        else:
            assert v_big == U


def test_boolean_restoration_on_deterministic_models():
    # deterministic glueable models make every in-context proposition Boolean
    rng = random.Random(55)
    for _ in range(30):
        sc = random_scenario(rng)
        assignment = {o: rng.randint(0, 1) for o in sc.observable_ids}
        supp = deterministic_support(sc, assignment)
        for ctx in sc.cover:
            obs = list(ctx.members)
            for _ in range(5):
                text = f"{rng.choice(obs)}={rng.randint(0,1)}"
                for _ in range(rng.randint(0, 2)):
                    op = rng.choice(["&", "|", "->"])
                    text = f"({text}) {op} {rng.choice(obs)}={rng.randint(0,1)}"
                value = eval_in_context(supp, ctx, parse_proposition(text))
                assert value in (T, F)


def test_seven_value_unknown_observable_rejected():
    supp = anticorrelated_support()
    with pytest.raises(UnknownObservable):
        seven_value_of(supp, parse_proposition("nope=0"))
