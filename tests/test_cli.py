import ast
import hashlib
import json
import re
import struct
import subprocess
import sys
import time
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest

import helpers
import sheafkit as sk
from sheafkit import cli, ctxlogic


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    return code, json.loads(out) if out.strip().startswith("{") else out, err


# --- check -----------------------------------------------------------------


def test_check_prbox_detects_contextuality(capsys):
    code, report, _ = run_json(["check", "prbox", "--no-timings"], capsys)
    assert code == cli.EXIT_CONTEXTUAL
    res = report["results"]
    assert res["strongly_contextual"] is True
    assert res["logically_contextual"] is True
    assert res["noncontextual"] is False
    assert report["inputs"]["model"]["fixture"] == "prbox"
    assert len(report["inputs"]["model"]["sha256"]) == 64
    assert "timings" not in report


def test_check_deterministic_exit_zero(capsys):
    code, report, _ = run_json(["check", "deterministic", "--no-timings"], capsys)
    assert code == cli.EXIT_OK
    assert report["results"]["noncontextual"] is True
    assert report["results"]["global_section_unique"] is True


def test_check_signalling_rejected(capsys):
    code, report, _ = run_json(["check", "signalling", "--no-timings"], capsys)
    assert code == cli.EXIT_INVALID
    assert report["results"]["error"] == "incompatible model"
    assert {v["discrepancy"] for v in report["results"]["violations"]} == {"1/2"}


def test_check_tests_compatibility_once(monkeypatch, capsys):
    calls = []
    real = sk.gluing.check_compatibility

    def counting(model, *args, **kwargs):
        calls.append(model)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(sk.gluing, "check_compatibility", counting)
    monkeypatch.setattr(cli, "check_compatibility", counting)
    for name, want in (("prbox", cli.EXIT_CONTEXTUAL), ("signalling", cli.EXIT_INVALID)):
        calls.clear()
        code, _, _ = run_json(["check", name, "--no-timings"], capsys)
        assert code == want and len(calls) == 1


def test_subcommands_call_every_layer_entry_point_through_the_module(monkeypatch, capsys):
    # the bench's trace wraps these attributes of sheafkit.cli; a subcommand
    # holding its own reference to a layer function would bypass the wrapper
    called = set()
    for name in cli._ENTRY_POINTS:
        real = getattr(cli, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            called.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    for argv in (["check", "prbox"], ["fraction", "prbox"], ["cohomology", "prbox"],
                 ["logic", "prbox", "--prop", "a1=0"]):
        run_cli(argv + ["--no-timings"], capsys)
    assert called == cli._ENTRY_POINTS


def test_entry_points_resolve_through_the_package_export_table():
    # one name table: the package's _EXPORTS says which layer defines each name
    assert isinstance(cli._ENTRY_POINTS, frozenset)
    assert cli._ENTRY_POINTS <= sk._EXPORTS.keys()
    for name in cli._ENTRY_POINTS:
        assert getattr(cli, name) is getattr(sk, name)
    tree = ast.parse(Path(cli.__file__).read_text())
    pairs = [
        (key.value, value.value)
        for node in ast.walk(tree) if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant) and isinstance(value, ast.Constant)
    ]
    assert [(k, v) for k, v in pairs if k in cli._ENTRY_POINTS and v in sk._LAYERS] == []


def test_check_missing_file(capsys):
    code, _, err = run_cli(["check", "/does/not/exist.json"], capsys)
    assert code == cli.EXIT_INVALID
    assert "error" in err


def test_model_argument_names_a_fixture_only_by_its_exact_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # an empty directory
    for arg in ("/no/such/dir/prbox.json", "prbox.json", "triangle.json"):
        code, out, err = run_cli(["check", arg, "--format", "text"], capsys)
        assert code == cli.EXIT_INVALID and out == ""
        assert err == f"error: no such model file or bundled fixture: {arg}\n"
    for arg, name in (("triangle", "triangle_anticorrelated"),
                      (str(files("sheafkit") / "fixtures" / "prbox.json"), "prbox")):
        code, report, _ = run_json(["check", arg, "--no-timings"], capsys)
        assert code == cli.EXIT_CONTEXTUAL
        assert report["inputs"]["model"]["fixture"] == name


_SCENARIO = {"observables": [{"id": "a1", "arity": 2}, {"id": "b1", "arity": 2}],
             "cover": [["a1", "b1"]]}


def _float_model(probs):
    return {"scenario": _SCENARIO, "mode": "float",
            "tables": [{"context": ["a1", "b1"], "probs": probs}]}


@pytest.mark.parametrize(
    "data, argv",
    [
        ({"scenario": _SCENARIO, "tables": [{"context": 5, "probs": {"00": "1"}}]},
         ["check"]),
        ({"scenario": _SCENARIO, "tables": [{"context": [["a1"]], "probs": {"00": "1"}}]},
         ["check"]),
        ([1, 2], ["check", "--mode", "float"]),
        ([1, 2], ["evolve", "--sigma", "0.5", "--map"]),
        (_float_model({"00": float("nan"), "11": 1.0}), ["fraction"]),
        (_float_model({"00": float("inf")}), ["check"]),
        (_float_model({"00": "1e999"}), ["check"]),
        ({"a": 1}, ["evolve", "--lambda", "1", "--potential"]),
        ([float("nan")] * 512, ["evolve", "--lambda", "1", "--t-final", "0.001", "--potential"]),
        ([True] * 512, ["evolve", "--lambda", "1", "--t-final", "0.001", "--potential"]),
        ([[0.0, 0.0], [True, True]], ["evolve", "--sigma", "0.5", "--map"]),
        (_float_model({"00": True}), ["check"]),
        ({"scenario": _SCENARIO, "tables": [{"context": ["a1", "b1"], "probs": {"00": True}}]},
         ["check"]),
        ({"scenario": _SCENARIO,
          "tables": [{"context": ["a1", "b1"], "probs": {"00": "1/2", "01": "1/4", "0,1": "1/2"}}]},
         ["check"]),
        ({"scenario": _SCENARIO,
          "tables": [{"context": ["a1", "b1"], "probs": {"00": "1/2", "01": "1/4"}},
                     {"context": ["b1", "a1"], "probs": {"00": "1"}}]},
         ["check"]),
        ([0.0] * 512, ["evolve", "--lambda", "1", "--t-final", "0.001",
                       "--initial", "gaussian:0,inf", "--potential"]),
        ([0.0] * 512, ["evolve", "--lambda", "1", "--t-final", "0.001",
                       "--vis-rel-floor", "nan", "--potential"]),
        ([0.0] * 512, ["evolve", "--lambda", "1", "--t-final", "0.001",
                       "--vis-rel-floor=-1", "--potential"]),
        *(({"scenario": _SCENARIO, "tables": [{"context": ["a1", "b1"], "probs": {"00": "1/0"}}]},
           [command, "--mode", mode])
          for mode in ("rational", "float") for command in ("check", "fraction", "cohomology")),
    ],
    ids=["context-int", "context-nested", "list-model-mode", "map-not-pairs",
         "float-nan", "float-infinity", "float-overflow", "potential-object",
         "potential-nan", "potential-bool", "map-bool", "float-bool", "rational-bool",
         "section-spelled-twice", "context-tabled-twice", "sigma0-infinite",
         "vis-floor-nan", "vis-floor-negative",
         *(f"zero-denominator-{mode}-{command}"
           for mode in ("rational", "float") for command in ("check", "fraction", "cohomology"))],
)
def test_malformed_input_exits_invalid(tmp_path, capsys, data, argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(argv + [str(path), "--no-timings"], capsys)
    assert code == cli.EXIT_INVALID
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def _edit(base, **changes):
    """``base`` with each change applied; a change to None drops the key."""
    data = {**base, **changes}
    return {k: v for k, v in data.items() if v is not None}


_TABLE = {"context": ["a1", "b1"], "probs": {"00": "1"}}
_MODEL = {"scenario": _SCENARIO, "tables": [_TABLE]}

#: case -> (a model file for ``check`` or the options of an ``evolve`` run, the error it gives)
OUTSIDE_INPUT = {
    "outcome-not-integer": (_edit(_MODEL, tables=[_edit(_TABLE, probs={"0x": "1"})]),
                            "non-integer outcome"),
    "no-scenario": (_edit(_MODEL, scenario=None), "needs 'scenario' and 'tables'"),
    "no-tables": (_edit(_MODEL, tables=None), "needs 'scenario' and 'tables'"),
    "mode-exact": (_edit(_MODEL, mode="exact"), "unknown mode"),
    "tables-not-list": (_edit(_MODEL, tables=_TABLE), "'tables' must be a list"),
    "table-not-object": (_edit(_MODEL, tables=[["a1", "b1"]]), "table must be an object"),
    "table-no-context": (_edit(_MODEL, tables=[_edit(_TABLE, context=None)]),
                         "needs 'context' and 'probs'"),
    "table-no-probs": (_edit(_MODEL, tables=[_edit(_TABLE, probs=None)]),
                       "needs 'context' and 'probs'"),
    "probs-not-object": (_edit(_MODEL, tables=[_edit(_TABLE, probs=[["00", "1"]])]),
                         "'probs' must be an object"),
    "scenario-not-object": (_edit(_MODEL, scenario=["a1", "b1"]), "scenario must be a JSON object"),
    "no-observables": (_edit(_MODEL, scenario=_edit(_SCENARIO, observables=None)),
                       "missing key 'observables'"),
    "no-cover": (_edit(_MODEL, scenario=_edit(_SCENARIO, cover=None)), "missing key 'cover'"),
    "observables-not-list": (_edit(_MODEL, scenario=_edit(_SCENARIO, observables={"a1": 2})),
                             "must be lists"),
    "cover-not-list": (_edit(_MODEL, scenario=_edit(_SCENARIO, cover="a1 b1")), "must be lists"),
    "observable-not-object": (_edit(_MODEL, scenario=_edit(_SCENARIO, observables=["a1", "b1"])),
                              "observable must be an object"),
    "cover-context-not-list": (_edit(_MODEL, scenario=_edit(_SCENARIO, cover=["a1", "b1"])),
                               "cover context must be a list"),
    "cover-context-not-strings": (_edit(_MODEL, scenario=_edit(_SCENARIO, cover=[["a1", 1]])),
                                  "cover context must be a list"),
    "cover-context-empty": (_edit(_MODEL, scenario=_edit(_SCENARIO, cover=[["a1", "b1"], []])),
                            "at least one observable"),
    "scenario-file-not-json": (_edit(_MODEL, scenario="not_json.json"), "invalid JSON"),
    "evolve-record-every-0": (["--record-every", "0"], "record_every"),
    "evolve-potential-unknown": (["--potential", "nonsense"], "bad --potential"),
}


@pytest.mark.parametrize("case", list(OUTSIDE_INPUT))
def test_outside_input_exits_invalid_with_one_error_line(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    spec, error = OUTSIDE_INPUT[case]
    if isinstance(spec, dict):
        (tmp_path / "not_json.json").write_text("{\"observables\": [")
        (tmp_path / "model.json").write_text(json.dumps(spec))
        argv = ["check", "model.json"]
    else:
        argv = ["evolve", "--lambda", "1", "--t-final", "0.001", *spec]
    code, out, err = run_cli(argv + ["--no-timings"], capsys)
    assert code == cli.EXIT_INVALID and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and error in err


def _write_model(tmp_path, mode, probs):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"scenario": _SCENARIO, "mode": mode,
                                "tables": [{"context": ["a1", "b1"], "probs": probs}]}))
    return str(path)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_huge_decimal_exponent_exits_invalid_at_once(tmp_path, capsys, mode):
    # Fraction("1e-10000000") alone would build a ten-million-digit integer
    path = _write_model(tmp_path, mode, {"00": "1e-10000000", "11": "1"})
    started = time.perf_counter()
    code, out, err = run_cli(["check", path, "--no-timings"], capsys)
    assert time.perf_counter() - started < 1.0
    assert code == cli.EXIT_INVALID and out == ""
    assert err.startswith("error: ") and "exponent" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("probs", [{"00": "25e-2", "11": "75e-2"}, {"01": "1E0"}],
                         ids=["25e-2", "1E0"])
def test_small_decimal_exponents_still_load(tmp_path, capsys, mode, probs):
    code, report, _ = run_json(["check", _write_model(tmp_path, mode, probs), "--no-timings"],
                               capsys)
    assert code == cli.EXIT_OK and report["results"]["noncontextual"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["--potential", "harmonic:nan"],
        ["--mass", "nan"],
        ["--mass", "inf"],
        ["--hbar", "nan"],
        ["--length", "nan"],
        ["--initial", "gaussian:nan,0.5"],
        ["--initial", "gaussian:0,nan"],
        ["--initial", "gaussian:0,0.5,nan"],
        ["--initial", "two-gaussian:nan,0.15"],
        ["--t-final", "1e308", "--dt", "1e-4"],
    ],
    ids=["harmonic-nan", "mass-nan", "mass-inf", "hbar-nan", "length-nan", "mu-nan",
         "sigma0-nan", "momentum-nan", "separation-nan", "step-count-overflow"],
)
def test_non_finite_evolve_input_exits_invalid(capsys, argv):
    base = ["evolve", "--lambda", "1", "--t-final", "0.001", "--format", "json"]
    code, out, err = run_cli(base + argv, capsys)
    assert code == cli.EXIT_INVALID
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


#: subcommand -> (the argv it needs, options it reads, options it rejects)
SUBCOMMAND_OPTIONS = {
    "check": (
        ["check", "prbox"],
        [["--format", "json"], ["--format", "text"], ["--mode", "float"],
         ["--budget-globals", "1"], ["--budget-nodes", "1"], ["--budget-pivots", "1"]],
        [["--format", "csv"], ["--budget-matrix", "1"]],
    ),
    "fraction": (
        ["fraction", "prbox"],
        [["--format", "json"], ["--format", "text"], ["--mode", "float"],
         ["--budget-globals", "1"], ["--budget-pivots", "1"]],
        [["--format", "csv"], ["--budget-nodes", "1"], ["--budget-matrix", "1"]],
    ),
    "cohomology": (
        ["cohomology", "prbox"],
        [["--format", "json"], ["--format", "csv"], ["--mode", "float"],
         ["--budget-matrix", "1"]],
        [["--format", "text"], ["--budget-globals", "1"], ["--budget-nodes", "1"],
         ["--budget-pivots", "1"]],
    ),
    "logic": (
        ["logic", "prbox", "--prop", "a1=0"],
        [["--format", "json"], ["--format", "text"], ["--mode", "float"]],
        [["--format", "csv"], ["--budget-globals", "1"], ["--budget-nodes", "1"],
         ["--budget-pivots", "1"], ["--budget-matrix", "1"], ["--budget-steps", "1"]],
    ),
    "evolve": (
        ["evolve"],
        [["--format", "csv"], ["--format", "json"], ["--budget-steps", "1"]],
        [["--format", "text"], ["--mode", "float"], ["--budget-globals", "1"],
         ["--budget-nodes", "1"], ["--budget-pivots", "1"], ["--budget-matrix", "1"]],
    ),
}


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMAND_OPTIONS))
def test_subcommands_accept_only_the_options_they_read(capsys, subcommand):
    base, kept, removed = SUBCOMMAND_OPTIONS[subcommand]
    parser = cli.build_parser()
    for option in kept + [["--output", "report.txt"], ["--seed", "3"], ["--no-timings"]]:
        args = parser.parse_args(base + option)
        dest = option[0].lstrip("-").replace("-", "_")
        want = True if len(option) == 1 else option[1]
        assert str(getattr(args, dest)) == str(want)
    for option in removed:
        with pytest.raises(SystemExit) as exc:
            cli.main(base + option)
        assert exc.value.code == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith("usage: ")


def test_check_accepts_real_path(tmp_path, capsys):
    from helpers import model_to_dict, pr_box_model

    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_to_dict(pr_box_model())))
    code, report, _ = run_json(["check", str(path), "--no-timings"], capsys)
    assert code == cli.EXIT_CONTEXTUAL
    assert report["inputs"]["model"]["fixture"] is None


# --- fraction ----------------------------------------------------------------


def test_fraction_prbox_one(capsys):
    code, report, _ = run_json(["fraction", "prbox", "--no-timings"], capsys)
    assert code == cli.EXIT_CONTEXTUAL
    assert report["results"]["contextual_fraction"] == "1"
    assert report["results"]["weights"] == {}


def test_fraction_deterministic_zero(capsys):
    code, report, _ = run_json(["fraction", "deterministic", "--no-timings"], capsys)
    assert code == cli.EXIT_OK
    assert report["results"]["contextual_fraction"] == "0"
    assert report["results"]["noncontextual_fraction"] == "1"
    assert sum(eval_frac(w) for w in report["results"]["weights"].values()) == 1


def test_fraction_weight_keys_separate_two_digit_outcomes(tmp_path, capsys):
    # concatenated, (10, 1, 0) and (1, 0, 10) would both read "1010"
    ids = ["x", "y", "z"]
    data = {
        "scenario": {"observables": [{"id": i, "arity": 11} for i in ids], "cover": [ids]},
        "tables": [{"context": ids, "probs": {"10,1,0": "1/2", "1,0,10": "1/2"}}],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, report, _ = run_json(["fraction", str(path), "--no-timings"], capsys)
    assert code == cli.EXIT_OK
    assert report["results"]["weights"] == {"10,1,0": "1/2", "1,0,10": "1/2"}


def test_fraction_reports_the_violations_check_reports(capsys):
    for fmt in ("json", "text"):
        reports = [
            run_cli([sub, "signalling", "--no-timings", "--format", fmt], capsys)
            for sub in ("check", "fraction")
        ]
        (check_code, check_out, _), (code, out, _) = reports
        assert check_code == code == cli.EXIT_INVALID
        if fmt == "text":
            assert out == check_out == "incompatible model: 2 violation(s)\n"
        else:
            check_results = json.loads(check_out)["results"]
            results = json.loads(out)["results"]
            assert results == check_results
            assert results["error"] == "incompatible model"
            assert len(results["violations"]) == 2


def test_fraction_exit_agrees_with_check_in_float_mode(tmp_path, capsys):
    # Float projections of global distributions are noncontextual, but the
    # fraction LP can return CF = +-1e-16 on them; both subcommands must then
    # apply the same tolerance.  The last model's tables sum to 1 - 8e-10,
    # within the loader's tolerance: its CF is 8e-10, yet a global
    # distribution explains all of its mass.
    import random

    from helpers import bell_scenario, deterministic_model, float_copy, random_global_model

    rng = random.Random(7)
    models = [float_copy(random_global_model(rng, bell_scenario())) for _ in range(6)]
    short = float_copy(deterministic_model())
    for entry in short["tables"]:
        entry["probs"] = {k: v * (1 - 8e-10) for k, v in entry["probs"].items()}
    models.append(short)
    rounded = 0
    for i, data in enumerate(models):
        path = tmp_path / f"m{i}.json"
        path.write_text(json.dumps(data))
        code, report, _ = run_json(["fraction", str(path), "--no-timings"], capsys)
        rounded += report["results"]["contextual_fraction"] != 0
        assert code == cli.EXIT_OK
        assert run_cli(["check", str(path), "--no-timings"], capsys)[0] == cli.EXIT_OK
    assert rounded > 1


def eval_frac(text):
    from fractions import Fraction

    return Fraction(text)


# --- cohomology -----------------------------------------------------------------


def test_cohomology_prbox(capsys):
    code, report, _ = run_json(["cohomology", "prbox", "--no-timings"], capsys)
    assert code == cli.EXIT_CONTEXTUAL
    rows = report["results"]["sections"]
    assert len(rows) == 8
    assert all(row["vanishes"] is False for row in rows)
    inv = report["results"]["invariants"]
    assert inv == {"h0_rank": 1, "h1_rank": 1, "h1_torsion": []}


def test_cohomology_csv_format(capsys):
    import csv as csv_mod
    import io

    code, out, _ = run_cli(
        ["cohomology", "triangle", "--no-timings", "--format", "csv"], capsys
    )
    assert code == cli.EXIT_CONTEXTUAL
    lines = out.strip().splitlines()
    rows = list(csv_mod.reader(io.StringIO("\n".join(lines[:-1]))))
    assert rows[0] == ["context", "section", "vanishes"]
    assert len(rows) == 7
    assert all(r[2] == "false" for r in rows[1:])
    assert json.loads(lines[-1])["h0_rank"] == 1


def test_cohomology_deterministic_clean(capsys):
    code, report, _ = run_json(["cohomology", "deterministic", "--no-timings"], capsys)
    assert code == cli.EXIT_OK
    assert all(r["vanishes"] for r in report["results"]["sections"])


# --- logic -----------------------------------------------------------------------


def test_logic_triangle_mode_vi(capsys):
    code, report, _ = run_json(
        ["logic", "triangle", "--prop", "(x=0 & y=0) | (x=1 & y=1)", "--no-timings"],
        capsys,
    )
    assert code == cli.EXIT_OK
    res = report["results"]
    assert res["mode"] == "vi"
    assert res["profile"] == {"{x,y}": "F", "{y,z}": "U", "{x,z}": "U"}


def test_logic_bad_proposition(capsys):
    code, _, err = run_cli(["logic", "triangle", "--prop", "x=0 &"], capsys)
    assert code == cli.EXIT_INVALID


@pytest.mark.parametrize("nest", [
    lambda n: "!" * n + "x=0",
    lambda n: "(" * n + "x=0" + ")" * n,
    lambda n: " -> ".join(["x=0"] * (n + 1)),
], ids=["not", "parentheses", "implication"])
def test_logic_caps_nesting(capsys, nest):
    argv = ["logic", "triangle", "--no-timings", "--prop"]
    assert run_cli(argv + [nest(ctxlogic._MAX_DEPTH)], capsys)[0] == cli.EXIT_OK
    code, out, err = run_cli(argv + [nest(ctxlogic._MAX_DEPTH + 1)], capsys)
    assert code == cli.EXIT_INVALID
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_logic_unknown_observable(capsys):
    code, _, err = run_cli(["logic", "triangle", "--prop", "q=0"], capsys)
    assert code == cli.EXIT_INVALID


# --- evolve ------------------------------------------------------------------------


def test_evolve_csv_output(capsys):
    code, out, _ = run_cli(
        [
            "evolve", "--lambda", "1", "--initial", "gaussian:0,0.5",
            "--t-final", "0.03", "--dt", "1.5e-4", "--record-every", "100",
            "--no-timings",
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "t,norm,mean_x,width,visibility"
    assert len(lines) == 4  # t=0 plus two records plus final
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0, abs=1e-9)


def test_evolve_sigma_selects_lambda(capsys):
    code, out, _ = run_cli(
        [
            "evolve", "--sigma", "0.5", "--initial", "gaussian:0,0.5",
            "--t-final", "0.01", "--dt", "1e-4", "--format", "json", "--no-timings",
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["results"]["lambda"] == 0.5


def test_evolve_map_file(tmp_path, capsys):
    table = [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]]
    path = tmp_path / "map.json"
    path.write_text(json.dumps(table))
    code, out, _ = run_cli(
        [
            "evolve", "--sigma", "1.0", "--map", str(path),
            "--initial", "gaussian:0,0.5", "--t-final", "0.01", "--dt", "1e-4",
            "--format", "json", "--no-timings",
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    assert json.loads(out)["results"]["lambda"] == 0.5


@pytest.mark.parametrize("sigma", ["inf", "nan"])
def test_evolve_sigma_must_be_finite(capsys, sigma):
    code, out, err = run_cli(["evolve", "--sigma", sigma, "--t-final", "0.0015", "--no-timings"],
                             capsys)
    assert code == cli.EXIT_INVALID and out == ""
    assert err.startswith("error: sigma must be finite")


def test_evolve_grid_and_frame_limits_exit_invalid(tmp_path, monkeypatch, capsys):
    from sheafkit import dynamics

    code, out, err = run_cli(["evolve", "--lambda", "1", "--grid-n", str(2**40)], capsys)
    assert code == cli.EXIT_INVALID and out == "" and "n_points" in err
    # three frames of 512 points against a limit of two
    monkeypatch.setattr(dynamics, "FRAME_BYTES_LIMIT", 2 * 512 * 8)
    dump = tmp_path / "frames.bin"
    code, out, err = run_cli(
        ["evolve", "--lambda", "1", "--t-final", "0.02", "--dt", "1e-4", "--record-every", "100",
         "--dump", str(dump), "--no-timings"],
        capsys,
    )
    assert code == cli.EXIT_INVALID and out == "" and "frame limit" in err
    assert not dump.exists()
    # the same run keeps three records
    monkeypatch.setattr(dynamics, "RECORDS_LIMIT", 2)
    code, out, err = run_cli(["evolve", "--lambda", "1", "--t-final", "0.02", "--dt", "1e-4"],
                             capsys)
    assert code == cli.EXIT_INVALID and out == "" and "record limit" in err


@pytest.mark.parametrize("table", ["[[0, 0], [Infinity, 1]]", "[[0, 0], [NaN, 1]]",
                                   "[[0, 0], [1, NaN]]", "[[-Infinity, 0], [1, 1]]"])
def test_evolve_map_entries_must_be_finite(tmp_path, capsys, table):
    path = tmp_path / "map.json"
    path.write_text(table)
    code, out, err = run_cli(["evolve", "--sigma", "0.5", "--map", str(path), "--t-final",
                              "0.001"], capsys)
    assert code == cli.EXIT_INVALID and out == ""
    assert err.startswith("error: lambda map entry") and err.endswith("is not finite\n")


def test_evolve_harmonic_potential_and_window(capsys):
    code, out, _ = run_cli(
        [
            "evolve", "--lambda", "1", "--potential", "harmonic:4",
            "--initial", "gaussian:1,0.5", "--t-final", "0.02", "--dt", "1e-4",
            "--window=-1,1", "--no-timings",
        ],
        capsys,
    )
    assert code == cli.EXIT_OK


def test_evolve_frame_dump(tmp_path, capsys):
    from helpers import read_frame_dump

    dump = tmp_path / "frames.bin"
    code, _, _ = run_cli(
        [
            "evolve", "--lambda", "1", "--initial", "gaussian:0,0.5",
            "--t-final", "0.02", "--dt", "1e-4", "--record-every", "100",
            "--dump", str(dump), "--no-timings",
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    raw = dump.read_bytes()
    magic, version, n_points, count = struct.unpack("<4sIII", raw[:16])
    assert magic == b"SLAM"
    assert version == 1
    assert n_points == 512
    assert count == 3
    assert len(raw) == 16 + count * n_points * 8
    frames = read_frame_dump(dump)
    assert len(frames) == count
    assert abs(frames[0].sum() * (16.0 / 512) - 1.0) < 1e-9


def test_evolve_csv_width_matches_free_packet_law(capsys):
    import math

    code, out, _ = run_cli(
        [
            "evolve", "--lambda", "1", "--initial", "gaussian:0,0.5",
            "--t-final", "0.5", "--dt", "1.5e-4", "--record-every", "1000",
            "--no-timings",
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    for line in out.strip().splitlines()[1:]:
        t, _, _, width, _ = (float(v) for v in line.split(","))
        expected = 0.5 * math.sqrt(1 + (t / (2 * 0.25)) ** 2)
        assert abs(width - expected) / expected < 0.01


def test_evolve_step_budget_fails_before_the_first_step(capsys):
    # 1e304 steps: without a budget this ran, printing nothing, until killed
    code, out, err = run_cli(["evolve", "--lambda", "1", "--t-final", "1e300", "--dt", "1e-4"],
                             capsys)
    assert code == cli.EXIT_INVALID and out == ""
    assert err.startswith("error: ") and "step budget" in err
    small = ["evolve", "--lambda", "1", "--t-final", "0.01", "--dt", "1e-4", "--no-timings"]
    code, _, err = run_cli(small + ["--budget-steps", "99"], capsys)
    assert code == cli.EXIT_INVALID
    assert "100 steps, more than the step budget of 99" in err
    assert run_cli(small + ["--budget-steps", "100"], capsys)[0] == cli.EXIT_OK


def test_evolve_dump_to_a_missing_directory_fails_before_the_run(tmp_path, capsys):
    # the run itself would exceed the step budget, so the dump path is checked first
    dump = tmp_path / "missing" / "frames.bin"
    code, out, err = run_cli(["evolve", "--lambda", "1", "--t-final", "1e300", "--dt", "1e-4",
                              "--dump", str(dump)], capsys)
    assert code == cli.EXIT_INVALID and out == ""
    assert err.startswith("error: bad --dump")


@pytest.mark.parametrize("window", ["1", "1,1", "a,b", "nan,1"])
def test_evolve_window_needs_two_finite_increasing_bounds(capsys, window):
    code, out, err = run_cli(["evolve", "--lambda", "1", "--t-final", "0.001",
                              f"--window={window}"], capsys)
    assert code == cli.EXIT_INVALID and out == ""
    assert err.startswith("error: ") and "--window 'lo,hi'" in err


def test_evolve_unstable_dt_exits_invalid(capsys):
    code, _, err = run_cli(
        ["evolve", "--lambda", "1", "--initial", "gaussian:0,0.5",
         "--dt", "0.01", "--t-final", "0.1"],
        capsys,
    )
    assert code == cli.EXIT_INVALID
    assert "stability" in err


@pytest.mark.parametrize("argv", [["--dt", "0"], ["--dt=-1e-3"], ["--t-final", "-1"]])
def test_evolve_rejects_nonpositive_step_and_negative_duration(capsys, argv):
    code, out, err = run_cli(["evolve", "--lambda", "1", "--initial", "gaussian:0,0.5"] + argv,
                             capsys)
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert err.startswith("error: ")


def test_evolve_bad_initial(capsys):
    code, _, err = run_cli(["evolve", "--lambda", "1", "--initial", "blob:1"], capsys)
    assert code == cli.EXIT_INVALID


def test_evolve_requires_lambda_or_sigma(capsys):
    code, _, err = run_cli(["evolve", "--initial", "gaussian:0,0.5"], capsys)
    assert code == cli.EXIT_INVALID


@pytest.mark.parametrize("extra", [["--sigma", "0.9"], ["--map"]], ids=["sigma", "map"])
def test_evolve_lambda_excludes_sigma_and_map(tmp_path, capsys, extra):
    # neither may be dropped in silence: --sigma would override --lambda, and
    # --map only shapes the sigma -> lambda map
    path = tmp_path / "map.json"
    path.write_text(json.dumps([[0.0, 0.0], [1.0, 1.0]]))
    if extra == ["--map"]:
        extra = ["--map", str(path)]
    argv = ["evolve", "--lambda", "0.3", "--t-final", "0.0015", "--format", "json"]
    code, out, err = run_cli(argv + extra, capsys)
    assert code == cli.EXIT_INVALID
    assert err.startswith("error: ") and out == ""


# --- fixtures and determinism ----------------------------------------------------


def test_fixtures_list(capsys):
    code, out, _ = run_cli(["fixtures", "list"], capsys)
    assert code == cli.EXIT_OK
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == list(cli.FIXTURE_NAMES)


def test_fixtures_list_rejects_report_options(tmp_path, capsys):
    # `fixtures list` always prints to stdout, so an --output it would ignore
    # is refused instead
    out_path = tmp_path / "list.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["fixtures", "list", "--output", str(out_path)])
    assert exc.value.code == cli.EXIT_INVALID
    assert not out_path.exists()
    assert "--output" in capsys.readouterr().err


def test_reports_byte_identical_with_seed(capsys):
    a = run_cli(["check", "prbox", "--no-timings", "--seed", "7"], capsys)
    b = run_cli(["check", "prbox", "--no-timings", "--seed", "7"], capsys)
    assert a == b
    c = run_cli(["fraction", "triangle", "--no-timings", "--seed", "7"], capsys)
    d = run_cli(["fraction", "triangle", "--no-timings", "--seed", "7"], capsys)
    assert c == d


#: (argv, --format) -> (exit code, sha256 of the --no-timings stdout).  The
#: digests pin every byte of the reports; the *.expected.json files pin verdicts.
_README_PROP = ("--prop", "(x=0 & y=0) | (x=1 & y=1)")
_GOLDEN_REPORTS = {
    (("check", "prbox"), "json"):
        (10, "964767c2239b74d3e25d63dc3c92fd87f761a770bbcf9052fa4d58e4c801f9c9"),
    (("check", "prbox"), "text"):
        (10, "2cf9e9327cc1284d0e958c8d3ea4884206d7dc37240e05e2691b3703e2ce7fb8"),
    (("check", "bell_uniform"), "json"):
        (0, "79bda581cfc4605dff50719885fa6f4cf7bdd7d77b3e869561c28ceb92242be7"),
    (("check", "bell_uniform"), "text"):
        (0, "e8c644136acfbd72d43f79d04b840e7dea3f0196cb104f5cd05af3092ec366ca"),
    (("check", "triangle_anticorrelated"), "json"):
        (10, "90aeb02f0badebc1171bed97046836705570c493ff774e4e79391e50b11241c1"),
    (("check", "triangle_anticorrelated"), "text"):
        (10, "2cf9e9327cc1284d0e958c8d3ea4884206d7dc37240e05e2691b3703e2ce7fb8"),
    (("check", "deterministic"), "json"):
        (0, "ec57b98cef4bbdcfaf3b6e2bbec540c4ad32160b0bba8f0787fd2dc2a6934b2a"),
    (("check", "deterministic"), "text"):
        (0, "e8c644136acfbd72d43f79d04b840e7dea3f0196cb104f5cd05af3092ec366ca"),
    (("check", "signalling"), "json"):
        (2, "c17aed3348a57f15760c627771b1ee605d01950ab89f94f4fe4c754cbfdac308"),
    (("check", "signalling"), "text"):
        (2, "ab5682c30af9cdcca4f02df427331f153af8f6984a4b763c8cdb1b4821f69b2f"),
    (("fraction", "prbox"), "json"):
        (10, "7e84f917606556d8b2ee4699fc747b9fab1ef7a9c782dc2182489704b0fe5a8d"),
    (("fraction", "prbox"), "text"):
        (10, "83717c39218b574513410056a1b6962be334d74859116844c7cf17e795f54123"),
    (("fraction", "bell_uniform"), "json"):
        (0, "170706d507310d8d1e6c5980651d1ad67b4833826f600d9781205e99032f7644"),
    (("fraction", "bell_uniform"), "text"):
        (0, "dcd16ec44e08cf1d0be021c7ad170dbc8e9ce8d2b5f8095a3295acb8f75f7490"),
    (("fraction", "triangle_anticorrelated"), "json"):
        (10, "8c0bfac749383f56e9d2557cbe9acf1f4b95558e6a4d8cbc11bbfa92ad868009"),
    (("fraction", "triangle_anticorrelated"), "text"):
        (10, "83717c39218b574513410056a1b6962be334d74859116844c7cf17e795f54123"),
    (("fraction", "deterministic"), "json"):
        (0, "1e318a5e8ea777a899bd3d7423b2eeaf087cbe42e6122641d9274ce055e96050"),
    (("fraction", "deterministic"), "text"):
        (0, "dcd16ec44e08cf1d0be021c7ad170dbc8e9ce8d2b5f8095a3295acb8f75f7490"),
    (("fraction", "signalling"), "json"):
        (2, "2a837b180333f9ef54d3dbe748a8942b7e8e06807a53ee5776e86fc8e927a898"),
    (("fraction", "signalling"), "text"):
        (2, "ab5682c30af9cdcca4f02df427331f153af8f6984a4b763c8cdb1b4821f69b2f"),
    (("cohomology", "prbox"), "json"):
        (10, "93b2571b9e2141b8e8366794fbba7aba4193e2e8a896ebd51d450e930b951cdf"),
    (("cohomology", "prbox"), "csv"):
        (10, "d23b431b315bf8f423e9ff35f4cb21a6a9a6e601abfebe9694cc3d7c895abbb7"),
    (("cohomology", "bell_uniform"), "json"):
        (0, "146420d23d81bd28fdd27042f9bfe301832e1ebd35307a79ad030d3b3fa4c91e"),
    (("cohomology", "bell_uniform"), "csv"):
        (0, "97f698181fb3a57fc36e62d4a8b3ce7cdebd81dd5be55c95d1611bd2db2ab733"),
    (("cohomology", "triangle_anticorrelated"), "json"):
        (10, "a5df9755520077f4faa407287465e4190e63e2fb781a62efda543a78fa258d97"),
    (("cohomology", "triangle_anticorrelated"), "csv"):
        (10, "e05b68b573222692c3be2ea4d1b4ed2aeac5270cb5c3ad389e08c950935cbedd"),
    (("cohomology", "deterministic"), "json"):
        (0, "036d2d9c552d2c7398f206154b342bfbbb8af84c6644ce0f149f963147ccd8a5"),
    (("cohomology", "deterministic"), "csv"):
        (0, "e74f58fede3fbe9b243fbe969aaae3eae2147a02d8d5bb1f8f022d99d3587d4b"),
    (("cohomology", "signalling"), "json"):
        (10, "948bfebcff6ca047c7407c7047711794dcae3051947ccb60c971d6d0c7c9674c"),
    (("cohomology", "signalling"), "csv"):
        (10, "543d886ff025f0e60adbe40b398d31f59c0928301e88837270192d38a269e8e8"),
    (("logic", "triangle", *_README_PROP), "json"):
        (0, "489f12c6c929a2eb46b42864a06dc6f632c61d59333b692dd0bc8715b94a9660"),
    (("logic", "triangle", *_README_PROP), "text"):
        (0, "dcb7504aac2e90132b033f733d9c7c2ce36375c05a7b3261987eb29e5d68f6d3"),
    (("logic", "prbox", "--prop", "a1=0 -> b1=0"), "json"):
        (0, "4b56122efd424dcb0267888be3740e54304a51e3f3b921190abba23155c34ca8"),
    (("logic", "prbox", "--prop", "a1=0 -> b1=0"), "text"):
        (0, "030479c5e2d7d383d8afc3d0f12a6be05449597af2fe657e02c6e348f6f4a5fa"),
}


@pytest.mark.parametrize("argv, fmt", list(_GOLDEN_REPORTS),
                         ids=[f"{a[0]}-{a[1]}-{f}" for a, f in _GOLDEN_REPORTS])
def test_report_bytes_match_the_pinned_digests(capsys, argv, fmt):
    code, out, _ = run_cli([*argv, "--format", fmt, "--no-timings"], capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _GOLDEN_REPORTS[argv, fmt]


#: Models with larger bases than the fixtures, written to a fixed relative
#: path so that the report's ``inputs.path`` is stable.  The all-versus-nothing
#: cover has triple overlaps, so its D1 is not empty.
_GOLDEN_MODELS = {
    "avn": helpers.avn_model,
    "cycle6": lambda: helpers.noisy_cycle_model(6, Fraction(4, 5)),
}
#: (model, subcommand, --format) -> (exit code, sha256 of the --no-timings stdout)
_GOLDEN_MODEL_REPORTS = {
    ("avn", "cohomology", "json"):
        (10, "699b742deb6f5482a9fb05102e2cd1aec50e26e9b5092452c1c649d46ccf3b7c"),
    ("avn", "cohomology", "csv"):
        (10, "60a4ed7d92329b768c21a4a9b8bc75f15b997a1aa8dd97c0e703bb89ded49eca"),
    ("cycle6", "check", "json"):
        (10, "1109d29a7601bd5721a02a37baf3d5a4194707d6541032f71e1f5e86c7354b12"),
    ("cycle6", "check", "text"):
        (10, "60ace50ecc184866e43e1bbf66e2c7db4622042db5e2f9af000bb902376c213a"),
    ("cycle6", "fraction", "json"):
        (10, "7982625e8febab97908a4910cf98ed2ae33613409e5bff955da7148ca19152d6"),
    ("cycle6", "fraction", "text"):
        (10, "1d2299a1b2b67ebd5e094a86debbeb8832f74ad6c890214a8122281bf2e78747"),
}


@pytest.mark.parametrize("name, subcommand, fmt", list(_GOLDEN_MODEL_REPORTS),
                         ids=["-".join(key) for key in _GOLDEN_MODEL_REPORTS])
def test_model_report_bytes_match_the_pinned_digests(tmp_path, monkeypatch, capsys,
                                                     name, subcommand, fmt):
    monkeypatch.chdir(tmp_path)
    path = f"{name}.json"
    (tmp_path / path).write_text(
        json.dumps(helpers.model_to_dict(_GOLDEN_MODELS[name]()), sort_keys=True))
    code, out, _ = run_cli([subcommand, path, "--format", fmt, "--no-timings"], capsys)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == _GOLDEN_MODEL_REPORTS[name, subcommand, fmt]


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["check", "prbox", "--no-timings", "--output", str(out_path)], capsys
    )
    assert code == cli.EXIT_CONTEXTUAL
    assert out == ""
    assert json.loads(out_path.read_text())["subcommand"] == "check"


def test_evolve_output_file(tmp_path, capsys):
    out_path = tmp_path / "series.csv"
    code, out, _ = run_cli(
        ["evolve", "--lambda", "1", "--initial", "gaussian:0,0.5",
         "--t-final", "0.01", "--dt", "1e-4", "--record-every", "50",
         "--output", str(out_path), "--no-timings"],
        capsys,
    )
    assert code == cli.EXIT_OK
    assert out == ""
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,norm,mean_x,width,visibility"
    assert len(lines) == 4


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sheafkit.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sheafkit" in proc.stdout


def _run_python(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: case -> (argv, the layers it loads besides the package and sheafkit.cli)
SUBCOMMAND_LAYERS = {
    "check": (["check", "prbox"], {"errors", "scenario", "presheaf", "gluing", "simplex"}),
    "fraction": (["fraction", "prbox"], {"errors", "scenario", "presheaf", "gluing", "simplex"}),
    "cohomology": (["cohomology", "prbox"],
                   {"errors", "scenario", "presheaf", "cohomology", "intlinalg"}),
    "logic": (["logic", "prbox", "--prop", "a1=0"], {"errors", "scenario", "presheaf", "ctxlogic"}),
    "evolve": (["evolve", "--lambda", "1", "--t-final", "0.001"], {"errors", "dynamics"}),
    "version": (["--version"], {"errors"}),
    "fixtures": (["fixtures", "list"], {"errors"}),
}


@pytest.mark.parametrize("case", sorted(SUBCOMMAND_LAYERS))
def test_each_subcommand_loads_only_its_layers(case):
    argv, layers = SUBCOMMAND_LAYERS[case]
    out = _run_python(
        "import contextlib, io, json, sys\n"
        "import sheafkit.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        code = cli.main({argv!r})\n"
        "    except SystemExit as exc:  # --version exits from the parser\n"
        "        code = exc.code\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'sheafkit')\n"
        "print(json.dumps([code, loaded, 'numpy' in sys.modules]))\n"
    )
    code, loaded, numpy = json.loads(out)
    assert code in (cli.EXIT_OK, cli.EXIT_CONTEXTUAL)
    assert loaded == sorted({"sheafkit", "sheafkit.cli"} | {f"sheafkit.{m}" for m in layers})
    assert numpy == (case == "evolve")


def test_python_m_check_loads_only_its_layers():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "sheafkit.cli", "check", "prbox"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == cli.EXIT_CONTEXTUAL, proc.stderr
    assert json.loads(proc.stdout)["results"]["strongly_contextual"] is True
    # sheafkit.cli runs as __main__ here, so it is never imported under its name
    imported = set(re.findall(r"\|\s*(sheafkit\S*)$", proc.stderr, re.M))
    assert imported == {"sheafkit"} | {f"sheafkit.{m}" for m in SUBCOMMAND_LAYERS["check"][1]}


def test_every_export_loads_on_first_access():
    out = _run_python(
        "import importlib, sys\n"
        "import sheafkit\n"
        "assert [m for m in sys.modules if m.startswith('sheafkit')] == ['sheafkit']\n"
        "for layer in sorted(sheafkit._LAYERS):\n"
        "    assert getattr(sheafkit, layer) is importlib.import_module(f'sheafkit.{layer}')\n"
        "for name, layer in sheafkit._EXPORTS.items():\n"
        "    scope = {}\n"
        "    exec(f'from sheafkit import {name}', scope)\n"
        "    value = getattr(importlib.import_module(f'sheafkit.{layer}'), name)\n"
        "    assert scope[name] is value and getattr(sheafkit, name) is value, name\n"
        "    assert name in dir(sheafkit), name\n"
        "try:\n"
        "    sheafkit.no_such_name\n"
        "except AttributeError:\n"
        "    print(len(sheafkit._EXPORTS))\n"
    )
    assert out.strip() == "78"


def test_timings_present_by_default(capsys):
    code, report, _ = run_json(["check", "deterministic"], capsys)
    assert "timings" in report and report["timings"]["total_s"] >= 0


def test_mode_override_to_float(capsys):
    code, report, _ = run_json(
        ["check", "prbox", "--mode", "float", "--no-timings"], capsys
    )
    assert code == cli.EXIT_CONTEXTUAL
    assert report["results"]["strongly_contextual"] is True


def test_check_skips_lp_when_logically_contextual(capsys):
    # The PR box is decided on supports, so a globals budget too small for its
    # 16-column incidence never comes into play.
    code, report, _ = run_json(["check", "prbox", "--budget-globals", "1", "--no-timings"], capsys)
    assert code == cli.EXIT_CONTEXTUAL
    assert report["results"]["noncontextual"] is False
    code, _, err = run_cli(["fraction", "prbox", "--budget-globals", "1"], capsys)
    assert code == cli.EXIT_INVALID
    assert "global assignments" in err


def test_budget_flags_propagate(capsys):
    code, _, err = run_cli(
        ["check", "prbox", "--budget-nodes", "2", "--no-timings"], capsys
    )
    assert code == cli.EXIT_INVALID
    assert "backtracking" in err
