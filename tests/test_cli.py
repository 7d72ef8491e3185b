import json
import struct
import subprocess
import sys

import pytest

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


def test_check_missing_file(capsys):
    code, _, err = run_cli(["check", "/does/not/exist.json"], capsys)
    assert code == cli.EXIT_INVALID
    assert "error" in err


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
    ],
    ids=["harmonic-nan", "mass-nan", "mass-inf", "hbar-nan", "length-nan", "mu-nan",
         "sigma0-nan", "momentum-nan", "separation-nan"],
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
         ["--budget-pivots", "1"], ["--budget-matrix", "1"]],
    ),
    "evolve": (
        ["evolve"],
        [["--format", "csv"], ["--format", "json"]],
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


def test_combinatorial_subcommands_never_import_numpy():
    out = _run_python(
        "import contextlib, io, sys\n"
        "import sheafkit.cli as cli\n"
        "for argv in (['check', 'prbox'], ['fraction', 'prbox'], ['cohomology', 'prbox'],\n"
        "             ['logic', 'prbox', '--prop', 'a1=0']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv + ['--no-timings']) in (cli.EXIT_OK, cli.EXIT_CONTEXTUAL)\n"
        "print(sorted(m for m in ('numpy', 'sheafkit.dynamics') if m in sys.modules))\n"
    )
    assert out.strip() == "[]"


DYNAMICS_EXPORTS = (
    "Grid", "LambdaState", "Observables", "PhysicalParams", "compute_observables", "evolve",
    "gaussian_state", "harmonic_potential", "lambda_from_sigma", "physical_params",
    "polar_compose", "polar_decompose", "quantum_potential", "step", "two_gaussian_state",
)


def test_dynamics_exports_load_on_first_access():
    out = _run_python(
        "import sheafkit\n"
        "assert sheafkit.evolve is sheafkit.dynamics.evolve\n"
        f"names = {DYNAMICS_EXPORTS!r}\n"
        "for name in names:\n"
        "    assert getattr(sheafkit, name) is getattr(sheafkit.dynamics, name), name\n"
        "    assert name in dir(sheafkit), name\n"
        "try:\n"
        "    sheafkit.no_such_name\n"
        "except AttributeError:\n"
        "    print(len(names))\n"
    )
    assert out.strip() == "15"


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
