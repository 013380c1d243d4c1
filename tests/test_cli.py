import csv
import hashlib
import io
import itertools
import json
import os
import platform
import re
import runpy
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agedist import curvefit, dataio, model2, pipeline, simulator
from agedist.cli import _fitted_params, build_parser, main
from agedist.distributions import (
    ALPHA_MIN, AgeDistribution, ModelKind, default_labels, mean_absolute_error,
    stationary_distribution)
from agedist.dataio import load_params, load_params_document
from agedist.errors import AgedistError, DegenerateLastGroup, ResidualCheckFailed
from agedist.simulator import SimConfig

from oracles import reference_route, reference_solve_one
from test_curvefit import bench_generator
from test_pipeline import flat_then_humped


def strict_load(path):
    """Parse a written file, failing on NaN/Infinity, which strict JSON lacks."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_agedist_log_takes_a_level_in_any_case(dataset):
    # A child process: basicConfig ignores a level once a handler (such as
    # pytest's) is installed.
    path = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, AGEDIST_LOG="ERROR", PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, "-m", "agedist.cli", "classify", "--input",
                             str(dataset)], env=env, capture_output=True, text=True)
    assert (result.returncode, "Traceback" in result.stderr, "error:" in result.stderr) == (
        0, False, False)
    assert result.stdout.startswith("country,classification,eligible_route")


@pytest.mark.parametrize("level", ["basic_format", "bogus"])
def test_agedist_log_takes_only_a_level(dataset, level, monkeypatch, capsys):
    # In process: the refusal comes before basicConfig, so pytest's handler
    # does not matter. logging.BASIC_FORMAT is a format string.
    monkeypatch.setenv("AGEDIST_LOG", level)
    assert main(["classify", "--input", str(dataset)]) == 1
    assert capsys.readouterr() == ("", f"error: AGEDIST_LOG={level!r} is not debug, info, "
                                       "warning, error or critical\n")


@pytest.mark.filterwarnings("ignore:'agedist.cli' found in sys.modules:RuntimeWarning")
def test_running_the_module_exits_with_mains_status(dataset, monkeypatch, capsys):
    # python -m agedist.cli, in process; runpy warns that the tests have
    # imported the module already.
    monkeypatch.setattr(sys, "argv", ["agedist.cli", "classify", "--input", str(dataset)])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("agedist.cli", run_name="__main__")
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("country,classification,eligible_route")


def test_the_command_line_imports_no_optional_module():
    # The benchmark's setup_s times this import in a fresh interpreter.
    code = ("import sys, agedist, agedist.cli; agedist.cli.build_parser(); print(sorted("
            "{'scipy', 'hypothesis', 'concurrent.futures', 'matplotlib'} & set(sys.modules)))")
    path = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"


class TestClassify:
    def test_lists_every_country(self, dataset, capsys):
        assert main(["classify", "--input", str(dataset)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "country,classification,eligible_route"
        table = dict(line.split(",", 1) for line in out[1:])
        assert table["Pyramid"].startswith("monotone_non_increasing,model1")
        assert table["Hump"] == "non_monotone,model2"

    def test_single_country_filter(self, dataset, capsys):
        assert main(["classify", "--input", str(dataset), "--country", "Hump"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[1].startswith("Hump,")

    def test_unsolvable_country_listed_as_failed(self, dataset, capsys, monkeypatch):
        solve = pipeline.solve

        def refuse(dist):
            solution = solve(dist)
            if solution.route is not pipeline.Route.MODEL1:
                raise AgedistError("no model-2 station")
            return solution

        monkeypatch.setattr(pipeline, "solve", refuse)
        assert main(["classify", "--input", str(dataset)]) == 0
        table = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:])
        assert table["Hump"] == "non_monotone,failed"
        assert table["Pyramid"] == "monotone_non_increasing,model1"


@pytest.fixture
def skipping_dataset(tmp_path):
    """A pyramid A, and B and C, which ingest skips for an empty interior
    group (g1 in B, g2 in C)."""
    return write_dataset(tmp_path / "skipping.csv", [
        ("A", [500.0, 300.0, 150.0, 50.0]),
        ("B", [300.0, 0.0, 200.0]),
        ("C", [100.0, 80.0, 0.0, 20.0]),
    ])


class TestCountryLookup:
    """``--country`` looks among the ingested and the skipped countries."""

    def test_classify_prints_only_the_country_asked_for(self, skipping_dataset, capsys):
        assert main(["classify", "--input", str(skipping_dataset), "--country", "A"]) == 0
        assert capsys.readouterr().out == (
            "country,classification,eligible_route\nA,monotone_non_increasing,model1\n")

    def test_classify_prints_a_skipped_country(self, skipping_dataset, capsys):
        assert main(["classify", "--input", str(skipping_dataset), "--country", "B"]) == 0
        assert capsys.readouterr().out == "country,classification,eligible_route\nB,skipped,none\n"

    @pytest.mark.parametrize("command", ["solve", "fit-curve"])
    def test_skipped_country_fails_with_its_reason(self, skipping_dataset, tmp_path, capsys,
                                                   command):
        out, report = tmp_path / "params.json", tmp_path / "report.csv"
        argv = [command, "--input", str(skipping_dataset), "--country", "B", "--out", str(out)]
        if command == "fit-curve":
            argv += ["--fit-report", str(report)]
        assert main(argv) == 1
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("error: country 'B' was skipped: group 'g1' (index 1) is empty")
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("command", ["classify", "solve"])
    def test_absent_country_not_found(self, skipping_dataset, tmp_path, capsys, command):
        argv = [command, "--input", str(skipping_dataset), "--country", "Z"]
        if command == "solve":
            argv += ["--out", str(tmp_path / "params.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: country 'Z' not found (1 countries ingested, 2 skipped)")


def test_run_option_defaults_are_the_simulation_defaults():
    parser = build_parser()
    simulate = parser.parse_args(["simulate", "--params", "p.json", "--out", "r.json"])
    run = parser.parse_args(["pipeline", "--input", "d.csv", "--out-dir", "out"])
    assert SimConfig(num_agents=simulate.agents, num_steps=simulate.steps,
                     seed=simulate.seed, burn_in=simulate.burn_in) == SimConfig()
    assert (run.agents, run.steps, run.seed) == (
        SimConfig.num_agents, SimConfig.num_steps, SimConfig.seed)


@pytest.fixture
def route_dataset(tmp_path):
    """One country per route: a pyramid, a hump, Steep (monotone, its last
    group 5e9 times the one before it) and a Newtown-like target (first
    group 0.3 against adults up to 1200)."""
    return write_dataset(tmp_path / "routes.csv", [
        ("Pyramid", [500, 300, 150, 50]),
        ("Hump", [300, 400, 300]),
        ("Steep", [1, 1e-10, 0.5]),
        ("Newtown", [0.3, 500, 1200, 900]),
    ])


class TestRouteAgreement:
    def test_classify_solve_and_pipeline_take_one_route(self, route_dataset, tmp_path, capsys):
        data = str(route_dataset)
        assert main(["classify", "--input", data]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        classified = {name: route for name, _, route in rows}

        out_dir = tmp_path / "out"
        assert main(["pipeline", "--input", data, "--out-dir", str(out_dir),
                     "--agents", "500", "--steps", "30"]) == 0
        summary = strict_load(out_dir / "summary.json")
        piped = {name: entry["route"] for name, entry in summary["per_country"].items()}

        def solved_route(name):
            capsys.readouterr()
            assert main(["solve", "--input", data, "--country", name,
                         "--out", str(tmp_path / f"{name}.json")]) == 0
            return re.search(r": route (\w+),", capsys.readouterr().out).group(1)

        solved = {name: solved_route(name) for name in classified}
        forced = {}
        for name, dist in dataio.ingest_csv(data):
            written = strict_load(tmp_path / f"{name}.json")
            # Equal JSON text: a float's repr round-trips, so solve writes
            # the pipeline's rates bit for bit.
            pipeline_file = strict_load(out_dir / "params" / f"{name}.json")
            for key in ("survival", "activation"):
                assert json.dumps(written[key]) == json.dumps(pipeline_file[key]), (name, key)
            # The two-station reference returns what solve wrote and names
            # the route the same way.
            params, _ = reference_solve_one(dist)
            assert load_params(tmp_path / f"{name}.json") == params
            forced[name] = reference_route(params)

        assert classified == piped == solved == forced == {
            "Pyramid": "model1", "Hump": "model2",
            "Steep": "nearest_reachable", "Newtown": "nearest_reachable"}


def test_every_written_parameter_file_emits_again_to_its_bytes(route_dataset, tmp_path):
    # Each kind of parameter file that the command line writes loads, and
    # emitted again with its target and config gives the same bytes.
    data = str(route_dataset)
    solve = ["solve", "--input", data, "--country"]
    commands = {
        "mid": [*solve, "Hump"],
        "rand": [*solve, "Hump", "--pn", "rand", "--seed", "3"],
        "zero": [*solve, "Hump", "--pn", "-0.0"],
        "newtown": [*solve, "Newtown"],
        "fit": ["fit-curve", "--input", data, "--country", "Hump",
                "--fit-report", str(tmp_path / "per_k.csv")],
    }
    for name, argv in commands.items():
        assert main([*argv, "--out", str(tmp_path / f"{name}.json")]) == 0
    out_dir = tmp_path / "out"
    assert main(["pipeline", "--input", data, "--out-dir", str(out_dir),
                 "--agents", "200", "--steps", "20"]) == 0
    written = [tmp_path / f"{name}.json" for name in commands]
    # One pipeline file per route: Pyramid's model1, Hump's model2, and
    # Newtown's and Steep's nearest_reachable.
    written += sorted((out_dir / "params").glob("*.json"))
    kinds = []
    for path in written:
        document = load_params_document(path)
        kinds.append(document.params.kind.value)
        again = tmp_path / "again.json"
        dataio.emit_params(document.params, again, target=document.target,
                           config=document.config)
        assert again.read_bytes() == path.read_bytes(), path.name
    assert kinds == ["model2"] * 4 + ["model1_on_fitted", "model2", "model2", "model1", "model2"]


#: A model-2 target, a nearest-reachable one and a pyramid whose last group
#: outgrows the one before it.
PN_COUNTRIES = [("Hump", [100, 300, 200, 50]), ("Newtown", [0.3, 500, 1200, 900]),
                ("Rising", [100, 80, 60, 70])]


class TestSolve:
    def test_model1_roundtrip(self, dataset, tmp_path, capsys):
        out_file = tmp_path / "pyramid.json"
        assert main([
            "solve", "--input", str(dataset), "--country", "Pyramid",
            "--out", str(out_file),
        ]) == 0
        document = load_params_document(out_file)
        assert document.params.kind.value == "model1"
        assert document.target.labels == ("0-4", "5-9", "10-14", "15+")
        assert document.params.diagnostics["mae"] < 1e-12

    def test_model2_with_seed(self, dataset, tmp_path):
        out_file = tmp_path / "hump.json"
        assert main([
            "solve", "--input", str(dataset), "--country", "Hump",
            "--seed", "3", "--out", str(out_file),
        ]) == 0
        document = load_params_document(out_file)
        assert document.params.kind.value == "model2"
        assert document.params.diagnostics["mae"] < 1e-12
        # The closed form draws nothing: the seed is echoed, not recorded
        # as a diagnostic.
        assert "seed" not in document.params.diagnostics
        assert document.config == {"seed": 3, "pn": "mid"}

    def test_explicit_pn(self, dataset, tmp_path):
        out_file = tmp_path / "pyramid.json"
        assert main([
            "solve", "--input", str(dataset), "--country", "Pyramid",
            "--pn", "0.25", "--out", str(out_file),
        ]) == 0
        assert load_params_document(out_file).params.free_param == 0.25

    @pytest.mark.parametrize("country", ["Pyramid", "Hump"])
    def test_a_signed_zero_pn_writes_a_positive_zero(self, dataset, tmp_path, country):
        out_file = tmp_path / "zero.json"
        assert main(["solve", "--input", str(dataset), "--country", country,
                     "--pn", "-0.0", "--out", str(out_file)]) == 0
        written = strict_load(out_file)
        assert not np.signbit(written["free_param"])
        assert not np.signbit(written["survival"][-1])

    @pytest.mark.parametrize("pn, mode", [("mid", "midpoint"), ("rand", "rand"),
                                          ("0.25", "explicit")])
    def test_free_param_mode_matches_pipeline(self, dataset, tmp_path, pn, mode):
        out_file = tmp_path / "pyramid.json"
        assert main([
            "solve", "--input", str(dataset), "--country", "Pyramid",
            "--pn", pn, "--seed", "4", "--out", str(out_file),
        ]) == 0
        diagnostics = load_params_document(out_file).params.diagnostics
        assert diagnostics["free_param_mode"] == mode
        assert ("seed" in diagnostics) == (pn == "rand")
        if pn == "rand":
            assert diagnostics["seed"] == 4

    @pytest.mark.parametrize("country, route, pn", [
        ("Hump", "model2", "0.3"),
        ("Hump", "model2", "rand"),
        # Newtown's interval is [0.99867.., 0.999999999]: 0.3 is outside.
        ("Newtown", "nearest_reachable", "0.9995"),
        ("Newtown", "nearest_reachable", "rand"),
    ])
    def test_pn_on_a_model2_route_applies(self, tmp_path, capsys, country, route, pn):
        # The last survival is model 1's free parameter on the active mass
        # of the target the closed form solves: the running minimum of its
        # first n-1 groups, then its last group.
        data = write_dataset(tmp_path / "pn.csv", PN_COUNTRIES)
        out_file = tmp_path / "x.json"
        assert main(["solve", "--input", str(data), "--country", country,
                     "--pn", pn, "--seed", "4", "--out", str(out_file)]) == 0
        assert f": route {route}," in capsys.readouterr().out
        document = load_params_document(out_file)
        solved = document.target if route == "model2" else model2.nearest_reachable(
            document.target)
        props = solved.proportions
        lower, upper = model2.feasibility(np.append(np.minimum.accumulate(props[:-1]), props[-1]))
        drawn = (np.random.default_rng(4).uniform(lower, upper)
                 if pn == "rand" else float(pn))
        assert lower <= drawn <= upper
        assert document.params.free_param == document.params.survival.probs[-1] == drawn
        diagnostics = document.params.diagnostics
        assert diagnostics["free_param_mode"] == ("rand" if pn == "rand" else "explicit")
        assert diagnostics.get("seed") == (4 if pn == "rand" else None)
        assert main(["simulate", "--params", str(out_file), "--agents", "200",
                     "--steps", "20", "--out", str(tmp_path / "sim.json")]) == 0

    @pytest.mark.parametrize("country, pn, refusal", [
        ("Rising", "0.1", "p_n=0.1 outside [0.1428571428571429, 0.999999999]"),
        ("Hump", "1.5", "p_n=1.5 outside [0.0, 0.999999999]"),
        ("Newtown", "0.3", "p_n=0.3 outside [0.9986676656676656, 0.999999999]"),
        ("Hump", "abc", "--pn must be 'mid', 'rand' or a number, got 'abc'"),
    ])
    def test_a_refused_pn_is_one_error_line(self, tmp_path, capsys, country, pn, refusal):
        # Python floats, not numpy scalars, in the message.
        data = write_dataset(tmp_path / "pn.csv", PN_COUNTRIES)
        assert main(["solve", "--input", str(data), "--country", country,
                     "--pn", pn, "--out", str(tmp_path / "x.json")]) == 1
        assert capsys.readouterr().err == f"error: {refusal}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["pn.csv"]

    @pytest.mark.parametrize("model", ["auto", "1", "2"])
    def test_model_option_is_gone(self, dataset, tmp_path, capsys, model):
        # The cascade picks the model: solve takes no --model.
        out_file = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--input", str(dataset), "--country", "Pyramid",
                  "--model", model, "--out", str(out_file)])
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: unrecognized arguments: --model " + model]
        assert not out_file.exists()

    def test_missing_country(self, dataset, tmp_path, capsys):
        code = main([
            "solve", "--input", str(dataset), "--country", "Atlantis",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file(self, tmp_path, capsys):
        code = main([
            "solve", "--input", str(tmp_path / "nope.csv"), "--country", "X",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_repeat_run_bit_identical(self, dataset, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out_file in (a, b):
            assert main([
                "solve", "--input", str(dataset), "--country", "Hump",
                "--seed", "5", "--out", str(out_file),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture
def flat_dataset(tmp_path):
    """A wavy ageing plateau, solved exactly by the model-2 closed form, and
    a near-empty first group that no activation rates can reproduce."""
    return write_dataset(tmp_path / "flat.csv", [
        ("Flatland", np.r_[1000.0 + 60.0 * np.sin(np.arange(12) * 2.2),
                           1000 * 0.7 ** np.arange(1, 9)]),
        ("Cliff", [0.01, 500.0, 499.99]),
    ])


def write_dataset(path, rows):
    """Write (name, counts) rows as a long CSV with groups g0, g1, ..."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("country,age_group,population\n")
        for name, counts in rows:
            for g, count in enumerate(counts):
                fh.write(f"{name},g{g},{count:.17g}\n")
    return path


@pytest.fixture
def unreachable_dataset(tmp_path):
    """Three countries no closed form reproduces as given: Newtown (first
    group 0.3 against adults up to ~1200), Cliff, and a pyramid whose last
    group is 1e10 times the one before it."""
    x = np.arange(1, 10)
    return write_dataset(tmp_path / "unreachable.csv", [
        ("Newtown", np.r_[0.3, 1000 * np.exp(-0.5 * ((x - 4) / 2.5) ** 2) + 200]),
        ("Cliff", [0.01, 500.0, 499.99]),
        ("Huge", [1.0, 0.5, 1e-10, 1.0]),
    ])


class TestSolveModel2:
    def test_flat_shape_solved_by_closed_form(self, flat_dataset, tmp_path):
        out_file = tmp_path / "flat.json"
        assert main([
            "solve", "--input", str(flat_dataset), "--country", "Flatland",
            "--out", str(out_file),
        ]) == 0
        params = load_params_document(out_file).params
        assert params.kind.value == "model2"
        assert params.diagnostics["solver"] == "closed_form"
        assert params.diagnostics["mae"] < 1e-12

    def test_nearest_reachable_written(self, tmp_path):
        # The second group is 1250 times the first: beyond the closed form,
        # which solves the nearest target it reaches.
        data = tmp_path / "steep.csv"
        data.write_text("country,age_group,population\n"
                        "Steep,a,4\nSteep,b,5000\nSteep,c,4996\n")
        out_file = tmp_path / "steep.json"
        assert main([
            "solve", "--input", str(data), "--country", "Steep",
            "--out", str(out_file),
        ]) == 0
        diagnostics = strict_load(out_file)["diagnostics"]
        assert diagnostics["solver"] == "nearest_reachable"
        assert diagnostics["min_activation"] >= ALPHA_MIN
        assert 0 < diagnostics["wasserstein_to_original"] < 1e-3
        assert diagnostics["mae"] < 1e-4

    def test_unreachable_shape_solved_on_nearest_reachable(self, flat_dataset, tmp_path):
        out_file = tmp_path / "cliff.json"
        assert main([
            "solve", "--input", str(flat_dataset), "--country", "Cliff",
            "--out", str(out_file),
        ]) == 0
        document = load_params_document(out_file)
        assert document.params.kind.value == "model2"
        assert document.params.diagnostics["solver"] == "nearest_reachable"
        # The curve fit this shape used to fall back to ended at 0.22.
        assert document.params.diagnostics["mae"] < 4e-4

    def test_huge_last_group(self, unreachable_dataset, tmp_path):
        # The closed form reports the typed failure; solve, like the
        # cascade, solves the pyramid on its nearest reachable target.
        huge = dict(dataio.ingest_csv(unreachable_dataset))["Huge"]
        with pytest.raises(DegenerateLastGroup,
                           match=re.escape("last group is more than 1/(1 - MAX_LAST_SURVIVAL)")):
            model2.solve(huge)
        out_file = tmp_path / "huge.json"
        assert main([
            "solve", "--input", str(unreachable_dataset), "--country", "Huge",
            "--out", str(out_file),
        ]) == 0
        diagnostics = load_params_document(out_file).params.diagnostics
        assert diagnostics["solver"] == "nearest_reachable"
        assert diagnostics["mae"] < 1e-9


class TestSolveCurveFit:
    def test_records_the_fit(self):
        dist = flat_then_humped()
        result = curvefit.fit(dist)
        params, analytic = _fitted_params(result)
        assert params.kind is ModelKind.MODEL1_ON_FITTED
        assert analytic.labels == dist.labels
        # In this order: the parameter file writes them so.
        assert list(params.diagnostics.items()) == [
            ("mae", mean_absolute_error(analytic, result.fitted)),
            ("wasserstein_to_original", result.wasserstein_to_original),
            ("residual_sse", result.residual_sse),
            ("plateau", result.params.plateau),
            ("decay_scale", result.params.decay_scale),
            ("decay_shape", result.params.decay_shape),
            ("breakpoint", result.params.breakpoint),
            ("free_param_mode", "midpoint"),
        ]


class TestFitCurve:
    def test_writes_params_and_per_k_table(self, dataset, tmp_path):
        out_file = tmp_path / "fit.json"
        report = tmp_path / "per_k.csv"
        assert main([
            "fit-curve", "--input", str(dataset), "--country", "Hump",
            "--out", str(out_file), "--fit-report", str(report),
        ]) == 0
        document = load_params_document(out_file)
        assert document.params.kind.value == "model1_on_fitted"
        assert document.params.diagnostics["wasserstein_to_original"] > 0
        lines = report.read_text().splitlines()
        assert lines[0] == "k,sse,wasserstein"
        assert len(lines) == 4  # one row per breakpoint, n = 3
        # simulate steps the file from its target, the fitted surrogate.
        assert main(["simulate", "--params", str(out_file), "--agents", "200",
                     "--steps", "20", "--out", str(tmp_path / "result.json")]) == 0
        result = strict_load(tmp_path / "result.json")
        assert result["labels"] == ["0-4", "5-9", "10-14"]


class TestSimulate:
    def test_result_file_and_trajectory(self, dataset, tmp_path):
        params_file = tmp_path / "hump.json"
        assert main([
            "solve", "--input", str(dataset), "--country", "Hump",
            "--out", str(params_file),
        ]) == 0
        result_file = tmp_path / "result.json"
        trajectory = tmp_path / "trajectory.csv"
        assert main([
            "simulate", "--params", str(params_file), "--out", str(result_file),
            "--agents", "2000", "--steps", "80", "--burn-in", "40",
            "--seed", "11", "--trajectory", str(trajectory),
        ]) == 0
        result = json.loads(result_file.read_text())
        assert result["seed"] == 11
        assert result["total_deaths"] > 0
        assert len(result["steady_estimate"]) == 3
        assert result["mae_vs_analytic"] < 0.02
        assert len(trajectory.read_text().splitlines()) == 81

    def test_result_file_is_strict_json(self, dataset, tmp_path):
        params_file = tmp_path / "pyramid.json"
        assert main([
            "solve", "--input", str(dataset), "--country", "Pyramid",
            "--out", str(params_file),
        ]) == 0
        result_file = tmp_path / "result.json"
        assert main([
            "simulate", "--params", str(params_file), "--out", str(result_file),
            "--agents", "500", "--steps", "20", "--burn-in", "10",
        ]) == 0
        result = strict_load(result_file)
        assert type(result["total_deaths"]) is int

    def test_repeat_run_bit_identical(self, dataset, tmp_path):
        params_file = tmp_path / "pyramid.json"
        assert main([
            "solve", "--input", str(dataset), "--country", "Pyramid",
            "--out", str(params_file),
        ]) == 0
        outs = []
        for name in ("r1.json", "r2.json"):
            out_file = tmp_path / name
            assert main([
                "simulate", "--params", str(params_file),
                "--out", str(out_file), "--agents", "1000", "--steps", "60",
                "--burn-in", "30", "--seed", "4",
            ]) == 0
            outs.append(out_file.read_bytes())
        assert outs[0] == outs[1]

    def test_an_unlabelled_target_is_the_start(self, dataset, tmp_path):
        params_file = tmp_path / "pyramid.json"
        assert main(["solve", "--input", str(dataset), "--country", "Pyramid",
                     "--out", str(params_file)]) == 0
        raw = json.loads(params_file.read_text())
        # Far from the solved target, so the start shows in a short run.
        raw.update(labels=None, target=[0.25] * 4)
        params_file.write_text(json.dumps(raw))
        result_file = tmp_path / "result.json"
        assert main(["simulate", "--params", str(params_file), "--out", str(result_file),
                     "--agents", "1000", "--steps", "2", "--burn-in", "0", "--seed", "5"]) == 0
        result = json.loads(result_file.read_text())
        start = AgeDistribution(default_labels(4), [0.25] * 4)
        expected = simulator.run(start, load_params(params_file),
                                 SimConfig(num_agents=1000, num_steps=2, burn_in=0, seed=5))
        assert result["labels"] == ["g1", "g2", "g3", "g4"]
        assert result["final_snapshot"] == expected.final_snapshot.tolist()
        assert result["steady_estimate"] == expected.steady_estimate.tolist()

    def test_a_raw_count_target_is_refused_naming_the_file(self, dataset, tmp_path, capsys):
        params_file = tmp_path / "pyramid.json"
        assert main(["solve", "--input", str(dataset), "--country", "Pyramid",
                     "--out", str(params_file)]) == 0
        raw = json.loads(params_file.read_text())
        raw["target"] = [500, 300, 150, 50]
        params_file.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["simulate", "--params", str(params_file),
                     "--out", str(tmp_path / "result.json")]) == 1
        assert capsys.readouterr().err == (f"error: {params_file}: field 'target': proportions "
                                           "sum to 1000.0, not 1\n")
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("country, edit, message", [
        ("Hump", {"activation": [1.0, 1e-4, 1.0]},
         "field 'activation': activation 0.0001 at group index 1 is below the floor 0.001: "),
        ("Pyramid", {"survival": [0.6, 0.5, 0.3, 1.0], "free_param": 1.0},
         "field 'survival': last-group survival 1.0 leaves the final group with no outflow"),
        ("Pyramid", {"survival": [0.6, 0.0, 0.3, 0.5], "free_param": 0.5},
         "survival of 0 in group 1 empties every later group"),
        ("Pyramid", {"survival": [1e-300] * 4, "free_param": 1e-300},
         "group '10-14' (index 2) underflows to 0 in the stationary profile"),
        ("Pyramid", {"survival": [1e-300] * 4, "free_param": 1e-300, "labels": None,
                     "target": None},
         "group 'g3' (index 2) underflows to 0 in the stationary profile"),
        # A file tells a plain set from an activated one by this field alone.
        ("Pyramid", {"activation": [1.0] * 4}, "kind 'model1' takes no 'activation' list"),
        ("Hump", {"activation": None}, "kind 'model2' needs an 'activation' list"),
    ], ids=["activation-below-floor", "last-survival-one", "interior-zero-survival",
            "underflow-with-target", "underflow-without-target", "model1-given-activation",
            "model2-given-null-activation"])
    def test_rates_that_are_refused_are_an_error_naming_the_file(self, dataset, tmp_path,
                                                                 capsys, country, edit, message):
        params_file = tmp_path / "hostile.json"
        assert main(["solve", "--input", str(dataset), "--country", country,
                     "--out", str(params_file)]) == 0
        raw = json.loads(params_file.read_text())
        raw.update(edit)
        params_file.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["simulate", "--params", str(params_file),
                     "--out", str(tmp_path / "result.json")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {params_file}: ")
        assert message in lines[0]
        assert not (tmp_path / "result.json").exists()


class TestPipeline:
    def test_full_dataset_outputs(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main([
            "pipeline", "--input", str(dataset), "--out-dir", str(out_dir),
            "--de-iters", "80", "--seed", "0",
            "--agents", "2000", "--steps", "80",
        ]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["countries"] == 3
        counts = summary["route_counts"]
        assert sum(counts.values()) == 3
        assert counts["model1"] == 2  # Pyramid and the trimmed Tail
        assert counts["model2"] == 1
        for stem in ("Pyramid", "Hump", "Tail"):
            assert (out_dir / "params" / f"{stem}.json").exists()
            plot = out_dir / "plots" / f"{stem}_distribution.csv"
            lines = plot.read_text().splitlines()
            assert lines[0] == "age_group,target,analytic,simulated"
            for line in lines[1:]:
                fields = line.split(",")
                assert len(fields) == 4
                float(fields[1]), float(fields[2]), float(fields[3])
        assert (out_dir / "plots" / "nearest_reachable_wasserstein.csv").read_text() == (
            "country,wasserstein\n")

    def test_trailing_zeros_absent_from_outputs(self, dataset, tmp_path):
        out_dir = tmp_path / "out"
        assert main([
            "pipeline", "--input", str(dataset), "--out-dir", str(out_dir),
            "--de-iters", "10", "--agents", "1000", "--steps", "40",
        ]) == 0
        document = load_params_document(out_dir / "params" / "Tail.json")
        assert document.target.labels == ("0-4", "5-9", "10-14")

    def test_non_finite_diagnostics_written_as_null(
        self, flat_dataset, tmp_path, monkeypatch
    ):
        # An infinite distance for Cliff's nearest reachable target also
        # makes the dataset's mean distance infinite.
        monkeypatch.setattr(pipeline, "wasserstein", lambda a, b: float("inf"))
        out_dir = tmp_path / "out"
        assert main([
            "pipeline", "--input", str(flat_dataset), "--out-dir", str(out_dir),
            "--agents", "500", "--steps", "20",
        ]) == 0
        summary = strict_load(out_dir / "summary.json")
        cliff = summary["per_country"]["Cliff"]
        assert cliff["route"] == "nearest_reachable"
        assert cliff["diagnostics"]["wasserstein_to_original"] is None
        assert summary["mean_nearest_reachable_wasserstein"] is None
        assert summary["flagged_nearest_reachable"] == ["Cliff"]
        params = strict_load(out_dir / "params" / "Cliff.json")
        assert params["diagnostics"]["wasserstein_to_original"] is None

    def test_a_failed_validation_batch_writes_no_country_files(self, dataset, tmp_path,
                                                                monkeypatch):
        # A broken update rule fails the whole batch: every solved entry is
        # recorded as failed with the guard's reason, and none gets a file.
        reason = "member 0: an agent left the age groups; update rule broken"

        def broken(targets, params, config=None):
            raise ResidualCheckFailed(reason)

        monkeypatch.setattr(simulator, "run_many", broken)
        out_dir = tmp_path / "out"
        assert main(["pipeline", "--input", str(dataset), "--out-dir", str(out_dir),
                     "--agents", "500", "--steps", "20"]) == 0
        assert list((out_dir / "params").iterdir()) == []
        assert list((out_dir / "plots").glob("*_distribution.csv")) == []
        summary = strict_load(out_dir / "summary.json")
        assert summary["route_counts"]["failed"] == 3
        assert {name: (entry["route"], entry["diagnostics"], entry["failure_reason"])
                for name, entry in summary["per_country"].items()} == dict.fromkeys(
            ("Hump", "Pyramid", "Tail"), ("failed", None, reason))

    def test_summary_records_the_run(self, dataset, tmp_path):
        out_dir = tmp_path / "out"
        assert main([
            "pipeline", "--input", str(dataset), "--out-dir", str(out_dir),
            "--de-iters", "3", "--seed", "7", "--agents", "600", "--steps", "30",
        ]) == 0
        run = strict_load(out_dir / "summary.json")["run"]
        assert run == {
            "numpy_version": np.__version__,
            "python_version": platform.python_version(),
            "seed": 7,
            "num_agents": 600,
            "num_steps": 30,
            "burn_in": 30 - 30 // 7,  # all but the final seventh
        }

    def test_nearest_reachable_written_to_outputs(self, flat_dataset, tmp_path):
        out_dir = tmp_path / "out"
        assert main([
            "pipeline", "--input", str(flat_dataset), "--out-dir", str(out_dir),
            "--de-iters", "4", "--agents", "500", "--steps", "20",
        ]) == 0
        summary = strict_load(out_dir / "summary.json")
        cliff = summary["per_country"]["Cliff"]["diagnostics"]
        assert cliff["solver"] == "nearest_reachable"
        params = strict_load(out_dir / "params" / "Cliff.json")
        assert params["diagnostics"] == cliff
        # The search options are accepted but not echoed: nothing used them.
        assert set(params["config"]) == {"seed", "num_agents", "num_steps"}
        table = (out_dir / "plots" / "nearest_reachable_wasserstein.csv").read_text()
        assert table == f"country,wasserstein\nCliff,{cliff['wasserstein_to_original']:.10g}\n"
        assert summary["mean_nearest_reachable_wasserstein"] == cliff["wasserstein_to_original"]

    def test_unreachable_countries_all_solved(self, unreachable_dataset, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main([
            "pipeline", "--input", str(unreachable_dataset), "--out-dir", str(out_dir),
            "--agents", "500", "--steps", "20",
        ]) == 0
        printed = dict(re.findall(r"(\w+)=(\d+)", capsys.readouterr().out))
        summary = strict_load(out_dir / "summary.json")
        assert {k: int(v) for k, v in printed.items()} == summary["route_counts"] == {
            "model1": 0, "model2": 0, "nearest_reachable": 3, "failed": 0}
        for name, entry in summary["per_country"].items():
            assert entry["route"] == "nearest_reachable", entry["failure_reason"]
            strict_load(out_dir / "params" / f"{name}.json")

    def test_dropped_search_threshold_rejected(self, dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["pipeline", "--input", str(dataset), "--out-dir", str(tmp_path / "out"),
                  "--de-threshold", "1e-4"])
        assert exit_info.value.code == 1
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error: unrecognized arguments: --de-threshold")
                   for line in err), err

    def test_colliding_file_names_rejected_before_solving(self, tmp_path, capsys, monkeypatch):
        path = write_dataset(tmp_path / "korea.csv", [
            ("Korea Rep.", [50.0, 30.0, 20.0]),
            ("Korea/Rep.", [40.0, 35.0, 25.0]),
        ])
        monkeypatch.setattr(pipeline, "run_dataset", lambda *_: pytest.fail("cascade ran"))
        out_dir = tmp_path / "out"
        assert main(["pipeline", "--input", str(path), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'Korea Rep.'" in err and "'Korea/Rep.'" in err and "Korea_Rep." in err
        assert not out_dir.exists()


#: Age-group labels with a comma in one of them.
COMMA_LABELS = ["0-4", "5-9", "10,14", "15+"]


@pytest.fixture
def comma_dataset(tmp_path):
    """Names and a label holding commas: a pyramid, and a Newtown-like
    target that the cascade solves on its nearest reachable target."""
    path = tmp_path / "commas.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "age_group", "population"])
        for name, counts in [("Korea, Republic of", [500, 300, 150, 50]),
                             ("Newtown, Upper", [0.3, 500, 1200, 900])]:
            writer.writerows([name, label, count] for label, count in zip(COMMA_LABELS, counts))
    return path


def read_table(text):
    """Rows of a CSV text, each checked to have the header's width."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows and all(len(row) == len(rows[0]) for row in rows), rows
    return rows


class TestQuotedTables:
    def test_classify(self, comma_dataset, capsys):
        assert main(["classify", "--input", str(comma_dataset)]) == 0
        rows = read_table(capsys.readouterr().out)
        assert rows[1:] == [["Korea, Republic of", "monotone_non_increasing", "model1"],
                            ["Newtown, Upper", "non_monotone", "nearest_reachable"]]

    def test_pipeline_plots(self, comma_dataset, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["pipeline", "--input", str(comma_dataset), "--out-dir", str(out_dir),
                     "--agents", "500", "--steps", "20"]) == 0
        plots = out_dir / "plots"
        rows = read_table((plots / "Korea_Republic_of_distribution.csv").read_text())
        assert rows[0] == ["age_group", "target", "analytic", "simulated"]
        assert [row[0] for row in rows[1:]] == COMMA_LABELS
        rows = read_table((plots / "nearest_reachable_wasserstein.csv").read_text())
        assert [row[0] for row in rows] == ["country", "Newtown, Upper"]

    def test_trajectory(self, comma_dataset, tmp_path):
        params_file = tmp_path / "korea.json"
        assert main(["solve", "--input", str(comma_dataset), "--country",
                     "Korea, Republic of", "--out", str(params_file)]) == 0
        trajectory = tmp_path / "trajectory.csv"
        assert main(["simulate", "--params", str(params_file), "--out",
                     str(tmp_path / "result.json"), "--agents", "200", "--steps", "5",
                     "--trajectory", str(trajectory)]) == 0
        rows = read_table(trajectory.read_text())
        assert rows[0] == ["step", *COMMA_LABELS]
        assert [row[0] for row in rows[1:]] == ["1", "2", "3", "4", "5"]

    def test_fit_report(self, comma_dataset, tmp_path):
        report = tmp_path / "per_k.csv"
        assert main(["fit-curve", "--input", str(comma_dataset), "--country",
                     "Korea, Republic of", "--out", str(tmp_path / "fit.json"),
                     "--fit-report", str(report)]) == 0
        rows = read_table(report.read_text())
        assert rows[0] == ["k", "sse", "wasserstein"]
        assert [row[0] for row in rows[1:]] == ["1", "2", "3", "4"]


def pipeline_digest(out_dir):
    """SHA-256 over a pipeline run's parameter files, plot CSVs and
    ``summary.json`` without its machine-dependent ``run`` object."""
    digest = hashlib.sha256()
    files = [*(out_dir / "params").glob("*.json"), *(out_dir / "plots").glob("*.csv")]
    for path in sorted(files):
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    summary = strict_load(out_dir / "summary.json")
    del summary["run"]
    digest.update(json.dumps(summary, sort_keys=True).encode())
    return digest.hexdigest()


#: ``pipeline_digest`` of ``agedist pipeline`` on ``wpp_csv(1, 83)``.
GOLDEN_PIPELINE_DIGEST = "95e0939a723672a602b675783f30e211b5a686d290add3df986de00521f163ea"


def test_pipeline_outputs_match_golden_digest(tmp_path):
    """The pipeline's files on the benchmark's WPP-shaped dataset are pinned
    byte for byte. Only a change that alters them on purpose (a new random
    stream, a changed output contract), and records that in CHANGES.md,
    may update the pin."""
    data = tmp_path / "wpp.csv"
    data.write_bytes(bench_generator().wpp_csv(1, 83))
    out_dir = tmp_path / "out"
    assert main(["pipeline", "--input", str(data), "--out-dir", str(out_dir)]) == 0
    assert pipeline_digest(out_dir) == GOLDEN_PIPELINE_DIGEST


#: Country names with commas, quotes or unicode, and ones whose file stems
#: collide ("a b", "a_b" and "a/b"; "" and " ").
CSV_NAMES = st.one_of(
    st.sampled_from(["Korea, Republic of", 'Say "hi"', "Ünïcødé 国", "a b", "a_b", "a/b",
                     "", " "]),
    st.text(max_size=4))
#: Counts that ingest reads, subnormal, huge and zero (an interior zero
#: skips its country) among them; and counts it rejects.
GOOD_COUNTS = st.one_of(st.floats(1, 1e6), st.sampled_from([5e-324, 1e-320, 1e308, 0.0])).map(repr)
BAD_COUNTS = st.sampled_from(["nan", "inf", "-inf", "-1", "", "many"])
COUNTRIES = st.lists(
    st.tuples(CSV_NAMES, st.lists(st.sampled_from(["0-4", "5-9", "10+", "15+", "age 20", "x"]),
                                  min_size=3, max_size=6, unique=True)),
    min_size=1, max_size=3, unique_by=lambda country: country[0])


def hostile_csv(data, countries, spoil) -> tuple:
    """A long-format CSV of ``countries``, spoiled one way: a rejected
    count, a missing column, a ragged row, a repeated label, a country
    whose file stem collides with the first one's or a count holding a
    byte that is not UTF-8. Returns the file's bytes and its country names."""
    header = ["country", "age_group", "population"]
    if spoil == "stems":
        countries = countries + [(countries[0][0] + "?", countries[0][1])]
    blocks = [[[name, label, data.draw(GOOD_COUNTS)] for label in labels]
              for name, labels in countries]
    if spoil == "label":
        blocks[0].append(list(blocks[0][0]))
    if data.draw(st.booleans()):
        # Countries interleaved row by row.
        rows = [row for group in itertools.zip_longest(*blocks) for row in group if row]
    else:
        rows = [row for block in blocks for row in block]
    where = data.draw(st.integers(0, len(rows) - 1))
    if spoil == "count":
        rows[where][2] = data.draw(BAD_COUNTS)
    elif spoil == "ragged":
        rows[where] = rows[where][:-1] if data.draw(st.booleans()) else rows[where] + ["9"]
    elif spoil == "encoding":
        # Encoded below as the byte 0xff.
        rows[where][2] += "\udcff"
    elif spoil == "column":
        dropped = data.draw(st.integers(0, 2))
        header, *rows = [row[:dropped] + row[dropped + 1:] for row in [header, *rows]]
    text = io.StringIO()
    # A "\n" writer leaves a field holding "\r" bare: it quotes every field.
    crlf = data.draw(st.booleans())
    writer = csv.writer(text, lineterminator="\r\n" if crlf else "\n",
                        quoting=csv.QUOTE_MINIMAL if crlf else csv.QUOTE_ALL)
    writer.writerows([header, *rows])
    bom = "\ufeff" if data.draw(st.booleans()) else ""
    return ((bom + text.getvalue()).encode("utf-8", "surrogateescape"),
            {name for name, _ in countries})


def run_main(argv) -> tuple:
    """``main(argv)`` in-process: (exit code, stdout, stderr, warnings)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), caught


def assert_exit_contract(code, err, caught, refusal=None):
    """Exit 0, or exit 1 with exactly one ``error:`` line; never a traceback
    or a RuntimeWarning. With ``refusal``, exit 1 on an error line that
    starts with it."""
    assert code in (0, 1)
    assert "Traceback" not in err
    assert len([line for line in err.split("\n") if line.startswith("error:")]) == code
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if refusal is not None:
        assert code == 1 and err.startswith(f"error: {refusal}")


class TestHostileCsv:
    """``pipeline``, ``classify`` and ``solve`` on hostile long-format CSVs
    keep the command line's contract: exit 0 or 1, one ``error:`` line on
    failure, strict JSON, full-width CSV rows, every country either
    processed or listed as skipped with its reason, and a solved file that
    loads and reproduces its target."""

    @pytest.mark.parametrize(
        "spoil", ["clean", "count", "column", "ragged", "label", "stems", "options", "encoding"])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data(), countries=COUNTRIES)
    def test_exit_and_output_contract(self, data, countries, spoil):
        content, names = hostile_csv(data, countries, spoil)
        # Options argparse rejects: bad values, and one classify lacks.
        pipeline_options, classify_options, solve_options = (
            (["--agents", "fifty"], ["--agents", "50"], ["--seed", "seven"]) if spoil == "options"
            else (["--agents", "50"], [], []))
        with tempfile.TemporaryDirectory() as scratch:
            source, out_dir = Path(scratch) / "data.csv", Path(scratch) / "out"
            source.write_bytes(content)
            refusal = f"{source}: not UTF-8 text (byte 0xff: " if spoil == "encoding" else None
            code, out, err, caught = run_main(
                ["pipeline", "--input", str(source), "--out-dir", str(out_dir),
                 "--steps", "5", *pipeline_options])
            assert_exit_contract(code, err, caught, refusal)
            skipped = None
            if code == 0:
                summary = strict_load(out_dir / "summary.json")
                for path in out_dir.rglob("*.json"):
                    strict_load(path)
                for path in out_dir.rglob("*.csv"):
                    read_table(path.read_bytes().decode("utf-8"))
                printed = re.search(r"processed (\d+) countries \(([^)]*)\)", out)
                assert int(printed[1]) == summary["countries"]
                assert dict(pair.split("=") for pair in printed[2].split(", ")) == {
                    route: str(count) for route, count in summary["route_counts"].items()}
                skipped = {record["country"]: record["reason"] for record in summary["skipped"]}
                assert all(isinstance(reason, str) and reason for reason in skipped.values())
                assert set(summary["per_country"]) | set(skipped) == names

            code, out, err, caught = run_main(
                ["classify", "--input", str(source), *classify_options])
            assert_exit_contract(code, err, caught, refusal)
            if code == 0:
                rows = read_table(out)
                assert rows[0] == ["country", "classification", "eligible_route"]
                assert {row[0] for row in rows[1:]} == names
                if skipped is not None:
                    assert {row[0] for row in rows[1:] if row[1] == "skipped"} == set(skipped)

            params_file = Path(scratch) / "params.json"
            code, out, err, caught = run_main(
                ["solve", "--input", str(source), f"--country={countries[0][0]}",
                 "--out", str(params_file), *solve_options])
            assert_exit_contract(code, err, caught, refusal)
            if code == 0:
                params = load_params(params_file)
                if reference_route(params) != "nearest_reachable":
                    steady = stationary_distribution(params.survival, params.activation)
                    target = load_params_document(params_file).target.proportions
                    assert np.max(np.abs(steady.proportions - target)) <= 1e-12


@pytest.mark.parametrize("command", ["classify", "solve", "fit-curve", "pipeline", "simulate"])
def test_a_file_that_is_not_utf8_is_one_error_line(dataset, tmp_path, command):
    # A cp1252 spreadsheet export of "Côte d'Ivoire", and a parameter file
    # edited into cp1252.
    source = tmp_path / "cp1252.csv"
    source.write_bytes(dataset.read_bytes() + "Côte d'Ivoire,0-4,1\n".encode("cp1252"))
    params_file = tmp_path / "params.json"
    assert main(["solve", "--input", str(dataset), "--country", "Pyramid",
                 "--out", str(params_file)]) == 0
    params_file.write_bytes(params_file.read_bytes().replace(b'"0-4"', b'"0\x964"'))
    out = ["--out", str(tmp_path / "out.json")]
    argv, named = {
        "classify": (["--input", str(source)], source),
        "solve": (["--input", str(source), "--country", "Pyramid", *out], source),
        "fit-curve": (["--input", str(source), "--country", "Hump", *out,
                       "--fit-report", str(tmp_path / "report.csv")], source),
        "pipeline": (["--input", str(source), "--out-dir", str(tmp_path / "run")], source),
        "simulate": (["--params", str(params_file), *out], params_file),
    }[command]
    code, out, err, caught = run_main([command, *argv])
    assert_exit_contract(code, err, caught, refusal=f"{named}: not UTF-8 text (byte ")
    assert out == ""


@pytest.mark.parametrize("command", ["classify", "solve", "pipeline"])
def test_a_field_past_the_csv_field_limit_is_one_error_line(dataset, tmp_path, command):
    source = tmp_path / "long.csv"
    source.write_text(dataset.read_text() + 'Long,0-4,"' + "1" * 200_000 + '"\n')
    argv = {
        "classify": [],
        "solve": ["--country", "Pyramid", "--out", str(tmp_path / "out.json")],
        "pipeline": ["--out-dir", str(tmp_path / "run")],
    }[command]
    code, out, err, caught = run_main([command, "--input", str(source), *argv])
    assert_exit_contract(code, err, caught,
                         refusal=f"{source}: line 13: field larger than field limit (")
    assert out == ""


def test_a_survival_past_the_float_range_is_one_error_line(dataset, tmp_path):
    params_file = tmp_path / "pyramid.json"
    assert main(["solve", "--input", str(dataset), "--country", "Pyramid",
                 "--out", str(params_file)]) == 0
    raw = json.loads(params_file.read_text())
    raw["survival"][0] = "spoilt"
    params_file.write_text(json.dumps(raw).replace('"spoilt"', "1" + "0" * 400))
    code, out, err, caught = run_main(["simulate", "--params", str(params_file),
                                       "--out", str(tmp_path / "result.json")])
    assert_exit_contract(code, err, caught, refusal=f"{params_file}: field 'survival': ")
    assert out == "" and not (tmp_path / "result.json").exists()


# One CSV column read as two, and a parameter file with a key given twice.
@pytest.mark.parametrize("case", ["repeated-column", "age-col-is-country-col", "repeated-key"])
def test_a_field_given_twice_is_one_error_line(dataset, tmp_path, case):
    source = tmp_path / "twice.csv"
    params_file = tmp_path / "params.json"
    out = ["--out", str(tmp_path / "out.json")]
    if case == "repeated-key":
        assert main(["solve", "--input", str(dataset), "--country", "Pyramid",
                     "--out", str(params_file)]) == 0
        text = params_file.read_text()
        params_file.write_text(text.replace('\n  "free_param"', '\n  "survival": '
                                            + json.dumps(json.loads(text)["survival"])
                                            + ',\n  "free_param"'))
        argv, refusal = (["simulate", "--params", str(params_file), *out],
                         f"{params_file}: cannot read JSON (key 'survival' appears more ")
    elif case == "repeated-column":
        source.write_text("country,age_group,population,population\n"
                          "A,0,1,9\nA,1,2,5\nA,2,3,1\n")
        argv, refusal = (["solve", "--input", str(source), "--country", "A", *out],
                         f"{source}: column 'population' appears more than once")
    else:
        source.write_text("country,age_group,population\nA,0,1\nA,1,2\nA,2,3\n")
        argv, refusal = (["solve", "--input", str(source), "--country", "A",
                          "--age-col", "country", *out],
                         f"{source}: column 'country' is configured for more than one")
    code, printed, err, caught = run_main(argv)
    assert_exit_contract(code, err, caught, refusal=refusal)
    assert printed == "" and len(err.splitlines()) == 1
    assert not (tmp_path / "out.json").exists()
