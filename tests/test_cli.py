import csv
import hashlib
import io
import json
import platform
import re

import numpy as np
import pytest

from agedist import model2, pipeline
from agedist.cli import main
from agedist.distributions import ALPHA_MIN
from agedist.dataio import load_params_document
from agedist.errors import AgedistError

from test_curvefit import bench_generator


def strict_load(path):
    """Parse a written file, failing on NaN/Infinity, which strict JSON lacks."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "data.csv"
    rows = [
        ("Pyramid", [("0-4", 500), ("5-9", 300), ("10-14", 150), ("15+", 50)]),
        ("Hump", [("0-4", 300), ("5-9", 400), ("10-14", 300)]),
        ("Tail", [("0-4", 60), ("5-9", 30), ("10-14", 10), ("15+", 0)]),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("country,age_group,population\n")
        for name, groups in rows:
            for label, count in groups:
                fh.write(f"{name},{label},{count}\n")
    return path


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
        def refuse(dist):
            raise AgedistError("no model-2 station")

        monkeypatch.setattr(pipeline, "solve_model2", refuse)
        assert main(["classify", "--input", str(dataset)]) == 0
        table = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:])
        assert table["Hump"] == "non_monotone,failed"
        assert table["Pyramid"] == "monotone_non_increasing,model1"


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

        def solved_route(name, model):
            capsys.readouterr()
            assert main(["solve", "--input", data, "--country", name, "--model", model,
                         "--out", str(tmp_path / f"{name}-{model}.json")]) == 0
            return re.search(r": route (\w+),", capsys.readouterr().out).group(1)

        solved = {name: solved_route(name, "auto") for name in classified}
        # The explicit model of each country's route names it the same way.
        forced = {name: solved_route(name, "1" if name == "Pyramid" else "2")
                  for name in classified}

        assert classified == piped == solved == forced == {
            "Pyramid": "model1", "Hump": "model2",
            "Steep": "nearest_reachable", "Newtown": "nearest_reachable"}


class TestSolve:
    def test_model1_roundtrip(self, dataset, tmp_path, capsys):
        out_file = tmp_path / "pyramid.json"
        assert main([
            "solve", "--input", str(dataset), "--country", "Pyramid",
            "--out", str(out_file),
        ]) == 0
        document = load_params_document(out_file)
        assert document.params.kind.value == "model1"
        assert document.labels == ("0-4", "5-9", "10-14", "15+")
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
        assert document.config["seed"] == 3

    def test_explicit_pn(self, dataset, tmp_path):
        for model in ("auto", "1"):
            out_file = tmp_path / f"pyramid-{model}.json"
            assert main([
                "solve", "--input", str(dataset), "--country", "Pyramid",
                "--model", model, "--pn", "0.25", "--out", str(out_file),
            ]) == 0
            assert load_params_document(out_file).params.free_param == 0.25

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

    @pytest.mark.parametrize("country, model, pn, route", [
        ("Hump", "auto", "0.3", "model2"),
        ("Hump", "2", "rand", "model2"),
        ("Newtown", "auto", "0.3", "nearest_reachable"),
    ])
    def test_pn_on_a_model2_route_fails(self, tmp_path, capsys, country, model, pn, route):
        # The model-2 stations always take the midpoint, so any other --pn
        # would be echoed in the file's config but not applied.
        data = write_dataset(tmp_path / "pn.csv", [
            ("Hump", [100, 300, 200, 50]), ("Newtown", [0.3, 500, 1200, 900])])
        out_file = tmp_path / "x.json"
        code = main(["solve", "--input", str(data), "--country", country,
                     "--model", model, "--pn", pn, "--out", str(out_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --pn {pn} applies to model 1 only")
        assert f"route {route}," in err
        assert not out_file.exists()

    def test_forcing_model1_on_hump_fails(self, dataset, tmp_path, capsys):
        code = main([
            "solve", "--input", str(dataset), "--country", "Hump",
            "--model", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

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
            "--model", "2", "--out", str(out_file),
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

    @pytest.mark.parametrize("model", ["auto", "2"])
    def test_unreachable_shape_solved_on_nearest_reachable(
        self, flat_dataset, tmp_path, model
    ):
        out_file = tmp_path / "cliff.json"
        assert main([
            "solve", "--input", str(flat_dataset), "--country", "Cliff",
            "--model", model, "--out", str(out_file),
        ]) == 0
        document = load_params_document(out_file)
        assert document.params.kind.value == "model2"
        assert document.params.diagnostics["solver"] == "nearest_reachable"
        # The curve fit this shape used to fall back to ended at 0.22.
        assert document.params.diagnostics["mae"] < 4e-4

    def test_huge_last_group(self, unreachable_dataset, tmp_path, capsys):
        # model 1 reports the typed failure; auto, like the cascade, hands
        # the pyramid to the model-2 stations.
        code = main([
            "solve", "--input", str(unreachable_dataset), "--country", "Huge",
            "--model", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: last group is more than 1/(1 - MAX_LAST_SURVIVAL)")
        out_file = tmp_path / "huge.json"
        assert main([
            "solve", "--input", str(unreachable_dataset), "--country", "Huge",
            "--out", str(out_file),
        ]) == 0
        diagnostics = load_params_document(out_file).params.diagnostics
        assert diagnostics["solver"] == "nearest_reachable"
        assert diagnostics["mae"] < 1e-9


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
        assert document.labels == ("0-4", "5-9", "10-14")

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
            "cpu_count": model2._cpu_count(),
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
