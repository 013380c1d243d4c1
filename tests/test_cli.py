import json

import numpy as np
import pytest

from agedist import model2
from agedist.cli import main
from agedist.dataio import load_params_document


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
        assert table["Hump"].startswith("non_monotone,model2_or_curve_fit")

    def test_single_country_filter(self, dataset, capsys):
        assert main(["classify", "--input", str(dataset), "--country", "Hump"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[1].startswith("Hump,")


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
        assert document.params.diagnostics["mae"] < 1e-4
        assert document.params.diagnostics["seed"] == 3

    def test_explicit_pn(self, dataset, tmp_path):
        out_file = tmp_path / "pyramid.json"
        assert main([
            "solve", "--input", str(dataset), "--country", "Pyramid",
            "--pn", "0.25", "--out", str(out_file),
        ]) == 0
        assert load_params_document(out_file).params.free_param == 0.25

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
    path = tmp_path / "flat.csv"
    flat = np.r_[1000.0 + 60.0 * np.sin(np.arange(12) * 2.2),
                 1000 * 0.7 ** np.arange(1, 9)]
    rows = [("Flatland", flat), ("Cliff", [0.01, 500.0, 499.99])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("country,age_group,population\n")
        for name, counts in rows:
            for g, count in enumerate(counts):
                fh.write(f"{name},g{g},{count:.2f}\n")
    return path


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

    def test_unreachable_shape_reports_search_failure(
        self, flat_dataset, tmp_path, capsys
    ):
        code = main([
            "solve", "--input", str(flat_dataset), "--country", "Cliff",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model 2 search did not converge")


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
        assert (out_dir / "plots" / "curvefit_wasserstein.csv").exists()

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
        # Every candidate scores +inf, so Cliff's failed search reports an
        # infinite model2_mae before the curve fit takes over.
        def all_infinite(target):
            return lambda candidates: np.full(len(candidates), np.inf)

        monkeypatch.setattr(model2, "mae_objective", all_infinite)
        out_dir = tmp_path / "out"
        assert main([
            "pipeline", "--input", str(flat_dataset), "--out-dir", str(out_dir),
            "--de-iters", "3", "--agents", "500", "--steps", "20",
        ]) == 0
        summary = strict_load(out_dir / "summary.json")
        cliff = summary["per_country"]["Cliff"]
        assert cliff["route"] == "curve_fit"
        assert cliff["diagnostics"]["model2_mae"] is None
        params = strict_load(out_dir / "params" / "Cliff.json")
        assert params["diagnostics"]["model2_mae"] is None
        assert params["diagnostics"]["model2_iterations"] == 3
