import csv
import json

import numpy as np
import pytest

from agedist.dataio import (
    emit_params,
    ingest_csv,
    load_params,
    load_params_document,
    write_dataset_csv,
)
from agedist.distributions import MAX_LAST_SURVIVAL, AgeDistribution, ModelKind, ModelParams
from agedist.errors import ColumnMappingError, CsvFormatError, SchemaError
from agedist.model1 import solve
from agedist.model2 import DEConfig, optimize


def write_csv(path, rows, header="country,age_group,population"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


class TestIngest:
    def test_single_country(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["X,0-4,50", "X,5-9,30", "X,10-14,20"])
        entries = ingest_csv(path)
        assert len(entries) == 1
        name, dist = entries[0]
        assert name == "X"
        assert dist.labels == ("0-4", "5-9", "10-14")
        assert np.allclose(dist.proportions, [0.5, 0.3, 0.2])

    def test_trailing_zero_groups_dropped(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["X,a,50", "X,b,30", "X,c,20", "X,d,0", "X,e,0"])
        (_, dist), = ingest_csv(path)
        assert dist.labels == ("a", "b", "c")

    def test_interior_zero_listed_in_skip_report(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["Bad,a,50", "Bad,b,0", "Bad,c,20",
                         "Good,a,5", "Good,b,3", "Good,c,2"])
        skipped = []
        entries = ingest_csv(path, skipped=skipped)
        assert [name for name, _ in entries] == ["Good"]
        assert len(skipped) == 1
        assert skipped[0][0] == "Bad"
        assert "empty" in skipped[0][1]

    def test_malformed_population_reports_line_number(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["X,a,50", "X,b,oops", "X,c,20"])
        with pytest.raises(CsvFormatError, match="line 3"):
            ingest_csv(path)

    def test_negative_population_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["X,a,50", "X,b,-1", "X,c,20"])
        with pytest.raises(CsvFormatError, match="line 3"):
            ingest_csv(path)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_population_reports_line_number(self, tmp_path, raw):
        path = tmp_path / "data.csv"
        write_csv(path, ["X,a,50", f"X,b,{raw}", "X,c,20"])
        with pytest.raises(CsvFormatError, match="line 3: population .* is not finite"):
            ingest_csv(path)

    def test_duplicate_group_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["X,a,50", "X,a,30", "X,c,20"])
        with pytest.raises(CsvFormatError, match="duplicate"):
            ingest_csv(path)

    def test_unknown_columns_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["X,a,50"], header="nation,age,head_count")
        with pytest.raises(ColumnMappingError):
            ingest_csv(path)

    def test_column_mapping(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["X,a,50", "X,b,30", "X,c,20"],
                  header="nation,bracket,heads")
        entries = ingest_csv(
            path, country_col="nation", age_col="bracket", pop_col="heads"
        )
        assert entries[0][0] == "X"

    def test_interleaved_countries(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["A,a,5", "B,a,2", "A,b,3", "B,b,4",
                         "A,c,2", "B,c,4"])
        entries = dict(ingest_csv(path))
        assert np.allclose(entries["A"].proportions, [0.5, 0.3, 0.2])
        assert np.allclose(entries["B"].proportions, [0.2, 0.4, 0.4])

    def test_ingest_write_ingest_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["X,a,17", "X,b,11", "X,c,7", "Y,a,3", "Y,b,2", "Y,c,1"])
        entries = ingest_csv(path)
        echo = tmp_path / "echo.csv"
        write_dataset_csv(entries, echo)
        again = ingest_csv(echo)
        assert [n for n, _ in again] == [n for n, _ in entries]
        for (_, a), (_, b) in zip(entries, again):
            assert a == b

    def test_byte_order_mark_accepted(self, tmp_path):
        # Spreadsheet programs save UTF-8 CSVs with a byte-order mark.
        path = tmp_path / "data.csv"
        write_csv(path, ["X,a,17", "X,b,11", "X,c,7", "Y,a,3", "Y,b,2", "Y,c,1"])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert ingest_csv(marked) == ingest_csv(path)

    def test_written_dataset_quotes_names_and_labels(self, tmp_path):
        entries = [("Korea, Republic of", AgeDistribution(("0-4", "5-9", "10,14"),
                                                          [0.5, 0.3, 0.2]))]
        path = tmp_path / "data.csv"
        write_dataset_csv(entries, path)
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[:2] for row in rows[1:]] == [
            ["Korea, Republic of", label] for label in ("0-4", "5-9", "10,14")]
        assert ingest_csv(path) == entries


def solved_params(kind=ModelKind.MODEL1):
    dist = AgeDistribution(("a", "b", "c"), [0.5, 0.3, 0.2])
    if kind is ModelKind.MODEL1:
        return ModelParams(
            kind=kind,
            survival=solve(dist, 0.4),
            diagnostics={"mae": 0.0, "free_param_mode": "explicit", "seed": 7},
        )
    sol = optimize(
        AgeDistribution(("a", "b", "c"), [0.3, 0.4, 0.3]), DEConfig(seed=1)
    )
    return ModelParams(
        kind=ModelKind.MODEL2,
        survival=sol.survival,
        activation=sol.activation,
        diagnostics={"mae": sol.mae, "iterations_used": sol.iterations_used},
    )


class TestParamsFiles:
    @pytest.mark.parametrize("kind", [ModelKind.MODEL1, ModelKind.MODEL2])
    def test_round_trip_exact(self, tmp_path, kind):
        params = solved_params(kind)
        path = tmp_path / "params.json"
        emit_params(params, path)
        assert load_params(path) == params

    def test_document_echo(self, tmp_path):
        params = solved_params()
        path = tmp_path / "params.json"
        emit_params(
            params,
            path,
            labels=("a", "b", "c"),
            target=[0.5, 0.3, 0.2],
            config={"seed": 7},
        )
        document = load_params_document(path)
        assert document.labels == ("a", "b", "c")
        assert np.array_equal(document.target, [0.5, 0.3, 0.2])
        assert document.config == {"seed": 7}
        assert document.target_distribution().labels == ("a", "b", "c")

    def test_non_finite_diagnostics_written_as_null(self, tmp_path):
        params = solved_params()
        params.diagnostics.update(
            {"model2_mae": float("inf"), "history": [np.float64("nan"), 0.5]}
        )
        path = tmp_path / "params.json"
        emit_params(params, path)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        raw = json.loads(path.read_text(), parse_constant=reject)
        assert raw["diagnostics"]["model2_mae"] is None
        assert raw["diagnostics"]["history"] == [None, 0.5]
        assert load_params(path).diagnostics["model2_mae"] is None

    def test_version_recorded(self, tmp_path):
        import agedist

        params = solved_params()
        path = tmp_path / "params.json"
        emit_params(params, path)
        raw = json.loads(path.read_text())
        assert raw["library_version"] == agedist.__version__

    def test_schema_version_mismatch(self, tmp_path):
        params = solved_params()
        path = tmp_path / "params.json"
        emit_params(params, path)
        raw = json.loads(path.read_text())
        raw["schema_version"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match="version"):
            load_params(path)

    def test_unknown_kind_rejected(self, tmp_path):
        params = solved_params()
        path = tmp_path / "params.json"
        emit_params(params, path)
        raw = json.loads(path.read_text())
        raw["kind"] = "model9"
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match="kind"):
            load_params(path)

    def test_out_of_range_survival_rejected_on_load(self, tmp_path):
        params = solved_params()
        path = tmp_path / "params.json"
        emit_params(params, path)
        raw = json.loads(path.read_text())
        raw["survival"] = [0.5, 1.7, 0.4]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError):
            load_params(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("not json at all")
        with pytest.raises(SchemaError):
            load_params(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SchemaError, match="JSON object"):
            load_params(path)

    @pytest.mark.parametrize("field", ["survival", "free_param", "kind"])
    def test_missing_required_field_rejected(self, tmp_path, field):
        path = tmp_path / "params.json"
        emit_params(solved_params(), path)
        raw = json.loads(path.read_text())
        del raw[field]
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match=field):
            load_params(path)

    @pytest.mark.parametrize("field, value", [
        ("labels", 5),
        ("labels", ["a", 2, "c"]),
        ("survival", "abc"),
        ("survival", None),
        ("activation", "abc"),
        ("free_param", "0.4"),
        ("target", {"a": 0.5}),
        ("target", [0.5, None, 0.2]),
        ("diagnostics", [1, 2]),
        ("config", 7),
    ])
    def test_wrong_field_type_rejected(self, tmp_path, field, value):
        path = tmp_path / "params.json"
        emit_params(solved_params(), path, labels=("a", "b", "c"), target=[0.5, 0.3, 0.2])
        raw = json.loads(path.read_text())
        raw[field] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match=f"field '{field}' must be"):
            load_params_document(path)

    @pytest.mark.parametrize("field, value", [
        ("labels", ["a", "b"]),
        ("labels", ["a", "b", "c", "d"]),
        ("target", [0.25, 0.25, 0.25, 0.25]),
        ("activation", [1.0, 1.0]),
    ])
    def test_fields_of_different_lengths_rejected(self, tmp_path, field, value):
        path = tmp_path / "params.json"
        emit_params(solved_params(ModelKind.MODEL2), path, labels=("a", "b", "c"),
                    target=[0.3, 0.4, 0.3])
        raw = json.loads(path.read_text())
        raw[field] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match="differ in length") as caught:
            load_params_document(path)
        message = str(caught.value)
        assert str(path) in message
        assert f"'{field}' has {len(value)}" in message and "'survival' has 3" in message

    @pytest.mark.parametrize("field", ["activation", "labels", "target", "config"])
    def test_null_optional_field_accepted(self, tmp_path, field):
        path = tmp_path / "params.json"
        emit_params(solved_params(), path, labels=("a", "b", "c"), target=[0.5, 0.3, 0.2],
                    config={"seed": 7})
        raw = json.loads(path.read_text())
        raw[field] = None
        path.write_text(json.dumps(raw))
        assert load_params_document(path).params == solved_params()

    def test_model2_without_activation_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        emit_params(solved_params(ModelKind.MODEL2), path)
        raw = json.loads(path.read_text())
        raw["activation"] = None
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match="'model2' needs an 'activation' list"):
            load_params_document(path)

    def test_model1_with_activation_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        emit_params(solved_params(), path)
        raw = json.loads(path.read_text())
        raw["activation"] = [1.0, 0.5, 1.0]
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match="'model1' takes no 'activation' list"):
            load_params_document(path)

    def test_free_param_must_match_last_survival(self, tmp_path):
        path = tmp_path / "params.json"
        emit_params(solved_params(), path)
        raw = json.loads(path.read_text())
        raw["free_param"] = 0.5
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match="'free_param' is 0.5, but the last 'survival' "
                                              "entry is 0.4"):
            load_params_document(path)

    def test_last_survival_of_one_loads_capped(self, tmp_path):
        path = tmp_path / "params.json"
        emit_params(solved_params(), path)
        raw = json.loads(path.read_text())
        raw["survival"][-1] = raw["free_param"] = 1.0
        path.write_text(json.dumps(raw))
        params = load_params_document(path).params
        assert params.survival.probs[-1] == params.free_param == MAX_LAST_SURVIVAL
