import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agedist import pipeline
from agedist.dataio import (
    emit_params,
    ingest_csv,
    load_params,
    load_params_document,
    write_dataset_csv,
    write_json,
)
from agedist.distributions import (
    MAX_LAST_SURVIVAL, AgeDistribution, ModelKind, ModelParams, default_labels, normalize)
from agedist.errors import (
    ActivationTooSmall,
    ColumnMappingError,
    CsvFormatError,
    DegenerateLastGroup,
    SchemaError,
)
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

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CsvFormatError) as caught:
            ingest_csv(path)
        assert str(caught.value) == f"{path}: empty file, expected a header row"

    @pytest.mark.parametrize("row", ["X,b", "X"], ids=["no-population", "name-only"])
    def test_short_row_reports_line_number(self, tmp_path, row):
        path = tmp_path / "data.csv"
        write_csv(path, ["X,a,50", row, "X,c,20"])
        with pytest.raises(CsvFormatError) as caught:
            ingest_csv(path)
        assert str(caught.value) == f"{path}: line 3: short row"

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

    # A DictReader reads a repeated column from its last copy, and one
    # column configured as two is read as both.
    @pytest.mark.parametrize("header, rows, columns, column", [
        ("country,age_group,population,population", ["A,0,1,9", "A,1,2,5", "A,2,3,1"], {},
         "population"),
        # A bad population: the header is checked before any row is read.
        ("country,country,age_group,population", ["A,A,0,oops"], {}, "country"),
        ("country,age_group,population", ["A,0,1", "A,1,2", "A,2,3"], {"age_col": "country"},
         "country"),
    ], ids=["repeated-population", "repeated-country", "age-col-is-country-col"])
    def test_a_column_read_twice_is_refused(self, tmp_path, header, rows, columns, column):
        path = tmp_path / "data.csv"
        write_csv(path, rows, header=header)
        with pytest.raises(ColumnMappingError) as caught:
            ingest_csv(path, **columns)
        assert str(caught.value).startswith(f"{path}: column {column!r} ")

    def test_a_repeated_column_that_is_not_read_is_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["X,a,50,,", "X,b,30,,", "X,c,20,,"],
                  header="country,age_group,population,note,note")
        (_, dist), = ingest_csv(path)
        assert np.allclose(dist.proportions, [0.5, 0.3, 0.2])

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

    @pytest.mark.parametrize("row", [b"X,c,7\xff", b"C\xf4te d'Ivoire,c,7"],
                             ids=["population", "cp1252-name"])
    def test_bytes_that_are_not_utf8_are_a_csv_format_error(self, tmp_path, row):
        path = tmp_path / "data.csv"
        path.write_bytes(b"country,age_group,population\nX,a,17\nX,b,11\n" + row + b"\n")
        with pytest.raises(CsvFormatError, match="not UTF-8 text") as caught:
            ingest_csv(path)
        assert str(caught.value).startswith(f"{path}: ")

    def test_a_field_past_the_csv_field_limit_is_a_csv_format_error(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "data.csv"
        write_csv(path, ["X,a,17", 'X,b,"' + "1" * 200_000 + '"', "X,c,7"])
        with pytest.raises(CsvFormatError) as caught:
            ingest_csv(path)
        assert str(caught.value) == f"{path}: line 3: field larger than field limit ({limit})"
        assert csv.field_size_limit() == limit

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

    def test_written_dataset_quotes_carriage_returns(self, tmp_path):
        # A bare "\r" ends a CSV record as "\n" does.
        entries = [(name, AgeDistribution(("0-4", "5\r9", "10+"), [0.5, 0.3, 0.2]))
                   for name in ("Line\rbreak", "Line\r\nbreak", "Plain")]
        path = tmp_path / "data.csv"
        write_dataset_csv(entries, path)
        raw = path.read_bytes()
        assert b'"Line\rbreak","5\r9"' in raw
        assert b"0.2\r" not in raw and raw.endswith(b"0.2\n")
        assert ingest_csv(path) == entries

    @pytest.mark.parametrize("entries, message", [
        ([("X", AgeDistribution(("0-4", "5-9", "5-9"), [0.5, 0.3, 0.2]))],
         "entry 'X' repeats age group '5-9'"),
        ([("X", AgeDistribution(("a", "b", "c"), [0.5, 0.3, 0.2])),
          ("X", AgeDistribution(("a", "b", "c"), [0.2, 0.3, 0.5]))],
         "entry 'X' appears more than once"),
        ([("X", AgeDistribution(("a", "b", "c"), [0.5, 0.3, 0.2])),
          ("X", AgeDistribution(("d", "e", "f"), [0.2, 0.3, 0.5]))],
         "entry 'X' appears more than once"),
    ], ids=["label", "name", "name-merged-on-ingest"])
    def test_a_dataset_that_would_not_ingest_is_refused_before_writing(self, tmp_path, entries,
                                                                     message):
        # ingest_csv refuses a repeated label and merges entries of one name.
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError, match=message):
            write_dataset_csv(iter(entries), path)
        assert not path.exists()


ABC = AgeDistribution(("a", "b", "c"), [0.5, 0.3, 0.2])


def solved_params(kind=ModelKind.MODEL1):
    if kind is not ModelKind.MODEL2:
        return ModelParams(
            kind=kind,
            survival=solve(ABC, 0.4),
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
    @pytest.mark.parametrize("kind", [ModelKind.MODEL1, ModelKind.MODEL2,
                                      ModelKind.MODEL1_ON_FITTED])
    def test_round_trip_exact(self, tmp_path, kind):
        params = solved_params(kind)
        path = tmp_path / "params.json"
        emit_params(params, path)
        assert load_params(path) == params

    @pytest.mark.parametrize("diagnostics", [None, [("mae", 0.0)]], ids=["null", "list"])
    def test_diagnostics_that_would_not_load_write_no_file(self, tmp_path, diagnostics):
        # load_params refuses a 'diagnostics' field that is not an object.
        path = tmp_path / "params.json"
        with pytest.raises(TypeError, match="diagnostics must be a dict"):
            emit_params(ModelParams(ModelKind.MODEL1, solve(ABC, 0.4), diagnostics=diagnostics),
                        path)
        assert not path.exists()

    @pytest.mark.parametrize("diagnostics, message", [
        ({1: 0.5, "span": (1, 2)}, "key 1 is not a str"),
        ({"span": (1, 2)}, "'span' has type tuple"),
        ({"ids": {3}}, "'ids' has type set"),
        ({"history": np.array([0.5, 0.25])}, "'history' has type ndarray"),
        ({"iterations": np.int64(3)}, "'iterations' has type int64"),
        ({"fit": {"rows": [{"k": object()}]}}, "'k' has type object"),
        ({"fit": {"rows": [{2: 0.5}]}}, "key 2 is not a str"),
    ], ids=["int-key", "tuple", "set", "ndarray", "numpy-int", "nested-object", "nested-key"])
    def test_diagnostics_that_would_not_load_back_equal_are_refused(self, diagnostics,
                                                                     message):
        # A file would load {1: 0.5, "span": (1, 2)} back as {"1": 0.5, "span": [1, 2]}.
        with pytest.raises(TypeError, match=message):
            ModelParams(ModelKind.MODEL1, solve(ABC, 0.4), diagnostics=diagnostics)

    def test_nested_json_diagnostics_round_trip(self, tmp_path):
        diagnostics = {"ok": True, "none": None, "n": -3, "x": np.float64(0.25), "s": "é",
                       "rows": [[1, 2.5], {"k": [False, "a"]}], "empty": {}}
        params = ModelParams(ModelKind.MODEL1, solve(ABC, 0.4), diagnostics=diagnostics)
        path = tmp_path / "params.json"
        emit_params(params, path)
        assert load_params(path) == params

    def test_document_echo(self, tmp_path):
        params = solved_params()
        path = tmp_path / "params.json"
        emit_params(params, path, target=ABC, config={"seed": 7})
        document = load_params_document(path)
        assert document.target == ABC
        assert document.config == {"seed": 7}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(counts=st.lists(st.floats(1e-3, 1e6), min_size=3, max_size=30),
           data=st.data(), kind=st.sampled_from([ModelKind.MODEL1, ModelKind.MODEL2]))
    def test_target_round_trips_bit_for_bit(self, counts, data, kind):
        labels = data.draw(st.lists(st.text(max_size=8), min_size=len(counts),
                                    max_size=len(counts)))
        if kind is ModelKind.MODEL1:
            counts = sorted(counts, reverse=True)
        target = normalize(counts, labels)
        params = pipeline.solve(target).params
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "params.json"
            emit_params(params, path, target=target)
            document = load_params_document(path)
        assert document.target == target
        assert document.target.proportions.tobytes() == target.proportions.tobytes()
        assert document.params == params

    def test_a_raw_vector_target_is_written_as_the_solvers_take_it(self, tmp_path):
        path = tmp_path / "params.json"
        emit_params(solved_params(), path, target=[5, 3, 2])
        raw = json.loads(path.read_text())
        assert raw["labels"] == ["g1", "g2", "g3"]
        assert raw["target"] == [0.5, 0.3, 0.2]

    @pytest.mark.parametrize("labels", [["a", "b", "c"], None], ids=["labelled", "unlabelled"])
    @pytest.mark.parametrize("target, message", [
        ([3, 2, 1], "proportions sum to 6.0, not 1$"),
        ([0.5, 0.0, 0.5], r"group '(b|g2)' \(index 1\) is empty"),
        ([0.5, 0.5, 0.0], r"group '(c|g3)' \(index 2\) is empty"),
    ], ids=["raw-counts", "interior-empty", "trailing-empty"])
    def test_a_target_that_is_not_a_distribution_is_refused_at_load(self, tmp_path, labels,
                                                                    target, message):
        path = tmp_path / "params.json"
        emit_params(solved_params(), path, target=ABC)
        raw = json.loads(path.read_text())
        raw.update(labels=labels, target=target)
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match=message) as caught:
            load_params_document(path)
        assert str(caught.value).startswith(f"{path}: field 'target': ")

    def test_bytes_that_are_not_utf8_are_a_schema_error(self, tmp_path):
        path = tmp_path / "params.json"
        emit_params(solved_params(), path, target=ABC)
        # A label saved as cp1252 by a text editor.
        path.write_bytes(path.read_bytes().replace(b'"c"', "\"Côte\"".encode("cp1252")))
        with pytest.raises(SchemaError, match="not UTF-8 text") as caught:
            load_params_document(path)
        assert str(caught.value).startswith(f"{path}: ")

    # Python's json reads neither nesting past the recursion limit nor an
    # integer of more than 4300 digits, and numpy makes no float of an
    # integer past 1.8e308.
    @pytest.mark.parametrize("field, text, message", [
        ("diagnostics", "[" * 100_000 + "]" * 100_000, "cannot read JSON"),
        ("free_param", "4" * 5_000, r"cannot read JSON \(an integer of 5000 digits is past "
         rf"this Python's limit of {sys.get_int_max_str_digits()}\)"),
        ("survival", "[0.5, 0.5, 1" + "0" * 400 + "]",
         "field 'survival': int too large to convert to float"),
        ("target", "[0.5, 0.5, 1" + "0" * 400 + "]",
         "field 'target': int too large to convert to float"),
    ], ids=["deep-nesting", "5000-digits", "survival-400-digits", "target-400-digits"])
    def test_json_past_pythons_limits_is_a_schema_error(self, tmp_path, field, text, message):
        path = tmp_path / "params.json"
        emit_params(solved_params(), path, target=ABC)
        raw = json.loads(path.read_text())
        raw[field] = "spoilt"
        path.write_text(json.dumps(raw).replace('"spoilt"', text))
        with pytest.raises(SchemaError, match=message) as caught:
            load_params_document(path)
        assert str(caught.value).startswith(f"{path}: ")
        # Advice to change the interpreter's limit helps no one editing the file.
        assert "int_max_str_digits" not in str(caught.value)

    # json reads a repeated key from its last copy, at any depth.
    @pytest.mark.parametrize("key", ["survival", "target", "mae"])
    def test_a_repeated_key_is_a_schema_error(self, tmp_path, key):
        path = tmp_path / "params.json"
        params = solved_params()
        emit_params(params, path, target=ABC)
        text = path.read_text()
        # The second survival list keeps the last entry, which free_param copies.
        survival = json.dumps([0.9, 0.9, params.free_param])
        spoilt = {
            "survival": text.replace('\n  "free_param"',
                                     f'\n  "survival": {survival},\n  "free_param"'),
            "target": text.replace('\n  "config"', '\n  "target": [0.2, 0.3, 0.5],\n  "config"'),
            "mae": text.replace('"mae": 0.0', '"mae": 0.0, "mae": 1.0'),
        }[key]
        assert spoilt != text
        path.write_text(spoilt)
        with pytest.raises(SchemaError) as caught:
            load_params_document(path)
        assert str(caught.value) == (f"{path}: cannot read JSON "
                                     f"(key {key!r} appears more than once in one object)")

    def test_non_finite_diagnostics_written_as_null(self, tmp_path):
        params = ModelParams(ModelKind.MODEL1, solve(ABC, 0.4), diagnostics={
            "model2_mae": float("inf"), "history": [np.float64("nan"), 0.5]})
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
        assert load_params_document(path).library_version == agedist.__version__
        # Files written before the version was recorded load as "unknown".
        del raw["library_version"]
        path.write_text(json.dumps(raw))
        assert load_params_document(path).library_version == "unknown"

    # True == 1 in Python, but a bool is no version number.
    @pytest.mark.parametrize("version", [99, True])
    def test_schema_version_mismatch(self, tmp_path, version):
        params = solved_params()
        path = tmp_path / "params.json"
        emit_params(params, path)
        raw = json.loads(path.read_text())
        raw["schema_version"] = version
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match=f"schema version {version} unsupported"):
            load_params(path)

    def test_unknown_schema_rejected(self, tmp_path):
        params = solved_params()
        path = tmp_path / "params.json"
        emit_params(params, path)
        raw = json.loads(path.read_text())
        raw["schema"] = "other.params"
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError) as caught:
            load_params(path)
        assert str(caught.value) == f"{path}: unknown schema 'other.params'"

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
        emit_params(solved_params(), path, target=ABC)
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
        emit_params(solved_params(ModelKind.MODEL2), path,
                    target=AgeDistribution(("a", "b", "c"), [0.3, 0.4, 0.3]))
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
        emit_params(solved_params(), path, target=ABC, config={"seed": 7})
        raw = json.loads(path.read_text())
        raw[field] = None
        path.write_text(json.dumps(raw))
        document = load_params_document(path)
        assert document.params == solved_params()
        # Labels without a target give no target; a target without labels is g1..gn.
        target = {"target": None, "labels": AgeDistribution(default_labels(3), ABC.proportions)}
        assert document.target == target.get(field, ABC)

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

    def test_last_survival_of_one_is_refused_on_load(self, tmp_path):
        path = tmp_path / "params.json"
        emit_params(solved_params(), path)
        raw = json.loads(path.read_text())
        raw["survival"][-1] = raw["free_param"] = 1.0
        path.write_text(json.dumps(raw))
        with pytest.raises(DegenerateLastGroup, match="last-group survival 1.0 "):
            load_params_document(path)
        raw["survival"][-1] = raw["free_param"] = MAX_LAST_SURVIVAL
        path.write_text(json.dumps(raw))
        assert load_params_document(path).params.free_param == MAX_LAST_SURVIVAL

    @pytest.mark.parametrize("kind, field, value, message", [
        (ModelKind.MODEL1, "survival", [0.5, 1.5, 0.3], "must lie in"),
        (ModelKind.MODEL1, "survival", [0.5, float("nan"), 0.3], "must be finite"),
        (ModelKind.MODEL1, "survival", [0.5, 0.3], "at least 3 entries"),
        (ModelKind.MODEL2, "activation", [1.0, 1.5, 1.0], "must lie in"),
    ], ids=["out-of-range", "nan", "two-entries", "activation-above-1"])
    def test_vector_the_value_types_refuse_is_a_schema_error(self, tmp_path, kind, field,
                                                             value, message):
        path = tmp_path / "params.json"
        emit_params(solved_params(kind), path)
        raw = json.loads(path.read_text())
        raw[field] = value
        if field == "survival":
            raw["free_param"] = value[-1]
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match=message) as caught:
            load_params(path)
        assert str(caught.value).startswith(f"{path}: field {field!r}: ")

    def test_typed_vector_errors_pass_through(self, tmp_path):
        # Each keeps its type, and its message names the file and the field.
        path = tmp_path / "params.json"
        emit_params(solved_params(ModelKind.MODEL2), path)
        raw = json.loads(path.read_text())
        raw["activation"] = [1.0, 1e-4, 1.0]
        path.write_text(json.dumps(raw))
        with pytest.raises(ActivationTooSmall) as caught:
            load_params(path)
        assert str(caught.value).startswith(
            f"{path}: field 'activation': activation 0.0001 at group index 1 is below the floor")
        raw = json.loads(path.read_text())
        raw["activation"] = [1.0, 1.0, 1.0]
        raw["survival"][-1] = raw["free_param"] = 1.0
        path.write_text(json.dumps(raw))
        with pytest.raises(DegenerateLastGroup) as caught:
            load_params(path)
        assert str(caught.value) == (f"{path}: field 'survival': last-group survival 1.0 "
                                     "leaves the final group with no outflow")

    def test_a_target_of_another_group_count_is_refused_before_writing(self, tmp_path):
        # load_params would refuse the file: its fields differ in length.
        path = tmp_path / "params.json"
        with pytest.raises(ValueError, match="a target of 4 groups for 3 survival entries"):
            emit_params(solved_params(), path, target=[4, 3, 2, 1])
        assert not path.exists()

    def test_numpy_seed_round_trips(self, tmp_path):
        params = pipeline.solve(AgeDistribution(("a", "b", "c"), [0.5, 0.3, 0.2]), "rand",
                                seed=np.int64(5)).params
        path = tmp_path / "params.json"
        emit_params(params, path)
        assert json.loads(path.read_text())["diagnostics"]["seed"] == 5
        assert load_params(path) == params

    def test_a_document_that_cannot_be_serialized_leaves_no_file(self, tmp_path):
        # ModelParams refuses such diagnostics, so write the document
        # directly, as summary.json is written.
        path = tmp_path / "params.json"
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json({"diagnostics": {"note": object()}}, path)
        assert not path.exists()
