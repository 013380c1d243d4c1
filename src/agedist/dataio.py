"""CSV ingestion and output, and parameter-file serialization.

The canonical input is a long-format CSV with a header row and one row per
(country, age group): columns ``country``, ``age_group``, ``population``
(renameable through the column arguments). Rows for one country must appear
in age order; interleaving countries is allowed. Every table the library
writes goes through ``write_csv``.

Parameter files are versioned JSON documents holding the model kind, the
vectors, the free parameter (a copy of the last survival entry, checked on
load), diagnostics and an optional target/config echo,
so one file fully specifies a reproducible simulation. Every JSON file the
library writes is strict JSON (``write_json``): a non-finite number is
written as null.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import __version__
from .distributions import (
    ActivationVector,
    AgeDistribution,
    ModelKind,
    ModelParams,
    SurvivalVector,
    as_distribution,
    default_labels,
    normalize,
)
from .errors import AgedistError, ColumnMappingError, CsvFormatError, NotNormalized, SchemaError

logger = logging.getLogger("agedist")

PARAMS_SCHEMA = "agedist-params"
PARAMS_SCHEMA_VERSION = 1


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


#: JSON type of each parameter-file field, and whether it may be null.
_FIELD_TYPES = {
    "survival": ("a list of numbers", _list_of(_is_number), False),
    "activation": ("a list of numbers", _list_of(_is_number), True),
    "free_param": ("a number", _is_number, False),
    "diagnostics": ("an object", lambda value: isinstance(value, dict), False),
    "labels": ("a list of strings", _list_of(lambda value: isinstance(value, str)), True),
    "target": ("a list of numbers", _list_of(_is_number), True),
    "config": ("an object", lambda value: isinstance(value, dict), True),
}


def ingest_csv(
    path,
    *,
    country_col: str = "country",
    age_col: str = "age_group",
    pop_col: str = "population",
    skipped: Optional[list] = None,
):
    """Read a long-format CSV into a list of (name, AgeDistribution).

    Each country's counts go through ``normalize`` (trailing empty groups dropped).
    Countries failing validation (interior zeros, fewer than three groups)
    are logged and skipped; pass a list as ``skipped`` to collect
    (name, reason) records.

    Raises:
        CsvFormatError: a file that is not UTF-8, rows the csv module
            refuses or that are short, populations that are not finite
            non-negative numbers (message carries the line number).
        ColumnMappingError: a configured column is missing, named twice in
            the header, or named by two column arguments (before any row).
    """
    counts: dict = {}
    # utf-8-sig also reads the byte-order mark that spreadsheet exports add.
    with _utf8_text(path, CsvFormatError, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None:
                raise CsvFormatError(f"{path}: empty file, expected a header row")
            columns = (country_col, age_col, pop_col)
            missing = [c for c in columns if c not in reader.fieldnames]
            if missing:
                raise ColumnMappingError(f"{path}: column(s) {missing} not in header "
                                         f"{reader.fieldnames}")
            shared = _first_repeat(columns)
            if shared is not None:
                raise ColumnMappingError(f"{path}: column {shared!r} is configured for more "
                                         "than one of country, age group and population")
            # A DictReader would read a repeated column from its last copy.
            repeated = _first_repeat(c for c in reader.fieldnames if c in columns)
            if repeated is not None:
                raise ColumnMappingError(f"{path}: column {repeated!r} appears more than once "
                                         f"in header {reader.fieldnames}")
            for row in reader:
                line = reader.line_num
                country, age, raw = row[country_col], row[age_col], row[pop_col]
                if country is None or age is None or raw is None:
                    raise CsvFormatError(f"{path}: line {line}: short row")
                try:
                    population = float(raw)
                except ValueError:
                    raise CsvFormatError(f"{path}: line {line}: population {raw!r} "
                                         "is not a number") from None
                if not math.isfinite(population):
                    raise CsvFormatError(f"{path}: line {line}: population {raw!r} is not finite")
                if population < 0:
                    raise CsvFormatError(f"{path}: line {line}: negative population")
                groups = counts.setdefault(country, {})
                if age in groups:
                    raise CsvFormatError(f"{path}: line {line}: duplicate age group {age!r} "
                                         f"for {country!r}")
                groups[age] = population
        except csv.Error as exc:  # such as a field past the csv module's size limit
            # Not reader.line_num: a DictReader's lags a line behind on an error.
            raise CsvFormatError(f"{path}: line {reader.reader.line_num}: {exc}") from None

    entries = []
    for country, groups in counts.items():
        try:
            entries.append(
                (country, normalize(list(groups.values()), list(groups.keys())))
            )
        except AgedistError as exc:
            logger.warning("skipping %s: %s", country, exc)
            if skipped is not None:
                skipped.append((country, str(exc)))
    return entries


@contextmanager
def _utf8_text(path, error, encoding="utf-8", **options):
    """``path`` open for reading as UTF-8 text; a byte that does not decode
    raises ``error`` naming the file."""
    try:
        with open(path, encoding=encoding, **options) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x}: "
                    f"{exc.reason})") from None


def write_dataset_csv(entries, path) -> None:
    """Write (name, AgeDistribution) pairs back to the long format, under
    its default column names.

    Proportions are written with full precision (repr round-trip), so
    ingesting the output reproduces every distribution exactly.

    Raises:
        ValueError: a name repeats, or a label repeats within one entry;
            ``ingest_csv`` would refuse the file or merge the entries. No
            file is opened.
    """
    entries = list(entries)
    repeat = _first_repeat(str(name) for name, _ in entries)
    if repeat is not None:
        raise ValueError(f"entry {repeat!r} appears more than once")
    for name, dist in entries:
        repeat = _first_repeat(dist.labels)
        if repeat is not None:
            raise ValueError(f"entry {name!r} repeats age group {repeat!r}")
    write_csv(path, ["country", "age_group", "population"],
              ([name, label, repr(float(value))]
               for name, dist in entries
               for label, value in zip(dist.labels, dist.proportions)))


def write_trajectory_csv(result, path) -> None:
    """Write a ``simulator.SimResult``'s trajectory: one row per step, the
    step index and then the per-group proportions to 10 significant digits.

    Raises:
        ValueError: the run was made without ``record_trajectory``.
    """
    if result.trajectory is None:
        raise ValueError("run was executed without record_trajectory")
    write_csv(path, ["step", *result.labels],
              ([i, *row] for i, row in enumerate(result.trajectory, start=1)))


def _first_repeat(items):
    """The first item of ``items`` that occurs more than once, else None."""
    return next((item for item, count in Counter(items).items() if count > 1), None)


def write_csv(path_or_stream, header, rows) -> None:
    """Write a header and ``rows`` as CSV: minimal quoting, "\\n" line ends,
    floats to 10 significant digits (pass a string for any other form).
    A path is written as a UTF-8 file; a text stream is written as is."""
    if not hasattr(path_or_stream, "write"):
        with open(path_or_stream, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, header, rows)
        return
    # A writer quotes a field holding "\r" only when its own line end holds
    # one. So it ends its records with "\r\n", and each record, which it
    # hands over in one write, is written ending in "\n".
    records = SimpleNamespace(write=lambda record: path_or_stream.write(record[:-2] + "\n"))
    writer = csv.writer(records, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([f"{value:.10g}" if isinstance(value, float) else value
                      for value in row] for row in rows)


@dataclass(frozen=True)
class ParamsDocument:
    """Everything a parameter file carries beyond the ModelParams proper."""

    params: ModelParams
    target: Optional[AgeDistribution] = None
    config: Optional[dict] = None
    library_version: str = __version__


def emit_params(params: ModelParams, path, *, target=None, config: Optional[dict] = None) -> None:
    """Serialize a parameter set (plus optional target/config echo) to JSON.

    ``target`` is an AgeDistribution, or a raw vector that
    ``as_distribution`` makes one; its labels and proportions are written.
    Floats are written through ``repr`` (via json), so loading is lossless.

    Raises:
        ValueError: the target's group count differs from the survival
            vector's, which ``load_params`` would refuse; no file is opened.
    """
    target = as_distribution(target) if target is not None else None
    if target is not None and len(target) != len(params.survival):
        raise ValueError(f"a target of {len(target)} groups for "
                         f"{len(params.survival)} survival entries")
    document = {
        "schema": PARAMS_SCHEMA,
        "schema_version": PARAMS_SCHEMA_VERSION,
        "library_version": __version__,
        "kind": params.kind.value,
        "survival": params.survival.probs,
        "activation": params.activation.rates if params.kind is ModelKind.MODEL2 else None,
        "free_param": params.free_param,
        "diagnostics": params.diagnostics,
        "labels": target.labels if target is not None else None,
        "target": target.proportions if target is not None else None,
        "config": config,
    }
    write_json(document, path)


def write_json(document, path) -> None:
    """Write ``document`` as indented strict JSON, which has no NaN or
    Infinity: a non-finite float is written as null, a numpy value as its
    Python value. The text is built before the file is opened, so a
    document that cannot be serialized leaves no file."""
    text = json.dumps(_finite_or_null(document), indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _finite_or_null(value):
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def load_params(path) -> ModelParams:
    """Load a parameter file back into ModelParams (exact round trip).

    Raises:
        SchemaError: not a JSON object, a required field (``kind``,
            ``survival``, ``free_param``) missing, a field of the wrong
            JSON type, ``labels``, ``target``, ``survival`` and
            ``activation`` of different lengths, an ``activation`` list
            present for a kind other than model 2 or absent for model 2,
            a ``free_param`` other than the last survival entry, unknown
            schema, version (a bool too) or kind, bytes that are not UTF-8,
            a key repeated in one object, or JSON that Python's reader
            refuses; or a ``survival`` or ``activation`` list its value
            type refuses with a ValueError or an OverflowError, or a
            ``target`` AgeDistribution does.
        DegenerateLastGroup, ActivationTooSmall: as the value types raise
            them, the message prefixed with the file and the field.
    """
    return load_params_document(path).params


def _json_int(text: str) -> int:
    """``int(text)``, whose error past Python's digit limit gives the digit
    count and the limit, not the setting that changes it."""
    try:
        return int(text)
    except ValueError:  # the digit limit: json passes only well-formed integers
        raise ValueError(f"an integer of {len(text.lstrip('-'))} digits is past this "
                         f"Python's limit of {sys.get_int_max_str_digits()}") from None


def _unique_keys(pairs) -> dict:
    """A JSON object's (key, value) pairs as a dict; a repeated key, which
    ``json`` would read from its last copy, raises ValueError naming it."""
    repeat = _first_repeat(key for key, _ in pairs)
    if repeat is not None:
        raise ValueError(f"key {repeat!r} appears more than once in one object")
    return dict(pairs)


def load_params_document(path) -> ParamsDocument:
    """Load a parameter file with its config echo and its target, labelled
    g1..gn when the file has no labels; raises as ``load_params`` does."""
    with _utf8_text(path, SchemaError) as fh:
        text = fh.read()
    try:  # refuses bad JSON, a repeated key, deep nesting and 4300+ digit ints
        document = json.loads(text, parse_int=_json_int, object_pairs_hook=_unique_keys)
    except (RecursionError, ValueError) as exc:
        raise SchemaError(f"{path}: cannot read JSON ({exc})") from None
    if not isinstance(document, dict):
        raise SchemaError(f"{path}: expected a JSON object, got {type(document).__name__}")

    if document.get("schema") != PARAMS_SCHEMA:
        raise SchemaError(f"{path}: unknown schema {document.get('schema')!r}")
    version = document.get("schema_version")
    if isinstance(version, bool) or version != PARAMS_SCHEMA_VERSION:
        raise SchemaError(f"{path}: schema version {version!r} unsupported "
                          f"(expected {PARAMS_SCHEMA_VERSION})")
    missing = [key for key in ("kind", "survival", "free_param") if key not in document]
    if missing:
        raise SchemaError(f"{path}: missing field(s) {missing}")
    try:
        kind = ModelKind(document["kind"])
    except ValueError:
        raise SchemaError(
            f"{path}: unknown model kind {document.get('kind')!r}"
        ) from None

    for key, (expected, valid, nullable) in _FIELD_TYPES.items():
        value = document.get(key)
        if key in document and not (valid(value) or nullable and value is None):
            raise SchemaError(
                f"{path}: field {key!r} must be {expected}, got {json.dumps(value)[:40]}"
            )

    lengths = {key: len(document[key]) for key in ("labels", "target", "survival", "activation")
               if document.get(key) is not None}
    if len(set(lengths.values())) > 1:
        raise SchemaError(f"{path}: fields differ in length: " + ", ".join(
            f"{key!r} has {size}" for key, size in lengths.items()))
    activation = document.get("activation")
    if (kind is ModelKind.MODEL2) != (activation is not None):
        raise SchemaError(f"{path}: kind {kind.value!r} " + (
            "needs an 'activation' list" if activation is None
            else "takes no 'activation' list (null or absent)"))

    survival = _field(path, document, "survival", SurvivalVector)
    last = document["survival"][-1]
    if document["free_param"] != last:
        raise SchemaError(f"{path}: field 'free_param' is {document['free_param']!r}, "
                          f"but the last 'survival' entry is {last!r}")
    if kind is ModelKind.MODEL2:
        activation = _field(path, document, "activation", ActivationVector)
    params = ModelParams(kind, survival, activation, document.get("diagnostics", {}))
    target = document.get("target")
    if target is not None:
        labels = document.get("labels") or default_labels(len(target))
        target = _field(path, document, "target", lambda props: AgeDistribution(labels, props),
                        refused=(ValueError, OverflowError, AgedistError))
    return ParamsDocument(
        params=params,
        target=target,
        config=document.get("config"),
        library_version=document.get("library_version", "unknown"),
    )


def _field(path, document, key: str, make, refused=(ValueError, OverflowError)):
    """``make`` of the field ``key``; a ``refused`` error it raises becomes a
    SchemaError, and any other AgedistError keeps its type, each with a
    message that names the file and the field."""
    try:
        return make(document[key])
    except NotNormalized:  # worded for the file's editor, not a library caller
        total = float(np.array(document[key], dtype=float).sum())
        raise SchemaError(f"{path}: field {key!r}: proportions sum to {total!r}, not 1") from None
    except refused as exc:
        raise SchemaError(f"{path}: field {key!r}: {exc}") from None
    except AgedistError as exc:
        raise type(exc)(f"{path}: field {key!r}: {exc}") from None
