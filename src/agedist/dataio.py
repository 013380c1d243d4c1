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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .distributions import (
    ActivationVector,
    AgeDistribution,
    ModelKind,
    ModelParams,
    SurvivalVector,
    normalize,
)
from .errors import AgedistError, ColumnMappingError, CsvFormatError, SchemaError

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

    Trailing zero groups are trimmed and counts normalized per country.
    Countries failing validation (interior zeros, fewer than three groups)
    are logged and skipped; pass a list as ``skipped`` to collect
    (name, reason) records.

    Raises:
        CsvFormatError: unreadable rows, populations that are not finite
            non-negative numbers (message carries the line number).
        ColumnMappingError: the configured columns are missing.
    """
    counts: dict = {}
    # utf-8-sig also reads the byte-order mark that spreadsheet exports add.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise CsvFormatError(f"{path}: empty file, expected a header row")
        missing = [c for c in (country_col, age_col, pop_col) if c not in reader.fieldnames]
        if missing:
            raise ColumnMappingError(
                f"{path}: column(s) {missing} not in header {reader.fieldnames}"
            )
        for row in reader:
            line = reader.line_num
            country = row[country_col]
            age = row[age_col]
            raw = row[pop_col]
            if country is None or age is None or raw is None:
                raise CsvFormatError(f"{path}: line {line}: short row")
            try:
                population = float(raw)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: line {line}: population {raw!r} is not a number"
                ) from None
            if not math.isfinite(population):
                raise CsvFormatError(f"{path}: line {line}: population {raw!r} is not finite")
            if population < 0:
                raise CsvFormatError(f"{path}: line {line}: negative population")
            groups = counts.setdefault(country, {})
            if age in groups:
                raise CsvFormatError(
                    f"{path}: line {line}: duplicate age group {age!r} for {country!r}"
                )
            groups[age] = population

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


def write_dataset_csv(entries, path, *, country_col="country", age_col="age_group",
                      pop_col="population") -> None:
    """Write (name, AgeDistribution) pairs back to the long format.

    Proportions are written with full precision (repr round-trip), so
    ingesting the output reproduces every distribution exactly.
    """
    write_csv(path, [country_col, age_col, pop_col],
              ([name, label, repr(float(value))]
               for name, dist in entries
               for label, value in zip(dist.labels, dist.proportions)))


def write_csv(path_or_stream, header, rows) -> None:
    """Write a header and ``rows`` as CSV: minimal quoting, "\\n" line ends,
    floats to 10 significant digits (pass a string for any other form).
    A path is written as a UTF-8 file; a text stream is written as is."""
    if not hasattr(path_or_stream, "write"):
        with open(path_or_stream, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, header, rows)
        return
    writer = csv.writer(path_or_stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{value:.10g}" if isinstance(value, float) else value
                      for value in row] for row in rows)


@dataclass
class ParamsDocument:
    """Everything a parameter file carries beyond the ModelParams proper."""

    params: ModelParams
    labels: Optional[tuple] = None
    target: Optional[np.ndarray] = None
    config: Optional[dict] = None
    library_version: str = __version__

    def target_distribution(self) -> Optional[AgeDistribution]:
        if self.labels is None or self.target is None:
            return None
        return AgeDistribution(self.labels, self.target)


def emit_params(
    params: ModelParams,
    path,
    *,
    labels=None,
    target=None,
    config: Optional[dict] = None,
) -> None:
    """Serialize a parameter set (plus optional target/config echo) to JSON.

    Floats are written through ``repr`` (via json), so loading is lossless.
    """
    document = {
        "schema": PARAMS_SCHEMA,
        "schema_version": PARAMS_SCHEMA_VERSION,
        "library_version": __version__,
        "kind": params.kind.value,
        "survival": [float(v) for v in params.survival.probs],
        "activation": (
            [float(v) for v in params.activation.rates]
            if params.activation is not None
            else None
        ),
        "free_param": float(params.free_param),
        "diagnostics": params.diagnostics,
        "labels": list(labels) if labels is not None else None,
        "target": [float(v) for v in target] if target is not None else None,
        "config": config,
    }
    write_json(document, path)


def write_json(document, path) -> None:
    """Write ``document`` as indented strict JSON, which has no NaN or
    Infinity: every non-finite float in it is written as null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(document), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _finite_or_null(value):
    if isinstance(value, float):  # numpy's float64 included
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
            a ``free_param`` other than the last survival entry, or
            unknown schema, version or kind.
        Domain validation errors: out-of-range vector entries.
    """
    return load_params_document(path).params


def load_params_document(path) -> ParamsDocument:
    """Load a parameter file with its target/config echo."""
    with open(path, encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(document, dict):
        raise SchemaError(f"{path}: expected a JSON object, got {type(document).__name__}")

    if document.get("schema") != PARAMS_SCHEMA:
        raise SchemaError(f"{path}: unknown schema {document.get('schema')!r}")
    version = document.get("schema_version")
    if version != PARAMS_SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: schema version {version!r} unsupported "
            f"(expected {PARAMS_SCHEMA_VERSION})"
        )
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

    survival = SurvivalVector(document["survival"])
    last = document["survival"][-1]
    if document["free_param"] != last:
        raise SchemaError(f"{path}: field 'free_param' is {document['free_param']!r}, "
                          f"but the last 'survival' entry is {last!r}")
    params = ModelParams(
        kind=kind,
        survival=survival,
        activation=ActivationVector(activation) if activation is not None else None,
        diagnostics=document.get("diagnostics", {}),
    )
    labels = tuple(document["labels"]) if document.get("labels") else None
    target = (
        np.asarray(document["target"], dtype=float)
        if document.get("target") is not None
        else None
    )
    return ParamsDocument(
        params=params,
        labels=labels,
        target=target,
        config=document.get("config"),
        library_version=document.get("library_version", "unknown"),
    )
