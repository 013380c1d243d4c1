"""CSV ingestion and parameter-file serialization.

The canonical input is a long-format CSV with a header row and one row per
(country, age group): columns ``country``, ``age_group``, ``population``
(renameable through the column arguments). Rows for one country must appear
in age order; interleaving countries is allowed.

Parameter files are versioned JSON documents holding the model kind, the
vectors, the free parameter, diagnostics and an optional target/config echo,
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
        CsvFormatError: unreadable rows (message carries the line number).
        ColumnMappingError: the configured columns are missing.
    """
    counts: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([country_col, age_col, pop_col])
        for name, dist in entries:
            for label, value in zip(dist.labels, dist.proportions):
                writer.writerow([name, label, repr(float(value))])


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
            ``survival``, ``free_param``) missing, or unknown schema,
            version or kind.
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

    survival = SurvivalVector(document["survival"])
    activation = (
        ActivationVector(document["activation"])
        if document.get("activation") is not None
        else None
    )
    params = ModelParams(
        kind=kind,
        survival=survival,
        activation=activation,
        free_param=document["free_param"],
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
