"""Core domain types: age distributions, survival/activation vectors,
classification and distance metrics.

Everything here is an immutable value type or a pure function; all other
modules build on these primitives. Safe for concurrent use without locks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    ActivationTooSmall,
    EmptyPopulation,
    IncomparableDistributions,
    InteriorZeroGroup,
    NotNormalized,
    TooFewGroups,
)

logger = logging.getLogger("agedist")

#: Tolerance on the sum-to-one invariant of a distribution.
SUM_TOLERANCE = 1e-12

#: Positive floor for activation rates; exact zeros would divide by zero in
#: the steady-state relations.
ALPHA_MIN = 1e-3

#: Largest admissible last-group survival. Exactly 1 would make the final
#: group absorbing with zero outflow, contradicting a positive predecessor.
MAX_LAST_SURVIVAL = 1.0 - 1e-9

VectorLike = Union[Sequence[float], np.ndarray, "SurvivalVector", "ActivationVector"]


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def default_labels(n: int) -> tuple:
    """Generic group labels g1..gn for callers that have none."""
    return tuple(f"g{i}" for i in range(1, n + 1))


@dataclass(frozen=True, eq=False)
class AgeDistribution:
    """Ordered age groups with strictly positive proportions summing to one.

    Trailing empty groups are trimmed (with their labels) at construction,
    since a population that never reaches them carries no information.
    Interior empty groups are rejected: every solver divides by the size of
    the preceding group.
    """

    labels: tuple
    proportions: np.ndarray

    def __post_init__(self):
        labels = tuple(str(lab) for lab in self.labels)
        props = _as_vector(self.proportions, "proportions")
        if len(labels) != props.size:
            raise ValueError(
                f"{len(labels)} labels for {props.size} proportions"
            )
        if np.any(props < 0):
            raise ValueError("proportions must be non-negative")
        nonzero = np.nonzero(props)[0]
        if nonzero.size == 0:
            raise EmptyPopulation("every age group is empty")
        keep = nonzero[-1] + 1
        if keep < props.size:
            logger.info(
                "trimming %d trailing empty group(s): %s",
                props.size - keep, ", ".join(labels[keep:]),
            )
            labels, props = labels[:keep], props[:keep]
        _reject_interior_zero(props, labels)
        if props.size < 3:
            raise TooFewGroups(f"need at least 3 age groups, got {props.size}")
        total = float(props.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise NotNormalized(
                f"proportions sum to {total!r}; use normalize() for raw counts"
            )
        props.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "proportions", props)

    @property
    def n_groups(self) -> int:
        return self.proportions.size

    def __len__(self) -> int:
        return self.proportions.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, AgeDistribution):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(
            self.proportions, other.proportions
        )

    def __repr__(self) -> str:
        return f"AgeDistribution(n={len(self)}, {self.labels[0]}..{self.labels[-1]})"


def normalize(raw_counts, labels) -> AgeDistribution:
    """Build an AgeDistribution from raw (unnormalized) group counts.

    Trailing zero groups are dropped along with their labels; the remaining
    counts are divided by their sum.

    Raises:
        EmptyPopulation: all counts are zero.
        InteriorZeroGroup: a zero count sits before a positive one.
        TooFewGroups: fewer than three groups remain after trimming.
    """
    counts = _as_vector(raw_counts, "raw_counts")
    labels = tuple(labels)
    if len(labels) != counts.size:
        raise ValueError(f"{len(labels)} labels for {counts.size} counts")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise EmptyPopulation("every age group is empty")
    if abs(total - 1.0) <= SUM_TOLERANCE:
        # Already normalized; keep the exact bits so re-ingesting emitted
        # proportions is an identity.
        return AgeDistribution(labels, counts)
    return AgeDistribution(labels, counts / total)


@dataclass(frozen=True, eq=False)
class SurvivalVector:
    """Per-group survival probabilities, each in [0, 1].

    A last entry of exactly 1 is capped to ``MAX_LAST_SURVIVAL`` (with a
    logged notice): an absorbing final group has no steady state compatible
    with positive earlier groups.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.probs, "survival probabilities")
        if arr.size < 3:
            raise ValueError("survival vector needs at least 3 entries")
        if np.any(arr < 0) or np.any(arr > 1):
            raise ValueError("survival probabilities must lie in [0, 1]")
        if arr[-1] >= 1.0:
            logger.info(
                "capping last-group survival %.17g to %.17g",
                arr[-1], MAX_LAST_SURVIVAL,
            )
            arr[-1] = MAX_LAST_SURVIVAL
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.probs, dtype=dtype)

    def __len__(self) -> int:
        return self.probs.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, SurvivalVector):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)


@dataclass(frozen=True, eq=False)
class ActivationVector:
    """Per-group activation rates, each in [ALPHA_MIN, 1]."""

    rates: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.rates, "activation rates")
        if arr.size < 3:
            raise ValueError("activation vector needs at least 3 entries")
        if np.any(arr < ALPHA_MIN):
            raise ActivationTooSmall(
                f"activation rates below the floor {ALPHA_MIN:g}"
            )
        if np.any(arr > 1):
            raise ValueError("activation rates must lie in [ALPHA_MIN, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "rates", arr)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.rates, dtype=dtype)

    def __len__(self) -> int:
        return self.rates.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActivationVector):
            return NotImplemented
        return np.array_equal(self.rates, other.rates)


class ModelKind(Enum):
    MODEL1 = "model1"
    MODEL2 = "model2"
    MODEL1_ON_FITTED = "model1_on_fitted"


@dataclass(eq=False)
class ModelParams:
    """A solved parameterisation plus its diagnostics.

    ``diagnostics`` maps metric names to values (numbers, or short strings
    for provenance entries such as the free-parameter mode).
    """

    kind: ModelKind
    survival: SurvivalVector
    activation: Optional[ActivationVector] = None
    free_param: float = field(default=None)  # type: ignore[assignment]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.survival, SurvivalVector):
            self.survival = SurvivalVector(self.survival)
        if self.activation is not None and not isinstance(
            self.activation, ActivationVector
        ):
            self.activation = ActivationVector(self.activation)
        if (self.kind is ModelKind.MODEL2) != (self.activation is not None):
            raise ValueError("activation rates are present iff kind is MODEL2")
        if self.activation is not None and len(self.activation) != len(self.survival):
            raise ValueError("survival and activation vectors differ in length")
        if self.free_param is None:
            self.free_param = float(self.survival.probs[-1])
        elif self.free_param != self.survival.probs[-1]:
            raise ValueError("free_param must equal the last survival entry")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelParams):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.survival == other.survival
            and self.activation == other.activation
            and self.free_param == other.free_param
            and self.diagnostics == other.diagnostics
        )


class Classification(Enum):
    MONOTONE_NON_INCREASING = "monotone_non_increasing"
    NON_MONOTONE = "non_monotone"


def proportions_of(dist) -> np.ndarray:
    """Extract a proportion array from an AgeDistribution or a raw vector.

    Raw vectors are permitted for metric-only use (they may contain zeros,
    which a full AgeDistribution may not).
    """
    if isinstance(dist, AgeDistribution):
        return dist.proportions
    return _as_vector(dist, "proportions")


def solver_proportions(dist) -> np.ndarray:
    """``proportions_of`` for the solvers, which divide by each group before
    the last non-empty one: a raw vector with an empty group there raises
    InteriorZeroGroup, as an AgeDistribution does."""
    props = proportions_of(dist)
    _reject_interior_zero(props, default_labels(props.size))
    return props


def _reject_interior_zero(props: np.ndarray, labels: tuple) -> None:
    nonzero = np.flatnonzero(props)
    empty = np.flatnonzero(props[: nonzero[-1]] == 0) if nonzero.size else nonzero
    if empty.size:
        idx = int(empty[0])
        raise InteriorZeroGroup(
            f"group {labels[idx]!r} (index {idx}) is empty but later groups are not"
        )


def _comparable(a, b, check_labels: bool) -> tuple:
    pa, pb = proportions_of(a), proportions_of(b)
    if pa.size != pb.size:
        raise IncomparableDistributions(
            f"distributions have {pa.size} and {pb.size} groups"
        )
    if (
        check_labels
        and isinstance(a, AgeDistribution)
        and isinstance(b, AgeDistribution)
        and a.labels != b.labels
    ):
        raise IncomparableDistributions("distributions have different labels")
    return pa, pb


def classify(dist) -> Classification:
    """Monotone check over groups 1..n-1; the last group is unconstrained
    because its survival probability is free."""
    p = proportions_of(dist)
    if np.all(np.diff(p[:-1]) <= 0):
        return Classification.MONOTONE_NON_INCREASING
    return Classification.NON_MONOTONE


def wasserstein(a, b) -> float:
    """1-D Wasserstein-1 distance with unit spacing between adjacent groups.

    For ordered discrete distributions on a common grid this is the sum over
    groups of the absolute CDF differences.
    """
    pa, pb = _comparable(a, b, check_labels=True)
    return float(np.abs(np.cumsum(pa - pb)).sum())


def mean_absolute_error(a, b) -> float:
    """Mean over groups of the absolute proportion differences."""
    pa, pb = _comparable(a, b, check_labels=False)
    return float(np.abs(pa - pb).mean())
