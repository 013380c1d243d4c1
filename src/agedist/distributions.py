"""Core domain types: age distributions, survival/activation vectors,
classification and distance metrics, and the one home of the stationary law
of the ageing process they parameterise: ``stationary_profiles``,
``stationarity_residual``, ``stationary_distribution`` and
``step_thresholds``.

Everything here is an immutable value type or a function that keeps no
state; all other modules build on these primitives. Safe for concurrent use
without locks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    ActivationTooSmall,
    DegenerateLastGroup,
    EmptyPopulation,
    IncomparableDistributions,
    InteriorZeroGroup,
    NotNormalized,
    ResidualCheckFailed,
    TooFewGroups,
)

logger = logging.getLogger("agedist")

#: Tolerance on the sum-to-one invariant of a distribution.
SUM_TOLERANCE = 1e-12

#: Positive floor for activation rates; exact zeros would divide by zero in
#: the steady-state relations.
ALPHA_MIN = 1e-3

#: Largest last-group survival the solvers choose. ``SurvivalVector``
#: refuses 1, which would make the final group absorbing with zero outflow.
MAX_LAST_SURVIVAL = 1.0 - 1e-9

#: Ceiling on the largest entry of stationarity_residual(), checked in
#: stationary_distribution().
RESIDUAL_TOLERANCE = 1e-10


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind in "OSU" and any(isinstance(v, (str, bytes)) for v in arr.flat):
        raise ValueError(f"{name} must be numbers, not text")
    arr = np.array(arr, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _first(bad: np.ndarray) -> Optional[int]:
    """Index of the first True entry of ``bad``, or None."""
    return int(bad.argmax()) if bad.any() else None


def default_labels(n: int) -> tuple:
    """Generic group labels g1..gn for callers that have none."""
    return tuple(f"g{i}" for i in range(1, n + 1))


class _Value:
    """The value rule of a frozen dataclass: equal to a value of its own
    type whose fields are equal (arrays by ``np.array_equal``), and copied
    or pickled by rebuilding through the constructor, whose checks and
    freezing run again on the copy."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                   else a == b for a, b in pairs)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


class _Vector(_Value):
    """A value whose field ``_field`` is a finite, read-only one-dimensional
    float array, checked by ``_check``; messages call its entries ``_entries``."""

    def __post_init__(self):
        arr = _as_vector(getattr(self, self._field), self._entries)
        self._check(arr)
        arr.setflags(write=False)
        object.__setattr__(self, self._field, arr)

    def __len__(self) -> int:
        return getattr(self, self._field).size


@dataclass(frozen=True, eq=False)
class AgeDistribution(_Vector):
    """Ordered age groups with strictly positive proportions summing to one.

    An empty group anywhere is rejected (``check_groups``): every solver
    divides by the size of each group before the last. Only ``normalize``,
    which takes raw counts, drops trailing empty groups.
    """

    labels: tuple
    proportions: np.ndarray
    _field = _entries = "proportions"

    def _check(self, props: np.ndarray) -> None:
        labels = tuple(str(lab) for lab in self.labels)
        if len(labels) != props.size:
            raise ValueError(
                f"{len(labels)} labels for {props.size} proportions"
            )
        if np.any(props < 0):
            raise ValueError("proportions must be non-negative")
        check_groups(props, labels)
        total = float(props.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise NotNormalized(
                f"proportions sum to {total!r}; use normalize() for raw counts"
            )
        object.__setattr__(self, "labels", labels)

    def __repr__(self) -> str:
        return f"AgeDistribution(n={len(self)}, {self.labels[0]}..{self.labels[-1]})"


def normalize(raw_counts, labels) -> AgeDistribution:
    """Build an AgeDistribution from raw (unnormalized) group counts.

    The counts are divided by their sum, by the largest count first when
    the sum overflows (counts that already sum to 1 keep their bits); then
    trailing groups that are empty, or that underflowed to zero, are
    dropped with their labels. This is the only constructor that drops
    groups.

    Raises:
        ValueError: a count is negative.
        EmptyPopulation: all counts are zero.
        InteriorZeroGroup: a zero count, or a positive one that underflows
            to zero, sits before a positive one.
        TooFewGroups: fewer than three groups remain after trimming.
    """
    return _divided(_as_vector(raw_counts, "raw_counts"), tuple(labels), trim=True)


def as_distribution(dist) -> AgeDistribution:
    """``dist`` if it is an AgeDistribution, else a raw vector made one as
    ``normalize(v, g1..gn)`` makes it, but keeping every group: the one
    door into the solvers. Raises as ``normalize`` does, and
    InteriorZeroGroup for a trailing empty group too."""
    if isinstance(dist, AgeDistribution):
        return dist
    counts = _as_vector(dist, "proportions")
    return _divided(counts, default_labels(counts.size), trim=False)


def _divided(counts: np.ndarray, labels: tuple, trim: bool) -> AgeDistribution:
    """The AgeDistribution that ``normalize`` (``trim``) or
    ``as_distribution`` makes of ``counts``. A group whose positive count
    underflows is named so before the constructor calls it empty."""
    if len(labels) != counts.size:
        raise ValueError(f"{len(labels)} labels for {counts.size} counts")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    with np.errstate(over="ignore"):
        total = counts.sum()
    scaled = counts
    if not np.isfinite(total):
        # The sum overflows: divide by the largest count first.
        scaled = counts / counts.max()
        total = scaled.sum()
    if total <= 0:
        raise EmptyPopulation("every age group is empty")
    # Proportions that already sum to one keep their bits (re-ingesting is exact).
    props = scaled if abs(total - 1.0) <= SUM_TOLERANCE else scaled / total
    # The largest count stays positive.
    keep = np.flatnonzero(props)[-1] + 1 if trim else props.size
    if (idx := _first(props[:keep] == 0)) is not None and counts[idx] > 0:
        raise InteriorZeroGroup(f"group {labels[idx]!r} (index {idx}) underflows to 0 "
                                f"(count {float(counts[idx])!r} of {float(counts.max())!r})")
    if keep < props.size:
        logger.info("trimming %d trailing empty group(s): %s", props.size - keep,
                    ", ".join(map(str, labels[keep:])))
    return AgeDistribution(labels[:keep], props[:keep])


class _RateVector(_Vector):
    """At least 3 per-group rates; messages call the vector ``_kind``, and
    ``_check_range`` checks its entries before the length."""

    def _check(self, arr: np.ndarray) -> None:
        self._check_range(arr)
        if arr.size < 3:
            raise ValueError(f"{self._kind} vector needs at least 3 entries")

    def __array__(self, dtype=None, copy=None):
        arr = getattr(self, self._field)
        return np.array(arr, dtype=dtype) if copy else np.asarray(arr, dtype=dtype)


@dataclass(frozen=True, eq=False)
class SurvivalVector(_RateVector):
    """Per-group survival probabilities, each in [0, 1], the last below 1.

    A last entry of 1 or more raises DegenerateLastGroup (the one place
    that judges it): an absorbing final group has no steady state
    compatible with positive earlier groups.
    """

    probs: np.ndarray
    _field, _kind, _entries = "probs", "survival", "survival probabilities"

    def _check_range(self, arr: np.ndarray) -> None:
        if arr.size and arr[-1] >= 1.0:
            raise DegenerateLastGroup(f"last-group survival {float(arr[-1])!r} leaves the "
                                      "final group with no outflow")
        if (i := _first((arr < 0) | (arr > 1))) is not None:
            raise ValueError(f"survival probabilities must lie in [0, 1]: group index {i} "
                             f"has {float(arr[i])!r}")


@dataclass(frozen=True, eq=False)
class ActivationVector(_RateVector):
    """Per-group activation rates, each in [ALPHA_MIN, 1]."""

    rates: np.ndarray
    _field, _kind, _entries = "rates", "activation", "activation rates"

    def _check_range(self, arr: np.ndarray) -> None:
        if (i := _first(arr < ALPHA_MIN)) is not None:
            raise ActivationTooSmall(
                f"activation {float(arr[i])!r} at group index {i} is below the floor "
                f"{ALPHA_MIN:g}: the group is more than 1/ALPHA_MIN = {1.0 / ALPHA_MIN:g} "
                "times its active mass")
        if (i := _first(arr > 1)) is not None:
            raise ValueError(f"activation rates must lie in [ALPHA_MIN, 1]: group index {i} "
                             f"has {float(arr[i])!r}")


class ModelKind(Enum):
    MODEL1 = "model1"
    MODEL2 = "model2"
    MODEL1_ON_FITTED = "model1_on_fitted"


@dataclass(frozen=True)
class ModelParams:
    """A solved parameterisation plus its diagnostics, frozen once checked.

    Every set carries both vectors: model 1 is the activation process at
    rates 1, so a MODEL1 or MODEL1_ON_FITTED set's ``activation`` is ones
    when None, and other rates raise ValueError, as does a MODEL2 set with
    none. ``kind`` may be a ModelKind's value ("model1"). ``diagnostics`` maps
    str names to None, bools, ints, floats, strs, and lists or str-keyed dicts
    of these, as a parameter file loads them back equal; anything else raises
    TypeError naming the key. Writing into it after construction is outside
    that promise. The free parameter is the last survival entry (``free_param``).
    """

    kind: ModelKind
    survival: SurvivalVector
    activation: Optional[ActivationVector] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        if not isinstance(self.diagnostics, dict):
            raise TypeError(f"diagnostics must be a dict, got {type(self.diagnostics).__name__}")
        _check_loadable(self.diagnostics)
        if not isinstance(self.survival, SurvivalVector):
            object.__setattr__(self, "survival", SurvivalVector(self.survival))
        plain = self.kind is not ModelKind.MODEL2
        if self.activation is None and not plain:
            raise ValueError("a MODEL2 set needs activation rates")
        if not isinstance(self.activation, ActivationVector):
            object.__setattr__(self, "activation", ActivationVector(
                np.ones(len(self.survival)) if self.activation is None else self.activation))
        if plain and np.any(self.activation.rates != 1.0):
            raise ValueError(f"a {self.kind.value} set's activation rates are all 1")
        if len(self.activation) != len(self.survival):
            raise ValueError("survival and activation vectors differ in length")

    @property
    def free_param(self) -> float:
        """The free last-group survival probability."""
        return float(self.survival.probs[-1])


def _check_loadable(value, key=None) -> None:
    """TypeError naming the key of a diagnostics entry that ``ModelParams`` refuses."""
    if isinstance(value, (dict, list)):
        pairs = value.items() if isinstance(value, dict) else ((key, item) for item in value)
        for inner, item in pairs:
            if not isinstance(inner, str):
                raise TypeError(f"diagnostics key {inner!r} is not a str")
            _check_loadable(item, inner)
    elif value is not None and not isinstance(value, (int, float, str)):
        raise TypeError(f"diagnostics entry {key!r} has type {type(value).__name__}, "
                        "which a parameter file cannot load back equal")


class Classification(Enum):
    MONOTONE_NON_INCREASING = "monotone_non_increasing"
    NON_MONOTONE = "non_monotone"


def proportions_of(dist) -> np.ndarray:
    """Extract a proportion array from an AgeDistribution or a raw vector,
    as it is, for the metrics, ``classify`` and the simulator.

    Raw vectors may contain zeros, which a full AgeDistribution may not.
    The solvers take theirs through ``as_distribution`` instead.
    """
    if isinstance(dist, AgeDistribution):
        return dist.proportions
    return _as_vector(dist, "proportions")


def check_groups(props: np.ndarray, labels: tuple) -> None:
    """Refuse ``props`` unless no group is empty and there are the first,
    last and at least one intermediate group that every solver needs:
    EmptyPopulation (every group empty), InteriorZeroGroup naming the first
    empty group by its label and index, or TooFewGroups."""
    if not props.any():
        raise EmptyPopulation("every age group is empty")
    if (idx := _first(props == 0)) is not None:
        raise InteriorZeroGroup(f"group {labels[idx]!r} (index {idx}) is empty")
    if props.size < 3:
        raise TooFewGroups(f"need at least 3 age groups, got {props.size}")


def check_integer(name: str, value) -> int:
    """``value`` as a Python int if it is an integer but not a bool; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """``seed`` as a Python int if it is an integer in [0, 2**64), as a seeded stream takes."""
    if not 0 <= (seed := check_integer("seed", seed)) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


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


def rises(values: np.ndarray) -> np.ndarray:
    """The indices 1..n-2 of ``values`` whose entry is larger than the one
    before it: where the first n-1 groups fail to be non-increasing. The
    last group is unconstrained because its survival probability is free."""
    return np.flatnonzero(values[1:-1] > values[:-2]) + 1


def classify(dist) -> Classification:
    """Monotone check over groups 1..n-1 (``rises``)."""
    if rises(proportions_of(dist)).size:
        return Classification.NON_MONOTONE
    return Classification.MONOTONE_NON_INCREASING


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


def stationary_profiles(probs: np.ndarray, rates: np.ndarray, out: np.ndarray,
                        ratios: Optional[np.ndarray] = None) -> np.ndarray:
    """Stationary profiles of (m, n) survival and activation rows, written
    into ``out`` (m, n) and returned.

    The active mass alpha_i N_i obeys m_{i+1} = p_i m_i over the
    intermediate groups, so row by row N_1 = 1,
    N_{i+1} = (alpha_i p_i / alpha_{i+1}) N_i and
    N_n = alpha_{n-1} p_{n-1} N_{n-1} / (alpha_n (1 - p_n)), normalized.
    Rates of 1 give the plain process bit for bit. The group-to-group
    ratios are formed in ``ratios``, a contiguous (m, n-2) scratch (made
    when absent): dividing in place into a column slice of ``out`` is
    slower.
    """
    n = probs.shape[1]
    if ratios is None:
        ratios = np.empty((probs.shape[0], n - 2))
    inner = out[:, 1 : n - 1]
    out[:, 0] = 1.0
    np.multiply(rates[:, : n - 2], probs[:, : n - 2], out=ratios)
    np.divide(ratios, rates[:, 1 : n - 1], out=ratios)
    np.cumprod(ratios, axis=1, out=inner)
    out[:, n - 1] = (
        rates[:, n - 2] * probs[:, n - 2] * out[:, n - 2]
        / (rates[:, n - 1] * (1.0 - probs[:, n - 1]))
    )
    return np.divide(out, out.sum(axis=1, keepdims=True), out=out)


def stationary_distribution(p, alpha=None, *, labels=None) -> AgeDistribution:
    """Stationary age distribution of either process (``alpha`` None: the
    plain one): the ``stationary_profiles`` recursion, checked against every
    stationarity equation (in O(n)) by ``stationarity_residual``. ``labels``
    go by keyword only, so that labels are never read as rates.

    Raises:
        DegenerateLastGroup: the last survival probability is >= 1.
        InteriorZeroGroup: a survival probability before the last is 0, or
            a share of the profile underflows to 0 (so named).
        ResidualCheckFailed: the largest residual reaches ``RESIDUAL_TOLERANCE``.
    """
    probs = SurvivalVector(p).probs
    n = probs.size
    rates = np.ones(n) if alpha is None else ActivationVector(alpha).rates
    if rates.size != n:
        raise ValueError(f"survival has {n} entries, activation has {rates.size}")
    if (idx := _first(probs[: n - 1] == 0.0)) is not None:
        raise InteriorZeroGroup(f"survival of 0 in group {idx} empties every later group")

    dist = stationary_profiles(probs[None], rates[None], np.empty((1, n)))[0]
    worst = float(np.abs(stationarity_residual(probs, rates, dist)).max())
    if worst >= RESIDUAL_TOLERANCE:
        raise ResidualCheckFailed(
            f"stationarity residual {worst:g} exceeds {RESIDUAL_TOLERANCE:g}"
        )
    labels = labels if labels is not None else default_labels(n)
    try:
        return AgeDistribution(labels, dist)
    except InteriorZeroGroup:
        # No survival before the last is 0, so an empty share underflowed.
        idx = int(np.flatnonzero(dist == 0)[0])
        raise InteriorZeroGroup(f"group {str(labels[idx])!r} (index {idx}) underflows to 0 "
                                "in the stationary profile") from None


def stationarity_residual(probs, rates, profile) -> np.ndarray:
    """(E - I) profile in O(n), E the expected one-step update. With active
    mass y = alpha N and advances m = p y, row 0 is
    sum_{j>=1} (y_j - m_j) - m_0 (deaths replaced into the first group
    against its advances), row i is m_{i-1} - y_i, and the last row adds
    back m_{n-1}, the survivors the last group keeps."""
    active = rates * profile
    advanced = probs * active
    residual = np.empty_like(active)
    residual[0] = np.sum(active[1:] - advanced[1:]) - advanced[0]
    np.subtract(advanced[:-1], active[1:], out=residual[1:])
    residual[-1] += advanced[-1]
    return residual


def step_thresholds(params: ModelParams) -> tuple:
    """One agent's step as thresholds on a uniform draw, (alpha * p, alpha):
    it advances below alpha * p, dies below alpha and stays from alpha up. A
    plain set carries rates of ones: 1 * p is p, and no uniform reaches 1."""
    rates = params.activation.rates
    return rates * params.survival.probs, rates
