"""Exception types shared across the library."""


class AgedistError(Exception):
    """Base class for every library-specific error."""


class EmptyPopulation(AgedistError):
    """All age groups are empty; no distribution can be formed."""


class InteriorZeroGroup(AgedistError):
    """A group is empty (or its count underflowed to 0) while others are
    not; only ``normalize`` drops trailing ones. Solvers divide by groups."""


class TooFewGroups(AgedistError):
    """Fewer than three age groups remain; first, last and at least one
    intermediate group are required."""


class NotNormalized(AgedistError):
    """Proportions handed to the constructor do not sum to one."""


class IncomparableDistributions(AgedistError):
    """Two distributions differ in length or labelling and cannot be compared."""


class NotModel1Eligible(AgedistError):
    """The target is not monotone non-increasing, so the closed-form solver
    does not apply."""


class FreeParamOutOfRange(AgedistError):
    """An explicit last-group survival probability lies outside the feasible
    interval."""


class DegenerateLastGroup(AgedistError):
    """Last-group survival of 1 leaves the final group with no outflow and
    no steady state; ``model2.band``'s last term says when a last group needs it."""


class ActivationTooSmall(AgedistError):
    """An activation rate below the positive floor would divide by ~zero in
    the steady-state relations."""


class EmptyDataset(AgedistError):
    """A batch operation received no entries."""


class InvalidEntry(AgedistError, TypeError):
    """A batch entry is not an AgeDistribution, or not a (name,
    distribution) pair."""


class CsvFormatError(AgedistError):
    """Malformed CSV input; the message carries the offending line number."""


class ColumnMappingError(AgedistError):
    """The configured column names are absent from the CSV header."""


class SchemaError(AgedistError, ValueError):
    """A parameter file is not a JSON object, lacks a required field, or has
    an unknown schema, version or field value (a vector its type refuses)."""


class ResidualCheckFailed(AgedistError, RuntimeError):
    """A computed result failed its own consistency check (the stationarity
    residual of either process, or the simulator's constant population)."""
