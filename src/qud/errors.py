"""Exception types shared across the toolkit."""


class QudError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QudError, ValueError):
    """A constructed value failed one of its invariants."""


class NotHermitian(ValidationError):
    pass


class NotPositive(ValidationError):
    pass


class TraceNotOne(ValidationError):
    pass


class DimensionTooSmall(ValidationError):
    pass


class NotOrthonormal(ValidationError):
    pass


class NotDoublyStochastic(ValidationError):
    pass


class NotNormalized(ValidationError):
    pass


class NotFinite(ValidationError):
    pass


class DimensionMismatch(QudError, ValueError):
    """Two objects that must share a dimension do not."""


class AlphaOutOfRange(QudError, ValueError):
    """An order parameter lies outside the legal range for its kind."""


class NotGaugeable(QudError, ValueError):
    """The divergence kind has no distance gauge."""


class MissingOverlap(QudError, ValueError):
    """The relation needs an overlap matrix that was not supplied."""


class UnsupportedDim(QudError, ValueError):
    """The requested dimension is outside the supported set."""


class KindMismatch(QudError, ValueError):
    """Shot records of the wrong kind were passed to an estimator."""


class EmptyCounts(QudError, ValueError):
    """A shot record with zero total counts cannot be normalized."""


class SchemaError(QudError, ValueError):
    """An input file failed schema validation; message names file and field."""
