"""Exception types shared across the toolkit.

Every check on a value the caller supplies raises ValidationError, and every
check on an input file raises SchemaError; each message names the broken
invariant.
"""


class QudError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QudError, ValueError):
    """An input value broke one of its invariants."""


class SchemaError(QudError, ValueError):
    """An input file failed schema validation; message names file and field."""
