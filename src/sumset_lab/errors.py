"""Exception types shared across the package."""


class SumsetError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidRangeError(SumsetError):
    """Interval constructor called with lower endpoint above the upper one."""


class ArityError(SumsetError):
    """Set too small (or empty) for the requested statistic or operation."""


class IntegerOverflowError(SumsetError):
    """A checked arithmetic step left the signed 64-bit range.

    All element arithmetic is range-checked so the library never returns a
    silently wrapped value.
    """


class HypothesisError(SumsetError):
    """Inputs violate the preconditions of a bound formula or construction."""


class UnsupportedClassError(SumsetError):
    """The sign class of the input set is outside the supported cases."""


class OracleRefusedError(SumsetError):
    """Naive enumeration would exceed its configured size cap."""


class SpaceTooLargeError(SumsetError):
    """Search space enumeration count exceeds the hard cap."""


class WorkerLostError(SumsetError):
    """A worker process died before returning its results, so the run is
    incomplete."""


class InternalInconsistencyError(SumsetError):
    """A construction invariant failed; indicates a bug, must never happen."""


class ParseError(SumsetError):
    """Set expression does not conform to the text grammar."""
