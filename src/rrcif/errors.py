"""Exception types raised across the package."""


class RrcifError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RrcifError):
    """A file could not be parsed; the message names the offending line/field."""


class ValidationError(RrcifError):
    """Parsed data violates a domain invariant (non-finite sample, bad range, ...)."""


class UnsupportedRateError(RrcifError):
    """Sampling rate outside the range the processing stage supports."""


class InsufficientSignalError(RrcifError):
    """Too few detectable beats to proceed."""


class EmptyFusionError(RrcifError):
    """Fusion was requested with zero input estimates."""
