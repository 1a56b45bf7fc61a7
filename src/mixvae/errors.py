"""Exception types shared across the package."""


class MixvaeError(Exception):
    """Base class for all package errors."""


class ShapeError(MixvaeError):
    """Operand shapes are incompatible. Carries both shapes in the message."""


class NumericError(MixvaeError):
    """A computation produced or received non-finite values."""


class StateError(MixvaeError):
    """An operation was called in an invalid state (e.g. empty buffer)."""


class ConfigError(MixvaeError):
    """Invalid, unknown, or out-of-range configuration."""


class DataFormatError(MixvaeError):
    """A dataset file is malformed. Message names the offending field."""


class CheckpointError(MixvaeError):
    """A checkpoint file is malformed or incompatible."""


class StreamExhausted(MixvaeError):
    """The stream step index is at or past total_steps."""


class KernelBuildError(MixvaeError):
    """A compiled kernel could not be built. Names the command and its stderr."""
