"""Exception types shared across the package."""


class AvdoaError(Exception):
    """Base class for all package-specific errors."""


# geometry

class BehindCamera(AvdoaError):
    """A point with z <= 0 in camera coordinates cannot be projected."""


class DegenerateGeometry(AvdoaError):
    """Azimuth is undefined, e.g. target coincides with the array origin."""


# audio

class SampleRateMismatch(AvdoaError):
    """Signals with different sample rates cannot be combined."""


class SilentSignal(AvdoaError):
    """An operation needs non-zero signal power."""


class TooShort(AvdoaError):
    """The signal is shorter than the requested frame or duration."""


class AllZeroSpectrum(AvdoaError):
    """Every cross-spectrum bin vanished; PHAT weighting is undefined."""


class LagRangeTooSmall(AvdoaError):
    """The GCC lag range does not cover the array's maximum TDOA."""


class BadWav(AvdoaError):
    """Unreadable or unsupported WAV content."""


# neural network

class ShapeMismatch(AvdoaError):
    """Tensor shapes are inconsistent with the layer or model."""


class BatchTooSmall(AvdoaError):
    """Batch statistics need at least two samples in training mode."""


class NaNLoss(AvdoaError):
    """Training produced a non-finite loss or parameter."""


class BadMagic(AvdoaError):
    """A binary file does not start with the expected magic bytes."""


class VersionMismatch(AvdoaError):
    """A binary file has an unsupported format version."""


class TruncatedFile(AvdoaError):
    """A binary file ends before the data its header describes."""


# evaluation / datasets

class CardinalityMismatch(AvdoaError):
    """Prediction and ground-truth sets differ in size for a frame."""


class EmptyDataset(AvdoaError):
    """The operation needs at least one frame or sample."""


class ConfigError(AvdoaError):
    """Invalid configuration value or malformed config file."""
