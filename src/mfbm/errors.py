"""Exception types shared across the package."""


class MfbmError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MfbmError):
    """Invalid run configuration or unusable input data."""


class SimulationError(MfbmError):
    """Gaussian synthesis failed (circulant embedding with a negative eigenvalue)."""


class NumericError(MfbmError):
    """A numerical integral or linear-algebra step could not reach its target accuracy."""


class AnalysisError(MfbmError):
    """Spectrum or segmentation cannot be computed for the given band/path."""


class DegeneratePathError(AnalysisError):
    """Path carries no usable signal (zero wavelet energy at some scale)."""


class SegmentTooShortError(AnalysisError):
    """A fitted segment is too short to place the requested regression points."""
