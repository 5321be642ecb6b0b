"""Multiscale fractional Brownian motion: simulation, wavelet log-variance
spectra, frequency change-point estimation and goodness-of-fit testing."""

from .changepoint import (
    FrequencyGrid,
    Segmentation,
    build_grid,
    minimize_q,
    omega_hat,
    refine_points,
)
from .errors import (
    AnalysisError,
    ConfigError,
    DegeneratePathError,
    MfbmError,
    NumericError,
    SegmentTooShortError,
    SimulationError,
)
from .inference import (
    FitResult,
    SegmentEstimate,
    chi2_cdf,
    chi2_upper_tail,
    fgls_estimate,
    fit_fixed_k,
    ols_estimate,
    select_k,
    sigma_matrix,
    test_statistic,
)
from .model import (
    ModelSpec,
    SampledPath,
    covariance,
    covariance_matrix,
    spectral_weight,
    variogram,
    variogram_asymptotes,
    variogram_constant,
)
from .simulate import PathSampler, uniform_stream
from .wavelet import (
    BandWavelet,
    WaveletSpectrum,
    k_const,
    spectrum,
    theoretical_variance,
)

__version__ = "0.1.0"
