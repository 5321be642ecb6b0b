"""The fixed Gauss-Legendre band rule against adaptive-quadrature oracles:
psi(0), the normalizing constant, the wavelet variance and the covariance
kernel entries, for the bump and the oracles' Meyer window, and psi(0) and
the normalizing constant over bump widths whose steep edges need more than
the first rule, and the underflow guard for bumps too narrow for double
precision."""

import numpy as np
import pytest

from mfbm import ModelSpec, k_const, theoretical_variance
from mfbm.errors import NumericError
from mfbm.inference import _sigma_entry
from mfbm.wavelet import BandWavelet

from oracles import k_const_quad, meyer_shifted, psi0_quad, sigma_entry_quad, theoretical_variance_quad

HURSTS = (0.05, 0.2, 0.5, 0.7, 0.95)
RATIOS = np.linspace(1.0, 1.9, 7)
TOL = 1e-10

# three regimes with changes at 0.05 and 0.5; the bump band [5/a, 10/a]
# straddles a change at a = 14 and a = 150, the Meyer band [pi/a, 2 pi/a] at a = 9
FIG3 = ModelSpec(hurst=(0.9, 0.2, 0.5), sigma=(5.0, 5.0, 5.0), omega=(0.05, 0.5))


@pytest.fixture(params=["bump", "meyer-shifted"], scope="module")
def wavelet(request):
    return BandWavelet.bump(5.0, 10.0) if request.param == "bump" else meyer_shifted()


def test_psi0(wavelet):
    assert wavelet.psi0 == pytest.approx(psi0_quad(wavelet), rel=TOL)


@pytest.mark.parametrize("hurst", HURSTS)
def test_k_const(wavelet, hurst):
    assert k_const(wavelet, hurst) == pytest.approx(k_const_quad(wavelet, hurst), rel=TOL)


@pytest.mark.parametrize("a", [0.3, 1.0, 9.0, 14.0, 60.0, 150.0])
def test_theoretical_variance(wavelet, a):
    got = theoretical_variance(FIG3, wavelet, a)
    assert got == pytest.approx(theoretical_variance_quad(FIG3, wavelet, a), rel=TOL)


@pytest.mark.parametrize("hurst", HURSTS)
def test_sigma_entries(wavelet, hurst):
    for g in (0.4, 1.0, 2.5):
        for rho in RATIOS:
            got = _sigma_entry(hurst, g, g * rho, wavelet)
            want = sigma_entry_quad(hurst, g, g * rho, wavelet)
            assert got == pytest.approx(want, rel=TOL), (g, rho)


@pytest.mark.parametrize("width", np.arange(1, 25) * 0.5)
def test_wide_bumps(width):
    """Widths past about 7 fail the first 4-vs-2-panel check; the doubled rules
    still give the oracle values."""
    w = BandWavelet.bump(1.0, 1.0 + width)
    assert w.psi0 == pytest.approx(psi0_quad(w), rel=5e-8)
    for hurst in (0.05, 0.5, 0.95):
        assert k_const(w, hurst) == pytest.approx(k_const_quad(w, hurst), rel=5e-8)


@pytest.mark.parametrize("width", [0.1, 0.05])
def test_narrow_bumps_raise(width):
    """Below a width of about 0.1 the squared bump profile underflows on the
    whole band: psi(0) and the normalizing constant raise instead of
    returning 0."""
    w = BandWavelet.bump(1.0, 1.0 + width)
    with pytest.raises(NumericError, match="psi"):
        w.psi0
    with pytest.raises(NumericError, match="normalizing constant"):
        k_const(w, 0.5)
