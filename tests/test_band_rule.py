"""The fixed Gauss-Legendre band rule against adaptive-quadrature oracles:
psi(0), the normalizing constant, the wavelet variance and the covariance
kernel entries of sigma_matrix, for the bump and the oracles' Meyer window;
psi(0), the normalizing constant and the covariance kernel over bump widths
whose steep edges need more than the first rule; the underflow guard for
bumps too narrow for double precision; and the one stacked evaluation per
covariance matrix, whatever its size, against the per-entry loop it
replaced."""

import numpy as np
import pytest

from mfbm import ModelSpec, k_const, sigma_matrix, theoretical_variance
from mfbm.errors import NumericError
from mfbm.wavelet import BandWavelet

from conftest import sigma_kernel
from oracles import (k_const_quad, meyer_shifted, psi0_quad, sigma_entry_quad, sigma_matrix_loop,
                     theoretical_variance_quad)

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
            got = sigma_kernel(hurst, g, g * rho, wavelet)
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


@pytest.mark.parametrize("width", [10.0, 12.0])
def test_wide_bump_sigma_matrix(width):
    """On bumps this wide some covariance kernels fail the first 4-vs-2-panel
    check, so the stacked rule doubles its panels while others have settled;
    every entry of the matrix, divided by its prefactor, still gives the
    oracle value."""
    w = BandWavelet.bump(1.0, 1.0 + width)
    hurst, g = 0.5, np.array([0.6, 1.0, 1.7, 3.0])
    pref = 2.0 / k_const(w, hurst) ** 2 / (1.0 - 2.0 * 0.1) * np.outer(g, g) ** (2.0 * hurst)
    got = sigma_matrix(hurst, g, w, 0.1) / pref
    for i, j in zip(*np.triu_indices(g.size)):
        assert got[i, j] == pytest.approx(sigma_entry_quad(hurst, g[i], g[j], w), rel=5e-8), (i, j)


@pytest.mark.parametrize("alpha, beta", [(5.0, 10.0), (1.0, 11.0)])
def test_sigma_matrix_matches_per_entry_loop(alpha, beta):
    """The stacked evaluation gives the per-entry loop's matrix, with the same
    exact zeros, up to the summation order of the rule's 256-term dot
    products; on the wide bump some rows settle only after the panels double."""
    w = BandWavelet.bump(alpha, beta)
    g = 0.6 * 1.3 ** np.arange(8)
    got, want = sigma_matrix(0.35, g, w, 0.1), sigma_matrix_loop(0.35, g, w, 0.1)
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_sigma_matrix_cost_does_not_grow_with_m(bump, monkeypatch):
    """The kernels of all live pairs are one stacked evaluation: a 9 x 9
    matrix asks for the profile as often as a 3 x 3 one."""
    calls = []
    profile_values = BandWavelet.profile_values
    monkeypatch.setattr(BandWavelet, "profile_values",
                        lambda w, xi: calls.append(1) or profile_values(w, xi))
    counts = []
    for m in (3, 9):
        calls.clear()
        sigma_matrix(0.4, 0.8 * 1.1 ** np.arange(m), bump, 0.1)
        counts.append(len(calls))
    assert counts[0] == counts[1]


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
