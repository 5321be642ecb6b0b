"""Simulate paths and read the Hurst exponents off the wavelet spectrum.

The log of the empirical wavelet variance at frequency f is affine in log f
with slope -(2H+1) inside one spectral regime. For a single-regime path the
whole spectrum is one line; with a change frequency the spectrum bends, and
the bend sits near omega_1 / alpha. A slope read off one third of one
path's spectrum scatters widely (sd about 0.3 in H at n = 3000), so the
two-regime estimates are summarized over DRAWS independent paths.

The low-frequency estimate is biased as well as noisy: over streams 0..119
of seed 1 it averages 0.099 (sd 0.303, standard error 0.028) for a true
0.2, and the slope of the mean spectrum of those 120 paths gives the same
0.099. The expected spectrum itself bends off the power law at the lowest
frequencies here (f 0.08 to 0.26, scales up to 12.5 on a 90-unit path).

Run:  python demos/02_simulate_and_spectrum.py [out_prefix]
"""

import sys
import warnings

import numpy as np

from mfbm import BandWavelet, ModelSpec, PathSampler, build_grid, spectrum

warnings.simplefilter("ignore")

w = BandWavelet.bump(5.0, 10.0)
n, delta = 3000, 0.03
DRAWS = 20

print("single regime, H = 0.6")
single = PathSampler(ModelSpec.fbm(0.6, 1.0), n, delta).draw(seed=1)
grid = build_grid(n, delta, 0.1, 16.0, w)
sp = spectrum(single, w, grid)
slope = np.polyfit(grid.log_f, sp.y, 1)[0]
print(f"  global slope {slope:+.3f}  ->  H estimate {-(slope + 1) / 2:.3f} (true 0.6)")

print(f"two regimes, H = (0.2, 0.7), change at omega_1 = 5; {DRAWS} paths")
model = ModelSpec(hurst=(0.2, 0.7), sigma=(np.sqrt(10), np.sqrt(5)), omega=(5.0,))
sampler = PathSampler(model, n, delta)
grid2 = build_grid(n, delta, 0.8, 16.0, w)
# slopes on the outer thirds of the grid, well away from the transition zone
third = grid2.a_n // 3
spectra = [spectrum(sampler.draw(seed=1, stream=s), w, grid2) for s in range(DRAWS)]
sp2 = spectra[0]
h_lo = [-(np.polyfit(grid2.log_f[:third], s.y[:third], 1)[0] + 1) / 2 for s in spectra]
h_hi = [-(np.polyfit(grid2.log_f[-third:], s.y[-third:], 1)[0] + 1) / 2 for s in spectra]
for band, h, true in (("low", h_lo, 0.2), ("high", h_hi, 0.7)):
    print(f"  {band + '-frequency H':<16} {np.mean(h):.3f} +- {np.std(h, ddof=1):.3f} (true {true})")
print(f"  bend expected near log f = {np.log(5.0 / w.alpha):+.3f}")

if len(sys.argv) > 1:
    prefix = sys.argv[1]
    for name, g, s in (("single", grid, sp), ("double", grid2, sp2)):
        out = f"{prefix}_{name}.csv"
        np.savetxt(out, np.column_stack([g.f, g.log_f, s.y, s.counts]),
                   delimiter=",", header="f,log_f,Y,count", comments="")
        print(f"wrote {out}")
