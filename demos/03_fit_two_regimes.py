"""Full identification run on one two-regime path.

The order K is selected recursively: fit K = 0, test the weighted distance
between the refine-point spectrum values and their generalized-least-squares
line against the chi-square law; on rejection move to K = 1, and so on.
For a path with a genuine change the K = 0 statistic lands far in the tail
and K = 1 is accepted with sensible parameter estimates.

Run:  python demos/03_fit_two_regimes.py
"""

import warnings

import numpy as np

from mfbm import BandWavelet, ModelSpec, PathSampler, build_grid, fit_fixed_k, spectrum

warnings.simplefilter("ignore")

model = ModelSpec(hurst=(0.2, 0.7), sigma=(np.sqrt(10.0), np.sqrt(5.0)), omega=(5.0,))
n, delta = 6000, 0.03
print(f"true model: H = {model.hurst}, sigma^2 = (10, 5), omega_1 = 5")
print(f"simulating {n} samples at step {delta} (one-time circulant embedding)...")
path = PathSampler(model, n, delta).draw(seed=20)

w = BandWavelet.bump(5.0, 10.0)
grid = build_grid(n, delta, 0.8, 16.0, w)
sp = spectrum(path, w, grid)
print(f"grid: {grid.a_n + 1} frequencies, transition length tau = {grid.tau_n}\n")

for k in (0, 1):
    fit = fit_fixed_k(sp, w, k)
    verdict = "accepted" if fit.accepted else "rejected"
    print(f"K = {k}: T = {fit.t_stat:8.2f}  dof = {fit.dof}  p = {fit.p_value:.4f}  -> {verdict}")
    for j, est in enumerate(fit.segments):
        print(f"    segment {j}: H = {est.hurst:.3f}  sigma^2 = {est.sigma2:.2f}")
    if fit.omegas.size:
        print(f"    change frequencies: {np.round(fit.omegas, 3)}")
    if fit.accepted:
        break
