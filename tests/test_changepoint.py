"""Frequency grid, criterion, exact segmentation, and refine-point placement."""

import itertools

import numpy as np
import pytest

from mfbm import build_grid, minimize_q, omega_hat, refine_points
from mfbm.changepoint import MIN_SEGMENT_POINTS
from mfbm.errors import AnalysisError, SegmentTooShortError

from oracles import asymptotic_refine_targets, criterion_q


def exhaustive_min(y, grid, k, min_points=MIN_SEGMENT_POINTS):
    """Brute-force minimum of the criterion over all admissible breakpoints.

    Returns (cost, t) or (None, None) when nothing is admissible. Candidate
    segments shorter than tau_n + min_points are excluded, matching the
    minimizer's rule.
    """
    end = grid.a_n + grid.tau_n
    gap = grid.tau_n + min_points
    x = grid.log_f

    def seg_cost(lo, hi):
        idx = np.arange(lo + 1, hi - grid.tau_n + 1)
        if idx.size < min_points:
            return np.inf
        slope, icept = np.polyfit(x[idx], y[idx], 1)
        resid = y[idx] - slope * x[idx] - icept
        return float(resid @ resid)

    best_cost, best_t = np.inf, None
    for interior in itertools.combinations(range(1, end), k):
        t = (0,) + interior + (end,)
        if any(b - a < gap for a, b in zip(t, t[1:])):
            continue
        cost = sum(seg_cost(a, b) for a, b in zip(t, t[1:]))
        if cost < best_cost - 1e-12 or (abs(cost - best_cost) <= 1e-12 and (best_t is None or t < best_t)):
            best_cost, best_t = cost, t
    if best_t is None or not np.isfinite(best_cost):
        return None, None
    return best_cost, best_t


@pytest.fixture(scope="module")
def std_grid(bump):
    return build_grid(6000, 0.03, 0.05, 20.0, bump)


def test_grid_matches_hand_arithmetic(std_grid):
    g = std_grid
    assert g.a_n == 180
    assert g.q == pytest.approx(800.0 ** (1.0 / 180.0), rel=1e-12)
    assert g.tau_n == 18
    assert g.f[0] == pytest.approx(0.05 / 10.0, rel=1e-12)
    assert g.f[-1] == pytest.approx(20.0 / 5.0, rel=1e-9)


def test_grid_tau_bracket(std_grid):
    g = std_grid
    ratios = g.f[g.tau_n :] / g.f[: -g.tau_n]
    assert np.all(ratios <= 2.0 + 1e-12)
    ratios_next = g.f[g.tau_n + 1 :] / g.f[: -(g.tau_n + 1)]
    assert np.all(ratios_next > 2.0)


def test_grid_warnings_and_errors(bump):
    with pytest.warns(UserWarning, match="f_min"):
        build_grid(600, 0.03, 0.05, 20.0, bump)
    with pytest.warns(UserWarning, match="f_max"):
        build_grid(60000, 0.03, 0.05, 300.0, bump)
    with pytest.raises(AnalysisError, match="too narrow"):
        build_grid(300, 0.03, 1.0, 1.3, bump)


def test_criterion_perfect_fit_is_zero(std_grid):
    g = std_grid
    line = (-2.2, 0.7)
    y = line[0] * g.log_f + line[1]
    assert criterion_q(y, g, (0, g.a_n + g.tau_n), [line]) == pytest.approx(0.0, abs=1e-20)


def test_criterion_constant_offset(std_grid):
    g = std_grid
    line = (-2.2, 0.7)
    y = line[0] * g.log_f + line[1]
    off = (line[0], line[1] + 0.5)
    n_used = g.a_n  # indices 1..a_n
    assert criterion_q(y, g, (0, g.a_n + g.tau_n), [off]) == pytest.approx(n_used * 0.25, rel=1e-12)


def test_criterion_matches_resummation(std_grid):
    g = std_grid
    rng = np.random.default_rng(3)
    y = rng.normal(size=g.a_n + 1)
    t = (0, 95, g.a_n + g.tau_n)
    lines = [(-1.5, 0.2), (-2.5, 1.0)]
    total = 0.0
    for j in range(2):
        idx = np.arange(t[j] + 1, t[j + 1] - g.tau_n + 1)
        resid = y[idx] - lines[j][0] * g.log_f[idx] - lines[j][1]
        total += resid @ resid
    assert criterion_q(y, g, t, lines) == pytest.approx(total, rel=1e-12)


def test_criterion_rejects_inadmissible(std_grid):
    g = std_grid
    y = np.zeros(g.a_n + 1)
    with pytest.raises(ValueError, match="shorter than the transition"):
        criterion_q(y, g, (0, 5, g.a_n + g.tau_n), [(0.0, 0.0), (0.0, 0.0)])
    with pytest.raises(ValueError, match="must start at 0"):
        criterion_q(y, g, (1, g.a_n + g.tau_n), [(0.0, 0.0)])


def test_minimize_k0_is_global_ols(std_grid):
    g = std_grid
    rng = np.random.default_rng(4)
    y = rng.normal(size=g.a_n + 1)
    seg = minimize_q(y, g, 0)
    idx = np.arange(1, g.a_n + 1)
    slope, icept = np.polyfit(g.log_f[idx], y[idx], 1)
    resid = y[idx] - slope * g.log_f[idx] - icept
    assert seg.t == (0, g.a_n + g.tau_n)
    assert seg.cost == pytest.approx(float(resid @ resid), rel=1e-9)


def test_minimize_recovers_exact_piecewise_split(std_grid):
    """Two exact lines with junk in the transition zone: the split is found
    exactly, the criterion is zero there and positive anywhere else."""
    g = std_grid
    t_true = 90
    line0 = (-1.4, 0.3)
    line1 = (-2.4, 1.1)
    i = np.arange(g.a_n + 1)
    y = np.where(i <= t_true - g.tau_n, line0[0] * g.log_f + line0[1],
                 np.where(i > t_true, line1[0] * g.log_f + line1[1], 7.7))
    seg = minimize_q(y, g, 1)
    assert seg.t[1] == t_true
    # prefix-sum cancellation leaves ~1e-13 where the exact criterion is zero
    assert seg.cost == pytest.approx(0.0, abs=1e-9)
    cost_ref, t_ref = exhaustive_min(y, g, 1)
    assert t_ref[1] == t_true
    # every other admissible split pays a positive cost
    end = g.a_n + g.tau_n
    for t1 in range(g.tau_n + MIN_SEGMENT_POINTS, end - g.tau_n - MIN_SEGMENT_POINTS + 1):
        if t1 == t_true:
            continue
        q = criterion_q(y, g, (0, t1, end),
                        [line0, line1])
        assert q > 0.0


def test_minimize_matches_exhaustive_on_random_instances(bump):
    """At the default floor and at m + 1 = 6 regression points per segment."""
    rng = np.random.default_rng(12)
    for _ in range(6):
        a_n = int(rng.integers(30, 61))
        grid = build_grid(a_n * 100, 0.01, float(rng.uniform(0.05, 0.2)), 5.0, bump)
        y = rng.normal(size=grid.a_n + 1)
        for k, min_points in itertools.product((0, 1, 2), (MIN_SEGMENT_POINTS, 6)):
            ref_cost, ref_t = exhaustive_min(y, grid, k, min_points)
            if ref_cost is None:
                with pytest.raises(AnalysisError):
                    minimize_q(y, grid, k, min_points=min_points)
                continue
            seg = minimize_q(y, grid, k, min_points=min_points)
            assert seg.t == ref_t
            assert seg.cost == pytest.approx(ref_cost, rel=1e-9, abs=1e-12)


def test_minimize_cost_nonincreasing_in_k(std_grid):
    g = std_grid
    rng = np.random.default_rng(5)
    y = rng.normal(size=g.a_n + 1) + np.where(np.arange(g.a_n + 1) > 100, -1.0, 0.0)
    costs = [minimize_q(y, g, k).cost for k in (0, 1, 2)]
    assert costs[0] >= costs[1] >= costs[2]


def test_minimize_shift_invariance(std_grid):
    g = std_grid
    rng = np.random.default_rng(6)
    y = rng.normal(size=g.a_n + 1)
    seg = minimize_q(y, g, 1)
    seg_shift = minimize_q(y + 3.25, g, 1)
    assert seg.t == seg_shift.t
    assert seg_shift.cost == pytest.approx(seg.cost, rel=1e-9, abs=1e-9)


def test_minimize_respects_gap_constraint(std_grid):
    g = std_grid
    rng = np.random.default_rng(7)
    for _ in range(5):
        y = rng.normal(size=g.a_n + 1)
        seg = minimize_q(y, g, 2)
        assert all(b - a > g.tau_n for a, b in zip(seg.t, seg.t[1:]))


def test_omega_hat_endpoints_and_formula(std_grid):
    g = std_grid
    t = (0, 95, g.a_n + g.tau_n)
    om = omega_hat(g, t)
    assert om[0] == pytest.approx(g.alpha * g.f[95], rel=1e-12)
    # closed form in terms of the grid parameters
    direct = g.alpha * (g.f_min / g.beta) * (g.f_max * g.beta / (g.f_min * g.alpha)) ** (95.0 / g.a_n)
    assert om[0] == pytest.approx(direct, rel=1e-12)
    assert omega_hat(g, (0, g.a_n + g.tau_n)).size == 0


class _FakeGrid:
    """Just enough grid for the refine-point arithmetic."""

    def __init__(self, a_n, tau_n):
        self.a_n = a_n
        self.tau_n = tau_n


def test_refine_points_hand_examples():
    # t_j = 0, t_{j+1} = 96, tau = 12, m = 5 -> step floor(84/6) = 14
    pts = refine_points((0, 96), _FakeGrid(a_n=84, tau_n=12), 5)
    assert list(pts[0]) == [14, 28, 42, 56, 70]

    # interior breakpoint at 40, tau = 8, m = 3 -> step floor(32/4) = 8
    pts = refine_points((0, 40, 88), _FakeGrid(a_n=80, tau_n=8), 3)
    assert list(pts[0]) == [8, 16, 24]

    # final segment ends at a_n + tau_n = 48; the step counts the full gap 40
    pts = refine_points((0, 48), _FakeGrid(a_n=40, tau_n=8), 3)
    assert list(pts[0]) == [10, 20, 30]


def test_refine_points_too_short(std_grid):
    g = std_grid
    with pytest.raises(SegmentTooShortError):
        refine_points((0, g.tau_n + 4, g.a_n + g.tau_n), g, 5)
    with pytest.raises(ValueError, match="at least three"):
        refine_points((0, g.a_n + g.tau_n), g, 2)


def test_refine_targets_convergence(bump):
    """Realized refine frequencies approach their limits as the grid refines."""
    omega = (5.0,)
    f_min, f_max, m = 0.8, 16.0, 5
    targets = asymptotic_refine_targets(omega, f_min, f_max, bump.alpha, bump.beta, m)
    gaps = []
    for n, delta in ((6000, 0.03), (24000, 0.03)):
        grid = build_grid(n, delta, f_min, f_max, bump)
        t1 = int(np.argmin(np.abs(grid.f - omega[0] / bump.alpha)))
        pts = refine_points((0, t1, grid.a_n + grid.tau_n), grid, m)
        rel = [np.max(np.abs(grid.f[pts[j]] / targets[j] - 1.0)) for j in range(2)]
        gaps.append(max(rel))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 0.08
