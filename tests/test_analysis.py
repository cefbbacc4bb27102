"""Checks of the smooth-weight summation and transform-decay probes."""
import dataclasses
import math

import numpy as np
import pytest

import vdc.analysis as analysis
from vdc.analysis import derivative_bounds, fourier_decay_probe, poisson_probe
from vdc.errors import Budget, BudgetExceeded, InputError, PreconditionError


def bump(t):
    u = t / 2.0
    return math.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1 else 0.0


def brute_double_sum(B, a):
    """Direct evaluation of the strided double sum for n = 1."""
    H = 2 * B - 1
    tot = 0.0
    for x in range(-H, H + 1):
        inner = 0.0
        y = -((H + x) // a)
        while x + a * y <= H:
            inner += bump((x + a * y) / B)
            y += 1
        tot += bump(x / B) * inner
    return tot


def test_derivative_bounds_start_at_peak():
    b = derivative_bounds(4)
    assert abs(b[0] - math.exp(-1)) < 1e-12
    assert b[1] > 0.2
    assert b[2] > b[1]
    assert len(b) == 5


def test_lhs_matches_brute_force():
    for B, a in [(4, 1), (4, 2), (6, 3), (8, 5)]:
        pr = poisson_probe("smooth", B, a, 2)
        bf = brute_double_sum(B, a)
        assert abs(pr.lhs - bf) <= 1e-12 * abs(bf), (B, a)
        assert pr.within


def test_unit_stride_is_exact():
    # a = 1 makes the inner sum independent of the outer point, so the
    # main term reproduces the double sum to machine precision
    for B in (1, 16, 256):
        pr = poisson_probe("smooth", B, 1, 4)
        assert abs(pr.error) <= 1e-12 * pr.main, B


def test_two_dimensional_case_separates():
    p1 = poisson_probe("smooth", 8, 2, 2, n=1)
    p2 = poisson_probe("smooth", 8, 2, 2, n=2)
    assert abs(p2.lhs - p1.lhs**2) <= 1e-9 * abs(p2.lhs)
    assert abs(p2.main - p1.main**2) <= 1e-9 * abs(p2.main)
    assert abs(p2.d0 - math.exp(-2)) < 1e-12


def test_error_stays_below_prediction_on_grid():
    for k in (2, 4):
        for a in (2, 4, 8, 16):
            pr = poisson_probe("smooth", 256, a, k)
            assert pr.within, (k, a)
            assert abs(pr.error) <= pr.predicted


def test_prediction_scales_like_stride_power():
    # with n = 1 the predicted bound scales as a^(k-1); the measured
    # error sits at rounding level (1e-11 and below), far beneath it
    for k in (2, 4):
        preds, errs = [], []
        for a in (2, 4, 8, 16):
            pr = poisson_probe("smooth", 256, a, k)
            preds.append(pr.predicted)
            errs.append(abs(pr.error))
        la = np.log([2.0, 4.0, 8.0, 16.0])
        slope = np.polyfit(la, np.log(preds), 1)[0]
        assert abs(slope - (k - 1)) < 0.5, (k, slope)
        assert max(errs) < 1e-9


def test_poisson_probe_validation():
    for bad in [dict(B=0, a=1, k=2), dict(B=4, a=0, k=2),
                dict(B=4, a=5, k=2), dict(B=4, a=2, k=-1),
                dict(B=4, a=2, k=2, n=3)]:
        with pytest.raises(InputError):
            poisson_probe("smooth", **bad)
    with pytest.raises(InputError):
        poisson_probe("hat", 4, 2, 2)


def test_transform_magnitudes_match_quadrature_oracle():
    rep = fourier_decay_probe("smooth", 2, range(1, 65))
    assert rep.max_imag <= 1e-10
    assert not rep.warnings
    assert all(r.magnitude >= 0 for r in rep.rows)
    t = np.linspace(-2, 2, 2_000_001)
    u = t / 2
    inside = np.abs(u) < 1
    f = np.where(inside, np.exp(-1.0 / np.where(inside, 1 - u * u, 1)), 0.0)
    for xi in (1, 3, 10):
        ref = np.trapezoid(f * np.cos(2 * np.pi * xi * t), t)
        got = next(r for r in rep.rows if r.xi == xi).magnitude
        assert abs(abs(ref) - got) < 1e-9, xi


def test_zeroth_order_products_bounded_by_l1_mass():
    rep = fourier_decay_probe("smooth", 0, range(1, 33))
    assert rep.l1 == pytest.approx(0.887987632, abs=1e-6)
    for r in rep.rows:
        assert r.product <= rep.l1 + 1e-12


def test_decay_grid_rejects_small_frequencies():
    with pytest.raises(InputError):
        fourier_decay_probe("smooth", 2, [0, 1, 2])


# -- slow-path oracles ---------------------------------------------------------
# Direct copies of the straightforward arithmetic the probes replace: a masked
# profile on every grid, a fresh linspace and profile for every quadrature
# level, and np.mod residues with a gathered class-sum lookup.  The probes
# must agree with them bit for bit, budget charges included.


def masked_profile(t):
    u = np.asarray(t, dtype=np.float64) / 2.0
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


def slow_bounds(orders):
    h = 1.0 / 256
    m = np.arange(-1024 - orders, 1025 + orders)
    g = masked_profile(m * (h / 2.0))
    bounds = [float(np.max(np.abs(g)))]
    for j in range(1, orders + 1):
        acc = np.zeros(g.size - 2 * j)
        for i in range(j + 1):
            lo = j + (j - 2 * i)
            acc += (-1.0) ** i * math.comb(j, i) * g[lo: lo + acc.size]
        bounds.append(float(np.max(np.abs(acc)) / h**j))
    return bounds


def slow_poisson(B, a, k, n, budget):
    H = 2 * B - 1
    budget.charge(n * (2 * H + 1) + (k + 1) * (2048 + 2 * k), "probe grids")
    mvals = np.arange(-H, H + 1, dtype=np.int64)
    vals = masked_profile(mvals / float(B))
    s1_axis = float(np.sum(vals))
    residues = np.mod(mvals, a)
    class_sums = np.bincount(residues, weights=vals, minlength=a)
    lhs = float(np.sum(vals * class_sums[residues])) ** n
    main = float(a) ** (-n) * s1_axis ** (2 * n)
    bounds = slow_bounds(k)
    d0 = analysis._partial_bound(bounds, n, 0)
    dk = analysis._partial_bound(bounds, n, k)
    predicted = (
        d0 * dk * float(B) ** (2 * n - k) * float(a) ** (k - n)
        + dk * dk * float(B) ** (2 * (n - k)) * float(a) ** (k - n)
    )
    return analysis.PoissonProbe(
        weight="smooth", n=n, B=B, a=a, k=k, lhs=lhs, main=main,
        error=lhs - main, predicted=predicted, d0=d0, dk=dk,
        deriv_bounds=bounds, within=abs(lhs - main) <= predicted,
    )


def slow_simpson(fvals, h):
    acc = fvals[0] + fvals[-1] + 4.0 * np.sum(fvals[1:-1:2]) \
        + 2.0 * np.sum(fvals[2:-1:2])
    return float(acc * h / 3.0)


def slow_transform(xi, budget):
    scale = max(1.0, abs(xi) / 16.0)
    panels = 4096 * (1 << max(0, math.ceil(math.log2(scale))))

    def level(N):
        budget.charge(N + 1, "quadrature points")
        t = np.linspace(-2.0, 2.0, N + 1)
        f = masked_profile(t)
        ang = 2.0 * math.pi * xi * t
        h = 4.0 / N
        return slow_simpson(f * np.cos(ang), h), slow_simpson(f * np.sin(ang), h)

    prev = level(panels)
    for _ in range(2):
        panels *= 2
        cur = level(panels)
        tol = max(analysis.QUAD_ATOL, analysis.QUAD_RTOL * abs(cur[0]))
        delta = max(abs(cur[0] - prev[0]), abs(cur[1] - prev[1]))
        if delta <= tol:
            return ((16.0 * cur[0] - prev[0]) / 15.0,
                    -(16.0 * cur[1] - prev[1]) / 15.0, panels)
        prev = cur
    raise PreconditionError(
        "quadrature did not converge after two refinement levels",
        xi=xi, last_delta=delta,
    )


def slow_decay(k, xi_grid, budget):
    rows = []
    for xi in (float(x) for x in xi_grid):
        re, im, panels = slow_transform(xi, budget)
        mag = math.hypot(re, im)
        rows.append(analysis.FourierRow(
            xi=xi, magnitude=mag, product=mag * abs(xi) ** k, imag=im,
            panels=panels))
    l1 = slow_transform(0.0, budget)[0]
    max_imag = max(abs(r.imag) for r in rows)
    return analysis.FourierDecayReport(
        weight="smooth", k=k, rows=rows,
        max_product=max(r.product for r in rows), l1=abs(l1),
        max_imag=max_imag,
        warnings=[] if max_imag <= 1e-10 else [
            "imaginary part of the transform exceeds 1e-10; the quadrature "
            "grid is not resolving the integrand"],
    )


def test_derivative_bounds_match_masked_profile_bit_for_bit():
    for k in range(analysis.MAX_DERIV_ORDER + 1):
        assert derivative_bounds(k) == slow_bounds(k), k


@pytest.mark.parametrize("B,a", [(1, 1), (5, 1), (5, 3), (999, 10),
                                 (999, 999), (4097, 64), (4097, 4097)])
@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_poisson_probe_matches_slow_path(B, a, k, n):
    fast, slow = Budget(), Budget()
    got = poisson_probe("smooth", B, a, k, n=n, budget=fast)
    assert dataclasses.asdict(got) == dataclasses.asdict(
        slow_poisson(B, a, k, n, slow))
    assert fast.used == slow.used


DECAY_GRIDS = [
    [1, 2, 4],
    [1, 3, 5, 17, 33, 100, 1000],
    [-1, -2.5, 7.25, 17, -33, 100.3, -129.5],
    [1000, 1, -17, 3],  # coarser levels after the grid was refined
    [2049, 1, 4097],
]


@pytest.mark.parametrize("xi_grid", DECAY_GRIDS, ids=str)
@pytest.mark.parametrize("k", [0, 3])
def test_fourier_decay_matches_slow_path(xi_grid, k):
    fast, slow = Budget(), Budget()
    got = fourier_decay_probe("smooth", k, xi_grid, fast)
    assert dataclasses.asdict(got) == dataclasses.asdict(
        slow_decay(k, xi_grid, slow))
    assert fast.used == slow.used


def test_third_level_and_refusal_match_slow_path(monkeypatch):
    """Tolerances too tight for two levels: at rtol 1e-12 the rows for
    xi = 6..8 converge only at 4 * QUAD_BASE_PANELS, and at rtol 1e-13
    xi = 8 refuses; both exactly as in the slow path."""
    monkeypatch.setattr(analysis, "QUAD_ATOL", 0.0)
    monkeypatch.setattr(analysis, "QUAD_RTOL", 1e-12)
    grid = [1, 2, 3, 5, 8, 6]
    fast, slow = Budget(), Budget()
    got = fourier_decay_probe("smooth", 2, grid, fast)
    assert dataclasses.asdict(got) == dataclasses.asdict(
        slow_decay(2, grid, slow))
    assert fast.used == slow.used
    panels = [r.panels for r in got.rows]
    assert panels == [2 * 4096] * 4 + [4 * 4096] * 2

    monkeypatch.setattr(analysis, "QUAD_RTOL", 1e-13)
    fast, slow = Budget(), Budget()
    with pytest.raises(PreconditionError) as err:
        fourier_decay_probe("smooth", 2, [1, 2, 3, 5, 8], fast)
    with pytest.raises(PreconditionError) as ref:
        slow_decay(2, [1, 2, 3, 5, 8], slow)
    assert err.value.to_json() == ref.value.to_json()
    assert err.value.details["xi"] == 8.0
    assert err.value.details["last_delta"] > 0
    assert fast.used == slow.used


@pytest.mark.parametrize("limit", [1, 4097, 4098, 12289, 12290, 24580, 24581])
def test_budget_refusals_match_slow_path(limit):
    """Every level is charged before it is evaluated, in the slow path's
    order, so a budget runs out at the same charge with the same details."""
    fast, slow = Budget(limit), Budget(limit)
    with pytest.raises(BudgetExceeded) as err:
        fourier_decay_probe("smooth", 1, [1, 2], fast)
    with pytest.raises(BudgetExceeded) as ref:
        slow_decay(1, [1, 2], slow)
    assert err.value.to_json() == ref.value.to_json()
    assert fast.used == slow.used
