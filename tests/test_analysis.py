"""Checks of the smooth-weight summation and transform-decay probes."""
import dataclasses
import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import vdc.analysis as analysis
from vdc.analysis import derivative_bounds, fourier_decay_probe, poisson_probe
from vdc.counting import smooth_profile
from vdc.errors import Budget, BudgetExceeded, InputError


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
    flagged = [r.xi for r in rep.rows if r.below_floor]
    assert all(x > 32 for x in flagged)
    assert len(rep.warnings) == (1 if flagged else 0)
    assert all(r.magnitude > 0 for r in rep.rows)
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
    with pytest.raises(InputError):
        fourier_decay_probe("smooth", 2, [1, math.inf])


# -- slow-path oracles ---------------------------------------------------------
# Direct copies of the straightforward arithmetic the probes replace: a masked
# profile on every grid and np.mod residues with a gathered class-sum lookup,
# which the probes must match bit for bit, budget charges included.  The
# decay table is checked against a 30-digit contour quadrature instead: its
# rows must lie within the table's own rounding floor of it.


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


@functools.cache
def mp_transform(xi):
    """What(|xi|) to 30 digits, integrating w1(t) exp(-2 pi i xi t) along
    -2 -> -1-i -> 1-i -> 2.  w1 is analytic off +-2 and tends to 0 there
    inside the sector the path leaves them by, so the path gives the
    real-line integral; on it exp(-2 pi xi |Im t|) damps the oscillation,
    so quad converges at every xi without cancelling O(1) terms."""
    with mpmath.workdps(30):
        x = mpmath.mpf(abs(xi))
        return mpmath.quad(
            lambda t: mpmath.exp(-1 / (1 - (t / 2) ** 2) - 2j * mpmath.pi * x * t),
            [-2, -1 - 1j, 1 - 1j, 2]).real


def slow_decay_charge(xi_grid):
    """M * (len + 1) quadrature points, M = N/2 + 1 with N the least power
    of two that puts every alias at least 128 from the grid."""
    N = 1
    while N / 4 < max(abs(x) for x in xi_grid) + 128:
        N *= 2
    return (N // 2 + 1) * (len(xi_grid) + 1)


def test_derivative_bounds_match_masked_profile_bit_for_bit():
    for k in range(analysis.MAX_DERIV_ORDER + 1):
        assert derivative_bounds(k) == slow_bounds(k), k


@pytest.mark.parametrize("B,a", [(1, 1), (5, 1), (5, 3), (999, 10),
                                 (999, 999), (4097, 64), (4097, 4097),
                                 (32769, 64), (98305, 1000), (98305, 1)])
@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_poisson_probe_matches_slow_path(B, a, k, n):
    """The last three grids span two and four profile blocks, and their
    4B - 1 offsets leave a tail of 3 and 219 past the last row of a."""
    fast, slow = Budget(), Budget()
    got = poisson_probe("smooth", B, a, k, n=n, budget=fast)
    assert dataclasses.asdict(got) == dataclasses.asdict(
        slow_poisson(B, a, k, n, slow))
    assert fast.used == slow.used


@pytest.mark.parametrize("a", [64, 1000])
def test_poisson_probe_peak_memory_is_one_axis(a):
    """The probe holds one axis of 4B - 1 float64 weights, and multiplies
    the class sums into it in place.  a = 1 is left out: its class sum is
    the full-length np.cumsum that fixes its sequential order, a second
    axis."""
    B = 2**18
    tracemalloc.start()
    try:
        poisson_probe("smooth", B, a, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (4 * B - 1) * 8


DECAY_GRIDS = [
    [1, 2, 4],
    [1, 3, 5, 17, 33, 100, 1000],
    [-1, -2.5, 7.25, 17, -33, 100.3, -129.5],
    [1000, 1, -17, 3],
    [2049, 1, 4097],
    [s * 2**i for i in range(13) for s in (1, -1)],
]


@pytest.mark.parametrize("xi_grid", DECAY_GRIDS, ids=str)
@pytest.mark.parametrize("k", [0, 3, 8])
def test_fourier_decay_matches_slow_path(xi_grid, k):
    """Every row above the rounding floor is within it of the contour
    quadrature, every row below it has |What| <= 2 floor and stays out of
    max_product, and every magnitude lies in (0, l1]."""
    budget = Budget()
    rep = fourier_decay_probe("smooth", k, xi_grid, budget)
    assert budget.used == slow_decay_charge(xi_grid)
    assert abs(rep.l1 - mp_transform(0.0)) <= rep.floor
    assert [r.xi for r in rep.rows] == [float(x) for x in xi_grid]
    for r in rep.rows:
        ref = abs(mp_transform(r.xi))
        if r.below_floor:
            assert r.magnitude == rep.floor and ref <= 2 * rep.floor, r
        else:
            assert abs(r.magnitude - ref) <= rep.floor, (r, ref)
        assert 0 < r.magnitude <= rep.l1
        assert r.product == r.magnitude * abs(r.xi) ** k
    above = [r.product for r in rep.rows if not r.below_floor]
    assert rep.max_product == (max(above) if above else None)
    flagged = [r.xi for r in rep.rows if r.below_floor]
    assert len(rep.warnings) == (1 if flagged else 0)
    assert all(f"{x:g}" in rep.warnings[0] for x in flagged)


@pytest.mark.parametrize("limit", [1, 4097, 4098, 12289, 12290, 24580, 24581])
def test_budget_refusals_match_slow_path(limit, monkeypatch):
    """The poisson command's two probes charge as the slow path does: the
    probe grids first, then the decay table's M * (len + 1) quadrature
    points in one charge, refused before the table samples w1.  These
    limits refuse in the probe (1 to 4098), in the table (12289, 12290)
    and in neither."""
    grid = [2**i for i in range(9)]
    sampled = []

    def spy(K, D):
        sampled.append((K, D))
        return smooth_profile(K, D)

    monkeypatch.setattr(analysis, "smooth_profile", spy)
    fast, slow = Budget(limit), Budget(limit)
    try:
        poisson_probe("smooth", 64, 4, 2, budget=fast)
        fourier_decay_probe("smooth", 2, grid, fast)
    except BudgetExceeded as err:
        got = err.to_json()
    else:
        got = None
    try:
        slow_poisson(64, 4, 2, 1, slow)
        slow.charge(slow_decay_charge(grid), "quadrature points")
    except BudgetExceeded as err:
        want = err.to_json()
    else:
        want = None
    assert got == want
    assert fast.used == slow.used
    assert (want is None) == (limit >= 24580)
    assert ((1024, 512) in sampled) == (want is None)  # the table's w1


def test_decay_refusal_precedes_allocation():
    """A table of N = 2^45 nodes would need 2^47 bytes per array; the
    charge refuses it first."""
    with pytest.raises(BudgetExceeded) as err:
        fourier_decay_probe("smooth", 0, [2.0**42])
    assert err.value.details["requested"] == 2 * (2**44 + 1)
