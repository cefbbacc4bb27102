"""Numerical probes for two analytic facts the lattice machinery leans on.

1.  Averaging a smooth box weight over an arithmetic progression collapses
    the double lattice sum

        sum_x W(x/B) * sum_y W((x + a*y)/B)

    to a^(-n) * (sum_x W(x/B))^2 up to an error controlled by the weight's
    derivative bounds:

        |error| <= D_0 * D_k * B^(2n-k) * a^(k-n)  +  D_k^2 * B^(2(n-k)) * a^(k-n)

    for every derivative order k, where D_k is the sup over R^n of all
    order-k partials of W.  poisson_probe measures both sides, with the
    implied constants set to 1.

2.  The frequency transform of the smooth bump decays faster than any
    power: |What(xi)| <= D_k * |xi|^(-k).  fourier_decay_probe tabulates
    |What(xi)| * |xi|^k over a frequency grid; the table's maximum is the
    empirical constant for that k.

Both probes work with the separable weights of the counting module (the
"smooth" kind only: the bounds need infinitely many derivatives).  Since
W(t) = prod_i w1(t_i), lattice sums, derivative bounds, and transforms all
reduce to the one-dimensional profile w1(t) = exp(-1/(1-(t/2)^2)).

Method notes:

* the inner sum over y, for fixed x, runs over exactly the residue class
  of x mod a, so it is accumulated once per class and looked up -- the
  value is identical to the direct double summation, at linear cost;
* D_k comes from central finite differences of w1 on a grid of step 1/256
  (half-step samples so odd orders stay centered), maximized over the
  grid.  A sampled maximum is an under-estimate of the true sup, and the
  difference quotients lose precision as the order grows, so orders above
  MAX_DERIV_ORDER are refused;
* transforms use composite Simpson on [-2, 2] with a frequency-scaled
  panel count, accepted only when two successive refinements agree and
  reported after Richardson extrapolation; disagreement after two
  refinement levels is an error, never a silent value.  The levels nest
  (4096 * 2^j panels): a table keeps w1 (counting.smooth_profile) on the
  finest grid it has reached and views coarser levels in it; w1, cos and
  sin run on t >= 0 and are mirrored, cos and sin once per frequency, at
  its second level; the budget is still charged per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .counting import Weight, smooth_profile
from .errors import Budget, InputError, PreconditionError, ensure_budget

DERIV_GRID_STEP = Fraction(1, 256)
MAX_DERIV_ORDER = 8
QUAD_BASE_PANELS = 4096
QUAD_RTOL = 1e-9
QUAD_ATOL = 1e-12


def _smooth_weight(phi) -> Weight:
    w = Weight(phi) if isinstance(phi, str) else phi
    if not isinstance(w, Weight):
        raise InputError("expected a Weight or weight kind", got=type(phi).__name__)
    if w.kind != "smooth":
        raise InputError(
            "derivative-bound probes need the smooth weight", kind=w.kind
        )
    return w


# -- derivative bounds ---------------------------------------------------------


def derivative_bounds(orders: int) -> list[float]:
    """Sampled sup of |w1^(j)| for j = 0..orders on a step-1/256 grid.

    Central differences on half-step samples: the j-th difference uses the
    points t + (j - 2i) * h/2, i = 0..j, which are h apart and centered at
    t for every parity of j.
    """
    if not isinstance(orders, int) or orders < 0:
        raise InputError("derivative order must be a nonnegative integer",
                         orders=orders)
    if orders > MAX_DERIV_ORDER:
        raise InputError(
            "difference quotients at step 1/256 are unreliable past order "
            f"{MAX_DERIV_ORDER}", orders=orders,
        )
    h = float(DERIV_GRID_STEP)
    # samples at m * h/2 covering [-2, 2], plus the stencil's +-orders
    g = smooth_profile(1024 + orders, 512)
    bounds = []
    for j in range(orders + 1):
        if j == 0:
            bounds.append(float(np.max(np.abs(g))))
            continue
        acc = np.zeros(g.size - 2 * j)
        for i in range(j + 1):
            coef = (-1.0) ** i * math.comb(j, i)
            # offset (j - 2i) half-steps relative to the window center j
            lo = j + (j - 2 * i)
            acc += coef * g[lo: lo + acc.size]
        bounds.append(float(np.max(np.abs(acc)) / h**j))
    return bounds


def _partial_bound(bounds: list[float], n: int, k: int) -> float:
    """Max over multi-indices of total order k of prod_i |w1^(a_i)|_sup,
    for n = 1 or 2 (poisson_probe refuses larger n)."""
    if n == 1:
        return bounds[k]
    return max(bounds[j] * bounds[k - j] for j in range(k + 1))


# -- progression-averaged double sum -------------------------------------------


@dataclass
class PoissonProbe:
    weight: str
    n: int
    B: int
    a: int
    k: int
    lhs: float
    main: float
    error: float
    predicted: float
    d0: float
    dk: float
    deriv_bounds: list  # sampled sup of |w1^(j)|, j = 0..k
    grid_step: Fraction = DERIV_GRID_STEP
    within: bool = True


def poisson_probe(
    phi,
    B: int,
    a: int,
    k: int,
    n: int = 1,
    budget: Budget | None = None,
) -> PoissonProbe:
    """Measure the progression-averaging collapse of the double lattice sum.

    Computes lhs = sum_x W(x/B) sum_y W((x+a*y)/B), the collapsed value
    main = a^(-n) (sum_x W(x/B))^2, their difference, and the derivative
    bound D_0*D_k*B^(2n-k)*a^(k-n) + D_k^2*B^(2(n-k))*a^(k-n) with both
    implied constants set to 1.  At a = 1 the two sums agree identically
    (the progression is all of Z^n), so the error is pure rounding.
    """
    w = _smooth_weight(phi)
    if not isinstance(B, int) or B < 1:
        raise InputError("B must be an integer >= 1", B=B)
    if not isinstance(a, int) or not 1 <= a <= B:
        raise InputError("a must be an integer with 1 <= a <= B", a=a, B=B)
    if not isinstance(k, int) or k < 0:
        raise InputError("k must be a nonnegative integer", k=k)
    if not isinstance(n, int) or not 1 <= n <= 2:
        raise InputError("the probe is implemented for n in {1, 2}", n=n)
    budget = ensure_budget(budget)

    H = w.halfwidth(B)
    budget.charge(n * (2 * H + 1) + (k + 1) * (2048 + 2 * k), "probe grids")
    vals = w.axis_values(B)[0]
    s1_axis = float(np.sum(vals))
    # inner sum over y for fixed x runs over the class x mod a: accumulate
    # each class once (identical to the direct double sum, linear cost);
    # the residues of -H..H repeat those of -H..-H+a-1
    pattern = np.arange(-H, -H + a, dtype=np.int64) % a
    reps = -(-vals.size // a)
    residues = np.tile(pattern, reps)[:vals.size]
    class_sums = np.bincount(residues, weights=vals, minlength=a)
    lhs_axis = float(np.sum(vals * np.tile(class_sums[pattern], reps)[:vals.size]))

    lhs = lhs_axis**n
    main = float(a) ** (-n) * s1_axis ** (2 * n)
    error = lhs - main

    bounds = derivative_bounds(k)
    d0 = _partial_bound(bounds, n, 0)
    dk = _partial_bound(bounds, n, k)
    predicted = (
        d0 * dk * float(B) ** (2 * n - k) * float(a) ** (k - n)
        + dk * dk * float(B) ** (2 * (n - k)) * float(a) ** (k - n)
    )
    return PoissonProbe(
        weight=w.kind, n=n, B=B, a=a, k=k,
        lhs=lhs, main=main, error=error, predicted=predicted,
        d0=d0, dk=dk, deriv_bounds=bounds,
        within=abs(error) <= predicted,
    )


# -- frequency-decay table -----------------------------------------------------


@dataclass
class FourierRow:
    xi: float
    magnitude: float
    product: float  # |What(xi)| * |xi|^k
    imag: float
    panels: int


@dataclass
class FourierDecayReport:
    weight: str
    k: int
    rows: list
    max_product: float
    l1: float  # integral of |w1|, the k = 0 comparison line
    max_imag: float
    warnings: list = dc_field(default_factory=list)


def _factors(xi: float, N: int, grid: list) -> tuple:
    """(w1, cos, sin) of 2 pi xi t on the N-panel grid, a view of `grid`'s
    (nodes, w1) at the finest N so far.  cos and sin run on t >= 0, mirrored:
    angle(-t) = -angle(t) exactly, and libm's cos is even and sin odd."""
    if not grid or grid[0].size <= N:
        grid[:] = np.linspace(-2.0, 2.0, N + 1), smooth_profile(N // 2, N // 4)
    step, h = (grid[0].size - 1) // N, N // 2
    t, f = grid[0][::step], grid[1][::step]
    ang = 2.0 * math.pi * xi * t[h:]
    c, s = np.empty(N + 1), np.empty(N + 1)
    np.cos(ang, out=c[h:])
    np.sin(ang, out=s[h:])
    c[:h], s[:h] = c[:h:-1], -s[:h:-1]
    return f, c, s


def _simpson(factors: tuple, step: int) -> tuple[float, float]:
    """Composite Simpson sums of w1*cos and w1*sin over every step-th node."""
    f, c, s = (v[::step] for v in factors)
    h = 4.0 / (f.size - 1)
    acc = [g[0] + g[-1] + 4.0 * np.sum(g[1:-1:2]) + 2.0 * np.sum(g[2:-1:2])
           for g in (f * c, f * s)]
    return float(acc[0] * h / 3.0), float(acc[1] * h / 3.0)


def _transform_at(xi: float, budget: Budget, grid: list) -> tuple[float, float, int]:
    """(real part, imaginary part, panels) of the profile transform at xi.

    Composite Simpson on [-2, 2], panel count scaled with the frequency,
    accepted when two successive doublings agree (Richardson-extrapolated
    values compared); one further doubling is tried before giving up.
    """
    scale = max(1.0, abs(xi) / 16.0)
    panels = QUAD_BASE_PANELS * (1 << max(0, math.ceil(math.log2(scale))))
    budget.charge(panels + 1, "quadrature points")
    budget.charge(2 * panels + 1, "quadrature points")
    factors = _factors(xi, 2 * panels, grid)
    prev = _simpson(factors, 2)
    for attempt in range(2):
        panels *= 2
        if attempt:
            budget.charge(panels + 1, "quadrature points")
            factors = _factors(xi, panels, grid)
        cur = _simpson(factors, 1)
        rich_re = (16.0 * cur[0] - prev[0]) / 15.0
        rich_im = (16.0 * cur[1] - prev[1]) / 15.0
        tol = max(QUAD_ATOL, QUAD_RTOL * abs(cur[0]))
        delta = max(abs(cur[0] - prev[0]), abs(cur[1] - prev[1]))
        if delta <= tol:
            return rich_re, -rich_im, panels
        prev = cur
    raise PreconditionError(
        "quadrature did not converge after two refinement levels",
        xi=xi, last_delta=delta,
    )


def fourier_decay_probe(
    phi,
    k: int,
    xi_grid,
    budget: Budget | None = None,
) -> FourierDecayReport:
    """Tabulate |What(xi)| * |xi|^k for the smooth profile over xi_grid.

    The transform is What(xi) = integral of w1(t) exp(-2 pi i xi t) dt over
    the support [-2, 2]; the profile is even, so the imaginary part is a
    quadrature residual and is recorded for inspection.  Frequencies below
    1 in absolute value are refused (the |xi|^k normalization is the whole
    point, and it degenerates at 0); the table starts at |xi| = 1.  At
    k = 0 the rows are |What| itself and every one is bounded by the
    recorded L1 mass of the profile.
    """
    w = _smooth_weight(phi)
    if not isinstance(k, int) or k < 0:
        raise InputError("k must be a nonnegative integer", k=k)
    grid = [float(x) for x in xi_grid]
    if not grid:
        raise InputError("xi_grid is empty")
    low = [x for x in grid if abs(x) < 1.0]
    if low:
        raise InputError(
            "frequencies below 1 are outside the table's domain",
            offending=low[:4],
        )
    budget = ensure_budget(budget)

    rows = []
    max_imag = 0.0
    nodes: list = []  # the finest (nodes, w1) grid so far, see _factors
    for xi in grid:
        re, im, panels = _transform_at(xi, budget, nodes)
        mag = math.hypot(re, im)
        rows.append(FourierRow(
            xi=xi, magnitude=mag, product=mag * abs(xi) ** k,
            imag=im, panels=panels,
        ))
        max_imag = max(max_imag, abs(im))

    l1, l1_im, _ = _transform_at(0.0, budget, nodes)
    warnings = []
    if max_imag > 1e-10:
        warnings.append(
            "imaginary part of the transform exceeds 1e-10; the quadrature "
            "grid is not resolving the integrand"
        )
    return FourierDecayReport(
        weight=w.kind, k=k, rows=rows,
        max_product=max(r.product for r in rows),
        l1=abs(l1), max_imag=max_imag, warnings=warnings,
    )
