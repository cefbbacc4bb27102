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
    |What(xi)| * |xi|^k over a frequency grid; the maximum over the rows
    above the rounding floor is the empirical constant for that k.

Both probes work with the separable weights of the counting module (the
"smooth" kind only: the bounds need infinitely many derivatives).  Since
W(t) = prod_i w1(t_i), lattice sums, derivative bounds, and transforms all
reduce to the one-dimensional profile w1(t) = exp(-1/(1-(t/2)^2)).

Method notes:

* the inner sum over y, for fixed x, runs over exactly the residue class
  of x mod a, so it is accumulated once per class and looked up -- the
  value is identical to the direct double summation, at linear cost;
* the probe holds one axis of weights: counting.smooth_profile fills it
  in cache-sized blocks, mirrored as they are made, and the products with
  the class sums are written over it once both sums are read.  Neither
  moves a bit: each entry takes the same IEEE operations as in one pass
  over the axis, and np.sum of a contiguous array pairs by its length;
* D_k comes from central finite differences of w1 on a grid of step 1/256
  (half-step samples so odd orders stay centered), maximized over the
  grid.  A sampled maximum is an under-estimate of the true sup, and the
  difference quotients lose precision as the order grows, so orders above
  MAX_DERIV_ORDER are refused;
* the transform table is one trapezoid pass of step 4/N on [-2, 2], N a
  power of two with every alias at least ALIAS_GAP from the grid: for a
  smooth w1 supported there the sum is exact up to those aliases, so no
  refinement is needed.  w1 is sampled once on t >= 0 (it is even), each
  row reduces its phase mod 1 before the cos and sums with
  counting.pairwise_sum, and a proven rounding floor marks the rows that
  rounding noise alone could produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .counting import Weight, pairwise_sum, smooth_profile
from .errors import Budget, InputError, ensure_budget

DERIV_GRID_STEP = Fraction(1, 256)
MAX_DERIV_ORDER = 8
ALIAS_GAP = 128  # least distance from a tabulated xi to its nearest alias
FLOOR_TERMS = 20  # per-term rounding of the decay table, in eps * l1
EPS = float(np.finfo(np.float64).eps)


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
    # each class once (identical to the direct double sum, linear cost).
    # Offset i of -H..H is in column i mod a of rows of a; summing a column,
    # tail last, adds in bincount's order (cumsum at a = 1, where numpy's
    # axis-0 sum would pair)
    full = vals.size - vals.size % a
    rows = vals[:full].reshape(-1, a)
    col_sums = rows.sum(axis=0) if a > 1 else np.cumsum(vals)[-1:]
    col_sums[:vals.size - full] += vals[full:]
    # each weight times its class sum, written over the weight once both
    # sums are read (see the method notes)
    np.multiply(rows, col_sums, out=rows)
    np.multiply(vals[full:], col_sums[:vals.size - full], out=vals[full:])
    lhs_axis = float(np.sum(vals))

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
    magnitude: float  # |What(xi)|, or the report's floor when below it
    product: float  # magnitude * |xi|^k
    below_floor: bool


@dataclass
class FourierDecayReport:
    weight: str
    k: int
    rows: list
    max_product: float | None  # over the rows above the floor; None if none
    l1: float  # integral of |w1|, the k = 0 comparison line
    panels: int  # N: the trapezoid step is 4/N
    floor: float  # rounding bound on every row, see fourier_decay_probe
    warnings: list = dc_field(default_factory=list)


def fourier_decay_probe(
    phi,
    k: int,
    xi_grid,
    budget: Budget | None = None,
) -> FourierDecayReport:
    """Tabulate |What(xi)| * |xi|^k for the smooth profile over xi_grid.

    What(xi) = integral of w1(t) exp(-2 pi i xi t) dt over the support
    [-2, 2], real and even as w1 is even.  Frequencies must have 1 <= |xi|
    (the |xi|^k normalization degenerates at 0).

    One trapezoid pass of step h = 4/N serves the whole table, N the least
    power of two with N/4 >= max|xi| + ALIAS_GAP.  By Poisson summation its
    sum is exactly sum_j What(xi + j*N/4), as w1 is smooth with support in
    [-2, 2]: the only error is aliases, where |What| < 1e-19.  w1 is sampled
    once at t_j = 4j/N, j = 0..N/2, the t_0 weight halved, and each row is
    2h * pairwise_sum(w1(t_j) * cos(2 pi phi_j)) with phi_j = |xi|*t_j mod 1,
    taken as (m*t_j mod 1) + (f*t_j mod 1) mod 1 for |xi| = m + f, m an
    integer.  l1 is the same sum with cos = 1.

    Every row is within floor = (ceil(log2 M) + FLOOR_TERMS) * eps * l1 of
    What(xi), M = N/2 + 1, eps = 2^-52.  Proof, with u = eps/2, w~ the
    sampled w1 and s = 1 - (t/2)^2:
      * the pairwise sum errs by at most ceil(log2 M) * u times the sum of
        |terms| <= l1 / 2h, half the floor's first part; the other half,
        >= 10 u * l1 as M >= 513, covers aliases and second-order terms;
      * a term errs by at most 14 eps * w~(t_j): the phase by 2u (f*t_j and
        one sum round; m*t_j, exact while N <= 2^28, and the mods
        x - floor(x) do not), 2 pi eps in angle; 2 pi in double (0.18 eps
        relative) and the angle product (u), (1.1 + pi) eps as phi < 1;
        np.cos, 4 ulp = 2 eps; the product with w~, u;
      * w~ errs by (1/s^2 + 1/s) u + 4 eps relative (s within u, then -1/s
        and exp to 4 ulp), and (1/s^2 + 1/s) w1 integrates to 2.69 < 4 l1:
        6 eps * l1 in all, and 14 + 6 = FLOOR_TERMS.
    A row with |value| <= floor cannot be told from 0 (|What| <= 2 floor):
    it is marked below_floor, reports the floor as its magnitude (never 0,
    at most l1), stays out of max_product, and one warning names such xi.
    M * (len(xi_grid) + 1) quadrature points are charged before anything
    is allocated; the pass keeps a few arrays of M float64.
    """
    w = _smooth_weight(phi)
    if not isinstance(k, int) or k < 0:
        raise InputError("k must be a nonnegative integer", k=k)
    grid = [float(x) for x in xi_grid]
    if not grid:
        raise InputError("xi_grid is empty")
    bad = [x for x in grid if not 1.0 <= abs(x) < math.inf]
    if bad:
        raise InputError("frequencies must have 1 <= |xi| < inf",
                         offending=bad[:4])
    budget = ensure_budget(budget)

    need = math.ceil(4.0 * (max(map(abs, grid)) + ALIAS_GAP))
    N = 1 << (need - 1).bit_length()  # the least power of two >= need
    M = N // 2 + 1
    budget.charge(M * (len(grid) + 1), "quadrature points")
    h = 4.0 / N
    t = np.arange(M, dtype=np.float64) * h
    wt = smooth_profile(N // 2, N // 4)[N // 2:]
    wt[0] *= 0.5
    l1 = 2.0 * h * pairwise_sum(wt)
    floor = ((M - 1).bit_length() + FLOOR_TERMS) * EPS * l1

    phase, part, scratch = np.empty(M), np.empty(M), np.empty(M)

    def mod1(x):  # in place; x - floor(x) is exact for x >= 0
        return np.subtract(x, np.floor(x, out=scratch), out=x)

    rows = []
    for xi in grid:
        m = math.floor(abs(xi))
        mod1(np.multiply(t, float(m), out=phase))
        phase += mod1(np.multiply(t, abs(xi) - m, out=part))
        mod1(phase)
        phase *= 2.0 * math.pi
        np.cos(phase, out=phase)
        value = 2.0 * h * pairwise_sum(np.multiply(phase, wt, out=phase))
        below = abs(value) <= floor
        mag = floor if below else abs(value)
        rows.append(FourierRow(xi=xi, magnitude=mag,
                               product=mag * abs(xi) ** k, below_floor=below))

    above = [r.product for r in rows if not r.below_floor]
    flagged = [r.xi for r in rows if r.below_floor]
    warnings = []
    if flagged:
        warnings.append(
            f"|What| is within the rounding floor {floor:.3g} at xi = "
            f"{', '.join(f'{x:g}' for x in flagged)}; those rows report the "
            "floor and are left out of max_product"
        )
    return FourierDecayReport(
        weight=w.kind, k=k, rows=rows,
        max_product=max(above) if above else None,
        l1=l1, panels=N, floor=floor, warnings=warnings,
    )
