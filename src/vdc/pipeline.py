"""Variance decomposition of weighted congruence counts, iterated twice.

Fix an integer polynomial f on a box |x_i| <= B and three distinct primes
pi, p, q.  Write N_W(f, B, m) for the weighted count sum of W(x/B) over box
points with m | f(x).  Splitting the solutions of pq | f(x) into residue
classes u mod pi gives per-class sums inner(u); comparing them with the
equidistributed expectation

    K = pi^(-n) (pq)^(-1) N_W(0, B, pi p q)

yields a first moment S (signed deviation over the zero classes of f mod
pi) and a second moment Sigma (sum of squared deviations over all classes).
Opening the square in Sigma produces pair correlations indexed by a shift
y with |y| <= floor(4B/pi):

    corr(y) = sum_{x: pq | f(x), pq | f(x+pi y)} W_piy(x/B)
              - (pq)^(-2) sum_x W_piy(x/B),

where W_piy(x/B) = W(x/B) W((x+pi y)/B).  Each shift is then split again
into classes v mod p with expectation K(y), first/second moments S(y),
Sigma(y), a refined moment Sigma'(y) that also separates the residue of
the difference f(x + pi y) - f(x) mod q, and a per-shift class defect
E2(y) = K(y) (#X_y(F_p) - p^(n-2)) where X_y counts v in F_p^n with
f(v) = f(v + pi y) = 0 mod p.  A second differencing in shifts z with
|z| <= floor(4B/p) gives the two-level correlation table

    corr2(y, z) = sum_{x: q | f, q | f(x+pz), q | d2f(x)} W4(x/B)
                  - q^(-3) sum_x W4(x/B),

with d2f the second difference along (pi y, pz) and W4 the product of the
four translated weights.  The ledger records every level with exact
arithmetic for the rational weight kinds (integer numerators over powers
of 2B) and float64 for the smooth kind, level 2 included: exact sums and
products are int64 wherever the exact accumulator of `counting` (``_Bins``,
``_product``) proves them below INT64_LIMIT, and Python ints elsewhere.
The ledger verifies the algebraic identities tying the levels together:

  partition            N_W(f,B,pi p q) = S + K * #{zero classes mod pi}
  square_expansion     sum_u inner(u)^2 = sum_y (congruence part of corr)
  variance_assembly    Sigma = sum_y corr(y) + (pq)^-2 sum_y FS(y)
                               - 2 K N_W(f,B,pq) + pi^n K^2
  cauchy_schwarz       S^2 <= #zero-classes * Sigma
  per_shift_defect     corr(y) - S(y) = E2(y)            (every y)
  per_shift_cauchy     S(y)^2 <= #X_y * Sigma(y)         (every y)
  refinement_monotone  Sigma(y) <= Sigma'(y)             (every y)
  support_vanishing    corr(y) = 0 once |pi y| >= 4B
  refined_square_expansion  sum_{v,a} inner_{v,a}(y)^2 = sum_z (congruence
                       part of corr2(y, z))              (when level 2 runs)

Each identity is written once, over a numeric domain.  The domain, the
separable weight product and the pairwise float sum are those of
`counting`, which forms every weighted box sum by one rule.  An exact
domain checks an identity with tolerance 0; a float64 domain allows
SMOOTH_RTOL * max(1, |scale|), with scale the size of the compared terms.
The two per-shift inequalities report their least margin over the shifts
by one path in both domains (``_least_margins``): the margins C in
float64, and the same expression over the |tables| as a bound e = 2^-40 E
on each shift's rounding error.  Only a shift with C - e <= min(C + e)
and e > 0 can hold the minimum without being an exact 0, and only those,
with one exact 0, are evaluated again in Python ints or floats.

The box and the shift grids are products of n axes, and each separable
array over one is formed from n per-axis arrays, x1 fastest (``_outer``):
the weights and fs as products, the class and shift codes, such as sum_i
(x_i mod pi) pi^i, as sums (``_code``).  No array holds the box's digits.
The correlations and level 2 are grouped joins (``_pair_join``), emitted in
chunks of at most PAIR_BLOCK pairs in the order of the left rows the caller
passes, each meeting its group's right rows in key order.  A join sorts
only its right side and hands back that order, so its caller gathers each
right column once in it and reads it forward instead of at random.  The
correlations join the pq-solutions, already sorted by class mod pi, with
themselves.  Level 2 joins the box points in box order by (class mod p,
f mod q) into pairs (u, u + p z) in box order of u, the x-pairs (x, x + p
z) being those with q | f(u), and then joins the x-pairs, sorted by (z,
class mod pi), with them by that key, which puts x + pi y = u.
Every per-key sum is one ``_Bins`` accumulation, in one code path for both
domains: each key adds its terms to zero in the order its pass emits them,
whatever PAIR_BLOCK is.  So the correlations add per shift in the join's
order, level 2 per cell (y, z) (``_cell_sums``) and then per y in z order,
and the per-axis tables fs and T per entry in axis order (``_lag_sums``).
Level 1 (``_level1``) scatters its rows, in a fixed order, into a dense
block of box classes (class mod p, f mod q) times shifts, and reads the
sums back per row.  Whole-box totals are ``_Domain.total``'s, pairwise for
floats.

The differencing is symmetric in the shifts, and the passes that can use it
are triangular: a point pairs only with the points of its group at or after
it in box order, itself once.  Inside a class mod pi box order is shift
order, so a triangular pass emits y >= 0, and likewise z >= 0 inside a
class mod p.  Two symmetries hold for every f and weight, so the
correlations and the level-2 box-point join are always triangular:
corr(-y) = corr(y), as (x, x') and (x', x) are both pairs, and corr2(y, -z)
= corr2(y, z), as swapping x with x + p z and u with u + p z keeps y, the
weight product and q | d2f.  When f(-x) = +-f(x) (every monomial of f has
the degree parity of the first) and the axis weight is even, x -> -x also
gives t(-y) = t(y) for the level-1 tables and corr2(-y, -z) = corr2(y, z)
(``_mirrors``, checked on the input at run time).  Then level 1 and the
second level-2 join are triangular too: the second join takes its pairs in
box order of their first point, so an x-pair meets only the u-pairs at or
after itself, y >= 0.  Otherwise both emit both halves of y.  Each -y entry
is a copy of its mirror; for the smooth weight the copied half therefore
carries the computed half's rounding, not its own.

Level 2 keeps only the part of its table that its joins compute: the cells
(y, z) they fill, z >= 0 and under the mirror y >= 0, as sorted keys h
Ycells + ky (kz = Zcells // 2 + h) and congruence parts c(y, z).  corr2(y,
z) reads the cell of whichever of z and -z is >= 0, h = |kz - Zcells // 2|,
and under the mirror likewise of y and -y; c = 0 at every cell the join
leaves empty.  It reads FS2 at that cell too, from a table of T summed for
z_i >= 0 and mirrored, as T(a, -c) = T(a, c) for every weight; so a smooth
corr2 is one float under the sign flips of y and z that the ledger folds.
qsum and the per-y sums of |q^3 c - FS2| visit the filled cells alone,
counting each one with z > 0 twice, for itself and its mirror (y, -z), and
under the mirror are copied from y to -y (``_level2_cells``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .counting import (Weight, _Bins, _Domain, _fits, _key_codes, _outer,
                       _product, _stable_order, eval_on_axes, weighted_count)
from .errors import Budget, InputError, PreconditionError, ensure_budget
from .ffield import field_make, is_prime, reduce_mod
from .geometry import VarietySpec, r_check, sing_points
from .mpoly import IntPoly

PAIR_BLOCK = 1 << 18  # pair rows per chunk: the most a pass holds at once
RESIDUAL_SLACK = 2.0**-40  # error bound / |expression| (``_least_margins``)


@dataclass
class PipelineParams:
    """Inputs of one ledger run.  Primes must be pairwise distinct; the
    regime the error analysis is designed for (pi, p <= B < q/4) is only
    warned about, not enforced."""

    f: IntPoly
    B: int
    pi: int
    p: int
    q: int
    weight: str = "hat"
    with_pair_table: bool = False

    def validate(self) -> list[str]:
        if self.B < 1:
            raise InputError("B must be >= 1", B=self.B)
        for m in (self.pi, self.p, self.q):
            if not is_prime(m):
                raise InputError("pipeline moduli must be prime", value=m)
        if len({self.pi, self.p, self.q}) != 3:
            raise InputError(
                "primes must be pairwise distinct",
                primes=[self.pi, self.p, self.q],
            )
        Weight(self.weight)  # refuses unknown kinds
        # level 2 keys its cells (y, z), z >= 0, as h * Ycells + ky in one
        # int64 (h = kz - Zcells // 2), below the table's Ycells * Zcells
        n = self.f.n
        cells = ((2 * (4 * self.B // self.pi) + 1)
                 * (2 * (4 * self.B // self.p) + 1)) ** n
        if self.with_pair_table and cells >= 2**63:
            raise PreconditionError(
                "pair-table keys would overflow int64", cells=cells, n=n)
        warnings = []
        if not (self.pi <= self.B and self.p <= self.B and self.B < self.q / 4):
            warnings.append(
                f"outside design regime: want pi,p <= B < q/4, got "
                f"pi={self.pi} p={self.p} B={self.B} q={self.q}"
            )
        return warnings


@dataclass
class ResidualCheck:
    name: str
    ok: bool
    value: object  # max |residual| (exact 0 or float), or min margin
    tol: float
    kind: str  # "identity" or "inequality"


@dataclass
class ShiftRecord:
    """Exact per-shift quantities (Fractions for exact weights)."""

    y: tuple
    corr: object
    fs_sum: object
    expected: object
    pair_class_count: int
    first_moment: object
    second_moment: object
    refined_second_moment: object
    class_defect: object


@dataclass
class PipelineLedger:
    """The tables of one ledger run; level 2 keeps only the cells it fills."""

    params: PipelineParams
    n: int
    exact: bool
    den1: int  # denominator of single weights: (2B)^n for hat, 1 otherwise
    box_weight_total: object  # N_W(0, B, *)
    count_full: object  # N_W(f, B, pi p q)
    count_pq: object  # N_W(f, B, pq)
    expected_per_class: object  # K
    zero_classes: int
    first_moment: object  # S
    second_moment: object  # Sigma
    coarse_deviation: object  # N_W(f,B,pq) - pi^n K
    shift_range: int  # Y: table covers |y_i| <= Y
    # flat tables over the shift grid (digit 0 <-> y_1 fastest):
    corr_num: np.ndarray  # congruence part numerators (den1^2 scale)
    fs_num: np.ndarray  # full-sum numerators (den1^2 scale)
    t0_num: np.ndarray
    t1_num: np.ndarray
    ss2: np.ndarray
    ss3: np.ndarray
    sxy_num: np.ndarray
    xcount: np.ndarray
    residuals: dict
    warnings: list
    pair_range: int | None = None  # Z
    pair_quarter: bool = False  # level 2 keeps y >= 0 only (``_mirrors``)
    pair_keys: np.ndarray | None = None  # filled cells, sorted h * Ycells + ky
    pair_num: np.ndarray | None = None  # their congruence parts (den1^4 scale)
    qsum: np.ndarray | None = None  # sum_z of pair congruence parts, per y
    abs2_num: np.ndarray | None = None  # sum_z |q^3 cong - FS2|, per y (den1^4 scale)
    aggregate: float | None = None  # E4-style aggregate from level 2
    _t2d_table: np.ndarray | None = None

    @property
    def _dom(self) -> _Domain:
        return _Domain(self.exact, self.den1)

    # -- helpers ------------------------------------------------------------

    def shift_key(self, y) -> int:
        return _table_key(y, self.shift_range, self.n, "shift")

    def corr(self, y) -> object:
        """The pair correlation at shift y."""
        k = self.shift_key(y)
        D, p, q = self._dom, self.params.p, self.params.q
        den2 = self.den1**2
        return D.frac(self.corr_num[k], den2) - D.frac(
            self.fs_num[k], p * p * q * q * den2
        )

    def shift_record(self, y) -> ShiftRecord:
        k = self.shift_key(y)
        return self._record_at(k)

    def _record_at(self, k: int) -> ShiftRecord:
        D, pr = self._dom, self.params
        n, p, q, Y = self.n, pr.p, pr.q, self.shift_range
        den2 = self.den1**2
        xc = int(self.xcount[k])
        expected = D.frac(self.fs_num[k], p**n * q * q * den2)
        y = tuple(_digits(k, 2 * Y + 1, n, Y).tolist())
        return ShiftRecord(
            y=y,
            corr=self.corr(y),
            fs_sum=D.frac(self.fs_num[k], den2),
            expected=expected,
            pair_class_count=xc,
            first_moment=D.frac(self.sxy_num[k], den2) - xc * expected,
            second_moment=(
                D.frac(self.ss2[k], den2 * den2)
                - 2 * expected * D.frac(self.t1_num[k], den2)
                + p**n * expected * expected
            ),
            refined_second_moment=(
                D.frac(self.ss3[k], den2 * den2)
                - 2 * expected * D.frac(self.t0_num[k], den2)
                + p**n * q * expected * expected
            ),
            class_defect=expected * (xc - p ** (n - 2)),
        )

    def shift_records(self, limit: int | None = None):
        cells = len(self.corr_num)
        take = cells if limit is None else min(limit, cells)
        return [self._record_at(k) for k in range(take)]

    def corr2(self, y, z) -> object:
        """The two-level correlation at any (y, z); needs the pair table.
        It reads its stored cell: that of z or -z, whichever is >= 0, and of
        y or -y likewise when level 2 keeps y >= 0 only; the key of -z is
        Zcells - 1 - kz, and of -y Ycells - 1 - ky."""
        if self.pair_keys is None:
            raise PreconditionError("pair table was not built")
        Z, n = self.pair_range, self.n
        Ycells, Zcells = len(self.corr_num), (2 * Z + 1) ** n
        ky, kz = self.shift_key(y), _table_key(z, Z, n, "second shift")
        kz = max(kz, Zcells - 1 - kz)
        if self.pair_quarter:
            ky = max(ky, Ycells - 1 - ky)
        k = (kz - Zcells // 2) * Ycells + ky
        i = int(np.searchsorted(self.pair_keys, k))
        cong = self.pair_num[i] if self.pair_keys[i:i + 1].tolist() == [k] else 0
        fs2 = _fs2(self._t2d_table.astype(object), ky, kz, n)
        D, den4 = self._dom, self.den1**4
        return D.frac(cong, den4) - D.frac(fs2, self.params.q**3 * den4)


# -- small structural helpers -------------------------------------------------


def _digits(keys, side: int, n: int, offset: int = 0) -> np.ndarray:
    """The n base-side digits of flat keys, digit 0 first, each minus offset:
    shape (n,) for a scalar key, (len(keys), n) for an array of keys.  The
    codes over a whole grid, in its order, are ``_code``'s instead."""
    t = np.array(keys, dtype=np.int64)
    out = np.empty(t.shape + (n,), dtype=np.int64)
    for i in range(n):
        out[..., i] = t % side - offset
        t //= side
    return out


def _fs2(t2d: np.ndarray, ky, kz, n: int):
    """FS2(y, z) = prod_i T(pi y_i, p z_i) at the flat keys ky of y and kz
    of z (scalars or arrays), in the dtype of the table t2d of T.  Axis i
    reads its factor at the flat place row[i][ky] + col[i][kz] of t2d, from
    digit tables built once by _digits (for array keys over every key, for
    scalar keys over the one key); the factors multiply digit 0 first, in
    the order of ``_outer``."""
    sideY, sideZ = t2d.shape
    if np.ndim(ky):
        ys, zs = np.arange(sideY**n), np.arange(sideZ**n)
    else:
        ys, zs, ky, kz = [ky], [kz], 0, 0
    row = (_digits(ys, sideY, n) * sideZ).T.copy()
    col = _digits(zs, sideZ, n).T.copy()
    flat = t2d.ravel()
    out = flat[row[0][ky] + col[0][kz]]
    for i in range(1, n):
        out = out * flat[row[i][ky] + col[i][kz]]
    return out


def _code(axis: np.ndarray, side: int, n: int) -> np.ndarray:
    """The flat codes sum_i axis[x_i] side^i over the grid of n copies of
    axis, x1 fastest (``_outer``): a class or shift key of every point."""
    return _outer(np.add, [axis * side**i for i in range(n)])


def _table_key(v, R: int, n: int, what: str) -> int:
    """Flat key of the shift v, n integers in [-R, R], in a table over them."""
    d = list(v) if np.iterable(v) else []
    if len(d) != n or not all(
            isinstance(c, (int, np.integer)) and not isinstance(c, bool)
            and abs(int(c)) <= R for c in d):
        raise InputError(f"{what} not in table", shift=repr(v), n=n, R=R)
    return sum((int(c) + R) * (2 * R + 1) ** i for i, c in enumerate(d))


def _mirrors(f: IntPoly, w1: np.ndarray) -> bool:
    """Whether the level-1 tables are mirror images, t(-y) = t(y), and
    corr2(-y, -z) = corr2(y, z): every monomial of f has the degree parity
    of the first, so f(-x) = +-f(x), and the axis weight is even.  Every
    current weight kind is even; the weight half guards a future uneven
    kind."""
    parities = {sum(e) % 2 for e in f.terms}
    return len(parities) <= 1 and np.array_equal(w1, w1[::-1])


def _mirror(t: np.ndarray) -> np.ndarray:
    """Copy the y >= 0 half of a flat shift table onto its y < 0 half, in
    place, and return the table: the flat key of -y is cells - 1 - (the
    flat key of y)."""
    half = t.size // 2
    t[:half] = t[::-1][:half]
    return t


def _runs(starts, ends, first, s: int, e: int):
    """Rows [s, e) of runs laid end to end: run i holds rows [starts[i],
    ends[i]) and reads the items first[i], first[i] + 1, ...  Returns the
    slice of runs these rows meet, each one's row count among them, and each
    row's item: a per-run array t gives the rows' values t[runs].repeat(c)."""
    a = int(np.searchsorted(ends, s, "right"))
    b = int(np.searchsorted(ends, e, "left")) + 1
    c = np.minimum(ends[a:b], e) - np.maximum(starts[a:b], s)
    return slice(a, b), c, (first[a:b] - starts[a:b]).repeat(c) + np.arange(s, e)


def _pair_join(left: np.ndarray, right: np.ndarray, own=None):
    """All pairs (i, j) with left[i] == right[j], in the left rows' order.

    Returns (npairs, ro, chunks).  ro sorts the right rows stably by key,
    and chunks yields (li, ri) of at most PAIR_BLOCK pairs: the pairs (li,
    ro[ri]), in (i, j) order, li indexing the left as passed.  So a caller
    gathers each right column once in key order, col[ro], and reads it at
    ri, which runs forward within each left row.  npairs = sum over keys of
    the product of the two group sizes.

    Triangular mode: with own given, left row i is right row own[i], and it
    pairs only with the right rows of its group at or after own[i] in index
    order, itself included, so a group of size m on both sides emits
    m (m + 1) / 2 pairs instead of m^2.
    """
    ro = _stable_order(right)
    rs = right[ro]
    if own is None:
        first = np.searchsorted(rs, left, "left")  # each left row's group
    else:  # each left row's own place in the right order
        at = np.empty_like(ro)
        at[ro] = np.arange(ro.size)
        first = at[own]
    cnt = np.searchsorted(rs, left, "right") - first
    ends = np.cumsum(cnt)
    starts = ends - cnt
    npairs = int(ends[-1]) if ends.size else 0

    def chunks():
        for s in range(0, npairs, PAIR_BLOCK):
            runs, c, ri = _runs(starts, ends, first, s, min(s + PAIR_BLOCK, npairs))
            yield np.arange(runs.start, runs.stop).repeat(c), ri

    return npairs, ro, chunks()


def _per_block(width: int) -> int:
    """The lines of width cells in one dense block: as many as fit in
    4 * PAIR_BLOCK cells, and at least one."""
    return max(1, 4 * PAIR_BLOCK // width)


def _cell_sums(rows, width: int, height: int, exact: bool):
    """Per-cell sums of rows (cell, w), cell = h width + k with k < width
    and h < height never decreasing: the touched cells, in order, and their
    sums, each adding its rows to zero in arrival order in a dense block
    (``_Bins``) of consecutive h times all k, at most 4 * PAIR_BLOCK cells
    or one h.  Once the rows pass a block, the cells a per-cell flag marks
    (a float sum can underflow to 0.0) are harvested and zeroed."""
    per = _per_block(width)  # h values per block
    span = per * width  # block b holds the cells [b span, (b + 1) span)
    blk = _Bins(min(per, height) * width, exact)
    hit = np.zeros(blk.lo.size, dtype=bool)

    def pieces():  # each chunk cut where its block changes
        for cell, w in rows:
            b = cell // span
            cut = (np.flatnonzero(b[1:] != b[:-1]) + 1).tolist()
            for s, e in zip([0, *cut], [*cut, b.size]):
                yield int(b[s]), cell[s:e] - b[s] * span, w[s:e]

    cells, sums = [np.zeros(0, dtype=np.int64)], [blk.lo[:0]]
    for b, group in itertools.groupby(pieces(), key=lambda t: t[0]):
        for _, at, w in group:
            blk.add(at, w)
            hit[at] = True
        i = np.flatnonzero(hit)
        cells.append(i + b * span)
        sums.append(blk.total(i))
        blk.clear(i)
        hit[i] = False
    return np.concatenate(cells), np.concatenate(sums)


def _lag_sums(w1: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """sum_m w(m + s_1) ... w(m + s_k) for each row (s_1, ..., s_k) of shifts,
    over the axis m = -H..H, with w the axis weight w1 there and 0 off it:
    the per-axis tables fs, shifts (0, pi y), and T, (0, a, c, a + c).  The
    products come in m order, in blocks of at most PAIR_BLOCK terms on a
    zero-padded axis, and each row adds its own to zero in one ``_Bins``."""
    L, (rows, k) = w1.size, shifts.shape
    pad = np.zeros(int(np.abs(shifts).max(initial=0)), dtype=w1.dtype)
    w = np.concatenate([pad, w1, pad])
    out = _Bins(rows, w1.dtype != np.float64)
    for s in range(0, rows * L, PAIR_BLOCK):
        row, m = np.divmod(np.arange(s, min(s + PAIR_BLOCK, rows * L)), L)
        out.add(row, _product(*(w[m + pad.size + shifts[row, j]] for j in range(k))))
    return out.total()


def _level1(order, group, xfirst, xcnt, xs, ycode, wnum, fq_v, solpq,
            Ycells: int, mirror: bool):
    """The level-1 tables (t0, t1, ss2, ss3, sxy) over the shifts.

    The rows are (c, x): box point c and a q-solution x of its class mod pi,
    c = x + pi y.  The box points c come in ``order``, sorted by their box
    class ``group[c]``; c reads the xcnt[i] solutions xs[xfirst[i]:] (i its
    place in order).  A dense block of whole box classes times the shifts
    holds the class sums V(y, b); each block first scatters its rows into V
    and then reads V back at each row.  x mod p is a point of X_y exactly
    when p | f(x) and p | f(c), that is when solpq[x] and solpq[c], as x is
    a q-solution.  A block holds at most 4 * PAIR_BLOCK cells, or one
    box class, and the rows stream in chunks of PAIR_BLOCK.
    """
    exact = wnum.dtype != np.float64
    ylo = Ycells // 2 if mirror else 0  # the mirrored pass emits y >= 0
    ywidth = Ycells - ylo
    ends = np.cumsum(xcnt)
    starts = ends - xcnt
    cg, cw, ca0, cpq = group[order], wnum[order], fq_v[order] == 0, solpq[order]
    cy = ycode[order] + Ycells // 2  # y = cy - xy
    xy, xw, xpq = ycode[xs], wnum[xs], solpq[xs]
    per = _per_block(ywidth)
    nclass = int(cg[-1]) + 1
    V = _Bins(min(per, nclass) * ywidth, exact)
    t0, t1, ss2, ss3, sxy = (_Bins(Ycells, exact) for _ in range(5))

    def rows(s, e, g0):
        runs, c, item = _runs(starts, ends, xfirst, s, e)
        y = cy[runs].repeat(c) - xy[item]
        cell = ((cg[runs] - g0) * ywidth - ylo).repeat(c) + y
        w = _product(cw[runs].repeat(c), xw[item])
        return y, cell, w, ca0[runs].repeat(c), cpq[runs].repeat(c) & xpq[item]

    bounds = np.searchsorted(cg, np.arange(0, nclass + per, per))
    for g0, (ra, rb) in zip(range(0, nclass, per), zip(bounds, bounds[1:])):
        s0, e0 = int(starts[ra]), int(ends[rb - 1])
        spans = [(s, min(s + PAIR_BLOCK, e0)) for s in range(s0, e0, PAIR_BLOCK)]
        for s, e in spans:
            held = rows(s, e, g0)
            V.add(held[1], held[2])
        for s, e in spans:
            y, cell, w, a0, pq = held if len(spans) == 1 else rows(s, e, g0)
            v = V.total(cell)
            t0.add(y, w)
            ss3.add(y, _product(w, v))
            sxy.add(y[pq], w[pq])  # the rows of a0 whose x mod p is in X_y
            # a0: q | f(c), so the difference residue a is 0
            y, w, v = y[a0], w[a0], v[a0]
            t1.add(y, w)
            ss2.add(y, _product(w, v))
        # zero the touched cells; a block of several chunks, whose cells
        # would take another pass over its rows, is cleared whole instead
        if len(spans) == 1:
            V.clear(held[1])
        elif spans:
            V.clear()

    return [_mirror(t.total()) if mirror else t.total() for t in (t0, t1, ss2, ss3, sxy)]


# -- the main construction ----------------------------------------------------


def build_ledger(params: PipelineParams, budget: Budget | None = None) -> PipelineLedger:
    """Run both differencing levels and verify the ledger identities."""
    warnings = params.validate()
    budget = ensure_budget(budget)
    f, B = params.f, params.B
    pi, p, q = params.pi, params.p, params.q
    n = f.n
    w = Weight(params.weight)
    H = w.halfwidth(B)
    L = 2 * H + 1
    M = L**n
    budget.charge(4 * M, "box grids")
    # level 0: classes mod pi; f mod pi on the box is f on its class
    pin = pi**n
    budget.charge(pin, "class grid mod pi")
    zero_mask = eval_on_axes(f, [np.arange(pi, dtype=np.int64)] * n, pi) == 0
    zero_classes = int(np.count_nonzero(zero_mask))

    w1, den = w.axis_values(B)
    den = den if den is not None else 1
    den1 = den**n
    D = _Domain(w.exact, den1)
    ax = np.arange(-H, H + 1, dtype=np.int64)
    fp_v, fq_v = (eval_on_axes(f, [ax] * n, m) for m in (p, q))
    wnum = _outer(_product, [w1] * n)
    cls_pi = _code(ax % pi, pi, n)
    solq = fq_v == 0
    solpq = solq & (fp_v == 0)
    solfull = solpq & zero_mask[cls_pi]

    box_total_num = D.total(w1) ** n
    box_weight_total = D.frac(box_total_num, den1)
    count_full = D.frac(D.total(wnum, solfull), den1)
    count_pq = D.frac(D.total(wnum, solpq), den1)
    K = D.frac(box_total_num, pin * p * q * den1)

    inner_num = _Bins(pin, D.exact).add(cls_pi[solpq], wnum[solpq]).total()
    S = D.frac(D.total(inner_num, zero_mask), den1) - K * zero_classes
    inner_sq = D.total(_product(inner_num, inner_num))  # sum_u inner(u)^2
    if D.exact:  # sum (inner - c)^2 from integer power sums, c = K den1
        c = K * den1
        Sigma = (inner_sq - 2 * c * D.total(inner_num) + pin * c * c) / den1**2
    else:
        Sigma = D.total((inner_num - K * den1) ** 2) / den1**2
    E0 = count_pq - pin * K

    # shift tables
    Y = (4 * B) // pi
    sideY = 2 * Y + 1
    Ycells = sideY**n
    budget.charge(Ycells, "shift table")
    lags = pi * np.arange(-Y, Y + 1, dtype=np.int64)

    # the two pair passes, both inside classes mod pi: pq-solutions with each
    # other, and q-solutions x with the box points c = x + pi y.  For x_a,
    # x_c in one class mod pi, ycode[c] - ycode[a] + Ycells // 2 is the flat
    # key of the shift (x_c - x_a) / pi, whose digits lie in [-Y, Y].
    # Inside a class, index order is ycode order, so a triangular pass (c at
    # or after a) emits the shifts y >= 0, y = 0 once as (a, a).  The
    # correlations are always triangular, since corr(-y) = corr(y); level 1
    # and level 2's second join only when the tables mirror.
    mirror = _mirrors(f, w1)
    by_pi = _stable_order(cls_pi)  # box points by (class mod pi, index)
    a_pq = by_pi[solpq[by_pi]]  # the pq-solutions, in that order
    ycode = _code(ax // pi, sideY, n)
    key = cls_pi[a_pq]
    npairs_corr, _, corr_pairs = _pair_join(key, key, np.arange(key.size))
    # Level 1 splits each shift y by the class v mod p of x and the
    # difference residue a = f(c) mod q, under the key (y, v, a).  For a
    # fixed y, (y, v, a) is in bijection with (y, b), where b = (c mod p,
    # f(c) mod q) is the box class of c, because v = (c - pi y) mod p.  So
    # the rows (c, x) run in (b, c, x) order: b numbered in order among the
    # classes the box meets, x over the q-solutions of c's class mod pi, at
    # or before c when the tables mirror.  The sums V(y, b) of the weight
    # products w = W(x) W(c) are the class sums of the key (y, v, a), and
    # the tables follow from the rows alone, as sum_k V_k^2 = sum_rows w V_k
    # for the rows' keys k:
    #   t0(y) = sum_{v,a} V,      ss3(y) = sum_{v,a} V^2,
    #   t1(y) = sum_v V(a = 0),   ss2(y) = sum_v V(a = 0)^2,
    #   sxy(y) = sum of V(a = 0) over the v in X_y.
    # A float table therefore adds its rows in (b, c, x) order, whatever
    # the chunk size.  border sorts the box points by (b, index).
    bclass, border, _ = _key_codes(np.stack([fq_v, _code(ax % p, p, n)]))
    xs = by_pi[solq[by_pi]]  # the q-solutions, in that order
    xfirst = np.searchsorted(cls_pi[xs], cls_pi)
    if mirror:  # the q-solutions of c's class up to c itself
        xend = np.empty(M, dtype=np.int64)
        xend[by_pi] = np.cumsum(solq[by_pi])
    else:
        xend = np.searchsorted(cls_pi[xs], cls_pi, "right")
    xcnt = (xend - xfirst)[border]
    budget.charge(npairs_corr + int(xcnt.sum()), "correlation pairs")
    fs_axis = _lag_sums(w1, np.stack([0 * lags, lags], axis=1))
    fs_num = _outer(_product, [fs_axis] * n)

    # congruence part of corr(y), each shift in the join's order; key is
    # sorted, so the right order is the identity and one gather serves both
    rkey, wpq = ycode[a_pq], wnum[a_pq]
    lkey = Ycells // 2 - rkey
    corr = _Bins(Ycells, D.exact)
    for li, ri in corr_pairs:
        corr.add(lkey[li] + rkey[ri], _product(wpq[li], wpq[ri]))
    congnum = _mirror(corr.total())

    # X_y(F_p): pairs of zeros of f mod p at shift pi*y
    pn = p**n
    budget.charge(pn, "zero grid mod p")
    gz = eval_on_axes(f, [np.arange(p, dtype=np.int64)] * n, p) == 0
    gz = gz.reshape((p,) * n)  # axis n-1-i <-> coordinate i (0-based)
    # pi y mod p, the shift's class, is the grid of the axis residues res
    res, inv = np.unique(lags % p, return_inverse=True)
    budget.charge(res.size**n * pn, "shifted zero grids mod p")
    xcount = np.array([
        np.count_nonzero(gz & np.roll(gz, tuple(-res[d[::-1]]), axis=tuple(range(n))))
        for d in _digits(np.arange(res.size**n), res.size, n)],
        dtype=np.int64)[_code(inv, res.size, n)]

    t0_num, t1_num, ss2, ss3, sxy_num = _level1(
        border, bclass, xfirst[border], xcnt, xs, ycode, wnum, fq_v,
        solpq, Ycells, mirror)

    ledger = PipelineLedger(
        params=params,
        n=n,
        exact=D.exact,
        den1=den1,
        box_weight_total=box_weight_total,
        count_full=count_full,
        count_pq=count_pq,
        expected_per_class=K,
        zero_classes=zero_classes,
        first_moment=S,
        second_moment=Sigma,
        coarse_deviation=E0,
        shift_range=Y,
        corr_num=congnum,
        fs_num=fs_num,
        t0_num=t0_num,
        t1_num=t1_num,
        ss2=ss2,
        ss3=ss3,
        sxy_num=sxy_num,
        xcount=xcount,
        residuals={},
        warnings=warnings,
    )
    ledger.residuals = _residuals(ledger, inner_sq)

    if params.with_pair_table:
        _build_pair_table(ledger, ax, wnum, w1, fq_v, cls_pi, bclass, ycode,
                          mirror, budget)
    return ledger


def _check(D: _Domain, name: str, kind: str, value, scale=1.0) -> ResidualCheck:
    """An identity (|value| <= tol) or inequality (value >= -tol) in D."""
    if isinstance(value, np.generic):
        value = value.item()
    tol = D.tol(scale)
    ok = abs(value) <= tol if kind == "identity" else value >= -tol
    return ResidualCheck(name, ok, value, tol, kind)


def _residuals(led: PipelineLedger, inner_sq) -> dict:
    """The level-0 and per-shift identities, from the ledger's tables and
    inner_sq = sum_u inner(u)^2 (den1^2 scale)."""
    D, pr, n = led._dom, led.params, led.n
    pin, pn, q = pr.pi**n, pr.p**n, pr.q
    K, S, Sigma = led.expected_per_class, led.first_moment, led.second_moment
    congnum = led.corr_num
    out: dict[str, ResidualCheck] = {}

    def put(name, kind, value, scale=1.0):
        out[name] = _check(D, name, kind, value, scale)

    # partition: N_W(f,B,pi p q) = S + K * zero_classes
    put("partition", "identity", led.count_full - (S + K * led.zero_classes),
        led.count_full)

    # square_expansion: sum_u inner^2 = sum_y congnum
    cong_total = D.total(congnum)
    put("square_expansion", "identity", inner_sq - cong_total,
        max(abs(inner_sq), abs(cong_total)))

    # variance_assembly: the corr-sum and the (pq)^-2 FS-sum recombine into
    # the plain congruence sum, so the check reads
    #   Sigma = sum_y congnum(y) - 2 K N_W(f,B,pq) + pi^n K^2
    sum_cong = D.frac(cong_total, led.den1**2)
    assembled = sum_cong - 2 * K * led.count_pq + pin * K * K
    put("variance_assembly", "identity", Sigma - assembled,
        max(abs(Sigma), abs(assembled), 1.0))

    # cauchy_schwarz: S^2 <= zero_classes * Sigma
    put("cauchy_schwarz", "inequality", led.zero_classes * Sigma - S * S,
        led.zero_classes * Sigma)

    # support_vanishing: corr(y) = 0 outside the weight support
    lags = np.abs(pr.pi * np.arange(-led.shift_range, led.shift_range + 1))
    dead = _outer(np.maximum, [lags] * n) >= 4 * pr.B  # max_i |pi y_i| >= 4B
    put("support_vanishing", "identity",
        max(np.abs(congnum[dead]).max(initial=0),
            np.abs(led.fs_num[dead]).max(initial=0)))

    # per_shift_defect: corr(y) - S(y) = E2(y) reduces to congnum == sxy_num
    put("per_shift_defect", "identity",
        np.max(np.abs(congnum - led.sxy_num)), np.max(np.abs(congnum)))

    # per_shift_cauchy and refinement_monotone, as scaled numerators
    cauchy, monotone, sc = _least_margins(pn, q, (
        led.fs_num, led.t0_num, led.t1_num, led.ss2, led.ss3, led.sxy_num,
        led.xcount))
    put("per_shift_cauchy", "inequality", cauchy,
        sc * max(1.0, float(np.max(led.xcount, initial=1))))
    put("refinement_monotone", "inequality", monotone, sc)
    return out


def _margins(pn: int, q: int, fs, t0, t1, ss2, ss3, sxy, xc, s=-1):
    """Per shift, the margins of per_shift_cauchy, xc Sigma - S^2, and of
    refinement_monotone, Sigma' - Sigma, and Sigma, all scaled by
    (p^n q^2 den1^2)^2: from the tables' numerators, in their dtype.  With
    s = +1 and |tables| it is the same expression with every difference a
    sum, the bound of ``_least_margins``."""
    c1 = pn * q * q
    snum = c1 * sxy + s * (xc * fs)
    sig = pn * pn * q**4 * ss2 + s * (2 * c1 * fs * t1) + pn * fs**2
    sigp = pn * pn * q**4 * ss3 + s * (2 * c1 * fs * t0) + pn * q * fs**2
    return xc * sig + s * (snum * snum), sigp + s * sig, sig


def _least_margins(pn: int, q: int, tables) -> list:
    """The least margin of each inequality of ``_margins`` over the shifts,
    exact from exact tables, and max |Sigma| over the shifts in float64, the
    scale of a float tolerance.

    Both margins are evaluated in float64, C, and so is the same expression
    over the |tables| with every difference a sum, E.  C is a sum of signed
    monomials in the tables and constants, and each monomial passes through
    at most 10 roundings, the conversion of each table and constant to
    float64 included.  So |C - exact| <= gamma_10 E0, with E0 the exact
    value of E (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.3), and E >= (1 - gamma_10) E0, as no nonzero term is below
    1.  The bound e = RESIDUAL_SLACK E = 2^-40 E is about 2^9 gamma_16
    E > gamma_10 E0, which also covers the roundings of C - e and C + e.  A
    shift whose C - e is above min(C + e) cannot hold the minimum, and e = 0
    means E = 0, so its C is an exact 0; only the other shifts, and one
    exact 0, are evaluated again in Python ints, or floats for float64
    tables.  A value past float64 makes e inf or nan, which leaves its
    shift undecided.  For float64 tables the shadow is the tables, the least
    shift is always undecided, and Python floats round as float64, so the
    result is np.min(C)."""
    shadow = [np.asarray(a, np.float64) for a in tables]
    with np.errstate(over="ignore", invalid="ignore"):
        *vals, sig = _margins(pn, q, *shadow)
        bars = _margins(pn, q, *(np.abs(a) for a in shadow), s=1)[:2]
    least = []
    for j, (c, bar) in enumerate(zip(vals, bars)):
        e = RESIDUAL_SLACK * bar
        undecided = ~(c - e > np.min(c + e))
        zero = np.flatnonzero(undecided & (e == 0))[:1]  # one stands for all
        at = np.concatenate([np.flatnonzero(undecided & (e != 0)), zero])
        least.append(min(_margins(pn, q, *(a[at].astype(object) for a in tables))[j]))
    return [*least, float(np.max(np.abs(sig)))]


def _build_pair_table(ledger, ax, wnum, w1, fq_v, cls_pi, bclass, ycode,
                      mirror, budget):
    """Second differencing: corr2(y, z) tables and their per-y aggregates."""
    pr = ledger.params
    B, pi, p, q, n = pr.B, pr.pi, pr.p, pr.q, ledger.n
    Y, Z, L = ledger.shift_range, (4 * B) // p, w1.size
    budget.charge((2 * Z + 1) ** n * L**n, "pair-table windows")

    D = ledger._dom
    # per-coordinate quadruple weight sums T(pi y_i, p z_i), summed for z_i
    # >= 0: T(a, -c) = T(a, c) for every weight (m -> m + c), so the columns
    # z_i < 0 are copies
    a = np.repeat(pi * np.arange(-Y, Y + 1, dtype=np.int64), Z + 1)
    c = np.tile(p * np.arange(Z + 1, dtype=np.int64), 2 * Y + 1)
    half = _lag_sums(w1, np.stack([0 * a, a, c, a + c], axis=1)).reshape(2 * Y + 1, -1)
    t2d = np.hstack([half[:, :0:-1], half])
    ledger._t2d_table = t2d
    ledger.pair_range, ledger.pair_quarter = Z, mirror
    ledger.pair_keys, ledger.pair_num = _pair_cells(
        ledger, ax, wnum, fq_v, cls_pi, bclass, ycode, mirror, budget)
    ledger.qsum, ledger.abs2_num = _level2_cells(
        ledger.pair_keys, ledger.pair_num, t2d, n, q**3, D, mirror)

    # refined_square_expansion: sum over (v, a) of squared bin sums equals
    # the z-sum of pair congruence parts (both at the den1^4 scale)
    # (int64 entries are below INT64_LIMIT, so their difference is int64)
    ss3, qsum = ledger.ss3, ledger.qsum
    if object in (ss3.dtype, qsum.dtype):
        ss3, qsum = D.lift(ss3), D.lift(qsum)
    ledger.residuals["refined_square_expansion"] = _check(
        D, "refined_square_expansion", "identity",
        np.max(np.abs(ss3 - qsum)), np.max(np.abs(ledger.ss3)),
    )

    ledger.aggregate = _aggregate_from_abs(ledger)


def _pair_cells(ledger, ax, wnum, fq_v, cls_pi, bclass, ycode, mirror,
                budget):
    """The level-2 cells (y, z) that the joins fill, z >= 0 and, when the
    tables mirror, y >= 0, as sorted keys h Ycells + ky (kz = Zcells // 2 +
    h), and their congruence parts; the joins' arrays live only here."""
    n, exact, Ycells = ledger.n, ledger.exact, len(ledger.corr_num)
    sideZ = 2 * ledger.pair_range + 1
    Zcells = sideZ**n
    ylo = Ycells // 2 if mirror else 0  # the mirrored join emits y >= 0
    width = Ycells - ylo

    # box-point pairs: live points a and c = a + p z with f(a) = f(c) mod q,
    # from one join on the box class (class mod p, f mod q), numbered as in
    # level 1.  Its rows with q | f(a) are the x-pairs; all its rows are the
    # u-side pairs (u, u + p z).  As corr2(y, -z) = corr2(y, z), the join is
    # triangular and keeps z >= 0: index order is zcode order inside a class
    # mod p.  The z = 0 cells stay full, as (x, x) meets every (u, u) of its
    # class, and the ledger keeps only this half.
    live = np.flatnonzero(wnum > 0)  # weights are nonnegative in every kind
    key = bclass[live]
    _, ro, box_pairs = _pair_join(key, key, np.arange(live.size))

    # x-pairs (x, x + p z) joined with box-point pairs (u, u + p z) of the
    # same z inside classes mod pi, so u = x + pi y.  The pairs run in box
    # order of their first point, so inside a group (z, class mod pi) index
    # order is ycode order, and one x meets each y at most once: each cell
    # (y, z) adds its rows in x order.  When the tables mirror, corr2(-y,
    # -z) = corr2(y, z) too, and the join is triangular: an x-pair meets the
    # u-pairs at or after itself, the rows with y >= 0.
    # The classes the box meets are numbered in order, so the group keys
    # (z, class) stay below Zcells * L^n.
    classes, cls = np.unique(cls_pi, return_inverse=True)
    zcode = _code(ax // ledger.params.p, sideZ, n)  # keys z as ycode keys y
    li, ri = (np.concatenate(t) for t in zip(*box_pairs))
    a, c = live[li], live[ro[ri]]  # the pairs (a, c) in box order of a
    del li, ri
    pz = zcode[c] - zcode[a] + Zcells // 2
    pw = _product(wnum[a], wnum[c])
    rgrp = pz * classes.size + cls[a]
    # a row's cell (kz - Zcells // 2) width + ky - ylo, with ky = Ycells // 2
    # - ycode[x] + ycode[u] the flat key of y, splits into an x and a u part
    ucell = ycode[a]
    isx = fq_v[a] == 0
    del a, c
    lgrp, wx = rgrp[isx], pw[isx]
    xcell = (pz[isx] - Zcells // 2) * width + Ycells // 2 - ylo - ucell[isx]
    own = np.flatnonzero(isx) if mirror else None
    del pz, isx
    budget.charge(lgrp.size, "second-difference pairs")

    lo = _stable_order(lgrp)  # the x-pairs by group, in box order inside one
    _, ro, pairs = _pair_join(lgrp[lo], rgrp, None if own is None else own[lo])
    del lgrp, rgrp, own
    xcell, wx, ucell, pw = xcell[lo], wx[lo], ucell[ro], pw[ro]
    rows = ((xcell[li] + ucell[ri], _product(wx[li], pw[ri])) for li, ri in pairs)
    cells, sums = _cell_sums(rows, width, Zcells - Zcells // 2, exact)
    if ylo:  # from h width + ky - ylo to h Ycells + ky
        h, k = np.divmod(cells, width)
        cells = h * Ycells + k + ylo
    return cells, sums


def _level2_cells(cells, c, t2d, n, q3, D2, mirror: bool):
    """qsum and abs2_num of level 2 from its sorted cells h Ycells + ky (kz
    = Zcells // 2 + h), z >= 0, and their congruence parts c; with mirror,
    the cells hold y >= 0 only, and the sums at -y are copies of those at y
    (``_mirror``).  As corr2(y, -z) = corr2(y, z) and FS2(y, -z) = FS2(y,
    z), a cell with z > 0 counts twice, for itself and for (y, -z);
    doubling is exact.  Each y adds its cells in z order.  As FS2(y, z) =
    prod_i T(pi y_i, p z_i) >= 0, an empty cell adds FS2 to sum_z |q^3 c -
    FS2|, which is so prod_i R(y_i) plus the filled cells' |q^3 c - FS2| -
    FS2, with R(y_i) = sum_{z_i} T(pi y_i, p z_i) a row sum of t2d.  Such an
    exact term, doubled, lies in [-2 FS2, 2 q^3 c]: int64 holds it where 2
    q^3 c and 2 prod_i R(y_i) >= 2 FS2 are provably below INT64_LIMIT
    (``_fits``)."""
    sideY, sideZ = t2d.shape
    Ycells, Zcells = sideY**n, sideZ**n
    ylo = Ycells // 2 if mirror else 0  # the y the cells cover
    h, ky = np.divmod(cells, Ycells)
    kz, m = Zcells // 2 + h, 1 + (h > 0)  # m: the cells (y, +-z) it stands for
    qsum = _Bins(Ycells, D2.exact).add(ky, m * c).total()
    R = _Bins(sideY, D2.exact).add(np.arange(t2d.size) // sideZ, t2d.ravel()).total()
    rsum = _outer(_product, [R] * n)  # prod_i R(y_i)
    abs2 = _Bins(Ycells, D2.exact).add(np.arange(ylo, Ycells), rsum[ylo:])

    def term(c, f, m):  # m (|q^3 c - FS2| - FS2), in place
        t = q3 * c
        t -= f
        np.abs(t, out=t)
        t -= f
        t *= m
        return t

    # an exact term in int64 where it provably fits, in Python ints elsewhere
    ok = (_fits(q3) & _fits(2 * q3, c) & _fits(2 * rsum)[ky] if D2.exact
          else np.ones(ky.size, dtype=bool))
    for at, t in ((ok, t2d), (~ok, t2d.astype(object))):
        if at.all():  # the cells as they are, not copies
            at = slice(None)
        elif not at.any():
            continue
        k = ky[at]
        abs2.add(k, term(c[at].astype(t.dtype, copy=False), _fs2(t, k, kz[at], n),
                         m[at]))
    if mirror:
        return _mirror(qsum), _mirror(abs2.total())
    return qsum, abs2.total()


def _aggregate_from_abs(ledger) -> float:
    """pi^((n-1)/2) p^((n-2)/4) (sum_{y != 0} sqrt(sum_z |corr2|))^(1/2)."""
    pr, n, D = ledger.params, ledger.n, ledger._dom
    abs2 = D.lift(ledger.abs2_num)
    # exact sums as Python ints: int / int rounds correctly, as float(Fraction)
    vals = abs2 / (pr.q**3 * D.den1**4)
    roots = np.delete(np.sqrt(vals.astype(np.float64)), len(abs2) // 2)  # y = 0
    # cumsum adds left to right, as a loop does (np.sum would add pairwise)
    total = np.cumsum(np.concatenate([[0.0], roots]))[-1]
    return pr.pi ** ((n - 1) / 2) * pr.p ** ((n - 2) / 4) * math.sqrt(total)


# -- deviation probe ------------------------------------------------------------


@dataclass
class DeviationReport:
    """Measured deviation of a weighted two-prime count from its density
    heuristic, next to the four-term bound it should sit under."""

    n: int
    r: int
    B: int
    p: int
    q: int
    weight: str
    count: object  # N_W(f, B, pq)
    box_total: object  # N_W(0, B, 1)
    expected: object  # (pq)^-r * box_total
    measured: float
    terms: dict  # name -> float
    c_scan: list  # (C, smooth-tail value)
    best_c: int
    bound: float
    within: bool
    geometry: dict  # per-prime non-singularity verdicts
    warnings: list


def deviation_probe(
    forms,
    B: int,
    p: int,
    q: int,
    weight: str = "hat",
    budget: Budget | None = None,
) -> DeviationReport:
    """Compare |N_W(f, B, pq) - (pq)^(-r) N_W(0, B, 1)| with the bound

        B^((n+1)/2) p^(-r/2) q^((n-r-1)/4)   (square-root route in p)
      + B^((n+1)/2) p^((n-2r)/2) q^(-1/4)    (square-root route in q)
      + B^n p^(-(n+r-1)/2) q^(-r)            (density floor)
      + min_C B^(n-C/2) p^((C-r)/2) q^(-r/2) (weight-smoothness tail)

    taken with implied constant 1.  The bound only makes sense when both
    reductions cut out non-singular codimension-r sets, so that is checked
    first and failure refuses the run.
    """
    if isinstance(forms, IntPoly):
        forms = [forms]
    forms = list(forms)
    if not forms:
        raise InputError("need at least one form")
    n = forms[0].n
    r = len(forms)
    for f in forms:
        if f.n != n:
            raise InputError("mixed variable counts")
        if f.degree() < 1 or not f.is_homogeneous():
            raise InputError("deviation probe needs homogeneous forms of "
                             "positive degree")
    if not 1 <= r < n:
        raise InputError("need 1 <= #forms < #variables", r=r, n=n)
    for m in (p, q):
        if not is_prime(m):
            raise InputError("moduli must be prime", value=m)
    if p == q:
        raise InputError("the two primes must differ")
    if B < 1:
        raise InputError("B must be >= 1", B=B)
    budget = ensure_budget(budget)
    warnings: list[str] = []
    if not (p <= B <= q):
        warnings.append(
            f"outside design regime: want p <= B <= q, got p={p} B={B} q={q}"
        )

    geometry: dict[str, str] = {}
    for m in (p, q):
        fld = field_make(m)
        reduced = [reduce_mod(f, fld) for f in forms]
        if any(g.is_zero() for g in reduced):
            raise PreconditionError(
                "a form vanishes identically mod a probe prime", prime=m
            )
        if r == 1:
            rep = r_check(forms[0], m, budget=budget, which=("r0",))
            verdict = rep.r0.verdict
            if verdict == "fails":
                raise PreconditionError(
                    "reduction is singular", prime=m, witness=rep.r0.witness
                )
            if verdict == "skipped_budget":
                warnings.append(f"non-singularity unverified mod {m}: budget")
            geometry[str(m)] = verdict
        else:
            srep = sing_points(
                VarietySpec(fld, n, tuple(reduced)), expected_codim=r,
                budget=budget,
            )
            if srep.sing_points:
                raise PreconditionError(
                    "reduction is singular", prime=m,
                    witnesses=srep.witnesses[:4],
                )
            if srep.dim_est_variety != n - 1 - r:
                raise PreconditionError(
                    "reduction does not look like codimension r",
                    prime=m, dim=srep.dim_est_variety, expected=n - 1 - r,
                )
            geometry[str(m)] = "holds_empirically"

    cnt = weighted_count(forms, B, p * q, weight, budget)
    box = weighted_count([IntPoly.zero(n)], B, 1, weight, budget)
    expected = box.value / _Domain(cnt.exact).frac((p * q) ** r, 1)
    measured = float(abs(cnt.value - expected))

    t1 = B ** ((n + 1) / 2) * p ** (-r / 2) * q ** ((n - r - 1) / 4)
    t2 = B ** ((n + 1) / 2) * p ** ((n - 2 * r) / 2) * q ** (-1 / 4)
    t3 = float(B) ** n * p ** (-(n + r - 1) / 2) * float(q) ** (-r)
    c_scan = []
    for C in range(1, n):
        c_scan.append(
            (C, B ** (n - C / 2) * p ** ((C - r) / 2) * q ** (-r / 2))
        )
    best_c, t4 = min(c_scan, key=lambda t: t[1])
    bound = t1 + t2 + t3 + t4
    return DeviationReport(
        n=n, r=r, B=B, p=p, q=q, weight=weight,
        count=cnt.value,
        box_total=box.value,
        expected=expected,
        measured=measured,
        terms={
            "sqrt_p_route": t1,
            "sqrt_q_route": t2,
            "density_floor": t3,
            "smooth_tail": t4,
        },
        c_scan=c_scan,
        best_c=best_c,
        bound=bound,
        within=measured <= bound,
        geometry=geometry,
        warnings=warnings,
    )
