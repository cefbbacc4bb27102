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
of 2B) and float64 for the smooth kind.  Level 2 may still run in float64
for exact weights: when its tables could overflow int64 it does, records
that in ``pair_exact`` (``pair.exact`` in the CLI) and adds a warning.  The
ledger verifies the algebraic identities tying the levels together:

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

Each identity is written once, over a numeric domain.  An exact domain
checks it with tolerance 0; a float64 domain allows
SMOOTH_RTOL * max(1, |scale|), with scale the size of the compared terms.

Every pair pass is one grouped join (``_pair_join``): the points of one set
paired with those of another inside equal groups (classes mod pi for the
correlations and level 1, classes mod p for the x-pairs of level 2, and
(z, class mod pi) for the pair table), emitted in (group, left, right)
order in chunks of at most PAIR_BLOCK pairs.  Each pass supplies only a
key and a weight per pair.  Exact sums do not depend on order; float sums
do, so each is cut into fixed parts: the correlations per 32 consecutive
classes mod pi, level 1 per class mod pi and block of
LEVEL1_PART // |box class| q-solutions, the pair table per z.  A part adds
its pairs to zero in emission order and the parts are added in order, so
float results do not depend on the chunk size, and one code path serves
both domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import Weight, eval_on_axes, weighted_count
from .errors import Budget, InputError, PreconditionError, ensure_budget
from .ffield import field_make, is_prime, reduce_mod
from .geometry import RCheckPolicy, VarietySpec, r_check, sing_points
from .mpoly import IntPoly
from .parallel import pairwise_sum

PAIR_TABLE_MAX_CELLS = 1 << 24
PAIR_BLOCK = 1 << 18  # max pair rows materialized at once
LEVEL1_PART = 1 << 21  # pair rows per level-1 float part, apart from PAIR_BLOCK
SMOOTH_RTOL = 1e-9


class _Domain:
    """The numbers one ledger level is computed in.

    Exact: integer numerators over powers of den1 (the single-weight
    denominator), Fractions once a denominator is applied, tolerance 0.
    Float: float64 values (den1 = 1), pairwise sums, tolerance
    SMOOTH_RTOL * max(1, |scale|).
    """

    def __init__(self, exact: bool, den1: int = 1):
        self.exact = exact
        self.den1 = den1

    def frac(self, num, den):
        """The scalar num / den."""
        return Fraction(int(num), den) if self.exact else float(num) / den

    def lift(self, arr: np.ndarray) -> np.ndarray:
        """arr in a dtype whose products and sums cannot overflow."""
        return arr.astype(object) if self.exact else np.asarray(arr, np.float64)

    def scaled(self, nums: np.ndarray, den) -> np.ndarray:
        """Numerators over den as this domain carries them: exact keeps the
        numerators (den is applied by value), float divides now."""
        return nums if self.exact else self.lift(nums) / den

    def value(self, carried, den):
        """The scalar behind one entry of a scaled(nums, den) array."""
        return Fraction(int(carried), den) if self.exact else float(carried)

    def total(self, vals: np.ndarray, mask: np.ndarray | None = None):
        """Sum of vals (where mask holds); exact sums use int64 only under a
        checked bound."""
        if not self.exact:
            return pairwise_sum(vals if mask is None else np.where(mask, vals, 0.0))
        vals = vals if mask is None else vals[mask]
        if vals.dtype == np.int64 and vals.size and (
            int(np.abs(vals).max()) * vals.size < 2**63
        ):
            return int(vals.sum())
        return sum(vals.tolist())

    def fits(self, bound) -> bool:
        """Whether sums up to bound may accumulate in int64 (float: always)."""
        return not self.exact or bound < 2**62

    def tol(self, scale) -> float:
        return 0.0 if self.exact else SMOOTH_RTOL * max(1.0, abs(float(scale)))


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
        if self.weight == "zero":
            raise InputError("zero weight is not meaningful here")
        # level 1 packs (shift, class mod p, residue mod q) into one int64 key
        n = self.f.n
        shift_cells = (2 * (4 * self.B // self.pi) + 1) ** n
        if shift_cells * self.p**n * self.q >= 2**63:
            raise PreconditionError(
                "level-1 keys would overflow int64",
                shift_cells=shift_cells, p=self.p, q=self.q, n=n,
            )
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
    pair_table: np.ndarray | None = None  # (Ycells, Zcells) congruence parts
    qsum: np.ndarray | None = None  # sum_z of pair congruence parts, per y
    abs2_num: np.ndarray | None = None  # sum_z |q^3 cong - FS2|, per y (objects)
    aggregate: float | None = None  # E4-style aggregate from level 2
    pair_exact: bool = True  # level 2 ran in exact integers (vs float64)
    _inner_num: np.ndarray | None = None  # level-0 class sums (den1 scale)
    _pair_dom: _Domain | None = None  # the domain level 2 ran in
    _t2d_table: np.ndarray | None = None

    @property
    def _dom(self) -> _Domain:
        return _Domain(self.exact, self.den1)

    # -- helpers ------------------------------------------------------------

    def _shift_digits(self, key: int) -> tuple:
        Y, n = self.shift_range, self.n
        side = 2 * Y + 1
        out = []
        for _ in range(n):
            out.append(key % side - Y)
            key //= side
        return tuple(out)

    def shift_key(self, y) -> int:
        Y, n = self.shift_range, self.n
        side = 2 * Y + 1
        key = 0
        for i in reversed(range(n)):
            c = int(y[i])
            if abs(c) > Y:
                raise InputError("shift outside table", y=list(y), Y=Y)
            key = key * side + (c + Y)
        return key

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
        n, p, q = self.n, pr.p, pr.q
        den2 = self.den1**2
        xc = int(self.xcount[k])
        expected = D.frac(self.fs_num[k], p**n * q * q * den2)
        return ShiftRecord(
            y=self._shift_digits(k),
            corr=self.corr(self._shift_digits(k)),
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
        """The two-level correlation at (y, z); needs the pair table."""
        if self.pair_table is None:
            raise PreconditionError("pair table was not built")
        ky = self.shift_key(y)
        Z, n = self.pair_range, self.n
        side = 2 * Z + 1
        kz = 0
        for i in reversed(range(n)):
            c = int(z[i])
            if abs(c) > Z:
                raise InputError("second shift outside table", z=list(z), Z=Z)
            kz = kz * side + (c + Z)
        D2 = self._pair_dom
        den4 = D2.den1**4
        return D2.frac(self.pair_table[ky, kz], den4) - D2.frac(
            self._fs2_cell(ky, kz), self.params.q**3 * den4
        )

    def _fs2_cell(self, ky: int, kz: int):
        t2d = self._t2d_table
        Y, Z, n = self.shift_range, self.pair_range, self.n
        sideY, sideZ = 2 * Y + 1, 2 * Z + 1
        v = 1
        for _ in range(n):
            v = v * t2d[ky % sideY, kz % sideZ]
            ky //= sideY
            kz //= sideZ
        return v


# -- small structural helpers -------------------------------------------------


def _sep_product(arrs: list[np.ndarray]) -> np.ndarray:
    """Flattened outer product with the first array's index fastest."""
    out = arrs[0]
    for a in arrs[1:]:
        out = (a[:, None] * out[None, :]).ravel()
    return out


def _coords_from_flat(idx: np.ndarray, L: int, n: int, H: int) -> np.ndarray:
    out = np.empty((idx.size, n), dtype=np.int64)
    t = idx.astype(np.int64, copy=True)
    for i in range(n):
        out[:, i] = t % L - H
        t //= L
    return out


def _class_ids(coords: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros(coords.shape[0], dtype=np.int64)
    scale = 1
    for i in range(coords.shape[1]):
        out += (coords[:, i] % m) * scale
        scale *= m
    return out


def _quot_code(coords: np.ndarray, m: int, side: int) -> np.ndarray:
    """sum_i (x_i // m) side^i per box point.  For x_a, x_c in one class mod
    m, code[c] - code[a] + side^n // 2 is the flat key (digit 0 fastest,
    digits in [-(side // 2), side // 2]) of the shift (x_c - x_a) / m."""
    return (coords // m) @ side ** np.arange(coords.shape[1], dtype=np.int64)


def _pair_join(left: np.ndarray, right: np.ndarray):
    """All pairs (i, j) with left[i] == right[j], grouped by that key.

    Returns (npairs, chunks).  chunks yields (li, ri) index arrays of at most
    PAIR_BLOCK pairs, in (key, i, j) order; npairs = sum over keys of the
    product of the two group sizes.
    """
    lo = np.argsort(left, kind="stable")
    ro = np.argsort(right, kind="stable")
    rs = right[ro]
    first = np.searchsorted(rs, left[lo], "left")  # each left row's right group
    cnt = np.searchsorted(rs, left[lo], "right") - first
    ends = np.cumsum(cnt)
    starts = ends - cnt
    npairs = int(ends[-1]) if ends.size else 0

    def chunks():
        cs = np.arange(0, npairs, PAIR_BLOCK)  # chunk c is pairs [cs, ce)
        ce = np.minimum(cs + PAIR_BLOCK, npairs)
        ra = np.searchsorted(ends, cs, "right")  # its left rows are [ra, rb)
        rb = np.searchsorted(ends, ce, "left") + 1
        for s, e, a, b in zip(*(v.tolist() for v in (cs, ce, ra, rb))):
            c = np.minimum(ends[a:b], e) - np.maximum(starts[a:b], s)
            li = lo[a:b].repeat(c)
            ri = ro[(first[a:b] - starts[a:b]).repeat(c) + np.arange(s, e)]
            yield li, ri

    return npairs, chunks()


def _fold(keys, w, dtype, parts=None):
    """Sums of w per key, or per (key, part), each adding its rows to zero
    in arrival order.  Returns (keys, parts or None, sums), sorted by key
    and, within a key, in arrival order."""
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    new = np.ones(ks.size, dtype=bool)
    new[1:] = ks[1:] != ks[:-1]
    if parts is not None:
        parts = parts[order]
        new[1:] |= parts[1:] != parts[:-1]
        parts = parts[new]
    inv = np.empty(ks.size, dtype=np.int64)
    inv[order] = np.cumsum(new) - 1
    sums = np.zeros(int(new.sum()), dtype=dtype)
    np.add.at(sums, inv, w)
    return ks[new], parts, sums


def _part_sums(chunks, dtype):
    """Per-key sums of (part, key, weight) rows that arrive in chunks whose
    part ids never decrease.

    Each (part, key) sum adds its rows to zero in arrival order, and each
    key's total adds its part sums to zero in part order, so float totals
    depend on the parts, not on the chunking.  Rows are held until their
    part is complete.  Returns (sorted keys, totals).
    """
    done, held, cur = [], [], None

    def fold_held():
        ps, ks, ws = (np.concatenate(c) for c in zip(*held))
        gk, _, sums = _fold(ks, ws, dtype, ps)
        done.append((gk, sums))

    for part, key, w in chunks:
        if part[-1] != cur:  # the held rows' parts are complete
            cut = int(np.searchsorted(part, part[-1]))
            held.append((part[:cut], key[:cut], w[:cut]))
            fold_held()
            held, cur = [], part[-1]
            part, key, w = part[cut:], key[cut:], w[cut:]
        held.append((part, key, w))
    if held:
        fold_held()
    keys = np.concatenate([np.zeros(0, dtype=np.int64)] + [k for k, _ in done])
    sums = np.concatenate([np.zeros(0, dtype=dtype)] + [v for _, v in done])
    keys, _, totals = _fold(keys, sums, dtype)
    return keys, totals


def _part_slabs(chunks, nparts: int, size: int, dtype):
    """Dense per-part sums of (part, key, weight) rows that arrive in chunks
    whose part ids never decrease: yields, for each part 0..nparts-1 in
    order, the array whose entry k adds the part's key-k weights to zero in
    arrival order."""
    acc, cur = np.zeros(size, dtype=dtype), 0
    for part, key, w in chunks:
        cuts = (np.flatnonzero(part[1:] != part[:-1]) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [part.size]):
            while cur < part[lo]:
                yield acc
                acc, cur = np.zeros(size, dtype=dtype), cur + 1
            np.add.at(acc, key[lo:hi], w[lo:hi])
    for _ in range(cur, nparts):
        yield acc
        acc = np.zeros(size, dtype=dtype)


def _sq_bincount(keys: np.ndarray, vals: np.ndarray, size: int):
    """Per-bin sum of squared values, in vals' dtype except that int64 lifts
    to Python ints unless the squares provably fit."""
    # with every square below 2^62, the first prefix sum to reach 2^62 comes
    # before any int64 wrap, so the cumsum test is exact
    if vals.dtype == np.int64 and vals.size and not (
        int(vals.max()) < 2**31 and int(np.cumsum(vals * vals).max()) < 2**62
    ):
        vals = vals.astype(object)
    out = np.zeros(size, dtype=vals.dtype)
    np.add.at(out, keys, vals * vals)
    return out


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

    w1, den = w.axis_values(B)
    den = den if den is not None else 1
    den1 = den**n
    D = _Domain(w.exact, den1)
    axes = [np.arange(-H, H + 1, dtype=np.int64)] * n
    fpi_v = eval_on_axes(f, axes, pi)
    fp_v = eval_on_axes(f, axes, p)
    fq_v = eval_on_axes(f, axes, q)
    wnum = _sep_product([w1] * n)
    coords = _coords_from_flat(np.arange(M), L, n, H)
    cls_pi = _class_ids(coords, pi)
    cls_p = _class_ids(coords, p)
    solq = fq_v == 0
    solpq = solq & (fp_v == 0)
    solfull = solpq & (fpi_v == 0)

    box_total_num = D.total(w1) ** n
    box_weight_total = D.frac(box_total_num, den1)
    count_full = D.frac(D.total(wnum, solfull), den1)
    count_pq = D.frac(D.total(wnum, solpq), den1)
    K = D.frac(box_total_num, pi**n * p * q * den1)

    # Accumulator dtype: the weights' own, except that exact sums lift to
    # Python ints when a conservative per-bin bound (total box weight times
    # one max weight factor) says the pair sums could overflow int64.
    acc_dtype = w1.dtype if D.fits(box_total_num * w1.max().item() ** n) else object

    def _acc(vals):
        return vals.astype(object) if acc_dtype is object else vals

    # level 0: classes mod pi
    pin = pi**n
    budget.charge(pin, "class grid mod pi")
    gpi = eval_on_axes(f, [np.arange(pi, dtype=np.int64)] * n, pi)
    zero_mask = gpi == 0
    zero_classes = int(np.count_nonzero(zero_mask))
    inner_num = np.zeros(pin, dtype=acc_dtype)
    np.add.at(inner_num, cls_pi[solpq], _acc(wnum[solpq]))
    S = D.frac(D.total(inner_num, zero_mask), den1) - K * zero_classes
    Sigma = D.total((D.lift(inner_num) - K * den1) ** 2) / den1**2
    E0 = count_pq - pin * K

    # shift tables
    Y = (4 * B) // pi
    sideY = 2 * Y + 1
    Ycells = sideY**n
    budget.charge(Ycells, "shift table")
    S2 = np.correlate(w1, w1, "full")  # lag c at index c + (L-1)
    lags = pi * np.arange(-Y, Y + 1, dtype=np.int64)
    fs_axis = np.zeros(sideY, dtype=acc_dtype)
    inrange = np.abs(lags) <= L - 1
    fs_axis[inrange] = S2[lags[inrange] + (L - 1)]
    fs_num = _sep_product([fs_axis] * n)

    # the two pair passes, both joins inside classes mod pi: pq-solutions
    # with each other, and q-solutions x with the box points c = x + pi y.
    # A pair's key splits into a left and a right term (see _quot_code).
    a_pq, a_q = np.flatnonzero(solpq), np.flatnonzero(solq)
    ycode = _quot_code(coords, pi, sideY)
    npairs_corr, corr_pairs = _pair_join(cls_pi[a_pq], cls_pi[a_pq])
    npairs_lvl1, lvl1_pairs = _pair_join(cls_pi[a_q], cls_pi)
    budget.charge(npairs_corr + npairs_lvl1, "correlation pairs")

    # congruence part of corr(y); float parts are runs of 32 classes
    corr_part = cls_pi[a_pq] // 32
    lkey, rkey, wpq = Ycells // 2 - ycode[a_pq], ycode[a_pq], wnum[a_pq]
    congnum = np.zeros(Ycells, dtype=acc_dtype)
    for part in _part_slabs(
        ((corr_part[li], lkey[li] + rkey[ri], _acc(wpq[li] * wpq[ri]))
         for li, ri in corr_pairs),
        -(-pin // 32), Ycells, acc_dtype,
    ):
        congnum += part

    # level 1: split each shift by classes v mod p and difference residue a
    # mod q, under the key (y, v, a).  A float part is one class mod pi and
    # one block of LEVEL1_PART // |box class| of its q-solutions.
    pn = p**n
    pnq = pn * q
    qcls = cls_pi[a_q]
    srt = np.argsort(qcls, kind="stable")
    rank = np.empty_like(srt)  # of each q-solution within its class
    rank[srt] = np.arange(srt.size) - np.searchsorted(qcls[srt], qcls[srt])
    blk = np.maximum(1, LEVEL1_PART // np.bincount(cls_pi, minlength=pin)[qcls])
    lvl1_part = qcls * (a_q.size + 1) + rank // blk
    lkey = ((Ycells // 2 - ycode[a_q]) * pn + cls_p[a_q]) * q
    rkey, wq = ycode * pnq + fq_v, wnum[a_q]
    K3, V3 = _part_sums(
        ((lvl1_part[li], lkey[li] + rkey[ri], _acc(wq[li] * wnum[ri]))
         for li, ri in lvl1_pairs),
        acc_dtype,
    )

    y3 = K3 // pnq
    t0_num = np.zeros(Ycells, dtype=acc_dtype)
    np.add.at(t0_num, y3, V3)
    amask = K3 % q == 0
    K2 = K3[amask] // q
    V2 = V3[amask]
    y2 = K2 // pn
    v2 = K2 % pn
    t1_num = np.zeros(Ycells, dtype=acc_dtype)
    np.add.at(t1_num, y2, V2)
    ss3 = _sq_bincount(y3, V3, Ycells)
    ss2 = _sq_bincount(y2, V2, Ycells)

    # X_y(F_p): pairs of zeros of f mod p at shift pi*y
    budget.charge(pn, "zero grid mod p")
    gp = eval_on_axes(f, [np.arange(p, dtype=np.int64)] * n, p)
    gz = gp == 0
    gz_nd = gz.reshape((p,) * n)  # axis n-1-i <-> coordinate i (0-based)
    ydigits = _coords_from_flat(np.arange(Ycells), sideY, n, Y)
    wshift = (pi * ydigits) % p
    wid = np.zeros(Ycells, dtype=np.int64)
    scale = 1
    for i in range(n):
        wid += wshift[:, i] * scale
        scale *= p
    uniq_wid, wid_idx = np.unique(wid, return_inverse=True)
    budget.charge(uniq_wid.size * pn, "shifted zero grids mod p")
    rolled = np.empty((uniq_wid.size, pn), dtype=bool)
    for t_i, wv in enumerate(uniq_wid):
        digs = []
        vv = int(wv)
        for _ in range(n):
            digs.append(vv % p)
            vv //= p
        r = gz_nd
        for i, s in enumerate(digs):
            if s:
                r = np.roll(r, -s, axis=n - 1 - i)
        rolled[t_i] = r.ravel() & gz
    xcount_by_wid = rolled.sum(axis=1)
    xcount = xcount_by_wid[wid_idx].astype(np.int64)

    sxy_num = np.zeros(Ycells, dtype=acc_dtype)
    if K2.size:
        member = rolled[wid_idx[y2], v2]
        np.add.at(sxy_num, y2[member], V2[member])

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
        _inner_num=inner_num,
    )
    ledger.residuals = _residuals(ledger)

    if params.with_pair_table:
        _build_pair_table(ledger, coords, wnum, w1, den, fq_v, cls_pi, cls_p,
                          solq, budget)
    return ledger


def _check(D: _Domain, name: str, kind: str, value, scale=1.0) -> ResidualCheck:
    """An identity (|value| <= tol) or inequality (value >= -tol) in D."""
    if isinstance(value, np.generic):
        value = value.item()
    tol = D.tol(scale)
    ok = abs(value) <= tol if kind == "identity" else value >= -tol
    return ResidualCheck(name, ok, value, tol, kind)


def _residuals(led: PipelineLedger) -> dict:
    """The level-0 and per-shift identities, from the ledger's tables."""
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
    inner = D.lift(led._inner_num)
    lhs, cong_total = D.total(inner * inner), D.total(congnum)
    put("square_expansion", "identity", lhs - cong_total,
        max(abs(lhs), abs(cong_total)))

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
    Y = led.shift_range
    ydigits = _coords_from_flat(np.arange(len(congnum)), 2 * Y + 1, n, Y)
    dead = np.max(np.abs(pr.pi * ydigits), axis=1) >= 4 * pr.B
    put("support_vanishing", "identity",
        max(np.abs(congnum[dead]).max(initial=0),
            np.abs(led.fs_num[dead]).max(initial=0)))

    # per_shift_defect: corr(y) - S(y) = E2(y) reduces to congnum == sxy_num
    put("per_shift_defect", "identity",
        np.max(np.abs(congnum - led.sxy_num)), np.max(np.abs(congnum)))

    # per_shift_cauchy and refinement_monotone, as scaled numerators
    fs, t0, t1, ss2, ss3, sxy, xc = (
        D.lift(a) for a in (led.fs_num, led.t0_num, led.t1_num, led.ss2,
                            led.ss3, led.sxy_num, led.xcount)
    )
    c1 = pn * q * q
    snum = c1 * sxy - xc * fs
    sig_scaled = pn * pn * q**4 * ss2 - 2 * c1 * fs * t1 + pn * fs**2
    sigp_scaled = pn * pn * q**4 * ss3 - 2 * c1 * fs * t0 + pn * q * fs**2
    sc = float(np.max(np.abs(sig_scaled)))
    put("per_shift_cauchy", "inequality", np.min(xc * sig_scaled - snum * snum),
        sc * max(1.0, float(np.max(led.xcount, initial=1))))
    put("refinement_monotone", "inequality", np.min(sigp_scaled - sig_scaled),
        sc)
    return out


def _t2d(w1: np.ndarray, pi: int, p: int, Y: int, Z: int, L: int) -> np.ndarray:
    """Per-coordinate quadruple weight sums T(pi*yc, p*zc)."""
    sideY, sideZ = 2 * Y + 1, 2 * Z + 1
    out = np.zeros((sideY, sideZ), dtype=w1.dtype)
    H = (L - 1) // 2
    for iy in range(sideY):
        a = pi * (iy - Y)
        for iz in range(sideZ):
            c = p * (iz - Z)
            lo = max(-H, -H - a, -H - c, -H - a - c)
            hi = min(H, H - a, H - c, H - a - c)
            if lo > hi:
                continue
            m = np.arange(lo, hi + 1)
            out[iy, iz] = np.sum(
                w1[m + H] * w1[m + a + H] * w1[m + c + H] * w1[m + a + c + H],
                dtype=object if w1.dtype != np.float64 else np.float64,
            )
    return out


def _build_pair_table(ledger, coords, wnum, w1, den, fq_v, cls_pi, cls_p, solq,
                      budget):
    """Second differencing: corr2(y, z) tables and their per-y aggregates."""
    pr = ledger.params
    B, pi, p, q, n = pr.B, pr.pi, pr.p, pr.q, ledger.n
    Y, Ycells = ledger.shift_range, len(ledger.corr_num)
    Z = (4 * B) // p
    sideZ = 2 * Z + 1
    Zcells = sideZ**n
    L = w1.size
    keep_table = Ycells * Zcells <= PAIR_TABLE_MAX_CELLS
    if not keep_table:
        ledger.warnings.append(
            f"pair table summarized: {Ycells}x{Zcells} cells exceed "
            f"{PAIR_TABLE_MAX_CELLS}"
        )
    budget.charge(Zcells * L**n, "pair-table windows")

    pn = p**n
    a_q = np.flatnonzero(solq)

    # Decide whether level 2 fits in int64.  Every accumulated quantity is
    # bounded by q^3 * (sum over x-pairs of their weight product) * (max
    # single pair weight) + (per-axis quadruple bound)^n; if that is too
    # large, run this level in float64 and say so.
    D = ledger._dom
    w1max = w1.max().item()
    xtot = D.lift(np.zeros(pn, dtype=wnum.dtype))  # weight per class mod p
    np.add.at(xtot, cls_p[a_q], D.lift(wnum[a_q]))
    pairsum_x = D.total(xtot * xtot)
    axis4 = w1max**3 * D.total(w1)
    cell_bound = q**3 * pairsum_x * w1max ** (2 * n) + axis4**n
    if D.fits(cell_bound) and ledger.ss3.dtype != object:
        D2 = D
    else:
        D2 = _Domain(False)
        ledger.warnings.append(
            "second-difference tables exceed exact integer range; "
            "level 2 ran in float64"
        )
    ledger.pair_exact = D2.exact
    ledger._pair_dom = D2
    w1 = D2.scaled(w1, den)
    wnum = D2.scaled(wnum, den**n)
    acc_dtype = wnum.dtype

    t2d = _t2d(w1, pi, p, Y, Z, L)
    ledger._t2d_table = t2d
    ledger.pair_range = Z

    # x-pairs: q-solutions paired inside classes mod p, ordered by shift z
    npairs_x, x_pairs = _pair_join(cls_p[a_q], cls_p[a_q])
    budget.charge(npairs_x, "second-difference pairs")
    zcode, wq = _quot_code(coords[a_q], p, sideZ), wnum[a_q]
    xi, zk, wx = [a_q[:0]], [a_q[:0]], [wnum[:0]]
    for li, ri in x_pairs:
        xi.append(a_q[li])
        zk.append(zcode[ri] - zcode[li] + Zcells // 2)
        wx.append(wq[li] * wq[ri])
    perm = np.argsort(np.concatenate(zk), kind="stable")
    xi, zk, wx = (np.concatenate(v)[perm] for v in (xi, zk, wx))
    zk_bounds = np.searchsorted(zk, np.arange(Zcells + 1))

    fq_nd = fq_v.reshape((L,) * n)  # axis n-1-i <-> coordinate i
    w_nd = wnum.reshape((L,) * n)
    idx_nd = np.arange(L**n).reshape((L,) * n)
    zdigits = _coords_from_flat(np.arange(Zcells), sideZ, n, Z)
    ycode = _quot_code(coords, pi, 2 * Y + 1)

    def window(kz):
        """Box points u with u + p z also in the box and f(u) = f(u + p z)
        mod q, with their nonzero weight products."""
        src, dst = [], []
        for s in (p * zdigits[kz]).tolist():
            lo, hi = max(0, -s), L - max(0, s)
            if lo >= hi:
                return a_q[:0], wnum[:0]
            src.append(slice(lo, hi))
            dst.append(slice(lo + s, hi + s))
        # axes are reversed relative to coordinates
        src_t, dst_t = tuple(reversed(src)), tuple(reversed(dst))
        cond = fq_nd[src_t] == fq_nd[dst_t]
        wu = (w_nd[src_t] * w_nd[dst_t])[cond]
        live = wu > 0  # weights are nonnegative in every kind
        return idx_nd[src_t][cond][live], wu[live]

    pin = pi**n
    qsum = np.zeros(Ycells, dtype=acc_dtype)
    # sum_z |q^3 cong - FS2| per y; exact int64 sums move to Python ints
    # (flushed) before their bound could pass 2^62
    abs_acc = np.zeros(Ycells, dtype=acc_dtype)
    flushed, used = 0, 0
    table = np.zeros((Ycells, Zcells), dtype=acc_dtype) if keep_table else None
    q3 = q**3

    def slab_rows():
        """(z, y key, weight) rows of the x-pairs of each z joined with the
        window of z inside classes mod pi, for batches of z."""
        zbatch = max(1, PAIR_BLOCK // L**n)
        for z0 in range(0, Zcells, zbatch):
            wins = [window(kz) for kz in range(z0, min(z0 + zbatch, Zcells))]
            u = np.concatenate([w[0] for w in wins])
            wu = np.concatenate([w[1] for w in wins])
            uz = np.repeat(np.arange(z0, z0 + len(wins)), [w[0].size for w in wins])
            lo, hi = zk_bounds[z0], zk_bounds[z0 + len(wins)]
            xs, xz, wxs = xi[lo:hi], zk[lo:hi], wx[lo:hi]
            xkey = Ycells // 2 - ycode[xs]
            _, pairs = _pair_join(xz * pin + cls_pi[xs], uz * pin + cls_pi[u])
            for li, ri in pairs:
                yield xz[li], xkey[li] + ycode[u[ri]], wxs[li] * wu[ri]

    slabs = _part_slabs(slab_rows(), Zcells, Ycells, acc_dtype)
    for kz, slab in enumerate(slabs):
        fs2 = _sep_product([t2d[:, c] for c in zdigits[kz] + Z])
        if table is not None:
            table[:, kz] = slab
        qsum += slab
        bound = q3 * slab.max().item() + fs2.max().item()
        if not D2.fits(used + bound):
            flushed = flushed + D2.lift(abs_acc)
            abs_acc[:] = 0
            used = 0
        used += bound
        abs_acc += D2.scaled(np.abs(q3 * slab - fs2), q3)
    ledger.qsum = qsum
    ledger.abs2_num = flushed + D2.lift(abs_acc)
    ledger.pair_table = table

    # refined_square_expansion: sum over (v, a) of squared bin sums equals
    # the z-sum of pair congruence parts (ss3 carries den1^4 numerators)
    ss3 = D2.scaled(ledger.ss3, float(ledger.den1) ** 4)
    ledger.residuals["refined_square_expansion"] = _check(
        D2, "refined_square_expansion", "identity",
        np.max(np.abs(D2.lift(ss3) - D2.lift(qsum))), np.max(np.abs(ss3)),
    )

    ledger.aggregate = _aggregate_from_abs(ledger)


def _aggregate_from_abs(ledger) -> float:
    """pi^((n-1)/2) p^((n-2)/4) (sum_{y != 0} sqrt(sum_z |corr2|))^(1/2)."""
    pr = ledger.params
    n, D2 = ledger.n, ledger._pair_dom
    Y, sideY = ledger.shift_range, 2 * ledger.shift_range + 1
    key0 = sum(Y * sideY**i for i in range(n))
    den = pr.q**3 * D2.den1**4
    total = 0.0
    for k in range(len(ledger.abs2_num)):
        if k == key0:
            continue
        total += math.sqrt(float(D2.value(ledger.abs2_num[k], den)))
    return pr.pi ** ((n - 1) / 2) * pr.p ** ((n - 2) / 4) * math.sqrt(total)


def aggregate_bound(ledger: PipelineLedger, recompute: bool = False) -> dict:
    """The level-2 aggregate, optionally re-derived from the stored table
    with the opposite traversal order as an independent cross-check."""
    if ledger.abs2_num is None:
        raise PreconditionError("ledger was built without the pair table")
    out = {"aggregate": ledger.aggregate}
    if recompute:
        if ledger.pair_table is None:
            raise PreconditionError("pair table was summarized; cannot recompute")
        D2, q3, n = ledger._pair_dom, ledger.params.q**3, ledger.n
        Ycells = ledger.pair_table.shape[0]
        ydig = _coords_from_flat(np.arange(Ycells), 2 * ledger.shift_range + 1, n, 0)
        mism = 0
        for ky in range(Ycells):  # y-major, opposite of the build's z-major
            # FS2 over every z as one separable product of this y's rows
            fs2 = _sep_product([ledger._t2d_table[ydig[ky, i]] for i in range(n)])
            step = np.abs(q3 * ledger.pair_table[ky] - fs2)
            acc = D2.total(D2.scaled(step, q3))
            ref = ledger.abs2_num[ky]
            if abs(acc - ref) > D2.tol(ref):
                mism += 1
        out["recomputed_matches"] = mism == 0
        out["mismatched_rows"] = mism
    return out



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
    policy: RCheckPolicy | None = None,
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
            rep = r_check(forms[0], m, policy, budget)
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
