"""Lattice-point counts in boxes, congruence conditions, weights, and
finite-field count probes.

Boxes are sup-norm balls |x_i| <= B around the origin in Z^n.  Counts come
in two flavors:

* counts of x with every listed polynomial divisible by a modulus m, or,
  with m = None, with every listed polynomial zero (exact);
* weighted counts sum W(x/B) over those x, for a weight W supported in
  [-2, 2]^n.

Weights are separable, W(t) = prod_i w1(t_i), with three kinds:

* "indicator": w1 = 1 on [-1, 1], support |x_i| <= B (closed);
* "hat": w1(t) = max(0, 1 - |t|/2), an exact rational at rational points,
  so hat-weighted counts are Fractions with denominator (2B)^n;
* "smooth": w1(t) = exp(-1/(1-(t/2)^2)) for |t| < 2, the standard C^infty
  bump (w1(0) = 1/e); evaluated in float64.

Integer support of hat and smooth is |x_i| <= 2B-1.

Every weighted box sum, here and in the pipeline ledger, is formed by the
rule of this module.  The weight of a point is the separable product
``_outer(_product, ...)``, w(x_n) (... (w(x_2) w(x_1))), over the box in the
order where x1 varies fastest.  Its sum is taken in a numeric domain
(``_Domain``): exact kinds sum integer numerators in the one exact
accumulator, ``_Bins``, in int64 wherever its bound holds; the smooth kind
sums float64 by ``pairwise_sum``, whose reduction tree depends only on the
array length, so float results are reproducible bit for bit.  A sum per
key, here (``_box_sum``'s per-key weight sums) and in the pipeline ledger,
is one ``_Bins`` accumulation in both domains: each key adds its terms in
the order they arrive, however they are cut into chunks.

The box counts factor this rule over f's variable blocks (``_box_sum``).
Two variables are joined when a monomial uses both; the box splits into
two sub-boxes along these components, the smaller one is reduced to its
weight sums per vector of values, and the larger one is scanned against
them, so a diagonal form costs, and is charged, about the square root
of its box.  With one component nothing splits and the sum is the
whole-box rule above, bit for bit; with a split, smooth sums may move in
their last bits.  The pipeline ledger still sums whole boxes.

All enumeration is charged against a Budget before any allocation.

Grids are evaluated by `eval_on_axes`, which only shapes the box axes for
broadcasting; the arithmetic is the one evaluator in `ffield`.  Moduli are
accepted in 1 <= m < 2^63 and refused with InputError outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import Budget, InputError, PreconditionError, ensure_budget
from .ffield import Field, _check_modulus, _eval_terms, _int64_exact, reduce_mod
from .geometry import VarietySpec, affine_count, dim_est_affine, sing_points
from .mpoly import IntPoly

WEIGHT_KINDS = ("indicator", "hat", "smooth")
SMOOTH_RTOL = 1e-9
INT64_LIMIT = 1 << 62  # exact sums and products stay int64 below this
_PROFILE_BLOCK = 1 << 16  # smooth_profile's entries per pass: 512 KiB


def smooth_profile(K: int, D: int) -> np.ndarray:
    """The smooth w1(k/D) for k = -K..K, 0 where 1 - (k/2D)^2 <= 0.  exp runs
    on k >= 0 only; the mirror image is exact, as u*u ignores u's sign.

    The k >= 0 half is filled in blocks of _PROFILE_BLOCK entries, each
    worked in place in its slot of the output and mirrored while it is
    still in cache, so no pass runs over the whole axis.  The bits are
    those of one pass over k = 0..K: every entry takes the same IEEE
    operations, k (exact in float64) / 2D, u*u, 1 - ., max(., 0), -1/.,
    exp, each elementwise on contiguous float64, and the mirror is a copy.
    """
    out = np.empty(2 * K + 1)
    ks = np.arange(min(K + 1, _PROFILE_BLOCK), dtype=np.float64)
    with np.errstate(divide="ignore"):
        for lo in range(0, K + 1, _PROFILE_BLOCK):
            u = out[K + lo:K + min(K + 1, lo + _PROFILE_BLOCK)]
            np.add(ks[:u.size], lo, out=u)
            np.divide(u, 2.0 * D, out=u)
            np.multiply(u, u, out=u)
            np.subtract(1.0, u, out=u)
            np.maximum(u, 0.0, out=u)
            np.divide(-1.0, u, out=u)
            np.exp(u, out=u)
            out[K - lo - u.size + 1:K - lo + 1] = u[::-1]
    return out


class Weight:
    """A separable box weight; see the module docstring for the kinds."""

    def __init__(self, kind: str):
        if kind not in WEIGHT_KINDS:
            raise InputError("unknown weight kind", kind=kind, known=WEIGHT_KINDS)
        self.kind = kind

    @property
    def exact(self) -> bool:
        """Whether weighted sums are exact rationals."""
        return self.kind != "smooth"

    def halfwidth(self, B: int) -> int:
        """Largest |x_i| with (possibly) nonzero weight."""
        return B if self.kind == "indicator" else 2 * B - 1

    def axis_values(self, B: int):
        """Per-coordinate weights over offsets -H..H.

        Returns (values, denominator): int64 numerators with an int
        denominator for exact kinds, (float64 array, None) for smooth.
        """
        H = self.halfwidth(B)
        if self.kind == "indicator":
            return np.ones(2 * H + 1, dtype=np.int64), 1
        if self.kind == "smooth":
            return smooth_profile(H, B), None
        return 2 * B - np.abs(np.arange(-H, H + 1, dtype=np.int64)), 2 * B


# -- weighted box sums ----------------------------------------------------------


def pairwise_sum(arr) -> float:
    """Sum a float array by repeated adjacent pairing.

    The reduction tree depends only on the array length, so the result is
    reproducible bit-for-bit across runs (unlike np.sum, whose pairing
    blocks may change with internal striding).
    """
    x = np.asarray(arr, dtype=np.float64).ravel()
    while x.size > 1:
        m = x.size // 2
        paired = x[: 2 * m : 2] + x[1 : 2 * m : 2]
        if x.size % 2:
            paired = np.concatenate([paired, x[-1:]])
        x = paired
    return float(x[0]) if x.size else 0.0


def _absmax(a: np.ndarray) -> int:
    """max |a| as a Python int, 0 for an empty array."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _fits(*factors) -> np.ndarray:
    """Per element, whether the product of the factors is provably below
    INT64_LIMIT: its float64 shadow, within a relative 1/2, is below half."""
    shadow = math.prod(np.asarray(f, np.float64) for f in factors)
    return np.abs(shadow) < INT64_LIMIT / 2


def _product(*factors: np.ndarray) -> np.ndarray:
    """The elementwise product of the factors, left to right, broadcast: for
    integers int64 when every element is provably below INT64_LIMIT, by the
    factors' largest magnitudes or else by ``_fits``, Python ints otherwise
    (int64 products are exact modulo 2^64, so a partial product may wrap)."""
    out = factors[0]
    if (out.dtype != np.float64 and math.prod(map(_absmax, factors)) >= INT64_LIMIT
            and not _fits(*factors).all()):
        out = out.astype(object)
    for f in factors[1:]:
        out = out * f
    return out


def _outer(op, arrs: list[np.ndarray]) -> np.ndarray:
    """Flattened outer op of per-axis arrays, first array's index fastest:
    op(a_n[x_n], ... op(a_2[x_2], a_1[x_1])) over the grid in box order."""
    out = arrs[0]
    for a in arrs[1:]:
        out = op(a[:, None], out[None, :]).ravel()
    return out


def _at(out: np.ndarray, keys, terms: np.ndarray) -> None:
    """out[keys[i]] += terms[i] in order; an int key takes terms.sum()."""
    if isinstance(keys, int):
        out[keys] += terms.sum()
    else:
        np.add.at(out, keys, terms)


class _Bins:
    """Per-bin sums of chunks of terms: every exact sum and every per-key
    float64 sum is one of these.

    Keyed by an array, each bin adds its terms to zero in arrival order,
    chunk after chunk (an int key adds the chunk's total), so a float64 sum
    depends on the order its caller emits the terms and not on how it cuts
    them into chunks.  An integer bin holds hi 2^32 + lo +
    big: lo and hi int64, |lo| <= room, |hi| <= hroom, big Python ints.  An
    int64 chunk of k < 2^30 terms adds to lo while room plus a bound on the
    sum of its |terms| stays below INT64_LIMIT <= 2^62: k max |term|, else
    1.5 times their float64 sum (at least 2/3 of the exact sum for k < 2^50;
    int64's spare factor 2 covers rounding).  Otherwise lo carries into hi,
    then hi takes each term >> 32 and lo each term & (2^32 - 1): lo stays
    below 2^32 (k + 1), and hi grows by at most room / 2^32 + 1 + 2^31 k,
    after moving to big if that could take it to INT64_LIMIT.  Python-int
    terms add to big.  So no int64 wraps, and no term leaves int64 for the
    size of its bin."""

    def __init__(self, size: int, exact: bool = True):
        self.exact = exact
        self.lo = np.zeros(size, dtype=np.int64 if exact else np.float64)
        self.hi = self.big = None  # made at their first use
        self.room = self.hroom = 0

    def add(self, keys, terms: np.ndarray) -> "_Bins":
        """Add terms[i] to bin keys[i]; an int key takes every term."""
        k = terms.size
        if self.exact and k and terms.dtype != object:
            least, most = int(terms.min()), int(terms.max())
            bound = max(most, -least) * k
            if self.room + bound >= INT64_LIMIT:  # a float64 sum of the |terms|
                bound = 1.5 * float((terms if least >= 0 else np.abs(
                    terms, dtype=np.float64)).sum(dtype=np.float64))
            if self.room + bound >= INT64_LIMIT:  # carry, then add in halves
                grow = self.room / 2**32 + 1 + 2**31 * k
                if self.hi is None:
                    self.hi = np.zeros(self.lo.size, dtype=np.int64)
                elif self.hroom + grow >= INT64_LIMIT:
                    self._big()[:] += self.hi.astype(object) << 32
                    self.hi[:] = self.hroom = 0
                self.hi += self.lo >> 32
                self.lo &= 0xFFFFFFFF
                _at(self.hi, keys, terms >> 32)
                terms, bound = terms & 0xFFFFFFFF, 2**32 * k
                self.room, self.hroom = 2**32, self.hroom + grow
            self.room += bound
        _at(self._big() if terms.dtype == object else self.lo, keys, terms)
        return self

    def _big(self) -> np.ndarray:
        if self.big is None:
            self.big = np.zeros(self.lo.size, dtype=object)
        return self.big

    def total(self, at=slice(None)) -> np.ndarray:
        """The sums of the bins at (all by default); exact ones in int64 iff
        every one is below INT64_LIMIT, so that two add in int64."""
        lo = self.lo[at]
        if not self.exact or self.hi is None and self.big is None:
            return lo  # |lo| <= room < INT64_LIMIT
        hi = lo >> 32 if self.hi is None else (lo >> 32) + self.hi[at]
        lo = lo & 0xFFFFFFFF
        if self.big is None and (np.abs(hi) < 2**30).all():
            out = (hi << 32) + lo  # |out| < 2^62 + 2^32
        else:
            out = (hi.astype(object) << 32) + lo
            if self.big is not None:
                out += self.big[at]
        small = (np.abs(out) < INT64_LIMIT).all()
        return out.astype(np.int64 if small else object, copy=False)

    def clear(self, at=slice(None)) -> None:
        """Zero the bins at (all by default): every bin added to must be in at."""
        self.lo[at] = 0
        self.hi = self.big = None
        self.room = self.hroom = 0


class _Domain:
    """The numbers a weighted sum is computed in.

    Both domains keep numerators over powers of den1 (the single-weight
    denominator) and apply a denominator only when a value is read, so
    every table has one meaning in both.  Exact: integer numerators,
    Fractions once read, tolerance 0.  Float: float64 numerators (den1 = 1),
    pairwise totals, tolerance SMOOTH_RTOL * max(1, |scale|).
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

    def total(self, vals: np.ndarray, mask: np.ndarray | None = None):
        """Sum of vals (where mask holds): exact by ``_Bins``, float pairwise."""
        if not self.exact:
            return pairwise_sum(vals if mask is None else np.where(mask, vals, 0.0))
        return int(_Bins(1).add(0, vals if mask is None else vals[mask]).total()[0])

    def tol(self, scale) -> float:
        return 0.0 if self.exact else SMOOTH_RTOL * max(1.0, abs(float(scale)))


# -- grid evaluation ----------------------------------------------------------


def eval_on_axes(
    f: IntPoly, axes: list[np.ndarray], m: int | None
) -> np.ndarray:
    """Evaluate f on the cartesian product of integer axes.

    The returned array is flat in the order where x1 varies fastest (axis
    for x_i is n-i, C order).  With a modulus 1 <= m < 2^63 the result is
    int64 residues; without one the values are exact, in int64 when a
    coarse bound proves that safe and Python objects otherwise.
    """
    n = f.n
    if len(axes) != n:
        raise InputError("axis count mismatch", axes=len(axes), n=n)
    shape = tuple(len(ax) for ax in reversed(axes))  # axis 0 <-> x_n
    # x_i's axis followed by i singleton axes broadcasts along axis n-1-i
    cols = [np.asarray(ax).reshape((-1,) + (1,) * i) for i, ax in enumerate(axes)]
    return _eval_terms(f.terms, cols, shape, m).ravel()


def _charge_box(fs: list[IntPoly], H: int, m: int | None, budget: Budget) -> list[int]:
    """Charge the points `_box_sum` evaluates on the box |x_i| <= H, and
    return the side A it splits off (empty: no split).  A split box costs
    its two sub-boxes, (2H+1)^|A| + (2H+1)^|S|, an unsplit one (2H+1)^n.
    Moduli outside 1 <= m < 2^63 are refused before anything is charged."""
    n = fs[0].n
    if m is not None:
        _check_modulus(m)
    A = _side_a(fs, n)
    # exact values past eval_on_axes' int64 bound keep the whole box
    if m is None and not all(_int64_exact(f.terms, [H] * n) for f in fs):
        A = []
    side = 2 * H + 1
    budget.charge(side ** len(A) + side ** (n - len(A)) if A else side**n, "box points")
    return A


def _side_a(fs: list[IntPoly], n: int) -> list[int]:
    """The variables (0-based, ascending) of the smaller side of the box.

    Two variables are joined when one monomial of any polynomial uses
    both; side A is a union of the connected components with as many
    variables as possible up to n/2, so cells(A) <= cells(S)."""
    root = list(range(n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for f in fs:
        for exps in f.terms:
            used = [find(i) for i, e in enumerate(exps) if e]
            for r in used[1:]:
                root[r] = used[0]
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    reach = {0: []}  # variable count -> the first union of components found
    for comp in comps.values():
        for size, vs in list(reach.items()):
            reach.setdefault(size + len(comp), vs + comp)
    return sorted(reach[max(s for s in reach if 2 * s <= n)])


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable").  Nonnegative int64 keys that leave
    room pack with their index into one int64 (key * size + index), whose
    plain sort is several times faster and breaks ties by index."""
    size = keys.size
    if (keys.dtype == np.int64 and size and int(keys.min()) >= 0
            and (int(keys.max()) + 1) * size <= 2**63):
        return np.sort(keys * size + np.arange(size)) % size
    return np.argsort(keys, kind="stable")


def _key_codes(keys: np.ndarray):
    """(codes, order, starts) for the columns of an (r, N) int64 key array:
    codes 0, 1, ... of the distinct columns in sorted key order, a stable
    order sorting the columns (the last row primary, as np.lexsort), and
    each code's first place in that order.  When the rows' spans times N
    fit 2^62, the rows pack into one int64 key, row j weighing the product
    of the spans below it, and ``_stable_order`` sorts that."""
    r, size = keys.shape
    order = None
    if size:
        lo = keys.min(axis=1).tolist()
        spans = [h - a + 1 for h, a in zip(keys.max(axis=1).tolist(), lo)]
        if math.prod(spans) * size <= 2**62:
            packed = keys[-1] - lo[-1]
            for j in range(r - 2, -1, -1):
                packed *= spans[j]
                packed += keys[j] - lo[j]
            order = _stable_order(packed)
    if order is None:
        order = np.lexsort(keys)
    ks = keys[:, order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (ks[:, 1:] != ks[:, :-1]).any(axis=0)
    codes = np.empty(order.size, dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    return codes, order, np.flatnonzero(new)


def _box_sum(fs: list[IntPoly], H: int, m: int | None, A: list[int], vals=None):
    """Sum of prod_i vals[x_i + H] over the points x of the box |x_i| <= H
    where every polynomial is divisible by m (zero when m is None), or
    their number when vals is None: a Python int for exact vals, a float
    for float64 vals.

    The box splits off the variables A (``_charge_box``), a union of the
    polynomials' variable blocks: each f_j = f_j,A(x_A) + f_j,S(x_S), with
    the constant term on S.  The points of A are reduced to one weight sum
    per key, the vector of their values f_j,A; a point of S is a hit for
    the key whose negation (mod m) equals its values f_j,S, and adds that
    key's sum times its own weight.
    With one key (one component: A empty, key 0 of weight 1) the hit test
    is f_j,S == 0, the whole-box mask.
    """
    n = fs[0].n
    exact = vals is None or vals.dtype != np.float64
    D = _Domain(exact)
    axis = np.arange(-H, H + 1, dtype=np.int64)

    def side(vs, on_a):  # each polynomial's terms on side A (or S), over vs
        return [IntPoly(len(vs), {tuple(e[i] for i in vs): c
                                  for e, c in f.terms.items()
                                  if any(e[i] for i in A) == on_a}) for f in fs]

    def neg(k):
        return -k if m is None else -k % m

    if A:
        kA = np.stack([eval_on_axes(g, [axis] * len(A), m) for g in side(A, True)])
        wA = (np.ones(kA.shape[1], dtype=np.int64) if vals is None
              else _outer(_product, [vals] * len(A)))
        codes, order, starts = _key_codes(kA)
        keys = kA[:, order[starts]]
        sums = _Bins(starts.size, exact).add(codes, wA).total()
    else:
        keys = np.zeros((len(fs), 1), dtype=np.int64)
        sums = np.ones(1, dtype=np.int64 if vals is None else vals.dtype)
    S = [i for i in range(n) if i not in A]
    fS = side(S, False)
    if keys.shape[1] == 1:
        mask = np.ones((2 * H + 1) ** len(S), dtype=bool)
        for g, t in zip(fS, neg(keys[:, 0]).tolist()):
            mask &= eval_on_axes(g, [axis] * len(S), m) == t
        lead = int(sums[0]) if exact else float(sums[0])
        if vals is None:
            return lead * int(np.count_nonzero(mask))
        return lead * D.total(_outer(_product, [vals] * len(S)), mask)
    kS = np.stack([eval_on_axes(g, [axis] * len(S), m) for g in fS])
    codes, _, _ = _key_codes(np.concatenate([neg(keys), kS], axis=1))
    table = np.zeros(int(codes.max()) + 1, dtype=sums.dtype)
    table[codes[: keys.shape[1]]] = sums
    per = table[codes[keys.shape[1]:]]  # each point of S: its A partners' sum
    if vals is None:
        return D.total(per)
    return D.total(_product(per, _outer(_product, [vals] * len(S))))


def _as_poly_list(fs) -> list[IntPoly]:
    """One IntPoly, or an iterable of them, as a nonempty list of integer
    polynomials in one number of variables: the one check of the
    polynomial lists that enter this module."""
    try:
        out = [fs] if isinstance(fs, IntPoly) else list(fs)
    except TypeError:  # None, or another non-iterable
        out = [fs]
    if not all(isinstance(f, IntPoly) for f in out):
        raise InputError("expected integer polynomials")
    if not out:
        raise InputError("need at least one polynomial; pass a zero polynomial "
                         "of the right arity, which imposes nothing")
    if any(f.n != out[0].n for f in out):
        raise InputError("mixed variable counts")
    return out


# -- counting operations ------------------------------------------------------


@dataclass
class CountResult:
    """One counting run: `value` is int, Fraction, or float by weight kind."""

    value: object
    n: int
    B: int
    modulus: int | None
    weight: str | None
    points_scanned: int
    exact: bool


def count_box_mod(fs, B: int, m: int | None, budget: Budget | None = None) -> int:
    """Number of box points where every polynomial is divisible by m, or,
    with m = None, where every polynomial is zero.

    m = 1 counts the whole box; duplicate polynomials are harmless.
    """
    fs = _as_poly_list(fs)
    if B < 0:
        raise InputError("B must be >= 0", B=B)
    return _box_sum(fs, B, m, _charge_box(fs, B, m, ensure_budget(budget)))


def weighted_count(
    fs,
    B: int,
    m: int | None,
    weight: Weight | str,
    budget: Budget | None = None,
) -> CountResult:
    """Sum of W(x/B) over box points with every polynomial divisible by m
    (every polynomial zero when m is None).

    `fs` may contain the zero polynomial (which imposes nothing), so the
    full weighted box sum is the weighted count of the zero polynomial.
    Exact kinds return a Fraction; smooth returns a float computed with a
    fixed reduction tree.
    """
    fs = _as_poly_list(fs)
    if isinstance(weight, str):
        weight = Weight(weight)
    if B < 1:
        raise InputError("B must be >= 1", B=B)
    n, H = fs[0].n, weight.halfwidth(B)
    A = _charge_box(fs, H, m, ensure_budget(budget))
    vals, den = weight.axis_values(B)
    value = _Domain(weight.exact).frac(_box_sum(fs, H, m, A, vals), (den or 1) ** n)
    return CountResult(value, n, B, m, weight.kind, (2 * H + 1) ** n, weight.exact)


# -- finite-field probes ------------------------------------------------------


@dataclass
class TrivialBoundRow:
    B: int
    count: int
    ratio: Fraction


@dataclass
class TrivialBoundReport:
    field: str
    n: int
    dim: int
    fq_count: int
    rows: list
    max_ratio: Fraction


def trivial_bound_probe(
    forms, fld: Field, Bs: Sequence[int], budget: Budget | None = None
) -> TrivialBoundReport:
    """Counts of variety points inside small boxes versus B^dim.

    Each box [-B, B]^n must inject into F_q^n (2B+1 <= q), so box points
    hit each residue class at most once.  The variety dimension is the
    affine estimate from the full F_q^n count.
    """
    fs = _as_poly_list(forms)
    if fld.k != 1:
        raise PreconditionError("box probe needs a prime field", field=fld.literal())
    n = fs[0].n
    budget = ensure_budget(budget)
    for f in fs:
        if reduce_mod(f, fld).is_zero():
            raise PreconditionError(
                "form vanishes identically mod q", q=fld.q
            )
    fq_count = affine_count(fs, fld, n, budget)
    dim = dim_est_affine(fq_count, fld.q)
    rows = []
    max_ratio = Fraction(0)
    for B in Bs:
        if B < 1:
            raise InputError("box size must be >= 1", B=B)
        if 2 * B + 1 > fld.q:
            raise PreconditionError(
                "box does not inject into residue classes", B=B, q=fld.q
            )
        count = count_box_mod(fs, B, fld.q, budget)
        ratio = Fraction(count * B ** max(0, -dim), B ** max(0, dim))
        rows.append(TrivialBoundRow(B=B, count=count, ratio=ratio))
        max_ratio = max(max_ratio, ratio)
    return TrivialBoundReport(
        field=fld.literal(),
        n=n,
        dim=dim,
        fq_count=fq_count,
        rows=rows,
        max_ratio=max_ratio,
    )


@dataclass
class HooleyDeligneReport:
    field: str
    n: int
    r: int
    count: int
    main: int
    error: int
    sing_dim: int
    dim_variety: int
    normalized_error: float


def hooley_deligne_probe(
    forms, fld: Field, budget: Budget | None = None
) -> HooleyDeligneReport:
    """Affine count of a complete intersection against q^(n-r).

    Preconditions: every form has degree >= 2, and the leading forms cut a
    projective variety whose dimension estimate is exactly n-1-r.  The
    error is normalized by q^((n-r+2+s)/2) where s is the dimension
    estimate of the singular locus of that projective variety.

    For one form whose leading part cuts a nonsingular hypersurface of
    degree d (s = -1), Deligne's bound on the projective count gives
    normalized_error <= b(d, n) * (1 - 1/q), with b(d, n) =
    ((d-1)^n + (-1)^n (d-1)) / d the primitive middle Betti number.  The
    bound is attained: the Fermat cubic surface (d = 3, n = 4) at a prime
    q = 1 mod 3 has all 27 lines rational, #V = q^2 + 7q + 1, and the
    affine error is exactly 6q(q-1).

    The dimension is verified from rational points only, so the probe
    refuses when too few exist: x1^4+...+xn^4 with n <= 4 has no
    projective points over F_5, and x1^4+x2^4+x3^4 has none over F_29.
    """
    fs = _as_poly_list(forms)
    n, r = fs[0].n, len(fs)
    budget = ensure_budget(budget)
    for f in fs:
        if f.degree() < 2:
            raise PreconditionError("forms must have degree >= 2",
                                    degree=f.degree())
    leading = tuple(f.leading_form() for f in fs)
    rep = sing_points(VarietySpec(fld, n, leading), expected_codim=r, budget=budget)
    if rep.dim_est_variety != n - 1 - r:
        raise PreconditionError(
            "leading forms do not cut the expected dimension",
            dim=rep.dim_est_variety, expected=n - 1 - r,
        )
    count = affine_count(fs, fld, n, budget)
    main = fld.q ** (n - r)
    error = count - main
    s = rep.dim_est_sing
    norm = abs(error) / float(fld.q) ** ((n - r + 2 + s) / 2.0)
    return HooleyDeligneReport(
        field=fld.literal(),
        n=n,
        r=r,
        count=count,
        main=main,
        error=error,
        sing_dim=s,
        dim_variety=rep.dim_est_variety,
        normalized_error=norm,
    )
