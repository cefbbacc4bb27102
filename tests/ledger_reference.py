"""The reference ledger of the pipeline tests: every quantity that
``vdc.pipeline.build_ledger`` reports, summed from its definition over the
integer box in Python ints, for tiny instances.

Weights are integer numerators a1 over d per axis: an exact kind's own, and
the smooth kind's float64 axis weights as integer multiples of d = 2^E.  A
table holds the numerators over den1^deg (den1 = d^n, ``DEGREE``) of the
exact sums of these inputs: an exact ledger's tables, and the values a float
ledger rounds.  Box and shift arrays have axis i for x_i (y_i); their
Fortran-order ravel is the ledger's flat order.  A sum over pairs (x, x + m t)
reads the x + m t as a strided slice of a box array (``_strided``).

Level 2 sums every cell (y, z) from its definition, y < 0 and z < 0
included, keyed ky Zcells + kz, and checks that each equals its mirror (y,
-z), and (-y, z) too when f(-x) = +-f(x) and the weight is even
(``Reference.mirror``), before it keeps the ledger's layout
(``Reference.half``); qsum and abs2_num add every cell.
"""
import itertools
import math
from fractions import Fraction
from functools import reduce

import numpy as np

from vdc.counting import Weight

# the power of den1 under each table's numerators
DEGREE = {"corr_num": 2, "fs_num": 2, "t0_num": 2, "t1_num": 2, "ss2": 4,
          "ss3": 4, "sxy_num": 2, "xcount": 0, "pair_num": 4, "qsum": 4,
          "abs2_num": 4}


def _outer(rows) -> np.ndarray:
    """prod_i rows[i][t_i] as an object array with axis i for t_i."""
    return reduce(np.multiply.outer, [np.array(r, dtype=object) for r in rows])


def _grid(f, axes) -> np.ndarray:
    """f at every point of the product of the integer axes, axis i for x_i,
    term by term in Python ints."""
    X = np.meshgrid(*[np.array(a, dtype=object) for a in axes], indexing="ij")
    return sum((c * math.prod(x**e for x, e in zip(X, exps))
                for exps, c in f.terms.items()), np.zeros(X[0].shape, dtype=object))


def flat_key(t, R: int) -> int:
    """The ledger's flat key of a shift t, |t_i| <= R, t_1 fastest."""
    return sum((c + R) * (2 * R + 1) ** i for i, c in enumerate(t))


def aggregate(params, abs2, den1: int) -> float:
    """The level-2 aggregate from abs2 numerators over q^3 den1^4, in Python
    floats: each y != 0 adds sqrt(abs2[y] / (q^3 den1^4)) to 0.0 in key
    order (an int over an int, like a float over an int, rounds once)."""
    n, den, total = params.f.n, params.q**3 * den1**4, 0.0
    for k, c in enumerate(abs2):
        if k != len(abs2) // 2:  # y = 0
            total += math.sqrt(c / den)
    return params.pi ** ((n - 1) / 2) * params.p ** ((n - 2) / 4) * math.sqrt(total)


class Reference:
    """One ledger run up to level 0, 1 (the shift tables) or 2 (the pair
    table).  fs, T and FS2 are separable: products of per-axis sums."""

    def __init__(self, params, level: int | None = None):
        self.params = pr = params
        f, n, pi, p, q = pr.f, pr.f.n, pr.pi, pr.p, pr.q
        kind = Weight(pr.weight)
        H = kind.halfwidth(pr.B)
        self.n, self.L = n, 2 * H + 1
        w1, d = kind.axis_values(pr.B)
        if kind.exact:
            a1 = [int(v) for v in w1]
        else:  # each float64 weight is an integer multiple of d = 2^E
            d = max(Fraction(v).denominator for v in w1.tolist())
            a1 = [int(Fraction(v) * d) for v in w1.tolist()]
        self.a1, self.den1 = a1, d**n
        # every monomial of the degree parity of the first and an even weight:
        # corr2(-y, z) = corr2(y, z), and level 2 keeps y >= 0 only
        self.mirror = (len({sum(e) % 2 for e in f.terms}) <= 1
                       and a1 == a1[::-1])
        shape = (self.L,) * n
        self.fv = _grid(f, [range(-H, H + 1)] * n)
        self.w = _outer([a1] * n)
        self.fq = (self.fv % q).astype(np.int64)
        self.pq = self.fv % (p * q) == 0

        # level 0: the weighted counts and the class sums inner(u), u mod pi
        w, den1 = self.w, self.den1
        self.box_weight_total = Fraction(sum(a1) ** n, den1)
        self.count_full = Fraction(w[self.fv % (pi * p * q) == 0].sum(), den1)
        self.count_pq = Fraction(w[self.pq].sum(), den1)
        K = self.expected_per_class = self.box_weight_total / (pi**n * p * q)
        inner = np.zeros((pi,) * n, dtype=object)
        np.add.at(inner, tuple((np.indices(shape)[:, self.pq] - H) % pi),
                  w[self.pq])
        self.inner = inner.ravel("F")  # numerators over den1, by class key
        zero = (_grid(f, [range(pi)] * n) % pi == 0).ravel("F")  # f(u) = 0 mod pi
        self.zero_classes = int(zero.sum())
        zsum = Fraction(self.inner[zero].sum(), den1)
        a, b = (K * den1).numerator, (K * den1).denominator  # (v - K)^2 per class
        self.first_moment = zsum - K * self.zero_classes
        self.second_moment = Fraction(sum((b * v - a) ** 2 for v in self.inner),
                                      (b * den1) ** 2)
        self.coarse_deviation = self.count_pq - pi**n * K
        self.sizes = {  # the sums of |terms| of the signed scalars
            "first_moment": zsum + K * self.zero_classes,
            "second_moment": Fraction(sum((b * v + a) ** 2 for v in self.inner),
                                      (b * den1) ** 2),
            "coarse_deviation": self.count_pq + pi**n * K,
        }

        Y = self.shift_range = 4 * pr.B // pi
        Z = self.pair_range = 4 * pr.B // p
        self.fs_num = _outer([[self._lags(0, pi * t) for t in range(-Y, Y + 1)]]
                             * n).ravel("F")
        self.T = [[self._lags(0, pi * t, p * s, pi * t + p * s)
                   for s in range(-Z, Z + 1)] for t in range(-Y, Y + 1)]
        self.fs2_total = _outer([[sum(r) for r in self.T]] * n).ravel("F")
        level = (2 if pr.with_pair_table else 1) if level is None else level
        if level >= 1:
            self._level1()
        if level >= 2:
            self._level2()

    def _strided(self, x, m: int, R: int):
        """The box points x + m t, x at box index x, as a slice of the box
        arrays, and the t as a slice of a grid over |t_i| <= R."""
        return (tuple(slice(c % m, self.L, m) for c in x),
                tuple(slice(R - c // m, R - c // m + len(range(c % m, self.L, m)))
                      for c in x))

    def _lags(self, *steps):
        """sum_m prod_{s in steps} a1(m + s), m along one axis."""
        a1, L = self.a1, self.L
        return sum(math.prod(a1[m + s] for s in steps) for m in range(L)
                   if all(0 <= m + s < L for s in steps))

    def _level1(self):
        """corr(y), the class sums V(y, v, a) of a(x) a(x + pi y) over the
        q-solutions x, v = x mod p, a = f(x + pi y) mod q, and #X_y(F_p)."""
        pr, n, w, fq = self.params, self.n, self.w, self.fq
        pi, p, Y = pr.pi, pr.p, self.shift_range
        grid, H = (2 * Y + 1,) * n, (self.L - 1) // 2
        corr, wpq = np.zeros(grid, dtype=object), w * self.pq
        self.V = {}  # (v, a) -> V(., v, a) over the shift grid
        for x in zip(*np.nonzero(fq == 0)):
            box, at = self._strided(x, pi, Y)
            if self.pq[x]:
                corr[at] += w[x] * wpq[box]
            v = tuple(int(c - H) % p for c in x)
            for a in set(fq[box].ravel().tolist()):
                V = self.V.setdefault((v, a), np.zeros(grid, dtype=object))
                V[at] += w[x] * (w[box] * (fq[box] == a))
        gz, ts = _grid(pr.f, [range(p)] * n) % p == 0, pi * np.arange(-Y, Y + 1)

        def member(v):  # [v in X_y] over the shifts y
            return gz[v] & gz[np.ix_(*[(c + ts) % p for c in v])]

        zero = np.zeros(grid, dtype=object)
        V0 = {v: V for (v, a), V in self.V.items() if a == 0}
        for name, t in {
            "corr_num": corr,
            "t0_num": sum(self.V.values(), zero),
            "t1_num": sum(V0.values(), zero),
            "ss3": sum((V * V for V in self.V.values()), zero),
            "ss2": sum((V * V for V in V0.values()), zero),
            "sxy_num": sum((V * member(v) for v, V in V0.items()), zero),
            "xcount": sum((member(v) for v in zip(*np.nonzero(gz))), zero),
        }.items():
            setattr(self, name, t.ravel("F"))

    def _level2(self):
        """c(y, z) = sum over q-solutions x of g_z(x) g_z(x + pi y), g_z(u) =
        a(u) a(u + p z) [f(u) = f(u + p z) mod q] (0 off the box).  Weights
        are positive on the box: the filled cells are the nonzero ones."""
        pr, n, w, fq, L = self.params, self.n, self.w, self.fq, self.L
        pi, p, Y, Z = pr.pi, pr.p, self.shift_range, self.pair_range
        keys, nums = [], []
        live, g = np.zeros(w.shape, dtype=bool), np.zeros(w.shape, dtype=object)
        for z in itertools.product(range(-Z, Z + 1), repeat=n):
            lo = [max(0, -p * c) for c in z]  # u and u + p z in the box
            hi = [max(a, min(L, L - p * c)) for a, c in zip(lo, z)]
            u = tuple(slice(a, b) for a, b in zip(lo, hi))
            up = tuple(slice(a + p * c, b + p * c) for a, b, c in zip(lo, hi, z))
            at = tuple(i + a for i, a in zip(np.nonzero(fq[u] == fq[up]), lo))
            live[at] = True  # where g_z is nonzero
            g[at] = w[at] * w[tuple(i + p * c for i, c in zip(at, z))]
            c = np.zeros((2 * Y + 1,) * n, dtype=object)
            for x in zip(*(i[fq[at] == 0] for i in at)):
                box, ys = self._strided(x, pi, Y)
                m = live[box]
                c[ys][m] += g[x] * g[box][m]
            filled = np.nonzero(c)
            keys.append(np.ravel_multi_index(filled, c.shape, order="F")
                        * (2 * Z + 1) ** n + flat_key(z, Z))
            nums.append(c[filled])
            live[at], g[at] = False, 0
        order = np.argsort(keys := np.concatenate(keys))
        keys, nums = keys[order], np.concatenate(nums)[order]
        self.pair_keys, self.pair_num = self.half(keys, nums)
        self.qsum, self.abs2_num = self.level2_sums(keys, nums)
        self.aggregate = aggregate(pr, self.abs2_num.tolist(), self.den1)

    def _cells(self):
        return ((2 * self.shift_range + 1) ** self.n,
                (2 * self.pair_range + 1) ** self.n)

    def half(self, keys, nums):
        """The ledger's layout of a whole level-2 table, keys ky Zcells + kz
        holding nums: the cells z >= 0, and y >= 0 under the mirror, as
        sorted keys h Ycells + ky (kz = Zcells // 2 + h), once every cell is
        checked to equal its mirror (y, -z), key ky Zcells + Zcells - 1 - kz,
        and under the mirror (-y, z), key (Ycells - 1 - ky) Zcells + kz."""
        Ycells, Zcells = self._cells()
        ky, kz = np.divmod(np.asarray(keys, dtype=np.int64), Zcells)
        cells = dict(zip(np.asarray(keys).tolist(), list(nums)))
        for k, y, z in zip(cells, ky.tolist(), kz.tolist()):
            assert cells.get(y * Zcells + Zcells - 1 - z) == cells[k], (y, z)
            if self.mirror:
                assert cells.get((Ycells - 1 - y) * Zcells + z) == cells[k], (y, z)
        up = (kz >= Zcells // 2) & (ky >= (Ycells // 2 if self.mirror else 0))
        hkeys = (kz[up] - Zcells // 2) * Ycells + ky[up]
        order = np.argsort(hkeys, kind="stable")
        return hkeys[order], np.asarray(nums)[up][order]

    def unfold(self, keys, nums, quarter=None):
        """The whole table of the ledger's layout (keys h Ycells + ky holding
        nums), as keys ky Zcells + kz in key order: each cell with z > 0 also
        at (y, -z), and for a quarter (default: under the mirror) each cell
        with y > 0 also at (-y, z) and (-y, -z)."""
        Ycells, Zcells = self._cells()
        quarter = self.mirror if quarter is None else quarter
        h, ky = np.divmod(np.asarray(keys, dtype=np.int64), Ycells)
        nums, every = np.asarray(nums), np.ones(h.size, dtype=bool)
        out = {}
        for y, ym in ((ky, every), (Ycells - 1 - ky, quarter & (ky > Ycells // 2))):
            for z, zm in ((Zcells // 2 + h, every), (Zcells // 2 - h, h > 0)):
                at = ym & zm
                out.update(zip((y * Zcells + z)[at].tolist(), nums[at]))
        order = sorted(out)
        return np.array(order, dtype=np.int64), np.array([out[k] for k in order],
                                                         dtype=nums.dtype)

    def level2_sums(self, keys, nums):
        """qsum and abs2_num, sum_z |q^3 c - FS2|, of cells keys (ky Zcells +
        kz, over every z) holding nums and 0 elsewhere: the empty cells add
        sum_z FS2(y, z) less the filled cells' FS2."""
        n, q3 = self.n, self.params.q**3
        sideY, sideZ = len(self.T), len(self.T[0])
        T = np.array(self.T, dtype=object)
        ky, kz = np.divmod(np.asarray(keys, dtype=np.int64), sideZ**n)
        fs2 = np.ones(ky.size, dtype=object)
        for i in range(n):
            fs2 = fs2 * T[ky // sideY**i % sideY, kz // sideZ**i % sideZ]
        c = np.array(nums, dtype=object)
        qsum, abs2 = np.zeros(sideY**n, dtype=object), self.fs2_total.copy()
        np.add.at(qsum, ky, c)
        np.add.at(abs2, ky, np.abs(q3 * c - fs2) - fs2)
        return qsum, abs2

    def corr2(self, y, z) -> Fraction:
        """corr2(y, z): over the x with x, x + pi y, x + p z, x + pi y + p z
        in the box, the weight products where q | f(x), f(x + p z) and the
        second difference, less q^-3 times all of them."""
        cong, total = self.corr2_sums(y, z)
        q3 = self.params.q**3
        return Fraction(q3 * cong - total, q3 * self.den1**4)

    def corr2_sums(self, y, z):
        """The numerators behind corr2(y, z): the sum of the weight products
        where the congruences hold, and the sum of all of them."""
        pr, L, fq = self.params, self.L, self.fq
        axes = []  # per axis, the x_i range of each of the four points
        for a, b in zip(y, z):
            sh = (0, pr.pi * a, pr.p * b, pr.pi * a + pr.p * b)
            lo, hi = -min(sh), L - max(sh)
            axes.append([slice(lo + s, max(hi, lo) + s) for s in sh])
        x0, x1, x2, x3 = (tuple(ax[j] for ax in axes) for j in range(4))
        w4 = self.w[x0] * self.w[x1] * self.w[x2] * self.w[x3]
        cong = (fq[x0] == 0) & (fq[x2] == 0) & (fq[x3] == fq[x1])
        return w4[cong].sum(), w4.sum()

    def size(self, name) -> np.ndarray:
        """The sums of |terms| of a table's nonnegative terms, its entries;
        abs2_num's (|q^3 c - FS2| and, as the ledger forms it, prod_i R(y_i)
        and -FS2) add up to at most q^3 qsum + 3 sum_z FS2."""
        if name == "abs2_num":
            return self.params.q**3 * self.qsum + 3 * self.fs2_total
        return getattr(self, name)

    def values(self) -> dict:
        """name -> (value, size, deg) of each residual check and scalar: the
        rational the ledger reads (a residual over den1^deg in numerators)
        and the sum of the |terms| behind it."""
        pr, n, d = self.params, self.n, self.den1
        pin, pn, q = pr.pi**n, pr.p**n, pr.q
        K, S, zc = self.expected_per_class, self.first_moment, self.zero_classes
        Sig, sizes = self.second_moment, self.sizes
        corr, fs, t0, t1, ss2, ss3, sxy, xc = (
            self.corr_num, self.fs_num, self.t0_num, self.t1_num, self.ss2,
            self.ss3, self.sxy_num, self.xcount)
        sq, cong = (self.inner * self.inner).sum(), corr.sum()
        c1, c4 = pn * q * q, pn * pn * q**4
        y = np.unravel_index(np.arange(corr.size), (2 * self.shift_range + 1,) * n, "F")
        dead = np.abs(np.array(y) - self.shift_range).max(axis=0) * pr.pi >= 4 * pr.B
        sig, snum = c4 * ss2 - 2 * c1 * fs * t1 + pn * fs * fs, c1 * sxy - xc * fs
        out = {  # numerators over den1^deg
            "square_expansion": (sq - cong, sq + cong, 2),
            "support_vanishing": (max([0, *corr[dead], *fs[dead]]), 0, 2),
            "per_shift_defect": (np.abs(corr - sxy).max(), (corr + sxy).max(), 2),
            "per_shift_cauchy": (
                (xc * sig - snum * snum).min(),
                (xc * (c4 * ss2 + 2 * c1 * fs * t1 + pn * fs * fs)
                 + (c1 * sxy + xc * fs) ** 2).max(), 4),
            "refinement_monotone": (
                (c4 * (ss3 - ss2) - 2 * c1 * fs * (t0 - t1)
                 + pn * (q - 1) * fs * fs).min(),
                (c4 * (ss3 + ss2) + 2 * c1 * fs * (t0 + t1)
                 + pn * (q + 1) * fs * fs).max(), 4),
        }
        if hasattr(self, "qsum"):
            out["refined_square_expansion"] = (np.abs(ss3 - self.qsum).max(),
                                               (ss3 + self.qsum).max(), 4)
        out = {k: (Fraction(v, d**g), Fraction(s, d**g), g)
               for k, (v, s, g) in out.items()}
        out["partition"] = (self.count_full - (S + K * zc),
                            self.count_full + sizes["first_moment"] + K * zc, 0)
        out["variance_assembly"] = (
            Sig - (Fraction(cong, d * d) - 2 * K * self.count_pq + pin * K * K),
            sizes["second_moment"] + Fraction(cong, d * d)
            + 2 * K * self.count_pq + pin * K * K, 0)
        out["cauchy_schwarz"] = (zc * Sig - S * S,
                                 zc * sizes["second_moment"]
                                 + sizes["first_moment"] ** 2, 0)
        for name in ("box_weight_total", "count_full", "count_pq",
                     "expected_per_class", "first_moment", "second_moment",
                     "coarse_deviation"):
            out[name] = getattr(self, name), sizes.get(name, getattr(self, name)), 0
        return out
