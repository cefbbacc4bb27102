"""Finite fields F_{p^k} in polynomial basis, small prime utilities, and
the one array evaluator of polynomials.

An element of F_{p^k} is encoded as an integer in [0, p^k): the code
``sum(c_i * p**i)`` stands for the coefficient vector (c_0, ..., c_{k-1})
in the power basis 1, x, ..., x^{k-1} modulo a fixed monic irreducible of
degree k.  The modulus is canonical: among all monic irreducibles of degree
k it is the one whose integer code (p^k plus the base-p digits of its
non-leading coefficients) is smallest, so x^2+x+1 for F_4, x^2+1 for F_9,
x^4+x+1 for F_16.  Two Field objects with the same (p, k) are always
compatible.  This module is the only one that knows the encoding.

Every product in F_{p^k}, k > 1, reads discrete logarithms: each field
builds its log, exp and digit tables once, on first use.  Building a field
uses one product, :func:`_digit_mul` (a convolution of base-p digit arrays
reduced by the modulus's rows), and one square-and-multiply,
:func:`_power`: the modulus search (Rabin's test), the generator search
and the tables all run on them.  Each scalar element op is a one-element
call of an array op, or one table read for ``pow``.

The array element ops that row reduction needs (``mul_array``,
``inv_array`` with inv(0) = 0, and ``sub_mul_array``, a - b*c) live on
Field too, so ``geometry`` eliminates over every F_q without reading codes:
over F_p they are integer expressions with one reduction, over F_{p^k} they
go through the same log, exp and digit tables.  An int64 array is reduced
by :func:`_reduce`, a - (a // m) * m, not by ``%``: numpy's integer ``//``
by a scalar is vectorised and its ``%`` is not, so with numpy 2.4.6 on an
x86-64 Xeon ``%`` costs about 4 ns an entry, and 8-12 ns on negative
entries, against 2 ns for the floor division, which gives the same residue
on either sign.

Every array evaluation of a polynomial (``counting.eval_on_axes`` on box
axes, ``geometry`` on the boxes of P^(n-1) and F_q^n or on rows of
points) runs through
:func:`_eval_terms`, in one of three rings: the integers (int64 under a
checked bound, Python ints above it), Z/m for 1 <= m < 2^63 (int64
products while (m-1)^2 < 2^63, Python-int products above; the residues
are int64 either way), and F_{p^k} codes for k > 1.  Larger moduli are
refused with InputError.  Each term is added in place into a total
allocated at the output shape; over F_{p^k} that total holds the k digit
sums digit-major, (k, *shape), in the smallest unsigned dtype that holds
them.

The order of P^(n-1)(F_q) is defined once, by :func:`proj_blocks`, as n
boxes: :func:`enum_proj` ravels them into point rows, :func:`proj_rows`
decodes chosen rows, and a scan evaluates each box from its axes.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import Budget, InputError, PreconditionError, ensure_budget

Q_CAP = 2**20

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    if m < 2:
        return False
    for w in _MR_WITNESSES:
        if m % w == 0:
            return m == w
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def primes_in_interval(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending: :func:`is_prime` on each integer."""
    out = []
    m = max(2, int(lo))
    while m <= hi:
        if is_prime(m):
            out.append(m)
        m += 1
    return out


def _reduce(a, m: int):
    """a mod m in [0, m) for an int64 array (or an int), by floor division.

    Equal to a % m for every sign of a, and about twice as fast on arrays
    (see the module notes).  |a| + m must stay below 2^63.
    """
    return a - a // m * m


# -- F_p[x]/(f) on base-p digit arrays (one product, one power) --------------


def _digits(codes, p: int, k: int) -> np.ndarray:
    """Base-p digits of codes, along a new last axis of length k."""
    return np.asarray(codes, dtype=np.int64)[..., None] // p ** np.arange(k) % p


def _red_rows(low, p: int) -> np.ndarray:
    """rows[..., j, :], j < k - 1: the digits of x^(k+j) modulo the monic
    x^k + sum_i low_i x^i, for digit arrays low (..., k), k >= 2.  Row 0 is
    -low; row j + 1 is row j times x, shifted up one digit with its top
    digit times row 0 added."""
    low = np.asarray(low, dtype=np.int64)
    k = low.shape[-1]
    rows = np.zeros(low.shape[:-1] + (k - 1, k), dtype=np.int64)
    rows[..., 0, :] = -low % p
    for j in range(1, k - 1):
        rows[..., j, 1:] = rows[..., j - 1, :-1]
        rows[..., j, :] = (rows[..., j, :] + rows[..., j - 1, -1:] * rows[..., 0, :]) % p
    return rows


def _digit_mul(a, b, rows: np.ndarray, p: int) -> np.ndarray:
    """Products of digit arrays (..., k) modulo the modulus whose reduction
    rows are `rows` (see :func:`_red_rows`): convolution, then each x^(k+j)
    replaced by rows[..., j, :], all in one matrix product."""
    k = rows.shape[-1]
    a, b = np.broadcast_arrays(a, b)
    conv = np.zeros(a.shape[:-1] + (2 * k - 1,), dtype=np.int64)
    for i in range(k):
        conv[..., i : i + k] += a[..., i, None] * b
    return (conv[..., :k] + np.matmul(conv[..., None, k:] % p, rows)[..., 0, :]) % p


def _power(a, e: int, mul, one):
    """a^e for e >= 0 by square and multiply under `mul`, with a^0 = one."""
    out = one
    while e:
        if e & 1:
            out = mul(out, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return out


def _prime_divisors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, ascending (trial division)."""
    out = []
    t = 2
    while t * t <= m:
        if m % t == 0:
            out.append(t)
            while m % t == 0:
                m //= t
        t += 1
    if m > 1:
        out.append(m)
    return out


def _is_irreducible(low, p: int) -> np.ndarray:
    """Rabin's test for the monic x^k + sum_i low_i x^i over F_p, k >= 2,
    on digit arrays low (..., k); a bool array of shape low.shape[:-1].

    f is irreducible iff x^(p^k) = x mod f and gcd(x^(p^(k/t)) - x, f) = 1
    for each prime t | k.  Once the first holds, F_p[x]/(f) is a product of
    fields F_(p^d) with d | k, so the gcd is 1 exactly when h = x^(p^(k/t))
    - x is a unit, that is when h^(p^k - 1) = 1: the test is all products.
    """
    low = np.asarray(low, dtype=np.int64)
    k, rows = low.shape[-1], _red_rows(low, p)

    def mul(a, b):
        return _digit_mul(a, b, rows, p)

    x, one = np.zeros_like(low), np.zeros_like(low)
    x[..., 1] = one[..., 0] = 1
    ok = (_power(x, p**k, mul, one) == x).all(axis=-1)
    for t in _prime_divisors(k):
        h = (_power(x, p ** (k // t), mul, one) - x) % p
        ok &= (_power(h, p**k - 1, mul, one) == one).all(axis=-1)
    return ok


@lru_cache(maxsize=None)
def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Non-leading coefficients (c_0..c_{k-1}) of the canonical degree-k
    monic irreducible over F_p, k >= 2: the one with the smallest integer
    code.  Candidates are tested 32 at a time."""
    for lo in range(0, p**k, 32):
        low = _digits(np.arange(lo, min(lo + 32, p**k)), p, k)
        ok = _is_irreducible(low, p)
        if ok.any():
            return tuple(low[ok.argmax()].tolist())
    raise PreconditionError("no irreducible found", p=p, k=k)  # pragma: no cover


class Field:
    """The finite field F_{p^k} with canonical modulus.

    Elements are integer codes in [0, q).  For k = 1 the code is just the
    residue.  The scalar ops are one-element calls of the array ops.  Do
    not construct directly in hot paths; fields are cached by
    :func:`field_make`.
    """

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise InputError("characteristic is not prime", p=p)
        if k < 1:
            raise InputError("extension degree must be >= 1", k=k)
        q = p**k
        if q > Q_CAP:
            raise PreconditionError("field size exceeds cap", q=q, cap=Q_CAP)
        self.p = p
        self.k = k
        self.q = q
        self.modulus = find_irreducible(p, k) if k > 1 else ()
        if k > 1:  # rows[j]: the digits of x^(k+j) mod the modulus
            self._red_rows = _red_rows(self.modulus, p)

    def __repr__(self):
        return f"Field({self.literal()})"

    def literal(self) -> str:
        return f"{self.p}" if self.k == 1 else f"{self.p}^{self.k}"

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    # -- scalar element ops: one-element calls of the array ops -----------

    def embed(self, c: int) -> int:
        """Image of an integer under Z -> F_p -> F_{p^k}."""
        return c % self.p

    def add(self, a: int, b: int) -> int:
        return int(self._codes(self._digits(a) + self._digits(b)))

    def sub(self, a: int, b: int) -> int:
        return int(self._codes(self._digits(a) - self._digits(b)))

    def neg(self, a: int) -> int:
        return int(self._codes(-self._digits(a)))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_array(a, b))

    def pow(self, a: int, e: int) -> int:
        """a^e, with 0^0 = 1; a negative e inverts a first."""
        e = int(e)
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        if a == 0:
            return int(e == 0)
        log, exp, _ = self._log_tables
        return int(exp[int(log[a]) * e % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise PreconditionError("inverse of zero", field=self.literal())
        return int(self.inv_array(a))

    # -- digit arrays and log tables (the array evaluator, k > 1) -----------

    def _digits(self, a) -> np.ndarray:
        """Base-p digits of codes, along a new last axis of length k."""
        return _digits(a, self.p, self.k)

    def _codes(self, d: np.ndarray) -> np.ndarray:
        """Codes of digit arrays (..., k), each digit taken mod p."""
        return d % self.p @ self.p ** np.arange(self.k)

    def _digit_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of digit arrays (..., k) in this field."""
        return _digit_mul(a, b, self._red_rows, self.p)

    def _digit_powers(self, g: np.ndarray, count: int) -> np.ndarray:
        """g^0, ..., g^(count-1) as a (count, k) digit array, by doubling."""
        out, step = self._digits([1]), g
        while len(out) < count:
            out = np.concatenate([out, self._digit_mul(out, step)])
            step = self._digit_mul(step, step)
        return out[:count]

    def _generator(self) -> np.ndarray:
        """Digits of the smallest code g with g^((q-1)/r) != 1 for every
        prime r dividing q - 1, i.e. a generator of the unit group.  The
        search starts at p: the codes below it form the prime field, whose
        units have order dividing p - 1 < q - 1 (k > 1)."""
        q, one, rs = self.q, self._digits(1), _prime_divisors(self.q - 1)
        for lo in range(self.p, q, 256):
            cand = self._digits(np.arange(lo, min(lo + 256, q)))
            ok = np.ones(len(cand), dtype=bool)
            for r in rs:
                ok &= (_power(cand, (q - 1) // r, self._digit_mul, one) != one).any(axis=-1)
            if ok.any():
                return cand[ok.argmax()]
        raise PreconditionError("no generator found", field=self.literal())  # pragma: no cover

    @cached_property
    def _log_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log, exp, digits) to the base of a generator g, built once.

        log[a] is the l in [0, q-1) with g^l = a, and -1 for a = 0; exp[l]
        is the code of g^l.  Row l of the (q, k) array digits holds the
        base-p digits of g^l, and row q-1 those of 0.  They are filled by
        baby-step/giant-step: with m about sqrt(q), g^(jm+i) is the baby
        step g^i times the giant step g^(jm), and multiplying by a giant
        step is a k x k matrix over F_p, so a block of giant steps is one
        matrix product.
        """
        p, q, k = self.p, self.q, self.k
        m = math.isqrt(q - 2) + 1  # m * m >= q - 1
        g = self._generator()
        baby = self._digit_powers(g, m)
        giant = self._digit_powers(self._digit_mul(baby[-1], g), -(-(q - 1) // m))
        # row t of mats[j] is giant[j] * x^t
        mats = self._digit_mul(giant[:, None], np.eye(k, dtype=np.int64))
        block = max(1, 2**20 // (m * k))  # giant steps per product
        digits = np.zeros((q, k), dtype=np.min_scalar_type(p - 1))
        exp = np.empty(q - 1, dtype=np.int64)
        for j in range(0, len(giant), block):
            lo = j * m
            d = (np.matmul(baby, mats[j : j + block]) % p).reshape(-1, k)[: q - 1 - lo]
            digits[lo : lo + len(d)] = d
            exp[lo : lo + len(d)] = self._codes(d)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        return log, exp, digits

    # -- array element ops (row reduction) ----------------------------------

    @cached_property
    def _inv_table(self) -> np.ndarray:
        """inv[a] = 1/a mod p for a code a of F_p, and inv[0] = 0: a^(p-2) by
        square and multiply on the whole table at once (p <= Q_CAP, so every
        product is below 2^40).  Starting from sign(a) keeps inv[0] = 0 over
        F_2 too, where p - 2 = 0."""
        p = self.p
        a = np.arange(p, dtype=np.int64)
        return _power(a, p - 2, lambda u, v: u * v % p, np.sign(a))

    def mul_array(self, a, b) -> np.ndarray:
        """Elementwise products of code arrays."""
        if self.k == 1:
            return _reduce(a * b, self.p)
        log, exp, _ = self._log_tables
        la, lb = log[a], log[b]
        return np.where((la < 0) | (lb < 0), 0, exp[(la + lb) % (self.q - 1)])

    def inv_array(self, a) -> np.ndarray:
        """Elementwise inverses of a code array, with inv(0) = 0."""
        if self.k == 1:
            return self._inv_table[a]
        log, exp, _ = self._log_tables
        la = log[a]
        return np.where(la < 0, 0, exp[-la % (self.q - 1)])

    def sub_mul_array(self, a, b, c) -> np.ndarray:
        """Elementwise a - b * c of code arrays; over F_p one reduction."""
        if self.k == 1:
            return _reduce(a - b * c, self.p)
        log, _, digits = self._log_tables  # digits[log[0]] is row q-1, zero
        return self._codes(digits[log[a]].astype(np.int64) - digits[log[self.mul_array(b, c)]])


@lru_cache(maxsize=None)
def field_make(p: int, k: int = 1) -> Field:
    """Cached constructor for F_{p^k}."""
    return Field(p, k)


def parse_field(lit: str) -> Field:
    """Parse a field literal: '7' means F_7, '2^4' means F_16."""
    lit = lit.strip()
    if "^" in lit:
        ps, ks = lit.split("^", 1)
    else:
        ps, ks = lit, "1"
    try:
        p, k = int(ps), int(ks)
    except ValueError:
        raise InputError("bad field literal", literal=lit) from None
    return field_make(p, k)


def proj_blocks(field: Field, n: int) -> list[tuple[list, tuple]]:
    """The order of enum_proj(field, n) as n boxes, one (cols, shape) each.

    Block `lead` holds the points (0, ..., 0, 1, x_(lead+1), ..., x_n), the
    free coordinates a base-q odometer with the last fastest: cols[i] is
    x_i shaped to broadcast against shape = (q,) * (n - lead - 1), so the
    block ravels in order and `_eval_terms` evaluates it from its axes.
    """
    if n < 1:
        raise InputError("need at least one coordinate", n=n)
    q, zero, one = field.q, np.zeros((), np.int64), np.ones((), np.int64)
    return [([zero] * lead + [one] + _axes(q, n - lead - 1), (q,) * (n - lead - 1))
            for lead in range(n)]


def _axes(q: int, m: int) -> list[np.ndarray]:
    """The coordinates of F_q^m, each 0..q-1 along its own axis of (q,) * m."""
    return [np.arange(q, dtype=np.int64).reshape((1,) * i + (q,) + (1,) * (m - 1 - i))
            for i in range(m)]


def enum_proj(field: Field, n: int, budget: Budget | None = None) -> np.ndarray:
    """All points of P^(n-1)(F_q) as an (N, n) array of element codes.

    Representatives are normalized so the first nonzero coordinate is 1,
    in the order of :func:`proj_blocks`.  N = (q^n - 1)/(q - 1) exactly.
    """
    blocks = proj_blocks(field, n)
    ensure_budget(budget).charge(field.q**n, "projective enumeration")
    return np.concatenate([np.stack([np.broadcast_to(c, shape).ravel() for c in cols], axis=1)
                           for cols, shape in blocks])


def proj_rows(field: Field, n: int, idx: np.ndarray) -> np.ndarray:
    """Rows `idx` of enum_proj(field, n), without building the others."""
    idx = np.asarray(idx, dtype=np.int64)
    size = field.q ** np.arange(n - 1, -1, -1, dtype=np.int64)  # of block lead
    start = np.cumsum(size) - size
    lead = np.searchsorted(start, idx, side="right") - 1
    # digit i of the offset in the block is x_i; those up to lead are 0
    pts = (idx - start[lead])[:, None] // size % field.q
    pts[np.arange(idx.size), lead] = 1
    return pts


# -- polynomials with coefficients in F_q ------------------------------------


class FqPoly:
    """Sparse polynomial with F_q coefficients (element codes as values)."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, field: Field, n: int, terms: dict | None = None):
        self.field = field
        self.n = n
        clean = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def partial(self, i: int) -> "FqPoly":
        """Partial derivative with respect to x_i (1-based).  Distinct
        monomials differentiate to distinct monomials, so no two terms
        merge; a term whose exponent e_i is a multiple of p vanishes."""
        F, j = self.field, i - 1
        terms = [(e, c) for e, c in self.terms.items() if e[j]]
        coef = F.mul_array(np.array([c for _, c in terms], dtype=np.int64),
                           np.array([F.embed(e[j]) for e, _ in terms],
                                    dtype=np.int64))
        return FqPoly(F, self.n, {e[:j] + (e[j] - 1,) + e[j + 1:]: c
                                  for (e, _), c in zip(terms, coef.tolist())})

    def eval(self, point) -> int:
        """Evaluate at a tuple of element codes (scalar, exact)."""
        F = self.field
        pows: list[dict[int, int]] = [dict() for _ in range(self.n)]

        def xp(i, e):
            if e == 0:
                return None
            cache = pows[i]
            if e not in cache:
                cache[e] = F.pow(point[i], e)
            return cache[e]

        total = 0
        for exps, c in self.terms.items():
            v = c
            for i, e in enumerate(exps):
                if e:
                    v = F.mul(v, xp(i, e))
            total = F.add(total, v)
        return total

    def __repr__(self):
        return f"FqPoly({self.field.literal()}, {self.n}, {len(self.terms)} terms)"


def reduce_mod(f, field: Field) -> FqPoly:
    """Reduce an integer polynomial coefficientwise into F_{p^k}.

    Integer coefficients land in the prime subfield via c mod p.
    """
    terms = {}
    for e, c in f.terms.items():
        cc = field.embed(c)
        if cc:
            terms[e] = cc
    return FqPoly(field, f.n, terms)


# -- array evaluation ---------------------------------------------------------

MODULUS_CAP = 2**63  # residues are int64


def _check_modulus(m: int) -> None:
    """Refuse a modulus outside 1 <= m < MODULUS_CAP."""
    if m < 1:
        raise InputError("modulus must be >= 1", m=m)
    if m >= MODULUS_CAP:
        raise InputError("modulus must be below 2^63", m=m)


def _int64_exact(terms: dict, amax) -> bool:
    """Whether the exact values of terms at |x_i| <= amax[i] stay in int64:
    their coarse bound sum |c| prod_i max(1, amax[i])^(e_i) is below 2^62,
    so the values, their negations and every partial sum are int64."""
    return sum(abs(c) * math.prod(max(1, a) ** e for a, e in zip(amax, exps))
               for exps, c in terms.items()) < 2**62


def _ring(ring, terms: dict, cols: list, shape: tuple):
    """(total, term, finish) of the ring that `ring` names.

    term(c, exps) is c * prod_i x_i^(e_i) over the columns as the ring
    carries it, each term is added in place into total, zero at the output
    shape, and finish turns the sum into the output array.  Every product
    is reduced; sums are reduced once, by finish, within the bounds checked
    here.
    """
    if isinstance(ring, Field) and ring.k > 1:
        # a column is carried as its logs to base g (-1 for the zero code).
        # A term is one gather of base-p digits, digit-major: of g^(log c +
        # sum e_i log x_i mod q-1), or of 0 (row q-1) where a coordinate it
        # uses is 0.  Digit sums stay at most top until finish reduces them
        log, _, digits = ring._log_tables
        p, q1 = ring.p, ring.q - 1
        logs = [log[c] for c in cols]
        zeros = [lc < 0 for lc in logs]
        top = len(terms) * (p - 1)

        def term(c, exps):
            s, z = log[c], False
            for i, e in enumerate(exps):
                if e:
                    s = s + e % q1 * logs[i]
                    z = z | zeros[i]
            at = np.where(z, q1, _reduce(s, q1))
            at = at.reshape((1,) * (len(shape) - at.ndim) + at.shape)  # output axes
            return np.take(digits.T, at, axis=1)  # several times faster than digits.T[:, at]

        def finish(s):  # the codes sum_i (s_i mod p) p^i, by Horner
            modp = np.arange(top + 1, dtype=np.int64) % p
            out = np.take(modp, s[-1])
            for d in s[-2::-1]:
                out *= p
                out += np.take(modp, d)
            return out

        return np.zeros((ring.k, *shape), dtype=np.min_scalar_type(top)), term, finish
    if ring is None:
        amax = [int(np.max(np.abs(col))) if col.size else 0 for col in cols]
        dtype = np.int64 if _int64_exact(terms, amax) else object

        def lift(a):
            return np.asarray(a, dtype=dtype)

        return np.zeros(shape, dtype), _power_term(lift, np.multiply, cols), lambda s: s
    m = ring.p if isinstance(ring, Field) else ring
    _check_modulus(m)
    # products below m^2, sums of reduced terms below m * len(terms)
    big = max((m - 1) ** 2, (m - 1) * len(terms))
    dtype = np.int64 if big < MODULUS_CAP else object

    def lift(a):
        return np.asarray(a % m, dtype=dtype)

    def mul(a, b):
        return _reduce(a * b, m) if dtype is np.int64 else a * b % m

    # np.asarray: on a 0-d object sum `%` returns a Python int
    return np.zeros(shape, dtype), _power_term(lift, mul, cols), lambda s: np.asarray(
        s % m).astype(np.int64, copy=False)


def _power_term(lift, mul, cols):
    """term(c, exps) as lift(c) times cached powers of the lifted columns."""
    base = [lift(c) for c in cols]
    pows = [[b] for b in base]  # pows[i][e - 1] = x_i^e, built x^e = x^(e-1) x

    def pw(i, e):
        chain = pows[i]
        while len(chain) < e:
            chain.append(mul(chain[-1], base[i]))
        return chain[e - 1]

    def term(c, exps):
        v = lift(c)
        for i, e in enumerate(exps):
            if e:
                v = mul(v, pw(i, e))
        return v

    return term


def _eval_terms(terms: dict, cols: list, shape: tuple, ring) -> np.ndarray:
    """The array of sum_e c_e prod_i x_i^(e_i) over `terms`, of `shape`.

    cols[i] holds the values of x_i shaped to broadcast against `shape`: a
    box axis along its own dimension, or one column of a point array.
    Power tables and logs therefore stay the size of one coordinate, and
    only a term's last products and the running sum reach full size.
    `ring` is None for Z, an int m for Z/m, or a Field (element codes in
    and out).
    """
    total, term, finish = _ring(ring, terms, cols, shape)
    for exps, c in terms.items():
        total += term(c, exps)
    return finish(total)
