"""Field arithmetic on integer-coded F_{p^k}, primality, and projective
enumeration."""

import itertools
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from vdc.counting import eval_on_axes
from vdc.errors import InputError, PreconditionError
from vdc.ffield import (
    MODULUS_CAP,
    Q_CAP,
    Field,
    FqPoly,
    _digits,
    _eval_terms,
    _is_irreducible,
    _reduce,
    _ring,
    enum_proj,
    field_make,
    find_irreducible,
    is_prime,
    parse_field,
    primes_in_interval,
    proj_blocks,
    proj_rows,
    reduce_mod,
)
from vdc.geometry import values_on
from vdc.mpoly import IntPoly, parse_poly


def test_is_prime_against_sympy():
    for m in range(-3, 500):
        assert is_prime(m) == sympy.isprime(m), m
    for m in (2**31 - 1, 2**31 + 11, 10**12 + 39):
        assert is_prime(m) == sympy.isprime(m), m


def test_prime_intervals():
    assert primes_in_interval(10, 30) == [11, 13, 17, 19, 23, 29]
    assert primes_in_interval(24, 28) == []


def test_find_irreducible_is_irreducible():
    """The chosen modulus is irreducible and every smaller code is not."""
    x = sympy.symbols("x")
    for p, k in [(2, 3), (3, 2), (5, 4), (7, 2), (13, 3), (101, 3), (3, 12), (2, 20)]:
        low = find_irreducible(p, k)  # c_0..c_{k-1}, leading 1 implicit
        assert len(low) == k
        poly = sympy.Poly([1] + list(reversed(low)), x, modulus=p)
        assert poly.is_irreducible, (p, k, low)
        below = _digits(range(sum(c * p**i for i, c in enumerate(low))), p, k).tolist()
        for d in below:
            assert not sympy.Poly([1] + d[::-1], x, modulus=p).is_irreducible, (p, k, d)


# -- the list-polynomial Rabin test, with polynomial gcds: the oracle for
# ffield._is_irreducible (coefficient lists over F_p, low to high)


def _pstrip(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pstrip(out)


def _pmod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        c = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        _pstrip(a)
    return a


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppow_xq(e, m, p):
    """x^(p^e) mod m, by e-fold Frobenius (repeated p-th powering)."""
    r = [0, 1]  # x
    for _ in range(e):
        base, out, exp = r, [1], p
        while exp:
            if exp & 1:
                out = _pmod(_pmul(out, base, p), m, p)
            exp >>= 1
            if exp:
                base = _pmod(_pmul(base, base, p), m, p)
        r = out
    return r


def _psub(a, b, p):
    return _pstrip([(x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _rabin_on_lists(coeffs, p):
    """Rabin's test for a monic polynomial over F_p."""
    k = len(coeffs) - 1
    x = [0, 1]
    if _psub(_ppow_xq(k, coeffs, p), x, p):
        return False
    for t in sympy.primefactors(k):
        diff = _psub(_ppow_xq(k // t, coeffs, p), x, p)
        if not diff:
            return False
        if len(_pgcd(list(coeffs), diff, p)) > 1:
            return False
    return True


RABIN_FIELDS = [(2, k) for k in range(2, 9)] + [(3, k) for k in range(2, 6)] + [
    (5, 2), (5, 3), (7, 2), (13, 2)]


@pytest.mark.parametrize("p,k", RABIN_FIELDS, ids=[f"F_{p}^{k}" for p, k in RABIN_FIELDS])
def test_is_irreducible_matches_list_rabin(p, k):
    """The test by products gives the gcd test's verdict on every monic
    candidate of degree k, irreducible or not."""
    low = _digits(np.arange(p**k), p, k)
    got = _is_irreducible(low, p)
    assert got.shape == (p**k,)
    assert got.tolist() == [_rabin_on_lists(d + [1], p) for d in low.tolist()]
    # Gauss: k * #irreducibles = sum over d | k of mobius(d) p^(k/d)
    assert k * got.sum() == sum(sympy.mobius(d) * p ** (k // d) for d in sympy.divisors(k))


def sample_field_axioms(fld, rng, trials=200):
    els = range(fld.q)
    for _ in range(trials):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert fld.add(a, b) == fld.add(b, a)
        assert fld.mul(a, b) == fld.mul(b, a)
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
        assert fld.add(a, fld.neg(a)) == 0
        if a != 0:
            assert fld.mul(a, fld.inv(a)) == fld.embed(1)
        assert fld.sub(a, b) == fld.add(a, fld.neg(b))


def test_prime_field_axioms():
    sample_field_axioms(field_make(11), random.Random(31))


def test_extension_field_axioms():
    for p, k in [(2, 4), (3, 3), (7, 2)]:
        sample_field_axioms(field_make(p, k), random.Random(32), trials=150)


class _Reference:
    """F_{p^k} by sympy, apart from Field's tables: a code is the polynomial
    of its base-p digits over F_p, and products are reduced modulo
    fld.modulus (modulo x for k = 1)."""

    def __init__(self, fld):
        self.fld, x = fld, sympy.symbols("x")
        mod = x**fld.k + sum(c * x**i for i, c in enumerate(fld.modulus))
        self.x, self.mod = x, sympy.Poly(mod, x, modulus=fld.p)

    def poly(self, a):
        p, k = self.fld.p, self.fld.k
        return sympy.Poly([a // p**i % p for i in reversed(range(k))], self.x, modulus=p)

    def code(self, P):
        p = self.fld.p
        return sum(int(c) % p * p**i for (i,), c in P.rem(self.mod).terms())

    def add(self, a, b):
        return self.code(self.poly(a) + self.poly(b))

    def sub(self, a, b):
        return self.code(self.poly(a) - self.poly(b))

    def neg(self, a):
        return self.code(-self.poly(a))

    def mul(self, a, b):
        return self.code(self.poly(a) * self.poly(b))

    def inv(self, a):
        return self.code(self.poly(a).invert(self.mod))

    def pow(self, a, e):
        base, out = self.poly(a if e >= 0 else self.inv(a)), self.poly(1)
        for _ in range(abs(e)):
            out = (out * base).rem(self.mod)
        return self.code(out)


@pytest.mark.parametrize("p,k", [(2, 1), (5, 1), (73, 1), (2, 3), (3, 2), (7, 2), (5, 3)])
def test_array_ops_match_scalar_ops(p, k):
    """mul_array, inv_array (inv(0) = 0) and sub_mul_array on code arrays
    agree with the sympy reference, zero codes and codes that are
    multiples of p included."""
    fld, ref = field_make(p, k), _Reference(field_make(p, k))
    rng = np.random.default_rng(p * 10 + k)
    a, b, c = rng.integers(0, fld.q, size=(3, 400))
    a[:20], b[20:40], c[40:60] = 0, 0, 0
    b[60:80] = p * rng.integers(0, fld.q // p, size=20)
    al, bl, cl = a.tolist(), b.tolist(), c.tolist()
    assert fld.mul_array(a, b).tolist() == [ref.mul(x, y) for x, y in zip(al, bl)]
    assert fld.inv_array(b).tolist() == [ref.inv(y) if y else 0 for y in bl]
    want = [ref.sub(x, ref.mul(y, z)) for x, y, z in zip(al, bl, cl)]
    assert fld.sub_mul_array(a, b, c).tolist() == want
    # broadcasting, as row reduction uses it: (M, r, n) - (M, r, 1) * (M, 1, n)
    A = rng.integers(0, fld.q, size=(5, 3, 4))
    got = fld.sub_mul_array(A, A[:, :, :1], A[:, :1, :])
    assert got.tolist() == [[[ref.sub(x, ref.mul(row[0], mat[0][j])) for j, x in enumerate(row)]
                             for row in mat] for mat in A.tolist()]


def test_reduce_equals_mod_on_int64():
    """_reduce(a, m) = a % m on int64 arrays of either sign, 0-d arrays,
    numpy and Python scalars, up to the largest operand each caller passes:
    (p - 1)^2 and a - (p - 1)^2 in mul_array and sub_mul_array for p up to
    Q_CAP, and products below 2^63 in the Z/m ring's int64 path."""
    rng = np.random.default_rng(7)
    p_top = primes_in_interval(Q_CAP - 64, Q_CAP)[-1]
    m_top = math.isqrt(MODULUS_CAP - 1) + 1  # the largest m with (m - 1)^2 < 2^63
    for m, top in [(2, 4), (7, 36), (1021, 1020**2), (p_top, (p_top - 1) ** 2),
                   (2**20 - 2, 2**40), (m_top, (m_top - 1) ** 2)]:
        a = np.concatenate([[0, 1, m - 1, m, m + 1, top, top - 1, -1, -m, -(m - 1), 1 - top],
                            rng.integers(-top, top, size=500, endpoint=True)]).astype(np.int64)
        got = _reduce(a, m)
        assert got.dtype == np.int64 and np.array_equal(got, a % m), m
        assert got.min() >= 0 and got.max() < m
        for x in (a[-1], a[8], np.array(a[-2]), int(a[-3]), -(2**62)):
            assert _reduce(x, m) == x % m and np.ndim(_reduce(x, m)) == 0


@pytest.mark.parametrize("p", [2, 3, 7, 65521, 1048573])
def test_inverse_table_matches_pow(p):
    """inv_array over the whole of F_p, the largest prime under Q_CAP
    included: inv(0) = 0, then Python's modular inverses."""
    want = [0] + [pow(a, -1, p) for a in range(1, p)]
    assert field_make(p).inv_array(np.arange(p)).tolist() == want


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (3, 2)])
def test_partial_commutes_with_reduction(p, k):
    """d/dx_i then reduction into F_{p^k} equals reduction then d/dx_i,
    over F_3 and F_9 (terms whose exponent 3 or 6 vanish) and F_7 (x2^7,
    and a coefficient 7 that vanishes before differentiating)."""
    f = parse_poly("x1^3*x2 + 2*x1^6 - x1*x2^2*x3 + 5*x2^7*x3^4 + 7*x3*x1 - 4"
                   " + x1^2*x2*x3^3", 3)
    fld = field_make(p, k)
    for i in (1, 2, 3):
        assert (reduce_mod(f.partial(i), fld).terms
                == reduce_mod(f, fld).partial(i).terms), i


SCALAR_FIELDS = [(2, 1), (5, 1), (73, 1), (2, 2), (2, 3), (3, 2), (3, 3), (7, 2), (2, 10)]


@st.composite
def _scalar_case(draw):
    fld = field_make(*draw(st.sampled_from(SCALAR_FIELDS)))
    code = st.one_of(st.just(0), st.just(1), st.integers(0, fld.q - 1))
    return fld, draw(code), draw(code), draw(st.integers(-3, fld.q + 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_scalar_case())
def test_scalar_ops_match_reference(case):
    """add, sub, neg, mul, pow (0^0 = 1, 0^e = 0, negative e) and inv
    (refusing zero) against the sympy reference."""
    fld, a, b, e = case
    ref = _Reference(fld)
    assert fld.add(a, b) == ref.add(a, b)
    assert fld.sub(a, b) == ref.sub(a, b)
    assert fld.neg(a) == ref.neg(a)
    assert fld.mul(a, b) == ref.mul(a, b)
    for x in (a, b):
        if x:
            assert fld.inv(x) == ref.inv(x)
        if x or e >= 0:
            assert fld.pow(x, e) == ref.pow(x, e)
    assert fld.pow(0, 0) == 1 and fld.pow(0, e + 4) == 0
    for refused in (lambda: fld.inv(0), lambda: fld.pow(0, min(e, -1))):
        with pytest.raises(PreconditionError):
            refused()


def test_frobenius_is_additive_and_fixes_prime_field():
    fld = field_make(5, 3)
    rng = random.Random(33)
    for _ in range(100):
        a, b = rng.randrange(fld.q), rng.randrange(fld.q)
        assert fld.pow(fld.add(a, b), fld.p) == fld.add(
            fld.pow(a, fld.p), fld.pow(b, fld.p)
        )
    for c in range(5):
        e = fld.embed(c)
        assert fld.pow(e, fld.p) == e


def test_multiplicative_order_divides_group_order():
    fld = field_make(3, 4)  # q = 81
    rng = random.Random(34)
    for _ in range(20):
        a = rng.randrange(1, fld.q)
        assert fld.pow(a, fld.q - 1) == fld.embed(1)


def test_parse_field_literals():
    assert parse_field("7").q == 7
    f16 = parse_field("2^4")
    assert (f16.p, f16.k, f16.q) == (2, 4, 16)
    for bad in ["", "x", "4", "7^0", "6^2"]:
        with pytest.raises(InputError):
            parse_field(bad)


def test_enum_proj_size_and_normalization():
    for p, k, n in [(5, 1, 3), (3, 2, 2), (2, 3, 3)]:
        fld = field_make(p, k)
        pts = enum_proj(fld, n)
        expected = (fld.q**n - 1) // (fld.q - 1)
        assert pts.shape == (expected, n)
        # canonical representatives: first nonzero coordinate is 1
        for row in pts[:: max(1, len(pts) // 50)]:
            nz = [int(v) for v in row if v != 0]
            assert nz and nz[0] == fld.embed(1)
        # no duplicates
        assert len({tuple(map(int, r)) for r in pts}) == expected


@pytest.mark.parametrize("p,k,n", [(2, 1, 1), (7, 1, 3), (2, 3, 3), (3, 2, 4), (5, 1, 5)])
def test_proj_rows_decode_enum_proj(p, k, n):
    fld = field_make(p, k)
    pts = enum_proj(fld, n)
    rng = np.random.default_rng(p * k * n)
    idx = np.concatenate([[0, len(pts) - 1], rng.integers(0, len(pts), size=200)])
    assert np.array_equal(proj_rows(fld, n, idx), pts[idx])
    assert np.array_equal(proj_rows(fld, n, np.arange(len(pts))), pts)
    assert proj_rows(fld, n, idx[:0]).shape == (0, n)


def test_reduce_mod_and_eval_consistency():
    f = parse_poly("3*x1^2*x2 - 7*x2^3 + 11", 2)
    fld = field_make(5)
    fq = reduce_mod(f, fld)
    assert isinstance(fq, FqPoly)
    rng = random.Random(35)
    for _ in range(50):
        pt = [rng.randrange(5) for _ in range(2)]
        assert fq.eval(pt) == f.eval(pt) % 5


def test_reduce_mod_takes_intpoly_and_fqpoly_over_its_field_only():
    f = parse_poly("3*x1^2*x2 - 7*x2^3 + 11", 2)
    fq = reduce_mod(f, field_make(5))
    assert reduce_mod(fq, field_make(5)) is fq
    with pytest.raises(InputError, match="another field") as ei:
        reduce_mod(fq, field_make(5, 2))
    assert ei.value.details == {"form_field": "5", "field": "5^2"}
    for other in ("x1^2", None, 3):
        with pytest.raises(InputError, match="forms must be IntPoly or FqPoly"):
            reduce_mod(other, field_make(5))


# -- the array evaluator --------------------------------------------------------

# ring argument of _eval_terms, and the coordinate values drawn for it; the
# +-2^40 coordinates push the integer bound past 2^62 (object lift)
EVAL_RINGS = {
    "Z-int64": (None, range(-3, 4)),
    "Z-object": (None, (-(2**40), -2, -1, 0, 3, 2**40)),
    "Z/12": (12, range(-5, 6)),
    "F_7": (field_make(7), range(7)),
    "F_4": (field_make(2, 2), range(4)),
    "F_9": (field_make(3, 2), range(9)),
    "F_16": (field_make(2, 4), range(16)),
    # the largest p with k = 2 under the field cap: digit products pass 2^16
    "F_1021^2": (field_make(1021, 2), range(1021**2)),
}


def _eval_forms(rng, coeff):
    """Term dicts in three variables, including the degenerate shapes."""
    rand = {tuple(rng.randint(0, 3) for _ in range(3)): coeff() for _ in range(6)}
    return {
        "random": rand,
        "zero": {},
        "constant": {(0, 0, 0): coeff()},
        "omits_x2": {(2, 0, 1): coeff(), (0, 0, 3): coeff(), (1, 0, 0): coeff()},
    }


def _eval_layout(layout, rng, values):
    """(source arrays, broadcast columns, output shape, points in output order)."""
    values = list(values)
    if layout == "axes":
        # lengths 2, 3, 4 for x1, x2, x3 so a transposed shape shows
        axes = [np.array(rng.sample(values, L), dtype=np.int64) for L in (2, 3, 4)]
        cols = [ax.reshape([-1 if a == 2 - i else 1 for a in range(3)])
                for i, ax in enumerate(axes)]
        points = [pt[::-1] for pt in itertools.product(*reversed(axes))]
        return axes, cols, (4, 3, 2), points
    pts = np.array([[rng.choice(values) for _ in range(3)] for _ in range(25)],
                   dtype=np.int64)
    return pts, [pts[:, i] for i in range(3)], (25,), list(pts)


@pytest.mark.parametrize("layout", ["axes", "rows"])
@pytest.mark.parametrize("ring_id", list(EVAL_RINGS))
def test_evaluator_matches_scalar_oracle(ring_id, layout):
    """Every ring on both layouts against IntPoly.eval / FqPoly.eval, and the
    two entry points against the core on their own layout."""
    ring, values = EVAL_RINGS[ring_id]
    rng = random.Random(f"{ring_id}/{layout}")
    fld = ring if isinstance(ring, Field) else None
    if fld:
        coeff = lambda: rng.randrange(1, fld.q)  # noqa: E731
    else:
        coeff = lambda: rng.choice([-9, -4, -1, 1, 2, 7])  # noqa: E731
    for name, terms in _eval_forms(rng, coeff).items():
        src, cols, shape, points = _eval_layout(layout, rng, values)
        out = _eval_terms(terms, cols, shape, ring)
        assert out.shape == shape, name
        if fld:
            poly = FqPoly(fld, 3, terms)
            oracle = poly.eval
        else:
            poly = IntPoly(3, terms)
            oracle = poly.eval if ring is None else (lambda pt: poly.eval(pt) % ring)
        if ring is not None:
            assert out.dtype == np.int64, name
        if ring_id == "Z-object" and name == "omits_x2":
            assert out.dtype == object  # x1^2 x3 reaches 2^120
        expected = [oracle([int(x) for x in pt]) for pt in points]
        assert [int(v) for v in out.ravel()] == expected, name
        if layout == "rows" and fld:
            assert np.array_equal(values_on(poly, src), out), name
        if layout == "axes" and not fld:
            assert list(eval_on_axes(poly, src, ring)) == list(out.ravel()), name


@pytest.mark.parametrize("ring", [7, None], ids=["Z/7", "Z"])
def test_eval_terms_takes_exponents_past_the_recursion_limit(ring):
    """x^1200 is built by a loop of 1199 products, not by recursion."""
    out = _eval_terms({(1200,): 1}, [np.arange(5)], (5,), ring)
    want = [x**1200 if ring is None else pow(x, 1200, ring) for x in range(5)]
    assert [int(v) for v in out] == want


# -- discrete-log tables against the digit-convolution ring -------------------

LOG_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (1021, 2), (2, 20)]
# (modulus, generator) of each: the non-leading coefficients and exp[1]
LOG_FIELDS_PINNED = {
    (2, 2): ((1, 1), 2), (2, 3): ((1, 1, 0), 2), (3, 2): ((1, 0), 4),
    (2, 4): ((1, 1, 0, 0), 2), (5, 2): ((2, 0), 6), (3, 3): ((1, 2, 0), 3),
    (7, 2): ((1, 0), 9), (1021, 2): ((2, 0), 1035),
    (2, 20): ((1, 0, 0, 1) + (0,) * 16, 2),  # x^20 + x^3 + 1
}


@pytest.mark.parametrize("p,k", LOG_FIELDS, ids=[f"F_{p}^{k}" for p, k in LOG_FIELDS])
def test_log_fields_pinned(p, k):
    """The modulus and the generator are pinned, and row j of the
    reduction rows is x^(k+j) mod the modulus."""
    fld = field_make(p, k)
    assert (fld.modulus, int(fld._log_tables[1][1])) == LOG_FIELDS_PINNED[p, k]
    x = sympy.symbols("x")
    mod = sympy.Poly([1, *fld.modulus[::-1]], x, modulus=p)
    for j, row in enumerate(fld._red_rows.tolist()):
        rem = sympy.Poly(x ** (k + j), x, modulus=p).rem(mod)
        assert row == [int(rem.coeff_monomial(x**i)) % p for i in range(k)], j


@pytest.mark.parametrize("p,k", LOG_FIELDS, ids=[f"F_{p}^{k}" for p, k in LOG_FIELDS])
def test_log_tables_invert_each_other(p, k):
    fld = field_make(p, k)
    log, exp, digits = fld._log_tables
    codes = np.arange(1, fld.q)
    assert np.array_equal(exp[log[codes]], codes)
    assert log[0] < 0
    assert np.array_equal(digits[-1], np.zeros(k))
    assert np.array_equal(digits[:-1].astype(np.int64) @ p ** np.arange(k), exp)
    g, steps = int(exp[1]), min(5, fld.q - 2)
    assert [fld.mul(int(e), g) for e in exp[:steps]] == [int(e) for e in exp[1 : steps + 1]]


def _digit_ring(fld, terms):
    """The evaluator's F_{p^k} ring before log tables: (lift, mul, add,
    finish) on lists of k base-p digit arrays, products by convolution."""
    p, k, rows = fld.p, fld.k, fld._red_rows
    dtype = np.int32 if (2 * k * p + len(terms)) * p < 2**31 else np.int64

    def lift(a):
        a = np.asarray(a, dtype=np.int64)
        return [(a // p**i % p).astype(dtype) for i in range(k)]

    def mul(a, b):
        conv = [0] * (2 * k - 1)
        for i in range(k):
            for j in range(k):
                conv[i + j] = conv[i + j] + a[i] * b[j]
        for deg in range(2 * k - 2, k - 1, -1):
            c = conv[deg] % p
            for t, r in enumerate(rows[deg - k]):
                if r:
                    conv[t] = conv[t] + c * r
        return [d % p for d in conv[:k]]

    def add(a, b):
        return [x + y for x, y in zip(a, b)]

    return lift, mul, add, lambda s: sum(
        d.astype(np.int64) % p * p**i for i, d in enumerate(s))


def _digit_eval(fld, terms, cols, shape):
    """_eval_terms over the digit ring; powers by squaring, so that
    exponents past q - 1 stay cheap."""
    lift, mul, add, finish = _digit_ring(fld, terms)

    def power(a, e):
        r = lift(1)
        while e:
            if e & 1:
                r = mul(r, a)
            e >>= 1
            a = mul(a, a)
        return r

    base = [lift(c) for c in cols]
    total = lift(0)
    for exps, c in terms.items():
        v = lift(c)
        for i, e in enumerate(exps):
            if e:
                v = mul(v, power(base[i], e))
        total = add(total, v)
    return np.broadcast_to(finish(total), shape)


@st.composite
def _field_forms(draw):
    fld = field_make(*draw(st.sampled_from(LOG_FIELDS)))
    q, n = fld.q, draw(st.integers(1, 3))
    exps = st.one_of(st.integers(0, 4), st.sampled_from([q - 2, q - 1, q, 2 * q - 1]))
    terms = draw(st.dictionaries(st.tuples(*[exps] * n), st.integers(1, q - 1),
                                 max_size=5))
    code = st.one_of(st.just(0), st.just(1), st.integers(0, q - 1))
    pts = draw(st.lists(st.tuples(*[code] * n), min_size=1, max_size=6))
    return fld, n, terms, np.array(pts, dtype=np.int64), draw(st.integers(1, q - 1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_field_forms())
def test_log_evaluator_matches_digit_ring_and_scalar_eval(case):
    """values_on over F_{p^k} against FqPoly.eval and the digit ring, on the
    drawn form, the zero form and a constant; coordinates include 0 and
    exponents reach past q - 1."""
    fld, n, terms, pts, c = case
    cols = [pts[:, i] for i in range(n)]
    for form in (terms, {}, {(0,) * n: c}):
        poly = FqPoly(fld, n, form)
        got = values_on(poly, pts)
        assert got.dtype == np.int64 and got.shape == (len(pts),)
        assert got.tolist() == [poly.eval([int(x) for x in pt]) for pt in pts]
        assert got.tolist() == _digit_eval(fld, form, cols, got.shape).tolist()


def test_log_evaluator_digit_sums_past_uint8():
    """Every monomial of degree <= 6 in 3 variables over F_49: 84 terms, so
    a digit sum reaches 84 * 6 = 504 and the total is uint16.  Points draw
    0 often, so zero coordinates mask terms; FqPoly.eval is the oracle."""
    fld = field_make(7, 2)
    rng = random.Random(49)
    terms = {e: rng.randrange(1, fld.q) for e in itertools.product(range(7), repeat=3)
             if sum(e) <= 6}
    assert len(terms) == 84
    pts = np.array([[rng.choice([0, 0, 1, rng.randrange(fld.q)]) for _ in range(3)]
                    for _ in range(300)], dtype=np.int64)
    cols = [pts[:, i] for i in range(3)]
    total, term, _ = _ring(fld, terms, cols, (len(pts),))
    for e, c in terms.items():
        total += term(c, e)
    assert total.dtype == np.uint16 and total.max() > 255
    poly = FqPoly(fld, 3, terms)
    assert values_on(poly, pts).tolist() == [poly.eval(list(map(int, pt))) for pt in pts]


@pytest.mark.parametrize("ring_id", ["Z-int64", "Z/12", "F_7", "F_4", "F_9"])
def test_evaluator_on_projective_blocks(ring_id):
    """The zero form, a constant, a term on the leading coordinate alone and
    a random form on the boxes of proj_blocks, whose columns include 0-d
    arrays and whose last block has the 0-d shape (): the total is
    allocated at each block's shape, and the blocks, raveled, match the
    scalar oracle on the rows of enum_proj."""
    ring, _ = EVAL_RINGS[ring_id]
    fld = ring if isinstance(ring, Field) else field_make(3)
    rng = random.Random(ring_id)
    n = 3
    top = fld.q if isinstance(ring, Field) else 9  # coefficients are codes over a field
    forms = {"zero": {}, "constant": {(0, 0, 0): rng.randrange(1, top)},
             "x1^2": {(2, 0, 0): rng.randrange(1, top)},
             "random": {tuple(rng.randint(0, 3) for _ in range(n)): rng.randrange(1, top)
                        for _ in range(6)}}
    pts = enum_proj(fld, n).tolist()
    for name, terms in forms.items():
        got = []
        for cols, shape in proj_blocks(fld, n):
            out = _eval_terms(terms, cols, shape, ring)
            assert np.shape(out) == shape, name
            got += np.ravel(out).tolist()
        if isinstance(ring, Field):
            oracle = FqPoly(fld, n, terms).eval
        else:
            poly = IntPoly(n, terms)
            oracle = poly.eval if ring is None else (lambda pt: poly.eval(pt) % ring)
        assert got == [oracle(pt) for pt in pts], name
