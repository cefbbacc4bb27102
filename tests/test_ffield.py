"""Field arithmetic on integer-coded F_{p^k}, primality, and projective
enumeration."""

import itertools
import random

import numpy as np
import pytest
import sympy

from vdc.counting import eval_on_axes
from vdc.errors import InputError
from vdc.ffield import (
    Field,
    FqPoly,
    _eval_terms,
    enum_proj,
    field_make,
    find_irreducible,
    is_prime,
    next_prime,
    parse_field,
    primes_in_interval,
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
    assert next_prime(13) == 13  # smallest prime >= m
    assert next_prime(14) == 17
    assert next_prime(1) == 2


def test_find_irreducible_is_irreducible():
    x = sympy.symbols("x")
    for p, k in [(2, 3), (3, 2), (5, 4), (7, 2), (13, 3)]:
        low = find_irreducible(p, k)  # c_0..c_{k-1}, leading 1 implicit
        assert len(low) == k
        poly = sympy.Poly([1] + list(reversed(low)), x, modulus=p)
        assert poly.is_irreducible, (p, k, low)


def sample_field_axioms(fld, rng, trials=200):
    els = list(fld.elements())
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


def test_frobenius_is_additive_and_fixes_prime_field():
    fld = field_make(5, 3)
    rng = random.Random(33)
    for _ in range(100):
        a, b = rng.randrange(fld.q), rng.randrange(fld.q)
        assert fld.frobenius(fld.add(a, b)) == fld.add(
            fld.frobenius(a), fld.frobenius(b)
        )
    for c in range(5):
        e = fld.embed(c)
        assert fld.frobenius(e) == e


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


def test_reduce_mod_and_eval_consistency():
    f = parse_poly("3*x1^2*x2 - 7*x2^3 + 11", 2)
    fld = field_make(5)
    fq = reduce_mod(f, fld)
    assert isinstance(fq, FqPoly)
    rng = random.Random(35)
    for _ in range(50):
        pt = [rng.randrange(5) for _ in range(2)]
        assert fq.eval(pt) == f.eval(pt) % 5


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
