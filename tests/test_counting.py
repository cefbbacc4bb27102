"""Box counts, congruence counts, weighted counts, and the two
finite-field count probes."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vdc import counting
from vdc.counting import (
    Weight,
    _Domain,
    _outer,
    _product,
    count_box_mod,
    eval_on_axes,
    hooley_deligne_probe,
    smooth_profile,
    trivial_bound_probe,
    weighted_count,
)
from vdc.errors import Budget, BudgetExceeded, InputError, PreconditionError
from vdc.ffield import field_make
from vdc.mpoly import IntPoly, parse_poly
from vdc.pipeline import deviation_probe


def weight_1d(kind, t):
    """The exact weight of one axis at t = x / B."""
    if kind == "indicator":
        return Fraction(1) if abs(t) <= 1 else Fraction(0)
    assert kind == "hat"
    return max(Fraction(0), 1 - abs(t) / 2)


def brute_count(f, B, m=None):
    n = f.n
    total = 0
    def rec(i, pt):
        nonlocal total
        if i == n:
            v = f.eval(pt)
            total += (v == 0) if m is None else (v % m == 0)
            return
        for c in range(-B, B + 1):
            rec(i + 1, pt + [c])
    rec(0, [])
    return total


def test_count_box_small_oracle():
    rng = random.Random(71)
    for _ in range(25):
        n = rng.randint(1, 3)
        f = IntPoly.zero(n)
        from tests.test_mpoly import rand_poly
        f = rand_poly(rng, n, 3, coeff=4)
        B = rng.randint(0, 3)
        assert count_box_mod([f], B, None) == brute_count(f, B)


def test_count_box_mod_oracle():
    rng = random.Random(72)
    for _ in range(25):
        n = rng.randint(1, 3)
        from tests.test_mpoly import rand_poly
        f = rand_poly(rng, n, 3, coeff=4)
        B = rng.randint(0, 3)
        m = rng.choice([2, 3, 5, 7])
        assert count_box_mod([f], B, m) == brute_count(f, B, m)


def test_count_golden_diagonal_quartic():
    f = parse_poly("x1^4+x2^4-2*x3^4", 3)
    assert count_box_mod([f], 1, None) == 9


def test_eval_on_axes_matches_pointwise():
    rng = random.Random(73)
    from tests.test_mpoly import rand_poly
    f = rand_poly(rng, 3, 4, coeff=6)
    H = 2
    ax = [np.arange(-H, H + 1)] * 3
    flat = eval_on_axes(f, ax, None)
    flat_mod = eval_on_axes(f, ax, 7)
    side = 2 * H + 1
    for k in range(side**3):
        x1 = k % side - H
        x2 = (k // side) % side - H
        x3 = k // side**2 - H
        v = f.eval([x1, x2, x3])
        assert flat[k] == v
        assert flat_mod[k] == v % 7


def test_eval_on_axes_object_lift():
    f = parse_poly("x1^9", 1)
    ax = [np.arange(-(2**8), 2**8 + 1, dtype=np.int64)]
    vals = eval_on_axes(f, ax, None)
    assert vals.dtype == object  # 2^72 overflows int64; must lift
    assert vals[0] == -(2**72)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2**31, 2**62), t=st.integers(-3, 3),
       a=st.integers(-3, 3), b=st.integers(-3, 3), c=st.integers(1, 2**62))
def test_large_moduli_match_python_int_brute_force(m, t, a, b, c):
    """Moduli past the int64 product range: f(a, b) = t*m, so (a, b) is a
    zero mod m, and c*x2^3 wraps around m."""
    f = IntPoly(2, {(2, 0): 1, (0, 3): c, (0, 0): t * m - a * a - c * b**3})
    box = list(itertools.product(range(-3, 4), repeat=2))
    zeros = [x for x in box if f.eval(list(x)) % m == 0]
    assert (a, b) in zeros
    assert count_box_mod([f], 3, m) == len(zeros)
    w = Weight("hat")  # B = 2: support |x_i| <= 3, the same box
    expected = sum(weight_1d("hat", Fraction(x1, 2)) * weight_1d("hat", Fraction(x2, 2))
                   for x1, x2 in zeros)
    assert weighted_count([f], 2, m, w).value == expected


def test_moduli_past_int64_refused():
    f = parse_poly("x1^2-4", 1)
    for m in (2**63, 18446744073709551629):
        with pytest.raises(InputError):
            count_box_mod([f], 3, m)
        with pytest.raises(InputError):
            weighted_count([f], 3, m, "hat")
    assert count_box_mod([f], 3, 2**63 - 25) == 2  # the largest prime below


def test_exact_values_past_int64_keep_the_whole_box():
    """40^12 > 2^63: x1^12 - x2^12 is not split into its two one-variable
    parts, and its 81^2 values are compared as Python ints.  Its zeros
    are x1 = +-x2."""
    f = parse_poly("x1^12-x2^12", 2)
    budget = Budget()
    assert count_box_mod([f], 40, None, budget) == 161
    assert budget.used == 81**2


@pytest.mark.parametrize("call", [
    lambda fs: count_box_mod(fs, 1, None),
    lambda fs: weighted_count(fs, 1, None, "hat"),
    lambda fs: trivial_bound_probe(fs, field_make(7), [1]),
    lambda fs: hooley_deligne_probe(fs, field_make(7)),
    lambda fs: deviation_probe(fs, 2, 3, 5),
], ids=["count_box_mod", "weighted_count", "trivial_bound_probe",
        "hooley_deligne_probe", "deviation_probe"])
def test_polynomial_lists_are_checked_once(call):
    for fs, message in [([], "need at least one polynomial"),
                        ([parse_poly("x1^2", 1), parse_poly("x1^2+x2^2", 2)],
                         "mixed variable counts"),
                        (["x1^2"], "expected integer polynomials"),
                        (None, "expected integer polynomials")]:
        with pytest.raises(InputError, match=message):
            call(fs)


# -- weights -------------------------------------------------------------------


def test_weight_kinds_and_halfwidths():
    assert Weight("hat").halfwidth(4) == 7
    assert Weight("indicator").halfwidth(4) == 4
    assert Weight("smooth").halfwidth(4) == 7
    with pytest.raises(InputError):
        Weight("boxcar")


def test_hat_axis_values_are_exact():
    vals, den = Weight("hat").axis_values(3)
    assert den == 6
    assert list(vals) == [1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1]


def test_smooth_center_value():
    vals, den = Weight("smooth").axis_values(5)
    assert den is None
    assert abs(vals[9] - math.exp(-1.0)) < 1e-15  # center m = 0


def test_indicator_weight_equals_plain_congruence_count():
    f = parse_poly("x1^2+x2^2-1", 2)
    for B, m in [(3, 2), (4, 5), (5, 1)]:
        res = weighted_count([f], B, m, "indicator")
        assert res.value == Fraction(count_box_mod([f], B, m))
        assert res.exact


def test_hat_weighted_count_oracle():
    f = parse_poly("x1^2-x2", 2)
    B, m = 2, 3
    res = weighted_count([f], B, m, "hat")
    expected = Fraction(0)
    for x1 in range(-2 * B + 1, 2 * B):
        for x2 in range(-2 * B + 1, 2 * B):
            if f.eval([x1, x2]) % m == 0:
                expected += (weight_1d("hat", Fraction(x1, B))
                             * weight_1d("hat", Fraction(x2, B)))
    assert res.value == expected
    assert res.value.denominator == (2 * B) ** 2 // math.gcd(
        (2 * B) ** 2, res.value.numerator) or res.exact


def test_smooth_weighted_count_is_float_and_positive():
    f = parse_poly("x1^2+x2^2", 2)
    res = weighted_count([f], 3, 5, "smooth")
    assert isinstance(res.value, float) and res.value > 0
    assert not res.exact


def _smooth_1d(t):
    u = t / 2.0
    return math.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1 else 0.0


@pytest.mark.parametrize("poly,n,B,m", [("x1^2+x2^2", 2, 3, 5),
                                        ("x1^4+x2^4-2*x3^4+x1*x2", 3, 3, 7),
                                        ("x1^4+x2^4-x3^4-2*x4^4+x1*x3", 4, 3, 5)])
def test_smooth_weighted_count_matches_scalar_oracle(poly, n, B, m):
    f = parse_poly(poly, n)
    H = 2 * B - 1
    terms = [math.prod(_smooth_1d(c / B) for c in x)
             for x in itertools.product(range(-H, H + 1), repeat=n)
             if f.eval(list(x)) % m == 0]
    ref = math.fsum(terms)
    res = weighted_count([f], B, m, "smooth")
    assert len(terms) > 1
    assert abs(res.value - ref) <= 1e-12 * ref


def _masked_profile(K, D):
    """exp(-1/(1-(t/2)^2)) at t = m/D, m = -K..K, in one pass over the
    entries inside the support and 0 outside it."""
    m = np.arange(-K, K + 1, dtype=np.int64)
    u = (m / float(D)) / 2.0
    masked = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    masked[inside] = np.exp(-1.0 / (1.0 - u[inside] * u[inside]))
    return masked


def test_smooth_axis_values_match_masked_formula_bit_for_bit():
    """The mirrored profile equals the masked exp(-1/(1-(t/2)^2)) at t = m/B
    and the unmasked form at u = m/2B, in every bit."""
    for B in list(range(1, 201)) + [2**20]:
        vals, den = Weight("smooth").axis_values(B)
        H = 2 * B - 1
        w = np.arange(-H, H + 1, dtype=np.float64) / (2.0 * B)
        unmasked = np.exp(-1.0 / (1.0 - w * w))
        assert den is None
        assert vals.tobytes() == _masked_profile(H, B).tobytes(), B
        assert vals.tobytes() == unmasked.tobytes(), B


_BLOCK = counting._PROFILE_BLOCK


@pytest.mark.parametrize("K", [0, _BLOCK - 2, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 4])
@pytest.mark.parametrize("D", [
    1,  # support's end k = 2D inside the first block
    _BLOCK // 2,  # on the first block edge
    _BLOCK // 2 + 3,  # inside the second block
    _BLOCK,  # on the second block edge
    3 * _BLOCK // 2 + 1,  # inside the last, partial block
    2 * _BLOCK + 1,  # past K: no entry is cut off
])
def test_smooth_profile_blocks_match_masked_formula_bit_for_bit(K, D):
    """K + 1 entries of k >= 0: one, a block less one, a block, a block and
    one, and three blocks and five (a partial last block), each against the
    one-pass masked formula; the support's end k = 2D falls where noted
    when K reaches it, and past K otherwise."""
    assert smooth_profile(K, D).tobytes() == _masked_profile(K, D).tobytes()


def test_smooth_profile_vanishes_off_support():
    # w1(k/D) on a grid reaching past t = +-2: exactly 0 at and beyond the
    # ends, the scalar profile inside
    vals = smooth_profile(13, 4)
    ref = [_smooth_1d(k / 4) for k in range(-13, 14)]
    assert list(vals) == pytest.approx(ref, rel=1e-15, abs=0)
    assert not vals[:6].any() and not vals[-6:].any()


def _brute_weighted(fs, B, m, kind):
    """Sum of W(x/B) over the weight's box, every f zero (m = None) or
    divisible by m: Fractions for exact kinds, math.fsum for smooth."""
    w, n = Weight(kind), fs[0].n
    H = w.halfwidth(B)
    terms = []
    for x in itertools.product(range(-H, H + 1), repeat=n):
        vals = [f.eval(list(x)) for f in fs]
        if all(v == 0 if m is None else v % m == 0 for v in vals):
            if kind == "smooth":
                terms.append(math.prod(_smooth_1d(c / B) for c in x))
            else:
                terms.append(math.prod(weight_1d(kind, Fraction(c, B)) for c in x))
    return (math.fsum(terms) if kind == "smooth" else sum(terms)), len(terms)


@pytest.mark.parametrize("m", [None, 7])
@pytest.mark.parametrize("kind", ["hat", "indicator", "smooth"])
def test_two_polynomial_weighted_count_matches_brute_force(kind, m):
    fs = [parse_poly("x1^2-x2^2", 3), parse_poly("x1*x3-x2*x3+x3^2", 3)]
    ref, hits = _brute_weighted(fs, 3, m, kind)
    res = weighted_count(fs, 3, m, kind)
    assert hits > 1
    if kind == "smooth":
        assert isinstance(res.value, float) and not res.exact
        assert abs(res.value - ref) <= 1e-12 * ref
    else:
        assert res.value == ref and res.exact


def test_mixed_arity_refused_before_charging():
    fs = [parse_poly("x1^2-x2", 2), parse_poly("x1-x3", 3)]
    for count in (lambda b: count_box_mod(fs, 40, 7, b),
                  lambda b: weighted_count(fs, 40, 7, "hat", b)):
        budget = Budget(10)
        with pytest.raises(InputError):
            count(budget)
        assert budget.used == 0


def test_bad_modulus_refused_before_charging():
    f = parse_poly("x1^2-x2", 2)
    for m in (0, 2**63):
        for count in (lambda b: count_box_mod([f], 40, m, b),
                      lambda b: weighted_count([f], 40, m, "hat", b)):
            budget = Budget(10**6)
            with pytest.raises(InputError):
                count(budget)
            assert budget.used == 0


def _whole_box_sum(fs, B, m, kind=None):
    """The whole-box rule: every polynomial on all (2H+1)^n points, one
    mask, and the n-fold weight product summed under it (the count of the
    mask when kind is None)."""
    n = fs[0].n
    H = B if kind is None else Weight(kind).halfwidth(B)
    axes = [np.arange(-H, H + 1, dtype=np.int64)] * n
    mask = np.ones((2 * H + 1) ** n, dtype=bool)
    for f in fs:
        mask &= eval_on_axes(f, axes, m) == 0
    if kind is None:
        return int(np.count_nonzero(mask))
    vals, den = Weight(kind).axis_values(B)
    den = den or 1
    if den**n >= 2**62:
        vals = vals.astype(object)
    D = _Domain(kind != "smooth")
    return D.frac(D.total(_outer(_product, [vals] * n), mask), den**n)


@st.composite
def _block_polys(draw):
    """(fs, joined): one or two polynomials whose monomials each lie in one
    block of their own partition of the variables, with constant terms and
    unused variables; joined adds x1*...*xn to the first, so its variables
    form one component."""
    n = draw(st.integers(1, 4))
    fs = []
    for _ in range(draw(st.integers(1, 2))):
        block = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        terms = {(0,) * n: draw(st.sampled_from([0, 0, 1, -2]))}
        for _ in range(draw(st.integers(1, 4))):
            b = draw(st.sampled_from(block))
            e = tuple(draw(st.integers(0, 3)) if block[i] == b else 0
                      for i in range(n))
            terms[e] = terms.get(e, 0) + draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        fs.append(IntPoly(n, terms))
    joined = draw(st.booleans())
    if joined:
        fs[0] = fs[0] + IntPoly(n, {(1,) * n: 1})
    return fs, joined


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_block_polys(), B=st.integers(0, 3),
       m=st.sampled_from([7, 12, 3_100_000_019, None, 1]),
       kind=st.sampled_from(["indicator", "hat", "smooth"]))
def test_split_box_sums_match_whole_box(case, B, m, kind):
    """The sums split along variable blocks equal the whole-box rule: exact
    kinds exactly, smooth within 1e-14 and, on one component, bit for bit."""
    fs, joined = case
    assert count_box_mod(fs, B, m) == _whole_box_sum(fs, B, m)
    if B == 0:
        return
    got, want = weighted_count(fs, B, m, kind).value, _whole_box_sum(fs, B, m, kind)
    if kind != "smooth" or joined or fs[0].n == 1:
        assert got == want
    else:
        assert abs(got - want) <= 1e-14 * abs(want)


def test_weighted_count_budget_refusal():
    f = parse_poly("x1+x2+x3", 3)
    with pytest.raises(BudgetExceeded):
        weighted_count([f], 50, 3, "hat", Budget(100))


def test_box_charge_follows_the_split():
    """A split box is charged its two sub-boxes, an unsplit one its box;
    points_scanned reports the box either way."""
    for poly, n, charged in [("x1^2+x2^2-x3^2-x4^2", 4, 2 * 11**2),
                             ("x1^2+x2^2+x3+x1*x2*x3", 3, 11**3)]:
        budget = Budget()
        res = weighted_count([parse_poly(poly, n)], 3, 5, "hat", budget)
        assert budget.used == charged and res.points_scanned == 11**n


# -- probes ---------------------------------------------------------------------


def test_trivial_bound_probe_hyperplane():
    rep = trivial_bound_probe([parse_poly("x1", 2)], field_make(101),
                              [5, 10, 20, 40])
    assert rep.dim == 1
    # a hyperplane through a box has exactly 2B+1 points on it
    for row in rep.rows:
        assert row.count == 2 * row.B + 1
    assert rep.max_ratio <= Fraction(21, 5)


def test_trivial_bound_probe_union_of_planes():
    rep = trivial_bound_probe([parse_poly("x1*x2", 2)], field_make(101),
                              [5, 10, 20, 40])
    assert rep.dim == 1
    for row in rep.rows:
        assert row.count == 2 * (2 * row.B + 1) - 1
    assert rep.max_ratio <= Fraction(21, 5)


def test_trivial_bound_probe_refusals():
    with pytest.raises(PreconditionError):
        trivial_bound_probe([parse_poly("x1", 2)], field_make(7), [5])  # box too big
    with pytest.raises(PreconditionError):
        trivial_bound_probe([parse_poly("101*x1", 2)], field_make(101), [5])


def test_hooley_deligne_cubic_bijection_is_exact():
    """For q = 2 mod 3, t -> t^3 permutes F_q, so the diagonal cubic count
    equals the hyperplane count q^(n-1) on the nose."""
    for q in (5, 11):
        for n in (3, 4):
            f = parse_poly("+".join(f"x{i}^3" for i in range(1, n + 1)), n)
            rep = hooley_deligne_probe([f], field_make(q))
            assert q % 3 == 2
            assert rep.error == 0, (q, n)
            assert rep.sing_dim == -1


def test_hooley_deligne_quartic_curve_weil_scale():
    # Smooth plane quartic (genus 3): the projective count satisfies
    # |#C(F_q) - (q+1)| <= 2g*sqrt(q), so the affine deviation from q^2 is
    # at most (q-1)*6*sqrt(q) and the normalized error at most ~6.  Over
    # F_13 the Fermat quartic is near-extremal: error 216, ratio ~4.61.
    f = parse_poly("x1^4+x2^4+x3^4", 3)
    rep = hooley_deligne_probe([f], field_make(13))
    assert rep.main == 13**2
    assert rep.count == 385
    assert rep.error == 216
    assert rep.sing_dim == -1
    assert abs(rep.normalized_error - 216 / 13**1.5) < 1e-12
    assert rep.normalized_error <= 6.0


def test_hooley_deligne_refuses_degree_one():
    with pytest.raises(PreconditionError):
        hooley_deligne_probe([parse_poly("x1+x2", 2)], field_make(7))


# -- the exact accumulator ------------------------------------------------------


@st.composite
def bins_cases(draw):
    """Chunks of 1 to 30 signed int64 terms, some near the ends of the int64
    range, with keys in [0, size) or, for one bin, the scalar key 0; some
    chunks of Python ints past int64; the limit 2^20, 2^32 or the default."""
    limit = draw(st.sampled_from([2**20, 2**32, counting.INT64_LIMIT]))
    size = draw(st.integers(1, 5))
    term = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-2**20, 2**20),
                     st.sampled_from([2**63 - 1, -2**63, 2**62, 2**62 - 1,
                                      -2**62, 2**61 + 1]))
    chunks = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, 30))
        terms = np.array(draw(st.lists(term, min_size=k, max_size=k)),
                         dtype=np.int64)
        keys = (0 if size == 1 and draw(st.booleans()) else np.array(
            draw(st.lists(st.integers(0, size - 1), min_size=k, max_size=k))))
        if draw(st.integers(0, 3)) == 0:
            terms = terms.astype(object) * 2**40
        chunks.append((keys, terms))
    return limit, size, chunks


def python_int_bins(chunks, size):
    out = [0] * size
    for keys, terms in chunks:
        for k, t in zip(np.broadcast_to(keys, terms.shape).tolist(), terms.tolist()):
            out[k] += t
    return out


def assert_bins(got, want, limit):
    """Equal sums, int64 exactly when every one is below the limit."""
    assert got.tolist() == want
    small = all(abs(v) < limit for v in want)
    assert got.dtype == (np.dtype(np.int64) if small else np.dtype(object))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(bins_cases())
def test_bins_match_python_int_sums(case):
    """The accumulator against Python-int sums, over all bins and over every
    other bin; after a clear it sums the first chunk afresh."""
    limit, size, chunks = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "INT64_LIMIT", limit)
        bins = counting._Bins(size)
        for keys, terms in chunks:
            bins.add(keys, terms)
        got, part = bins.total(), bins.total(np.arange(0, size, 2))
        bins.clear()
        again = bins.add(*chunks[0]).total()
    want = python_int_bins(chunks, size)
    assert_bins(got, want, limit)
    assert_bins(part, want[::2], limit)
    assert_bins(again, python_int_bins(chunks[:1], size), limit)


@pytest.mark.parametrize("limit", [counting.INT64_LIMIT, 2**32])
def test_bins_lift_only_the_bins_past_the_limit(monkeypatch, limit):
    """Bin 0 sums past 2^63 in int64 halves while bins 1 and 2 stay small:
    read alone they are int64, and only bin 0 is joined in Python ints.  No
    term is lifted; with the limit at 2^32 the high halves move to Python
    ints instead."""
    monkeypatch.setattr(counting, "INT64_LIMIT", limit)
    bins = counting._Bins(3)
    for _ in range(3):
        bins.add(np.array([0, 0, 0, 0, 1, 2]),
                 np.array([2**62 - 1] * 4 + [5, -7], dtype=np.int64))
    assert bins.hi is not None and (bins.big is None) == (limit > 2**32)
    assert_bins(bins.total(), [12 * (2**62 - 1), 15, -21], limit)
    assert_bins(bins.total(np.array([1, 2])), [15, -21], limit)
    assert_bins(bins.total(np.array([0])), [12 * (2**62 - 1)], limit)


def test_bins_carry_before_each_halves_add():
    """Chunks that fit in lo alone alternate with chunks that force the
    32-bit halves: each halves add carries lo into hi first, so lo never
    wraps."""
    bins = counting._Bins(1)
    for t in [3 * 2**60, 2**61] * 4:
        bins.add(np.array([0]), np.array([t], dtype=np.int64))
    assert_bins(bins.total(), [4 * (3 * 2**60 + 2**61)], counting.INT64_LIMIT)


def test_product_fits_element_by_element():
    """A product whose factors' maxima pass the limit stays int64 when every
    element is below it, and comes in Python ints once one is not."""
    a = np.array([2**40, 1, 3], dtype=np.int64)
    b = np.array([1, 2**40, 5], dtype=np.int64)
    out = counting._product(a, b)
    assert out.dtype == np.int64 and out.tolist() == [2**40, 2**40, 15]
    out = counting._product(a, b, np.array([2**21, 2**21, 1], dtype=np.int64))
    assert out.dtype == object and out.tolist() == [2**61, 2**61, 15]
    f = np.array([0.5, 3.0])
    assert counting._product(f, f).tolist() == [0.25, 9.0]


@pytest.mark.parametrize("keys, packs", [
    (np.array([[3, -2, 3, -2, 0, 3], [-1, -1, 5, -1, 5, -1]]), True),  # negative
    (np.array([[4, -7, 4, 0, -7]]), True),  # a single row
    (np.zeros((2, 0), dtype=np.int64), False),  # empty input
    (np.random.default_rng(3).integers(-9, 9, (3, 400)), True),
    (np.array([[2**30 - 1, 0, 5, 0], [2**29, 0, 0, 2**29]]), True),  # 2^59 * 4
    (np.array([[2**61, -2**61, 0, 2**61], [1, 0, 1, 1]]), False),  # past 2^62
])
def test_key_codes_match_lexsort(monkeypatch, keys, packs):
    """The packed stable sort puts the columns in np.lexsort's order (last
    row primary, ties by index); codes rank the distinct columns in that
    order and starts hold each code's first place.  Rows whose spans times
    the size pass 2^62, and empty input, take np.lexsort itself."""
    calls = []
    stable = counting._stable_order

    def spy(k):
        calls.append(k.size)
        return stable(k)
    monkeypatch.setattr(counting, "_stable_order", spy)
    codes, order, starts = counting._key_codes(keys)
    assert bool(calls) == packs
    assert order.tolist() == np.lexsort(keys).tolist()
    cols = [tuple(c) for c in keys.T.tolist()]
    distinct = sorted(set(cols), key=lambda c: c[::-1])
    assert codes.tolist() == [distinct.index(c) for c in cols]
    assert starts.tolist() == [[cols[i] for i in order.tolist()].index(c)
                               for c in distinct]
