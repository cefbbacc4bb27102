"""End-to-end checks of the correlation ledger against one reference,
``ledger_reference.Reference``: test_ledger_matches_reference compares every
table of drawn tiny instances with it, the named tests chosen tables of
fixed ones, the README showcase (a cubic in three variables, B=4, moduli
2/3/5) among them.  Five oracles check summation order rather than values:
corr_loop (float correlations, bit for bit), lag_loop (the per-axis tables
fs and T), level2_loop (float level-2 cells), check_level2_cells and
part_sums_oracle.  margins_oracle gives the two per-shift inequalities'
exact least margins with every table in Python ints."""
import dataclasses
import functools
import itertools
import json
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ledger_reference import DEGREE, Reference, aggregate, flat_key
from vdc import cli, counting, ffield, geometry, pipeline
from vdc.counting import Weight
from vdc.errors import (DEFAULT_BUDGET, Budget, BudgetExceeded, InputError,
                        PreconditionError)
from vdc.mpoly import IntPoly, parse_poly
from vdc.pipeline import (
    PipelineParams,
    _residuals,
    build_ledger,
    deviation_probe,
)

N = 3
F = parse_poly("x1^3 + x2^3 + x3^3 - x1*x2*x3", N)
B, PI, P, Q = 4, 2, 3, 5
SHOWCASE = dict(f=F, B=B, pi=PI, p=P, q=Q, weight="hat")
LEVEL1 = ("corr_num", "fs_num", "t0_num", "t1_num", "ss2", "ss3", "sxy_num",
          "xcount")
LEVEL2 = ("pair_keys", "pair_num", "qsum", "abs2_num")


def gamma(k):
    """gamma_k = k u / (1 - k u), u = 2^-53: the relative error bound of k
    successive float64 roundings (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1)."""
    return Fraction(k, 2**53 - k)


def rounding_k(ref, name):
    """The k of gamma_k for a smooth ledger's table name against ref; the
    derivation is test_ledger_matches_reference's."""
    Zcells = len(ref.T[0]) ** ref.n if name in LEVEL2 else 1
    return 2 * (ref.L**ref.n * Zcells + ref.n * (ref.L + 3)) + 8


def assert_within(got, want, size, den, k, what):
    """Each float got[i] within gamma_k size[i] / den of want[i] / den."""
    assert len(got) == len(want), what
    for g, r, s in zip(got, want, size):
        a, b = float(g).as_integer_ratio()
        assert abs(a * den - r * b) * (2**53 - k) <= k * s * b, what


def assert_tables(led, ref, names):
    """The named tables of led against ref's: entry for entry for exact
    weights, and for the smooth weight within gamma_k of ref's relative to
    their sums of |terms| (``Reference.size``)."""
    for name in names:
        got, want = getattr(led, name), getattr(ref, name)
        if led.exact or name in ("xcount", "pair_keys"):
            assert np.array_equal(got, want), name
        else:
            assert_within(got.tolist(), want.tolist(), ref.size(name).tolist(),
                          ref.den1 ** DEGREE[name], rounding_k(ref, name), name)


@pytest.fixture(scope="module")
def led():
    return build_ledger(PipelineParams(**SHOWCASE, with_pair_table=True))


@pytest.fixture(scope="module")
def ref():
    return Reference(PipelineParams(**SHOWCASE, with_pair_table=True))


def test_all_residual_identities_hold(led):
    assert len(led.residuals) == 9
    for rc in led.residuals.values():
        assert rc.ok, (rc.name, rc.value)
    assert led.exact


def test_counts_match_brute_force(led, ref):
    assert (ref.count_full, ref.count_pq) == (Fraction(4337, 128), Fraction(5345, 128))
    for name in ("count_full", "count_pq", "box_weight_total",
                 "expected_per_class"):
        assert getattr(led, name) == getattr(ref, name), name


@pytest.mark.parametrize("kw", [
    dict(f=F, B=4, pi=5, p=3, q=29),
    dict(f=F, B=2, pi=11, p=3, q=5),  # pi > 4B: one shift, 1331 classes
], ids=["pi5-b4", "pi11-b2"])
def test_second_moment_matches_class_sum(kw):
    """Sigma from integer power sums equals the reference's per-class sum
    of (inner(u) - K)^2 in Fractions."""
    led = build_ledger(PipelineParams(**kw))
    assert led.second_moment == Reference(PipelineParams(**kw), 0).second_moment
    assert led.residuals["variance_assembly"].ok


def test_corr_matches_brute_force(led, ref):
    Y, den2 = led.shift_range, ref.den1**2
    for y in itertools.product(range(-Y, Y + 1), repeat=N):
        k = flat_key(y, Y)
        assert led.corr(y) == (Fraction(ref.corr_num[k], den2) - Fraction(
            ref.fs_num[k], (P * Q) ** 2 * den2)), y


def test_shift_record_matches_brute_force(led, ref):
    y = (1, -1, 0)
    rec = led.shift_record(y)
    shifted = tuple(PI * c for c in y)
    den2 = ref.den1**2
    # the reference's class sums V(y, v, a), and those with a = 0
    at = tuple(c + ref.shift_range for c in y)
    inner3 = {va: Fraction(V[at], den2) for va, V in ref.V.items() if V[at]}
    inner = defaultdict(Fraction, {v: s for (v, a), s in inner3.items() if a == 0})
    fs_y = Fraction(ref.fs_num[flat_key(y, ref.shift_range)], den2)
    Ky = fs_y / (P**N * Q * Q)
    classes = list(itertools.product(range(P), repeat=N))
    Xy = [v for v in classes
          if F.eval(list(v)) % P == 0
          and F.eval([v[i] + shifted[i] for i in range(N)]) % P == 0]

    assert rec.fs_sum == fs_y
    assert rec.expected == Ky
    assert rec.pair_class_count == len(Xy)
    assert rec.first_moment == sum(inner[v] for v in Xy) - len(Xy) * Ky
    assert rec.second_moment == sum((inner[v] - Ky) ** 2 for v in classes)
    defect = Ky * (len(Xy) - P ** (N - 2))
    assert rec.class_defect == defect
    assert led.corr(y) - rec.first_moment == defect

    # refinement: split each class by the residue of the shifted value
    sig3 = sum((inner3.get((v, a), 0) - Ky) ** 2
               for v in classes for a in range(Q))
    assert rec.refined_second_moment == sig3


def test_pair_correlation_matches_brute_force(led, ref):
    pairs = [((1, 0, 0), (1, 0, 0)), ((0, 1, -1), (-1, 2, 0)),
             ((2, 2, 2), (0, 0, 0)), ((0, 0, 0), (1, -1, 2))]
    for yy, zz in pairs:
        assert led.corr2(yy, zz) == ref.corr2(yy, zz), (yy, zz)


def test_aggregate_recompute_matches(led, ref):
    assert np.array_equal(led.abs2_num, ref.abs2_num)
    assert led.aggregate == ref.aggregate


def test_shift_outside_table_rejected(led):
    Y, Z = led.shift_range, led.pair_range
    # non-integer entries, bools included, must not read some other cell
    odd = [(0.5, 0, 0), (True, 0, 0), ("1", 0, 0), ((1,), 0, 0), 7, "abc"]
    bad = [(Y + 1, 0, 0), (0, -Y - 1, 0), (0, 0, 2**70), (1, 0), (1, 0, 0, 5),
           ()] + odd
    for y in bad:
        with pytest.raises(InputError):
            led.corr(y)
        with pytest.raises(InputError):
            led.shift_record(y)
        with pytest.raises(InputError):
            led.corr2(y, (0, 0, 0))
    for z in [(Z + 1, 0, 0), (0, 0, -Z - 1), (1, 0), (1, 0, 0, 5)] + odd:
        with pytest.raises(InputError):
            led.corr2((0, 0, 0), z)


def test_corr2_requires_pair_table():
    led_np = build_ledger(PipelineParams(f=F, B=3, pi=2, p=3, q=5))
    with pytest.raises(PreconditionError):
        led_np.corr2((0, 0, 0), (0, 0, 0))


def test_smooth_weight_residuals_hold():
    params = PipelineParams(f=F, B=B, pi=PI, p=P, q=Q, weight="smooth",
                            with_pair_table=True)
    led_s = build_ledger(params)
    assert not led_s.exact
    bad = [rc.name for rc in led_s.residuals.values() if not rc.ok]
    assert not bad, bad


def test_indicator_weight_residuals_hold():
    led_i = build_ledger(
        PipelineParams(f=F, B=3, pi=2, p=3, q=5, weight="indicator"))
    assert led_i.exact
    assert all(rc.ok for rc in led_i.residuals.values())


def test_exact_ledger_keeps_level2_exact():
    # at B=8 level 2's old int64 gate sent exact weights to float64
    led_e = build_ledger(PipelineParams(f=F, B=8, pi=3, p=5, q=37,
                                        weight="hat", with_pair_table=True))
    assert led_e.exact
    assert not any("float64" in w for w in led_e.warnings)
    assert len(led_e.residuals) == 9
    for rc in led_e.residuals.values():
        assert rc.ok and rc.tol == 0, rc.name


@pytest.mark.parametrize("weight", ["hat", "smooth"])
def test_residual_checks_can_fail(weight):
    params = PipelineParams(f=F, B=3, pi=2, p=3, q=5, weight=weight)
    led_w = build_ledger(params)
    ref_w = Reference(params, 0)
    inner_sq = (ref_w.inner**2).sum() * Fraction(led_w.den1, ref_w.den1) ** 2
    inner_sq = int(inner_sq) if led_w.exact else float(inner_sq)  # den1^2 scale
    assert _residuals(led_w, inner_sq)["per_shift_defect"].ok
    sxy = led_w.sxy_num.copy()
    k = int(np.argmax(np.abs(sxy)))
    # one unit of the exact numerator scale; a 1e-6 relative error in float
    sxy[k] = sxy[k] + 1 if led_w.exact else sxy[k] * (1 + 1e-6)
    bad = _residuals(dataclasses.replace(led_w, sxy_num=sxy), inner_sq)
    assert not bad["per_shift_defect"].ok


def margins_oracle(pn, q, tables):
    """The least margins of per_shift_cauchy and refinement_monotone with
    every table lifted to Python ints first, the ledger's expression before
    its float64 shadow."""
    fs, t0, t1, ss2, ss3, sxy, xc = (np.asarray(a).astype(object) for a in tables)
    c1 = pn * q * q
    snum = c1 * sxy - xc * fs
    sig_scaled = pn * pn * q**4 * ss2 - 2 * c1 * fs * t1 + pn * fs**2
    sigp_scaled = pn * pn * q**4 * ss3 - 2 * c1 * fs * t0 + pn * q * fs**2
    return np.min(xc * sig_scaled - snum * snum), np.min(sigp_scaled - sig_scaled)


MARGIN_TABLES = ("fs_num", "t0_num", "t1_num", "ss2", "ss3", "sxy_num", "xcount")
# n = 2, B = 1, pi = 3: a ledger of 9 shifts whose tables the draws replace
TINY = PipelineParams(f=parse_poly("x1^2 + 2*x2^2", 2), B=1, pi=3, p=2, q=5)


@functools.cache
def tiny_ledger():
    return build_ledger(TINY)


@st.composite
def margin_cases(draw):
    """Tables over 9 shifts, each shift at its own scale: int64 below 2^62,
    or Python ints past it, of either sign or all nonnegative, with some
    shifts all zero, some whose ss3 and t0 sit within a few units of ss2
    and t1, and, at random, a copy of one shift with one entry moved by 1.
    Past 2^53 float64 cannot resolve such differences."""
    p, q = draw(st.sampled_from([(2, 5), (3, 2), (5, 3)]))
    low = 0 if draw(st.booleans()) else -1
    tops = [2 ** draw(st.sampled_from([10, 40, 61, 90])) for _ in range(9)]
    cols = [[draw(st.integers(low * t, t)) for t in tops] for _ in range(6)]
    cols.append([draw(st.integers(0, p * p)) for _ in range(9)])  # xcount
    _, t0, t1, ss2, ss3, _, _ = cols
    for k in draw(st.sets(st.integers(0, 8), max_size=4)):  # near-cancelling
        ss3[k] = ss2[k] + draw(st.integers(-3, 3))
        t0[k] = t1[k] + draw(st.integers(-3, 3))
    for k in draw(st.sets(st.integers(0, 8), max_size=3)):  # zero shifts
        for c in cols:
            c[k] = 0
    if draw(st.booleans()):  # a near-tie between shifts
        i, j = draw(st.permutations(range(9)))[:2]
        for c in cols:
            c[j] = c[i]
        t = draw(st.integers(0, 5))
        cols[t][j] += draw(st.sampled_from([-1, 1]))
    tables = [np.array(c, dtype=np.int64 if max(map(abs, c)) < 2**62 else object)
              for c in cols]
    return p, q, tables


def near_tie(fs, t0, t1, ss2, ss3):
    """p = 2, q = 5 tables over 9 shifts, shift 0 given, the others with
    refinement margin 16 * 625 (ss3 - ss2 = 1) and xcount 1."""
    rest = [(0, 0, 0, 1, 2)] * 8
    cols = [np.array(c, dtype=object) for c in zip((fs, t0, t1, ss2, ss3), *rest)]
    return 2, 5, cols + [np.zeros(9, dtype=np.int64), np.ones(9, dtype=np.int64)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(margin_cases(), st.booleans())
# shift 0's refinement margin 3 * 16 * 625 (ss3 = 2^60 + 3 against ss2 =
# 2^60) reads 0 in float64, below the other shifts' 16 * 625, read exactly
@example(near_tie(0, 0, 0, 2**60, 2**60 + 3), False)
# shift 0's refinement margin -2 q^2 p^2 + p^2 (q - 1) = -184 reads 0 in
# float64 (t0 = 2^60 + 1 against t1 = 2^60): the exact least margin fails
@example(near_tie(1, 2**60 + 1, 2**60, 0, 0), False)
def test_exact_margins_match_lifted_oracle(case, undecided):
    """_residuals' two inequalities on TINY's ledger with the drawn tables:
    the float64 shadow and its error bound pick the shifts evaluated in
    Python ints, and the value is margins_oracle's exact least margin, a
    Python int, ok when at least 0.  With the slack at 4, every shift whose
    bound is nonzero is undecided."""
    p, q, tables = case
    led = dataclasses.replace(tiny_ledger(), **dict(zip(MARGIN_TABLES, tables)),
                              params=dataclasses.replace(TINY, p=p, q=q))
    with pytest.MonkeyPatch.context() as mp:
        if undecided:
            mp.setattr(pipeline, "RESIDUAL_SLACK", 4.0)
        got = _residuals(led, 0)
    want = margins_oracle(p * p, q, tables)
    for name, w in zip(("per_shift_cauchy", "refinement_monotone"), want):
        rc = got[name]
        assert type(rc.value) is int and rc.value == w, name
        assert rc.ok == (w >= 0) and rc.tol == 0, name


@pytest.mark.parametrize("case", ["showcase", "pi5", "pi5-b4"])
def test_float_margins_match_lifted_expression(default_ledgers, case):
    """A smooth ledger's two per-shift inequalities, value and tolerance bit
    for bit, against np.min of _margins over the float64 tables and a
    tolerance scaled by max |Sigma| over the shifts (times max(1, max
    xcount) for per_shift_cauchy): in the float domain, ``_least_margins``
    reduces to that plain float64 expression."""
    led = default_ledgers[case, "smooth"]
    tables = [np.asarray(getattr(led, name), np.float64) for name in MARGIN_TABLES]
    cauchy, monotone, sig = pipeline._margins(led.params.p**led.n, led.params.q,
                                              *tables)
    sc = float(np.max(np.abs(sig)))
    scales = (sc * max(1.0, float(np.max(led.xcount))), sc)
    for name, margin, scale in zip(("per_shift_cauchy", "refinement_monotone"),
                                   (cauchy, monotone), scales):
        rc, want = led.residuals[name], np.min(margin).item()
        assert type(rc.value) is float and rc.value.hex() == want.hex(), name
        assert rc.tol == counting.SMOOTH_RTOL * max(1.0, scale), name


# the README showcase, and two instances with pi^n = 125 classes mod pi
CHUNK_CASES = {
    "showcase": dict(f=F, B=B, pi=PI, p=P, q=Q),
    "pi5": dict(f=F, B=6, pi=5, p=3, q=29),
    "pi5-b4": dict(f=F, B=4, pi=5, p=3, q=29),
}
CHUNKED_ARRAYS = ("corr_num", "t0_num", "t1_num", "ss2", "ss3", "sxy_num",
                  "pair_keys", "pair_num", "qsum", "abs2_num")


@pytest.fixture(scope="module")
def default_ledgers():
    return {
        (case, weight): build_ledger(PipelineParams(
            **kw, weight=weight, with_pair_table=True))
        for case, kw in CHUNK_CASES.items() for weight in ("hat", "smooth")
    }


# the showcase joins ~1.9M pairs, so PAIR_BLOCK = 1 and 7 there take ~45 s
# and ~6 s per build, and block 1 takes ~6 s on pi5; the smallest blocks run
# on the B = 4 pi5 instance only, whose builds take under 1 s
@pytest.mark.parametrize("weight", ["hat", "smooth"])
@pytest.mark.parametrize("case, block", [
    ("showcase", 64), ("pi5", 64), ("pi5-b4", 1), ("pi5-b4", 7),
])
def test_pair_block_does_not_change_results(default_ledgers, monkeypatch,
                                            case, block, weight):
    ref = default_ledgers[(case, weight)]
    if case == "pi5-b4":  # more than 32 classes mod pi, some level-2 cells
        assert CHUNK_CASES[case]["pi"] ** N > 32
        assert ref.pair_keys.size > 0
    monkeypatch.setattr(pipeline, "PAIR_BLOCK", block)
    led = build_ledger(PipelineParams(**CHUNK_CASES[case], weight=weight,
                                      with_pair_table=True))
    for name in CHUNKED_ARRAYS:
        assert np.array_equal(getattr(led, name), getattr(ref, name)), name
    assert led.aggregate == ref.aggregate
    assert led.exact == ref.exact == (weight == "hat")


def box_weights(params):
    """The box points in box order (x1 fastest) and each one's weight,
    w1(x_n) (... (w1(x_2) w1(x_1))) as the ledger forms it."""
    w1 = Weight(params.weight).axis_values(params.B)[0].tolist()
    h = (len(w1) - 1) // 2
    pts = [x[::-1] for x in itertools.product(range(-h, h + 1),
                                              repeat=params.f.n)]
    w = []
    for x in pts:
        wx = w1[x[0] + h]
        for c in x[1:]:
            wx = w1[c + h] * wx
        w.append(wx)
    return pts, w


def corr_loop(params):
    """corr_num added pair by pair: over the pq-solutions x, x' = x + pi y
    of one class mod pi, x' at or after x in box order, each shift y >= 0
    adds w(x) w(x') to 0 in (class mod pi, x, x') order; the y < 0 half is
    a copy of its mirror."""
    pi, Y = params.pi, 4 * params.B // params.pi
    groups = defaultdict(list)
    for x, wx in zip(*box_weights(params)):
        if params.f.eval(list(x)) % (params.p * params.q) == 0:
            groups[sum((c % pi) * pi**i for i, c in enumerate(x))].append((x, wx))
    corr = [0.0] * (2 * Y + 1) ** params.f.n
    for cls in sorted(groups):
        g = groups[cls]
        for i, (x, wx) in enumerate(g):
            for x2, wx2 in g[i:]:
                corr[flat_key([(b - a) // pi for a, b in zip(x, x2)], Y)] += wx * wx2
    half = len(corr) // 2
    return np.array(corr[::-1][:half] + corr[half:])


@pytest.mark.parametrize("block", [1, 7, None])
def test_smooth_corr_matches_pair_loop(default_ledgers, monkeypatch, block):
    """The smooth correlations bit for bit against corr_loop, on 125 classes
    mod pi, whatever PAIR_BLOCK is."""
    params = PipelineParams(**CHUNK_CASES["pi5-b4"], weight="smooth")
    assert params.pi ** N > 32
    if block:
        monkeypatch.setattr(pipeline, "PAIR_BLOCK", block)
        led = build_ledger(params)
    else:
        led = default_ledgers[("pi5-b4", "smooth")]
    want = corr_loop(params)
    assert led.corr_num.tobytes() == want.tobytes()
    assert np.count_nonzero(want) > 1


def lag_loop(w1, shifts):
    """sum_m w(m + s_1) ... w(m + s_k), per entry, the product left to right
    and added to 0 in m order over the m whose k points lie on the axis."""
    vals, h = w1.tolist(), (len(w1) - 1) // 2
    out = []
    for s in shifts:
        total = 0
        for m in range(-h, h + 1):
            if all(abs(m + j) <= h for j in s):
                term = vals[m + s[0] + h]
                for j in s[1:]:
                    term = term * vals[m + j + h]
                total = total + term
        out.append(total)
    return out


@pytest.mark.parametrize("weight", ["hat", "indicator", "smooth", "wide-hat"])
@pytest.mark.parametrize("block", [1, 7, None])
def test_lag_sums_match_per_entry_loop(monkeypatch, weight, block):
    """fs and T against lag_loop: equal for exact weights, in Python ints
    where wide hat numerators (2^15 times the hat's) take T's terms past
    int64, and bit for bit for smooth.  PAIR_BLOCK 1 and 7 cut an entry's
    terms across blocks, and no factor holds more than PAIR_BLOCK terms."""
    B, pi, p = 4, 2, 3
    w1 = Weight(weight.removeprefix("wide-")).axis_values(B)[0]
    if weight == "wide-hat":
        w1 = w1 * 2**15
    Y, Z = 4 * B // pi, 4 * B // p
    fs = [(0, pi * y) for y in range(-Y, Y + 1)]
    T = [(0, pi * y, p * z, pi * y + p * z)
         for y in range(-Y, Y + 1) for z in range(-Z, Z + 1)]
    sizes, product = [], pipeline._product

    def spy(*factors):
        sizes.extend(f.size for f in factors)
        return product(*factors)

    monkeypatch.setattr(pipeline, "_product", spy)
    if block:
        monkeypatch.setattr(pipeline, "PAIR_BLOCK", block)
    for shifts in (fs, T):
        got = pipeline._lag_sums(w1, np.array(shifts, dtype=np.int64))
        want = lag_loop(w1, shifts)
        if weight == "smooth":
            assert got.tobytes() == np.array(want).tobytes()
        else:
            assert got.tolist() == want
    assert max(sizes) <= pipeline.PAIR_BLOCK
    if weight == "wide-hat":
        assert got.dtype == object


def test_ledger_lag_tables_match_per_entry_loop(default_ledgers):
    """The smooth ledger's fs_num and its table of T are the loop's, bit for
    bit: fs_num as the separable product of the loop's axis sums, and T at
    z >= 0, whose columns z < 0 are their mirrors, T(a, -c) = T(a, c)."""
    led = default_ledgers[("showcase", "smooth")]
    w1 = Weight("smooth").axis_values(B)[0]
    Y, Z = led.shift_range, led.pair_range
    fs = lag_loop(w1, [(0, PI * y) for y in range(-Y, Y + 1)])
    T = lag_loop(w1, [(0, PI * y, P * z, PI * y + P * z)
                      for y in range(-Y, Y + 1) for z in range(Z + 1)])
    sep = counting._outer(counting._product, [np.array(fs)] * N)
    assert led.fs_num.tobytes() == sep.tobytes()
    t2d = led._t2d_table
    assert t2d[:, Z:].tobytes() == np.array(T).reshape(2 * Y + 1, Z + 1).tobytes()
    assert t2d.tobytes() == t2d[:, ::-1].tobytes()


class RecordingBudget(Budget):
    def __init__(self):
        super().__init__()
        self.charges = defaultdict(int)

    def charge(self, amount, what="points"):
        super().charge(amount, what)
        self.charges[what] += int(amount)


def spy_level1(monkeypatch):
    """Record each _level1 call's mirror flag and the rows its spans emit:
    a block that streams in several chunks generates them twice, once to
    scatter and once to gather, so rows are counted per distinct span."""
    calls, inside = [], [False]
    level1, runs = pipeline._level1, pipeline._runs

    def spied_level1(*args):
        calls.append({"mirror": args[10], "spans": {}})
        inside[0] = True
        try:
            return level1(*args)
        finally:
            inside[0] = False

    def spied_runs(starts, ends, first, s, e):
        out = runs(starts, ends, first, s, e)
        if inside[0]:
            calls[-1]["spans"][s, e] = out[2].size
        return out

    monkeypatch.setattr(pipeline, "_level1", spied_level1)
    monkeypatch.setattr(pipeline, "_runs", spied_runs)
    return calls


@pytest.mark.parametrize("case", CHUNK_CASES)
def test_pair_charges_equal_emitted_pairs(monkeypatch, case):
    emitted = []
    join = pipeline._pair_join

    def counting_join(left, right, own=None):
        npairs, ro, chunks = join(left, right, own)
        emitted.append(0)
        slot = len(emitted) - 1

        def counted():
            for li, ri in chunks:
                emitted[slot] += li.size
                yield li, ri
        return npairs, ro, counted()

    monkeypatch.setattr(pipeline, "_pair_join", counting_join)
    level1 = spy_level1(monkeypatch)
    budget = RecordingBudget()
    kw = CHUNK_CASES[case]
    build_ledger(PipelineParams(**kw, with_pair_table=True), budget)

    # The correlations and level 2 are triangular for every f, and level 1
    # too as F is a cubic form and the hat weight is even: a point pairs
    # with the points of its group at or after it in box order (x1
    # fastest), itself included.  Walking the box in that
    # order, a q-solution meets the n_box[u] - before[u] points of its class
    # mod pi from itself on; n_pq and n_qp points of one group give
    # n (n + 1) / 2 pairs.
    assert pipeline._mirrors(F, Weight("hat").axis_values(kw["B"])[0])
    pi, p, q, h = kw["pi"], kw["p"], kw["q"], 2 * kw["B"] - 1
    box = [x[::-1] for x in itertools.product(range(-h, h + 1), repeat=N)]
    n_box, n_pq, n_qp, before = (defaultdict(int) for _ in range(4))
    for x in box:
        n_box[tuple(c % pi for c in x)] += 1
    lvl1 = 0
    for x in box:
        u, fx = tuple(c % pi for c in x), F.eval(list(x))
        if fx % q == 0:
            lvl1 += n_box[u] - before[u]
            n_qp[tuple(c % p for c in x)] += 1
        if fx % (p * q) == 0:
            n_pq[u] += 1
        before[u] += 1
    corr = sum(c * (c + 1) // 2 for c in n_pq.values()) + lvl1
    assert budget.charges["correlation pairs"] == corr
    # the first join is the correlation pass; level 1 emits the rest
    [lvl1_call] = level1
    assert lvl1_call["mirror"]
    assert sum(lvl1_call["spans"].values()) == lvl1
    assert emitted[0] + lvl1 == corr
    assert budget.charges["second-difference pairs"] == sum(
        c * (c + 1) // 2 for c in n_qp.values())


@pytest.mark.parametrize("weight", ["hat", "indicator"])
def test_pair_table_matches_brute_force(weight):
    params = PipelineParams(f=F, B=3, pi=2, p=3, q=5, weight=weight,
                            with_pair_table=True)
    led, ref_w = build_ledger(params), Reference(params)
    assert led.exact
    assert 3 * led.pair_range >= ref_w.L  # p Z >= 2H + 1: some z windows are empty
    Ycells = len(led.corr_num)
    assert Ycells // 2 in ref_w.pair_keys  # y = z = 0: h = 0
    assert_tables(led, ref_w, ("pair_keys", "pair_num"))


@pytest.mark.parametrize("case, weight", [
    ("showcase", "hat"), ("showcase", "smooth"), ("showcase", "indicator"),
    ("pi5", "hat"),
])
def test_aggregate_matches_scalar_loop(default_ledgers, case, weight):
    led = default_ledgers.get((case, weight)) or build_ledger(PipelineParams(
        **CHUNK_CASES[case], weight=weight, with_pair_table=True))
    assert led.exact == (weight != "smooth")
    assert led.aggregate == pipeline._aggregate_from_abs(led) == aggregate(
        led.params, led.abs2_num.tolist(), led.den1)


def level2_loop(led):
    """The dense pair table and qsum of a float level 2, added term by term,
    and the number of terms of each cell.  Cell (y, z) adds w(x) w(x + p z)
    * w(u) w(u + p z), u = x + pi y, to 0 over the x-pairs (x, x + p z) in
    (class mod pi, box index of x) order, x1 fastest; qsum adds each y's
    cells in z order (elementwise across y)."""
    pr, n, Y, Z = led.params, led.n, led.shift_range, led.pair_range
    pi, p, q = pr.pi, pr.p, pr.q
    w1 = Weight(pr.weight).axis_values(pr.B)[0].tolist()
    h = (len(w1) - 1) // 2
    pts = [x[::-1] for x in itertools.product(range(-h, h + 1), repeat=n)]
    index = {x: i for i, x in enumerate(pts)}
    w = {x: math.prod(w1[c + h] for c in x) for x in pts}
    fq = {x: pr.f.eval(list(x)) % q for x in pts}

    def cls(x, m):
        return sum((c % m) * m**i for i, c in enumerate(x))

    # box-point pairs (u, u + p z): both live, equal class mod p and f mod q.
    # Grouped by (z, class mod pi); those with q | f(u) are the x-pairs.
    Ycells, Zcells = (2 * Y + 1) ** n, (2 * Z + 1) ** n
    groups = defaultdict(list)
    for x in pts:  # every smooth weight is positive on the box
        groups[cls(x, p), fq[x]].append(x)
    upairs, xpairs = defaultdict(list), defaultdict(list)
    for (_, r), g in groups.items():
        for u, c in itertools.product(g, g):
            z = tuple((b - a) // p for a, b in zip(u, c))
            upairs[z, cls(u, pi)].append((u, w[u] * w[c]))
            if r == 0:
                xpairs[z].append((u, w[u] * w[c]))
    table = np.zeros((Ycells, Zcells))
    terms = np.zeros((Ycells, Zcells), dtype=np.int64)
    # for u = x mod pi, u - x = pi y has y_i = u_i // pi - x_i // pi
    code = {x: flat_key([c // pi for c in x], Y) for x in pts}
    for z, xs in xpairs.items():
        cells, kz = defaultdict(float), flat_key(z, Z)
        xs.sort(key=lambda t: (cls(t[0], pi), index[t[0]]))
        for x, wx in xs:
            for u, wu in upairs[z, cls(x, pi)]:
                ky = code[u] - code[x] + Ycells // 2
                cells[ky] += wx * wu
                terms[ky, kz] += 1
        for ky, v in cells.items():
            table[ky, kz] = v
    return table, np.cumsum(table, axis=1)[:, -1], terms  # cumsum: left to right


def abs2_rounding_k(n, sideZ):
    """Roundings one float abs2_num[y] may pass, counted generously: at most
    n + 3 per term (q^3 c; the n - 1 products of FS2; the difference; the
    subtraction of FS2), Zcells in the sum over its z, n sideZ in the sums
    R(y_i) and their product, and a few to spare.  The computed value then
    lies within gamma_k sum_z (q^3 c + FS2) of the exact sum."""
    return sideZ**n + n * sideZ + 2 * n + 8


def assert_close(got, want, k):
    """Two float64 sums of the same nonnegative terms, in any order or
    grouping that puts no term through more than k roundings: each lies
    within gamma_k of their exact sum s, and both are at least
    (1 - gamma_k) s, so they differ by at most gamma_2k of their sum."""
    got, want = (np.asarray(v).tolist() for v in (got, want))
    bound = gamma(2 * k)
    for a, b in zip(got, want):
        if a != b:
            assert abs(Fraction(a) - Fraction(b)) <= bound * (Fraction(a) + Fraction(b))


@pytest.mark.parametrize("case", CHUNK_CASES)
def test_float_level2_matches_scalar_loop(default_ledgers, case):
    """The ledger keeps the loop's cells with y >= 0 and z >= 0, bit for
    bit; the loop's other cells, which it adds from their own terms, are the
    mirrors (y, -z), (-y, z) and (-y, -z) of its cells within their rounding
    bound, and so is each qsum[y], which counts a cell with z > 0 for both z
    and -z and is copied to -y.  abs2_num lies within its rounding bound of
    the reference's exact sum over every cell of the same float64 cells,
    with FS2 from the reference's exact T: abs2_rounding_k, and n (L + 3)
    for the roundings of T."""
    led = default_ledgers[(case, "smooth")]
    assert not led.exact and led.pair_quarter
    table, qsum, terms = level2_loop(led)
    sideZ = 2 * led.pair_range + 1
    Ycells, Zcells = len(led.corr_num), sideZ**N
    filled = table != 0
    for mirror in (table[:, ::-1], table[::-1], table[::-1, ::-1]):
        assert np.array_equal(filled, mirror != 0)
        assert_close(table[filled], mirror[filled], int(terms.max()))
    quarter = np.zeros((Zcells - Zcells // 2, Ycells))  # keys h Ycells + ky
    quarter[:, Ycells // 2:] = table[Ycells // 2:, Zcells // 2:].T
    quarter = quarter.ravel()
    keys = np.flatnonzero(quarter)
    assert keys.max() >= Ycells  # some cells with z > 0
    assert np.array_equal(led.pair_keys, keys)
    assert np.array_equal(led.pair_num, quarter[keys])
    assert_close(led.qsum, qsum, int(terms.max()) + Zcells)
    ref_s = Reference(led.params, 0)
    den = ref_s.den1**4
    ratios = [c.as_integer_ratio() for c in led.pair_num.tolist()]
    assert all(den % b == 0 for _, b in ratios)  # cells at the reference's scale
    sums, abs2 = ref_s.level2_sums(*ref_s.unfold(
        led.pair_keys, [a * (den // b) for a, b in ratios]))
    assert_within(led.abs2_num.tolist(), abs2,
                  led.params.q**3 * sums + 3 * ref_s.fs2_total, den,
                  abs2_rounding_k(N, sideZ) + N * (ref_s.L + 3), "abs2_num")


F4 = parse_poly("-x1^4+2*x1^3*x2-3*x2^4-2*x3^4+x3^3*x4+2*x4^4", 4)
# the n = 4, B = 3 table spans 28561 x 6561 cells; its join fills 196,895
EXACT_LEVEL2_CASES = {
    "showcase-hat": dict(f=F, B=B, pi=PI, p=P, q=Q, weight="hat"),
    "pi5-indicator": dict(f=F, B=6, pi=5, p=3, q=29, weight="indicator"),
    "n4-hat": dict(f=F4, B=2, pi=2, p=3, q=13, weight="hat"),
    "n4-hat-b3": dict(f=F4, B=3, pi=2, p=3, q=13, weight="hat"),
}


@pytest.fixture(scope="module")
def exact_level2_ledgers():
    return {case: build_ledger(PipelineParams(**kw, with_pair_table=True))
            for case, kw in EXACT_LEVEL2_CASES.items()}


def assert_same_level2(led, ref):
    for name in ("pair_keys", "pair_num", "qsum", "abs2_num"):
        assert np.array_equal(getattr(led, name), getattr(ref, name)), name
    assert led.aggregate == ref.aggregate


@pytest.mark.parametrize("case", EXACT_LEVEL2_CASES)
def test_exact_level2_matches_dense_loop(exact_level2_ledgers, case):
    """qsum and abs2_num equal the reference's sums over every z of the
    ledger's filled cells, each with z > 0 also at (y, -z), with the
    reference's own T."""
    led = exact_level2_ledgers[case]
    assert led.exact and led.pair_keys.max() >= len(led.corr_num)  # some z > 0
    ref_d = Reference(led.params, 0)
    want = ref_d.level2_sums(*ref_d.unfold(led.pair_keys, led.pair_num))
    assert all(map(np.array_equal, (led.qsum, led.abs2_num), want))


@pytest.mark.parametrize("case", ["pi5-hat", "showcase-hat", "pi5-indicator",
                                  "n4-hat"])
def test_exact_level2_matches_scalar_loop(default_ledgers, exact_level2_ledgers,
                                          ref, case):
    led = (default_ledgers[("pi5", "hat")] if case == "pi5-hat"
           else exact_level2_ledgers[case])
    assert led.exact
    assert_tables(led, ref if case == "showcase-hat" else Reference(led.params),
                  LEVEL2)


@pytest.mark.parametrize("case", ["showcase-hat", "n4-hat"])
def test_exact_level2_object_sums_match(exact_level2_ledgers, monkeypatch,
                                        case):
    monkeypatch.setattr(counting, "INT64_LIMIT", 0)
    led = build_ledger(PipelineParams(**EXACT_LEVEL2_CASES[case],
                                      with_pair_table=True))
    assert_same_level2(led, exact_level2_ledgers[case])


def test_level2_cells_leave_int64_past_the_limit(exact_level2_ledgers,
                                                 monkeypatch):
    """With the limit at 2^19 the showcase's pair weights (at most 2^18)
    stay int64, while cells past the limit reach level 2 as Python ints;
    level 2 still equals the int64 build's."""
    ref = exact_level2_ledgers["showcase-hat"]
    assert (2 * B) ** (2 * N) <= 2**18 and ref.pair_num.max() >= 2**19
    dtypes = []
    level2 = pipeline._level2_cells

    def spy(cells, c, *args):
        dtypes.append(c.dtype)
        return level2(cells, c, *args)

    monkeypatch.setattr(pipeline, "_level2_cells", spy)
    monkeypatch.setattr(counting, "INT64_LIMIT", 2**19)
    led = build_ledger(PipelineParams(**EXACT_LEVEL2_CASES["showcase-hat"],
                                      with_pair_table=True))
    assert dtypes == [object]
    assert_same_level2(led, ref)


def test_level2_terms_split_at_the_limit(exact_level2_ledgers, monkeypatch):
    """With the limit between "nothing lifts" and "everything lifts", some
    level-2 terms q^3 c and FS2 pass half of it and go to Python ints while
    the others stay int64, and so do some cells, qsum and abs2_num; level 2
    still equals the int64 build's, which
    test_exact_level2_matches_scalar_loop checks against the reference."""
    ref_l = exact_level2_ledgers["showcase-hat"]
    limit, q3 = 2**34, Q**3
    assert (q3 * ref_l.pair_num).min() < limit // 2 <= (q3 * ref_l.pair_num).max()
    assert ref_l.pair_num.min() < limit <= ref_l.pair_num.max()
    monkeypatch.setattr(counting, "INT64_LIMIT", limit)
    led = build_ledger(PipelineParams(**EXACT_LEVEL2_CASES["showcase-hat"],
                                      with_pair_table=True))
    assert led.pair_num.dtype == led.abs2_num.dtype == object
    assert_same_level2(led, ref_l)


def check_level2_cells(t2d, kz, ky, w, q3, cut=None):
    """_cell_sums and _level2_cells on the rows of cells (kz, ky), z >= 0,
    and weights w, n = 2, in two chunks split at cut (default halfway),
    against sequential Python sums: each cell (y, z) adds its rows in row
    order and is kept at key h Ycells + ky (h = kz - Zcells // 2), and each
    qsum[y] adds its cells in z order, twice each one with z > 0, bit for
    bit.  abs2_num equals the exact sum over every z, each cell with z > 0
    also at (y, -z), for int64 rows, and lies within its rounding bound of
    the exact sum of the same values for float64 rows.  t2d holds T(a, c)
    = T(a, -c), as T does (``mirrored``)."""
    n, (sideY, sideZ) = 2, t2d.shape
    assert np.array_equal(t2d, t2d[:, ::-1])
    Ycells, Zcells, exact = sideY**n, sideZ**n, w.dtype == np.int64
    cut = w.size // 2 if cut is None else cut
    cell = (kz - Zcells // 2) * Ycells + ky
    rows = [(cell[:cut], w[:cut]), (cell[cut:], w[cut:])]
    keys, parts = pipeline._cell_sums(iter(rows), Ycells, Zcells - Zcells // 2,
                                      exact)
    qsum, abs2 = pipeline._level2_cells(keys, parts, t2d, n, q3,
                                        pipeline._Domain(exact), False)
    cells = {}  # (h, y) -> the sequential sum of its rows
    assert kz.min() >= Zcells // 2
    for z, y, c in zip(kz.tolist(), ky.tolist(), w.tolist()):
        cells[z - Zcells // 2, y] = cells.get((z - Zcells // 2, y), 0) + c
    assert parts.dtype == w.dtype  # the terms' lift leaves the parts as built
    assert keys.tolist() == sorted(h * Ycells + y for h, y in cells)
    assert parts.tolist() == [cells[hy] for hy in sorted(cells)]
    t = [[Fraction(v) for v in r] for r in t2d.tolist()]
    slack = Fraction(0) if exact else gamma(abs2_rounding_k(n, sideZ))
    for y in range(Ycells):
        row = [cells.get((abs(z - Zcells // 2), y), 0) for z in range(Zcells)]
        fs2 = [t[y % sideY][z % sideZ] * t[y // sideY][z // sideZ]
               for z in range(Zcells)]
        assert qsum[y] == sum((1 + (h > 0)) * c
                              for (h, k), c in sorted(cells.items()) if k == y)
        want = sum(abs(q3 * Fraction(c) - f) for c, f in zip(row, fs2))
        size = sum(q3 * Fraction(c) + f for c, f in zip(row, fs2))
        assert abs(Fraction(abs2[y]) - want) <= slack * size


def mirrored(half):
    """A table of T over the second shifts c = -k..k from its columns c =
    -k..0: T(a, -c) = T(a, c)."""
    return np.hstack([half, half[:, -2::-1]])


def test_level2_cells_leave_int64_past_its_bound():
    """Neither FS2 past 2^63 nor a per-y sum past 2^63 of cell terms that
    each fit int64 may wrap."""
    q3 = 13**3
    rng = np.random.default_rng(5)
    # t2d entries ~2^33, so FS2 passes 2^63
    t2d = mirrored(rng.integers(2**33, 2**34, size=(3, 3)))
    kz = np.sort(rng.integers(12, 25, 40))  # z >= 0
    check_level2_cells(t2d, kz, rng.integers(0, 9, 40),
                       rng.integers(1, 2**20, 40), q3)
    # every cell with z >= 0 filled once; on even z, 2 q^3 c ~ 2^60.7 fits
    # int64 doubled, and each y's six such z > 0 terms sum past 2^63; on odd
    # z, c is small and its term is negative
    t2d = mirrored(rng.integers(1, 2**20, size=(3, 3)))
    kz, ky = np.divmod(np.arange(12 * 9, 25 * 9), 9)
    w = np.where(kz % 2 == 0, 3 * 2**47 + rng.integers(0, 2**20, kz.size),
                 rng.integers(1, 100, kz.size))
    assert 2 * q3 * int(w.max()) < counting.INT64_LIMIT // 2
    assert 2 * int(t2d.sum(axis=1).max()) ** 2 < counting.INT64_LIMIT // 2
    assert 6 * 2 * (q3 * 3 * 2**47 - 2 * int(t2d.max()) ** 2) > 2**63
    check_level2_cells(t2d, kz, ky, w, q3)


def test_level2_cells_carry_a_split_z():
    """Float rows whose z key 18 runs across both chunks: its cells stay
    open in the block into the second chunk, so they, and the qsum that
    counts them for z keys 18 and 6, keep the sequential sums' bits.  Cell
    (y, z) = (4, 18) gets the rows 1.0 | e, e, split at the cut, with e
    under half an ulp of 1.0: in row order both e vanish, while e + e
    first, or 1.0 + (e + e), rounds up to 1 + 2^-52."""
    rng = np.random.default_rng(7)
    t2d = mirrored(rng.random((3, 3)))
    kz = np.sort(rng.integers(12, 25, 400))  # z >= 0
    ky = rng.integers(0, 9, 400)
    w = rng.random(400)
    keep = ~((kz == 18) & (ky == 4))
    at = int(np.searchsorted(kz[keep], 18))
    e = 3 * 2.0**-55
    kz, ky, w = (np.insert(a[keep], at, v) for a, v in (
        (kz, [18] * 3), (ky, [4] * 3), (w, [1.0, e, e])))
    assert kz[at + 1:].tolist().count(18) > 2  # z key 18 goes on past the cut
    check_level2_cells(t2d, kz, ky, w, 13**3, at + 1)


@pytest.mark.parametrize("planted", [False, True])
def test_level2_cells_quarter_equals_full_y(monkeypatch, planted):
    """_level2_cells on cells (y, z), y >= 0 and z >= 0, with mirror equals
    it on the same cells unfolded to every y without: qsum and abs2_num
    value for value and in the same dtype.  t2d is symmetric in both
    shifts, as T is.  Planted: every cell of the quarter has q^3 c = FS2,
    so abs2_num is 0 at every y while prod_i R(y_i) passes a lowered
    INT64_LIMIT; a y < 0 bin seeded with it alone would leave int64."""
    n, rng = 2, np.random.default_rng(13)
    t2d = mirrored(rng.integers(1, 2**20, size=(2, 2)))
    t2d = np.vstack([t2d, t2d[-2::-1]])
    Ycells = Zcells = 9
    h, ky = np.divmod(np.arange(5 * Ycells), Ycells)
    keep = ky >= Ycells // 2
    if not planted:
        keep &= rng.random(keep.size) < 0.5
    h, ky = h[keep], ky[keep]
    q3, c = 7, rng.integers(1, 2**30, ky.size)
    if planted:
        q3, c = 1, pipeline._fs2(t2d, ky, Zcells // 2 + h, n)
        limit = 2**40
        assert int(t2d.sum(axis=1).max()) ** 2 >= limit > int(c.max())
        monkeypatch.setattr(counting, "INT64_LIMIT", limit)
    down = ky > Ycells // 2  # their mirrors (-y, z)
    full = np.concatenate([h * Ycells + ky, (h * Ycells + Ycells - 1 - ky)[down]])
    order = np.argsort(full)
    dom = pipeline._Domain(True)
    got = pipeline._level2_cells(h * Ycells + ky, c, t2d, n, q3, dom, True)
    want = pipeline._level2_cells(full[order], np.concatenate([c, c[down]])[order],
                                  t2d, n, q3, dom, False)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tolist() == w.tolist()
    if planted:
        assert not got[1].any()


def part_sums_oracle(key, w):
    """Sequential per-key totals: each key adds its rows to zero in arrival
    order."""
    totals = {}
    for k, v in zip(key.tolist(), w.tolist()):
        totals[k] = totals.get(k, 0) + v
    return sorted(totals), [totals[k] for k in sorted(totals)]


def part_sums_rows(dtype):
    """52 rows (key, w).  Four keys get 1.0 and then e, e, with e under half
    an ulp of 1.0, so only arrival order gives each total, 1.0; adding e + e
    first gives 1 + 2^-52: key 3 at rows 10-12, key 6 at rows 41, 47 and
    50, key 5 at rows 15, 21 and 22, key 2 at rows 0, 35 and 36."""
    rng = np.random.default_rng(11)
    key = rng.choice([0, 1, 4], 52)
    e = 3 * 2.0**-55
    if dtype is np.float64:
        w = np.where(rng.random(key.size) < 0.5, e, 1.0 + rng.random(key.size))
    elif dtype is np.int64:
        w = rng.integers(-2**40, 2**40, key.size)
    else:
        w = np.array([3**45 * int(v) for v in rng.integers(-99, 99, key.size)],
                     dtype=object)
    for k, rows in ((3, [10, 11, 12]), (6, [41, 47, 50]), (5, [15, 21, 22]),
                    (2, [0, 35, 36])):
        key[rows] = k
        if dtype is np.float64:
            w[rows] = [1.0, e, e]
    return key, w.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, object])
@pytest.mark.parametrize("cuts", [
    [13, 20, 27],  # key 5's 1.0 in one chunk, its e, e in the next
    [11, 35, 36],  # key 2's rows in three chunks
    [3, 11, 40, 41],  # key 3's 1.0 ends a chunk, its e, e start the next
    list(range(1, 52)),  # one row per chunk
], ids=["part-spans-chunks", "chunk-ends-at-part", "parts-in-a-chunk",
        "one-row-chunks"])
def test_part_sums_matches_sequential_oracle(dtype, cuts):
    """Per-key sums of rows streamed in chunks into one ``_Bins``, as the
    correlations add theirs, against sequential sums; every key 0..6 gets
    rows."""
    key, w = part_sums_rows(dtype)
    bounds = [0] + cuts + [key.size]
    bins = counting._Bins(7, w.dtype != np.float64)
    for a, b in zip(bounds, bounds[1:]):
        bins.add(key[a:b], w[a:b])
    want_keys, want = part_sums_oracle(key, w)
    assert want_keys == list(range(7))
    dense = bins.total()
    assert dense.dtype == w.dtype
    assert dense.tolist() == want
    if dtype is np.float64:  # the planted keys
        assert [want[k] for k in (3, 6, 5, 2)] == [1.0] * 4


SCATTER_VALUES = {  # e = 3 * 2^-55 is under half an ulp of 1.0
    np.float64: [1.0, 3 * 2.0**-55, 1.5, 2.0**-1074, 0.3],
    np.int64: [1, 2**50, -3, 2**40 + 7, 5],
    object: [3**45, 1, -(3**44), 2**70, 5],
}


@st.composite
def scatter_cases(draw):
    """Level-2 rows (kz, ky, w) with z >= 0 in nondecreasing order, cut into
    chunks, for a drawn PAIR_BLOCK and row dtype.  The cell of the last y and
    z = 1 gets only rows of weight 0, which for float rows are smooth
    products that underflow; rows at z = per - 1 and z = per of the first y
    run across the first block boundary when the z range spans more than
    one block."""
    dtype = draw(st.sampled_from(list(SCATTER_VALUES)))
    block = draw(st.sampled_from([1, 7, pipeline.PAIR_BLOCK]))
    n = draw(st.sampled_from([1, 2]))
    side_y, side_z = draw(st.sampled_from([1, 3, 5])), draw(st.sampled_from([3, 9]))
    ycells, zcells = side_y**n, side_z**n
    zlo = zcells // 2
    size = draw(st.integers(0, 60))
    rows = draw(st.lists(st.tuples(
        st.integers(zlo, zcells - 1), st.integers(0, ycells - 1),
        st.sampled_from(SCATTER_VALUES[dtype])), min_size=size, max_size=size))
    rows = [r for r in rows if r[:2] != (zlo + 1, ycells - 1)]
    per = max(1, 4 * block // ycells)  # z values per block
    if zlo + per < zcells:
        rows += [(zlo + per - 1, 0, SCATTER_VALUES[dtype][0]),
                 (zlo + per, 0, SCATTER_VALUES[dtype][1])]
    zero = 1e-200 * 1e-200 if dtype is np.float64 else 0
    rows += [(zlo + 1, ycells - 1, zero)] * 2
    rows.sort(key=lambda r: r[0])  # stable: equal z keep their draw order
    kz, ky = (np.array(c, dtype=np.int64) for c in list(zip(*rows))[:2])
    w = np.array([r[2] for r in rows], dtype=dtype)
    cuts = sorted(draw(st.sets(st.integers(1, len(rows) - 1), max_size=6)))
    bounds = [0, *cuts, len(rows)]
    chunks = [(kz[a:b], ky[a:b], w[a:b]) for a, b in zip(bounds, bounds[1:])]
    return block, n, side_y, side_z, chunks


def same_bits(got, want):
    """Float sums bit for bit; exact sums value for value, in int64 exactly
    when every one is below the limit and in Python ints otherwise."""
    if want.dtype == np.float64:
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()
    small = all(abs(v) < counting.INT64_LIMIT for v in want.tolist())
    return (got.dtype == (np.int64 if small else object)
            and got.tolist() == want.tolist())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scatter_cases())
def test_scatters_match_fold_oracle(case):
    """The level-2 cells, bit for bit against the sequential oracle on the
    same rows: level 2 sums its rows by cell (y, z), z >= 0, and keeps them
    sorted by key h Ycells + ky (h = kz - Zcells // 2); qsum counts each
    cell with z > 0 twice, in z order.  The cell of weight-0 rows is
    filled, and its part is 0."""
    block, n, side_y, side_z, chunks = case
    ycells, zcells = side_y**n, side_z**n
    dtype = chunks[0][2].dtype
    exact = dtype != np.float64
    t2d = np.ones((side_y, side_z), dtype=np.float64 if not exact else np.int64)
    rows = [((kz - zcells // 2) * ycells + ky, w) for kz, ky, w in chunks]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "PAIR_BLOCK", block)
        keys, parts = pipeline._cell_sums(iter(rows), ycells, zcells - zcells // 2,
                                          exact)
        qsum, _ = pipeline._level2_cells(keys, parts, t2d, n, 13**3,
                                         pipeline._Domain(exact), False)

    kz, ky, w = (np.concatenate(c) for c in zip(*chunks))
    want_keys, want = (np.array(v, dtype=t) for v, t in zip(
        part_sums_oracle((kz - zcells // 2) * ycells + ky, w), (np.int64, dtype)))
    assert keys.tolist() == want_keys.tolist()
    assert same_bits(parts, want)
    assert parts[keys.tolist().index(ycells + ycells - 1)] == 0  # h = 1
    h, y = np.divmod(want_keys, ycells)
    twice = np.where(h > 0, 2, 1).astype(dtype)
    want_q = [sum(twice[y == k] * want[y == k], 0) for k in range(ycells)]
    assert same_bits(qsum, np.array(want_q, dtype=dtype))


@pytest.mark.parametrize("weight", ["hat", "smooth"])
def test_exact_level2_builds_no_product_per_z(monkeypatch, weight):
    calls = [0]
    outer = pipeline._outer

    def counted(op, arrs):
        calls[0] += op is counting._product
        return outer(op, arrs)

    monkeypatch.setattr(pipeline, "_outer", counted)
    kw = dict(f=F, B=B, pi=PI, p=P, q=Q, weight=weight)
    build_ledger(PipelineParams(**kw))
    before = calls[0]
    led = build_ledger(PipelineParams(**kw, with_pair_table=True))
    level2 = calls[0] - 2 * before
    assert led.exact == (weight == "hat") and level2 <= 1


def test_level2_domain_ignores_ss3_dtype(exact_level2_ledgers, monkeypatch):
    """Level 2 stays exact when level 1's sums of squares leave int64: with
    the limit below the largest ss3 but above every cell, ss3 comes in
    Python ints and the cells in int64, and level 2 equals the int64
    build's."""
    ref = exact_level2_ledgers["showcase-hat"]
    limit = 2**40
    assert ref.pair_num.max() < limit <= ref.ss3.max()
    monkeypatch.setattr(counting, "INT64_LIMIT", limit)
    led = build_ledger(PipelineParams(**EXACT_LEVEL2_CASES["showcase-hat"],
                                      with_pair_table=True))
    assert led.ss3.dtype == object and led.pair_num.dtype == np.int64
    rc = led.residuals["refined_square_expansion"]
    assert led.exact and rc.ok and rc.tol == 0
    assert_same_level2(led, ref)


def test_object_level1_keeps_level2_exact(default_ledgers, monkeypatch):
    """Level 1 and the correlations in Python ints, past a limit of 2^25,
    still feed an exact level 2, equal to the int64 build's."""
    ref = default_ledgers[("pi5", "hat")]
    assert min(ref.corr_num.max(), ref.ss3.max()) >= 2**25
    monkeypatch.setattr(counting, "INT64_LIMIT", 2**25)
    led = build_ledger(PipelineParams(**CHUNK_CASES["pi5"], weight="hat",
                                      with_pair_table=True))
    assert led.corr_num.dtype == led.ss3.dtype == object
    assert np.array_equal(led.qsum, ref.qsum)
    assert np.array_equal(led.abs2_num, ref.abs2_num)
    assert led.aggregate == ref.aggregate
    rc = led.residuals["refined_square_expansion"]
    assert rc.ok and rc.tol == 0


def sq_bins_oracle(keys, vals, size):
    out = [0] * size
    for k, v in zip(keys.tolist(), vals.tolist()):
        out[k] += v * v
    return out


@pytest.mark.parametrize("keys, vals, dtype", [
    (range(16), [2**30] * 16, np.int64),  # total 2^64, every bin 2^60
    ([0] * 5 + [1], [2**30] * 5 + [3], object),  # bin 0: 5 * 2^60 > 2^62
    ([0, 1, 1], [2**31, 1, 2], object),  # a value reaches 2^31
    ([1, 0], [-(2**31), 1], object),
    ([2, 0, 1, 2], [7, -3, 0, 12], np.int64),
])
def test_sq_bincount_dtype_follows_bin_bound(keys, vals, dtype):
    """Bins of squares, each formed by the accumulator's product test: int64
    exactly when every square and every bin is below the limit."""
    keys = np.array(keys, dtype=np.int64)
    vals = np.array(vals, dtype=np.int64)
    size = int(keys.max()) + 2  # one bin stays empty
    out = counting._Bins(size).add(keys, counting._product(vals, vals)).total()
    assert out.dtype == dtype
    assert out.tolist() == sq_bins_oracle(keys, vals, size)


@pytest.mark.parametrize("keys", [
    np.random.default_rng(1).integers(0, 50, 1000),
    np.random.default_rng(2).integers(0, 2**40, 1000),
    np.array([2**62, 5, 2**62, 0], dtype=np.int64),  # no room to pack
    np.array([3, -1, 3, -1], dtype=np.int64),
    np.zeros(0, dtype=np.int64),
])
def test_stable_order_matches_stable_argsort(keys):
    assert np.array_equal(pipeline._stable_order(keys),
                          np.argsort(keys, kind="stable"))


def pair_join_oracle(left, right, own):
    """The pairs (i, j) with left[i] == right[j] (and j >= own[i] when own
    is given), in (i, j) order."""
    return [(i, j) for i in range(left.size) for j in range(right.size)
            if left[i] == right[j] and (own is None or j >= own[i])]


@pytest.mark.parametrize("block", [1, 7, 1 << 18])
def test_pair_join_places_match_brute_force(monkeypatch, block):
    """On an unsorted left, plain and triangular, the chunks name each pair
    as (li, ro[ri]), li a row of the left as passed: they are the oracle's
    pairs in its order, li never decreases, and ro sorts the right rows
    stably by key.  Triangular: the left is the right itself, or a shuffled
    part of it (own a permutation's first rows)."""
    monkeypatch.setattr(pipeline, "PAIR_BLOCK", block)
    rng = np.random.default_rng(block)
    left, right = rng.integers(-3, 4, 40), rng.integers(0, 7, 30)
    own = rng.permutation(right.size)[:20]
    for a, b, o in ((left, right, None), (right, right, np.arange(right.size)),
                    (right[own], right, own)):
        npairs, ro, chunks = pipeline._pair_join(a, b, o)
        assert np.array_equal(ro, np.argsort(b, kind="stable"))
        got = []
        for li, ri in chunks:
            assert 0 < li.size <= block and np.all(np.diff(li) >= 0)
            got += zip(li.tolist(), ro[ri].tolist())
        want = pair_join_oracle(a, b, o)
        assert got == want and npairs == len(want)


def test_box_pair_join_emits_box_order(monkeypatch):
    """Level 2's first join takes the live box points in box order and
    emits its rows (a, c), c = a + p z, in box order of a and then of c,
    the order the second join reads its x-pairs in: each row joins a box
    class (a = c mod p, f(a) = f(c) mod q), c is at or after a, and there
    are m (m + 1) / 2 rows to a class of m points."""
    joins, join = [], pipeline._pair_join

    def spy(left, right, own=None):
        npairs, ro, chunks = join(left, right, own)
        rows = []
        joins.append((left, right, own, npairs, rows))

        def kept():
            for li, ri in chunks:
                rows.append(np.stack([li, ro[ri]]))
                yield li, ri
        return npairs, ro, kept()

    monkeypatch.setattr(pipeline, "_pair_join", spy)
    monkeypatch.setattr(pipeline, "PAIR_BLOCK", 1000)
    build_ledger(PipelineParams(**SHOWCASE, with_pair_table=True))
    left, right, own, npairs, rows = joins[1]  # correlations, box pairs, second
    assert left is right and np.array_equal(own, np.arange(left.size))
    a, c = np.concatenate(rows, axis=1)
    assert a.size == npairs > 1000
    assert np.all((a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & (c[1:] > c[:-1])))
    # the hat weight is positive on the whole box, so every point is live
    h = 2 * B - 1
    pts = np.array([x[::-1] for x in itertools.product(range(-h, h + 1), repeat=N)])
    assert left.size == len(pts)
    fq = np.array([F.eval(x) % Q for x in pts.tolist()])
    assert np.all(c >= a) and np.all(fq[a] == fq[c])
    assert np.all(pts[a] % P == pts[c] % P)
    sizes = np.unique(np.column_stack([pts % P, fq]), axis=0, return_counts=True)[1]
    assert npairs == int(np.sum(sizes * (sizes + 1) // 2))


def fs2_per_digit(t2d, ky, kz, n):
    """FS2 by decoding each digit of ky and kz with // and %."""
    sideY, sideZ = t2d.shape
    out = 1
    for i in range(n):
        out = out * t2d[ky // sideY**i % sideY, kz // sideZ**i % sideZ]
    return out


@pytest.mark.parametrize("dtype", [np.int64, object, np.float64])
@pytest.mark.parametrize("n", [1, 3])
def test_fs2_digit_tables_match_per_digit_decode(dtype, n):
    """_fs2 reads digit tables; the per-digit decode gives the same values,
    dtype and float bits, for array and scalar keys (object entries near
    2^40 make the products pass int64)."""
    rng = np.random.default_rng(n)
    top = 2**40 if dtype is object else 2**20
    t2d = rng.integers(0, top, (5, 3)).astype(dtype)
    if dtype is np.float64:
        t2d /= 3.0
    ky, kz = rng.integers(0, 5**n, 200), rng.integers(0, 3**n, 200)
    got, want = pipeline._fs2(t2d, ky, kz, n), fs2_per_digit(t2d, ky, kz, n)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    for y, z in zip(ky[:10].tolist(), kz[:10].tolist()):
        got, want = pipeline._fs2(t2d, y, z, n), fs2_per_digit(t2d, y, z, n)
        assert type(got) is type(want) and got == want


@st.composite
def grid_cases(draw):
    """A ledger with its pair table over n <= 4 axes, H, Y and Z set by the
    weight and B, and three distinct primes."""
    n = draw(st.integers(1, 4))
    weight = draw(st.sampled_from(["hat", "indicator", "smooth"]))
    b = draw(st.integers(1, 1 if n == 4 else 3 if n < 3 else 2))
    pi, p, q = draw(st.permutations([2, 3, 5, 7, 11]))[:3]
    f = parse_poly("+".join(f"x{i}^3" for i in range(1, n + 1)), n)
    return PipelineParams(f=f, B=b, pi=pi, p=p, q=q, weight=weight,
                          with_pair_table=True)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(grid_cases())
def test_grid_codes_match_per_point_decode(params):
    """The ledger's codes over the box and the shift grid, each an outer
    sum (or max) of n per-axis arrays, against per-point values in
    x1-fastest order.  In the order the ledger forms them: over the box x,
    cls_pi sum_i (x_i mod pi) pi^i, ycode sum_i (x_i // pi) (2Y + 1)^i and
    cls_p sum_i (x_i mod p) p^i; over the shifts y, the class of X_y, sum_i
    r(pi y_i mod p) s^i with r the place of a residue among the s residues
    that pi y_i mod p takes on one axis, and max_i |pi y_i|, which
    support_vanishing compares with 4B; and last, in the level-2 join,
    zcode sum_i (x_i // p) (2Z + 1)^i.  The weight products, also outer,
    are not codes and are skipped."""
    made = []
    outer = pipeline._outer

    def spied(op, arrs):
        out = outer(op, arrs)
        if op is not counting._product:
            made.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_outer", spied)
        led = build_ledger(params)
    n, pi, p = led.n, params.pi, params.p
    H = Weight(params.weight).halfwidth(params.B)
    Y, Z = led.shift_range, led.pair_range

    def code(v, digit, side):
        return sum(digit(c) * side**i for i, c in enumerate(v))

    box = [x[::-1] for x in itertools.product(range(-H, H + 1), repeat=n)]
    shifts = [y[::-1] for y in itertools.product(range(-Y, Y + 1), repeat=n)]
    res = sorted({pi * c % p for c in range(-Y, Y + 1)})
    want = [
        [code(x, lambda c: c % pi, pi) for x in box],
        [code(x, lambda c: c // pi, 2 * Y + 1) for x in box],
        [code(x, lambda c: c % p, p) for x in box],
        [code(y, lambda c: res.index(pi * c % p), len(res)) for y in shifts],
        [max(abs(pi * c) for c in y) for y in shifts],
        [code(x, lambda c: c // p, 2 * Z + 1) for x in box],
    ]
    assert [a.tolist() for a in made] == want


def xcount_whole_grid(f, n, pi, p, Y):
    """#X_y over the shift grid from a whole-grid np.unique, the oracle of
    the ledger's per-axis classes: a code sum_i (pi y_i mod p) p^i for every
    shift, one np.unique over all of them, and one shifted zero grid per
    distinct code.  Returns the number of codes and the counts."""
    lags = pi * np.arange(-Y, Y + 1, dtype=np.int64)
    gz = counting.eval_on_axes(f, [np.arange(p, dtype=np.int64)] * n, p) == 0
    gz = gz.reshape((p,) * n)
    wid = pipeline._code(lags % p, p, n)
    uniq_wid, wid_idx = np.unique(wid, return_inverse=True)
    counts = np.array([
        np.count_nonzero(gz & np.roll(gz, tuple(-d[::-1]), axis=tuple(range(n))))
        for d in ffield._digits(uniq_wid, p, n)], dtype=np.int64)
    return uniq_wid.size, counts[wid_idx]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("pi", [2, 3, 11])
@pytest.mark.parametrize("B", [1, 2])
def test_xy_classes_match_whole_grid_unique(p, pi, B):
    """The classes of X_y, read from the residues of one axis, give the
    counts and the "shifted zero grids mod p" charge of a whole-grid
    np.unique; the axis takes 1 to p residues across these cases."""
    if pi == p:
        pi = 5
    budget = RecordingBudget()
    led = build_ledger(PipelineParams(f=F, B=B, pi=pi, p=p, q=13), budget)
    classes, want = xcount_whole_grid(F, N, pi, p, led.shift_range)
    assert budget.charges["shifted zero grids mod p"] == classes * p**N
    assert led.xcount.dtype == want.dtype and np.array_equal(led.xcount, want)


CHARGE_LABELS = ("box grids", "class grid mod pi", "shift table",
                 "correlation pairs", "zero grid mod p",
                 "shifted zero grids mod p", "pair-table windows",
                 "second-difference pairs")
SHOWCASE_POLY, P4_POLY = "x1^3+x2^3+x3^3-x1*x2*x3", "x1^4+x2^4-x3^4+2*x4^4+x1*x2^3"
P4_ARGS = ["--n", "4", "--B", "4", "--pi", "2", "--p", "3", "--q", "17",
           "--pair-table", "--budget", "4000000000"]
# the README and CI ledgers, and the amounts they charge, in CHARGE_LABELS
# order; a charge moved, dropped or resized changes the budget a run reports
# and where it refuses
CI_LEDGER_CHARGES = {
    "showcase": ([SHOWCASE_POLY, "--n", "3", "--B", "4", "--pi", "2", "--p", "3",
                  "--q", "5", "--pair-table"],
                 [13500, 8, 4913, 217610, 27, 729, 4492125, 18981]),
    "parity-free": ([SHOWCASE_POLY + "+x1+2", "--n", "3", "--B", "4", "--pi", "5",
                     "--p", "3", "--q", "7", "--pair-table"],
                    [13500, 125, 343, 11150, 27, 729, 4492125, 3364]),
    "b12": (["x1^3+2*x2^3-x3^3+x1*x2*x3+x2", "--n", "3", "--B", "12", "--pi", "2",
             "--p", "3", "--q", "53"], [415292, 8, 117649, 13066303, 27, 729]),
    "n4": ([P4_POLY, *P4_ARGS],
           [202500, 16, 83521, 5092353, 81, 6561, 741200625, 66139]),
    "n4-mixed": ([P4_POLY + "+x1", *P4_ARGS],
                 [202500, 16, 83521, 9728532, 81, 6561, 741200625, 58653]),
    "n6-p5": (["x1^4+x2^4+x3^4-x4^4-x5^4-2*x6^4", "--n", "6", "--B", "1", "--pi", "2",
               "--p", "5", "--q", "13"], [2916, 64, 15625, 3266, 15625, 244140625]),
    "n8-refusal": (["x1^4+x2^4+x3^4+x4^4-x5^4-x6^4-x7^4-x8^4", "--n", "8", "--B", "2",
                    "--pi", "2", "--p", "3", "--q", "17"],
                   [23059204, 256, 43046721, 6309636962]),
}


@pytest.mark.parametrize("case, weight", [
    *((c, "hat") for c in CI_LEDGER_CHARGES),
    ("showcase", "smooth"), ("parity-free", "smooth"), ("n4", "smooth")])
def test_ci_ledger_charges_are_pinned(monkeypatch, capsys, case, weight):
    """The README and CI ledgers charge the pinned (label, amount) sequence,
    the smooth weight as the hat; the n = 8 ledger is refused on its
    correlation pairs, having used the charges before them."""
    (poly, *args), amounts = CI_LEDGER_CHARGES[case]
    made, charge = [], Budget.charge

    def recorded(self, amount, what="points"):
        made.append((what, int(amount)))
        return charge(self, amount, what)

    monkeypatch.setattr(Budget, "charge", recorded)
    code = cli.dispatch(["pipeline", f"--poly={poly}", *args, "--weight", weight])
    doc = json.loads(capsys.readouterr().out)
    assert made == list(zip(CHARGE_LABELS, amounts))
    if case == "n8-refusal":
        assert code == 2 and doc["error"]["details"] == {
            "limit": DEFAULT_BUDGET, "requested": amounts[-1],
            "used": sum(amounts[:-1]), "what": "correlation pairs"}
    else:
        assert code == 0 and doc["run"]["budget"]["used"] == sum(amounts)


def test_showcase_budget_used(capsys):
    code = cli.dispatch(["pipeline", "--poly", "x1^3+x2^3+x3^3-x1*x2*x3",
                         "--n", "3", "--B", "4", "--pi", "2", "--p", "3",
                         "--q", "5", "--pair-table"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["run"]["budget"]["used"] == 4747893


def test_tables_match_brute_force_across_class_groups():
    # the correlation pass spans pi^n = 125 classes mod pi
    params = PipelineParams(f=F, B=4, pi=5, p=3, q=7, weight="hat",
                            with_pair_table=True)
    led, ref_g = build_ledger(params), Reference(params, 1)
    assert led.exact
    assert_tables(led, ref_g, LEVEL1)

    cells = [((1, 0, 0), (1, 0, 0)), ((0, 1, -1), (-1, 2, 0)),
             ((1, 1, 1), (0, 0, 0)), ((0, 0, 0), (1, -1, 2)),
             ((-1, 0, 1), (2, 1, -2))]
    for yy, zz in cells:
        assert led.corr2(yy, zz) == ref_g.corr2(yy, zz), (yy, zz)


# monomials of degree 3, 1 and 0: f(-x) is neither f(x) nor -f(x)
F_ODD_EVEN = parse_poly("x1^3+x2^3+x3^3-x1*x2*x3+x1+2", N)


@pytest.mark.parametrize("case", ["parity-free", "uneven-weight"])
def test_full_path_matches_brute_force(monkeypatch, case):
    """Without the mirror, level 1 emits both halves, and every table still
    reads the box; the correlations and the box-point join of level 2,
    symmetric for every f and weight, stay triangular."""
    f = F_ODD_EVEN
    if case == "uneven-weight":  # a cubic form, but heavier at x_i > 0
        f, axis_values = F, Weight.axis_values
        monkeypatch.setattr(Weight, "axis_values", lambda self, B: (
            axis_values(self, B)[0] + (np.arange(4 * B - 1) >= 2 * B),
            2 * B))
    triangular, join = [], pipeline._pair_join

    def spy(left, right, own=None):
        triangular.append(own is not None)
        npairs, ro, chunks = join(left, right, own)

        def checked():  # every pair the chunks name joins equal keys
            for li, ri in chunks:
                assert np.array_equal(left[li], right[ro[ri]])
                yield li, ri
        return npairs, ro, checked()

    monkeypatch.setattr(pipeline, "_pair_join", spy)
    level1 = spy_level1(monkeypatch)
    led = build_ledger(PipelineParams(f=f, B=4, pi=5, p=3, q=7, weight="hat",
                                      with_pair_table=True))
    # correlations, box-point pairs, pair table
    assert triangular == [True, True, False]
    # level 1 pairs every q-solution with every box point of its class
    [lvl1_call] = level1
    h = 2 * 4 - 1
    n_box, n_q = defaultdict(int), defaultdict(int)
    for x in itertools.product(range(-h, h + 1), repeat=N):
        u = tuple(c % 5 for c in x)
        n_box[u] += 1
        n_q[u] += f.eval(list(x)) % 7 == 0
    assert not lvl1_call["mirror"]
    assert sum(lvl1_call["spans"].values()) == sum(
        n_q[u] * n_box[u] for u in n_box)
    for name in ("t0_num", "ss3"):  # not mirror images: y and -y differ
        t = getattr(led, name)
        assert np.any(t != t[::-1]), name
    assert_tables(led, Reference(led.params), LEVEL1 + LEVEL2)
    assert all(rc.ok for rc in led.residuals.values())


@st.composite
def ledger_cases(draw):
    """A ledger run with its pair table, and the patches it runs under."""
    n = draw(st.sampled_from([2, 3]))
    b = draw(st.integers(1, 4 if n == 2 else 2))
    pi, p, q = draw(st.permutations([2, 3, 5, 7, 11, 13, 17]))[:3]
    monomials = [e for e in itertools.product(range(4), repeat=n)
                 if sum(e) == 3]
    terms = {e: c for e in monomials
             if (c := draw(st.integers(-3, 3)))} or {monomials[0]: 1}
    if draw(st.booleans()):  # mixed parity: f(-x) is neither f(x) nor -f(x)
        terms[(1,) + (0,) * (n - 1)] = 1
        terms[(0,) * n] = 2
    weight = draw(st.sampled_from(["hat", "indicator", "smooth"]))
    return (PipelineParams(f=IntPoly(n, terms), B=b, pi=pi, p=p, q=q,
                           weight=weight, with_pair_table=True),
            draw(st.sampled_from([1, 7, None] if n == 2 else [7, None])),
            draw(st.booleans()), draw(st.sampled_from([None, 2**12, 2**24])),
            weight != "smooth" and draw(st.booleans()))


def widen(mp, params):
    """Exact axis numerators and their denominator times one s: the same
    weights, with the largest bin of the pair sums, max t0 (t1, sxy and
    corr each sum a part of t0's terms), near 2^64."""
    values, n = Weight.axis_values, params.f.n
    top = max(1, max(Reference(params, 1).t0_num))
    s = int((2**64 / top) ** (1 / (2 * n)))

    def wide(self, B):
        w1, den = values(self, B)
        return w1 * s, den * s
    mp.setattr(Weight, "axis_values", wide)


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ledger_cases())
@example((PipelineParams(f=parse_poly("x1^3+x2^3", 2), B=4, pi=3, p=5, q=2,
                         with_pair_table=True), 1, False, None, True))
def test_ledger_matches_reference(case):
    """Every table, scalar and residual value of build_ledger against the
    reference, over f of uniform and mixed parity, n = 2, 3, pi past 4B (one
    shift), every weight kind, PAIR_BLOCK 1 (n = 2), 7 and default, blocks
    of one box class, INT64_LIMIT lowered or not, and widened exact
    numerators, whose largest bins pass 2^63 in int64 terms (``widen``).
    Exact: entry for entry, the aggregate bit for bit, and the
    accumulator's tables int64 exactly when their entries lie below
    INT64_LIMIT.  Smooth: each entry is a sum of products of the float64
    axis weights.  A product of at most 4n weights passes 4n - 1 roundings;
    fs and T are products of n axis sums of at most L products of 4, n (L +
    3); a sum of at most m terms, nested or not, in any order, adds m - 1,
    and no entry sums more than M Zcells terms (one per box point x and
    second shift z; Zcells = 1 at level 1); ss2 and ss3 multiply a term by a
    sum, and abs2_num adds 4 operations.  So no term passes k = 2 (M Zcells + n (L + 3)) + 8
    roundings, and each entry lies within gamma_k of the exact value times
    its sum of |terms| (Higham, section 3.1).  A scalar or residual
    multiplies at most two such sums: gamma_(2k + 8)."""
    params, block, one_class, limit, wide = case
    with pytest.MonkeyPatch.context() as mp:
        for obj, name, value in ((pipeline, "PAIR_BLOCK", block),
                                 (pipeline, "_per_block", one_class and (lambda w: 1)),
                                 (counting, "INT64_LIMIT", limit)):
            if value:
                mp.setattr(obj, name, value)
        if wide:
            widen(mp, params)
        led, ref_c = build_ledger(params), Reference(params)
        k = rounding_k(ref_c, "abs2_num")
        assert led.zero_classes == ref_c.zero_classes
        assert_tables(led, ref_c, LEVEL1 + LEVEL2)
        values = ref_c.values()
        assert set(led.residuals) < set(values)
        for name, (v, size, deg) in values.items():
            got = (Fraction(led.residuals[name].value) / led.den1**deg
                   if name in led.residuals else getattr(led, name))
            assert (got == v if led.exact else
                    abs(Fraction(got) - v) <= gamma(2 * k + 8) * size), name
        if not led.exact:
            assert led.aggregate == aggregate(params, led.abs2_num.tolist(), 1)
            return
        assert led.aggregate == ref_c.aggregate
        for name in ("corr_num", "t0_num", "t1_num", "ss2", "ss3", "sxy_num",
                     "qsum", "abs2_num"):  # the accumulator's totals
            big = max(map(abs, getattr(ref_c, name))) >= counting.INT64_LIMIT
            assert getattr(led, name).dtype == (object if big else np.int64)


def test_level1_python_int_bins_match_reference(monkeypatch, ref):
    """Past the limit, level 1's products leave int64 chunk by chunk and its
    sums of squares leave int64 as totals, and they still equal the
    reference's; with chunks of 64 rows some chunks' products stay int64
    and some come in Python ints."""
    params = PipelineParams(**SHOWCASE)
    limit = 2**32  # ss3 reaches 5.3e12
    assert max(ref.ss3) >= limit
    dtypes, product = [], pipeline._product

    def spy(*args):
        out = product(*args)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(counting, "INT64_LIMIT", limit)
    monkeypatch.setattr(pipeline, "PAIR_BLOCK", 64)  # ~3,400 level-1 chunks
    monkeypatch.setattr(pipeline, "_product", spy)
    led = build_ledger(params)
    assert set(dtypes) == {np.dtype(np.int64), np.dtype(object)}
    assert led.ss2.dtype == led.ss3.dtype == object
    assert_tables(led, ref, LEVEL1)


HALF_CASES = {**{(c, w): dict(**kw, weight=w) for c, kw in CHUNK_CASES.items()
                 for w in ("hat", "smooth")},
              ("n4-hat-b3", "hat"): EXACT_LEVEL2_CASES["n4-hat-b3"]}


@pytest.mark.parametrize("case", HALF_CASES, ids="-".join)
def test_half_path_equals_full_path(default_ledgers, exact_level2_ledgers,
                                    monkeypatch, case):
    """The mirrored paths equal the full ones.  Level 1 and the unfolded
    level-2 quarter (``Reference.unfold``) equal the full path's tables
    entry for entry for exact weights; for smooth they are bit for bit on
    the half the triangular passes compute, y >= 0, and within rounding of
    the full path's sums on the mirrored half."""
    half = (exact_level2_ledgers["n4-hat-b3"] if case[0] == "n4-hat-b3"
            else default_ledgers[case])
    monkeypatch.setattr(pipeline, "_mirrors", lambda f, w1: False)
    full = build_ledger(PipelineParams(**HALF_CASES[case], with_pair_table=True))
    assert half.pair_quarter and not full.pair_quarter
    Ycells = len(half.corr_num)
    ref_u = Reference(half.params, 0)
    got = ref_u.unfold(half.pair_keys, half.pair_num)
    want = ref_u.unfold(full.pair_keys, full.pair_num, quarter=False)
    if half.exact:
        for name in ("corr_num", "t0_num", "t1_num", "ss2", "ss3", "sxy_num",
                     "qsum", "abs2_num"):
            assert np.array_equal(getattr(half, name), getattr(full, name)), name
        assert all(map(np.array_equal, got, want))
        assert half.aggregate == full.aggregate
        return
    up = slice(Ycells // 2, None)
    assert np.array_equal(half.corr_num, full.corr_num)
    for name in ("t0_num", "t1_num", "ss2", "ss3", "sxy_num", "qsum", "abs2_num"):
        h, f = getattr(half, name), getattr(full, name)
        assert np.array_equal(h[up], f[up]), name
        assert np.allclose(h, f, rtol=1e-12, atol=0), name
    upper = full.pair_keys % Ycells >= Ycells // 2
    assert np.array_equal(half.pair_keys, full.pair_keys[upper])
    assert half.pair_num.tobytes() == full.pair_num[upper].tobytes()
    assert np.array_equal(got[0], want[0])
    assert np.allclose(got[1], want[1], rtol=1e-12, atol=0)


def test_corr2_matches_brute_force_at_n4(exact_level2_ledgers):
    """corr2 on the n = 4, B = 3 build, filled cells or not, reads the box."""
    led = exact_level2_ledgers["n4-hat-b3"]
    Y, Z, o = led.shift_range, led.pair_range, (0, 0, 0, 0)
    y = (1, 0, -1, 0)
    empty = (y, (1, 0, 0, 0))  # no quadruple fills it; FS2 > 0
    cells = [(o, o), (y, (0, -1, 1, 0)), (y, (2, 0, 0, 0)), empty,
             ((Y, 0, 0, 0), o), ((0, 1, 0, 0), (0, 0, -Z, 0)),
             ((-Y,) * 4, (-Z,) * 4), ((Y,) * 4, (Z,) * 4)]  # first, last key
    Ycells, Zcells = len(led.corr_num), (2 * Z + 1) ** 4
    h = pipeline._table_key(empty[1], Z, 4, "second shift") - Zcells // 2
    ky = led.shift_key(empty[0])
    assert h > 0 and ky < Ycells // 2  # corr2 reads the stored cell (-y, z)
    assert h * Ycells + Ycells - 1 - ky not in led.pair_keys
    ref_n4 = Reference(led.params, 0)
    want = {yz: ref_n4.corr2(*yz) for yz in cells}
    assert want[empty] < 0 < want[o, o]
    for yz in cells:
        assert led.corr2(*yz) == want[yz], yz


# 326 level-2 cells at B = 3, 205 of them with z > 0
F2 = parse_poly("x1^3 - x2^3 + x1*x2^2 + x2", 2)


@pytest.mark.parametrize("weight", ["hat", "smooth"])
def test_corr2_matches_brute_force_at_every_cell(weight):
    """corr2 at every in-range (y, z), z < 0 included, which the ledger
    reads from the cell of -z, against the reference's sums over the box:
    equal for the hat weight, and for smooth within gamma_k of their sum of
    |terms|, with k = rounding_k for the pair table."""
    params = PipelineParams(f=F2, B=3, pi=2, p=3, q=5, weight=weight,
                            with_pair_table=True)
    led, ref_c = build_ledger(params), Reference(params, 0)
    Y, Z, q3 = led.shift_range, led.pair_range, params.q**3
    den, slack = q3 * ref_c.den1**4, gamma(rounding_k(ref_c, "pair_num"))
    below = 0  # the cells with z < 0 whose congruence sum is not 0
    for y in itertools.product(range(-Y, Y + 1), repeat=2):
        for z in itertools.product(range(-Z, Z + 1), repeat=2):
            cong, total = ref_c.corr2_sums(y, z)
            want, got = Fraction(q3 * cong - total, den), led.corr2(y, z)
            if led.exact:
                assert got == want, (y, z)
            else:
                size = Fraction(q3 * cong + total, den)
                assert abs(Fraction(got) - want) <= slack * size, (y, z)
            below += cong != 0 and flat_key(z, Z) < (2 * Z + 1) ** 2 // 2
    assert below > 0


def second_join_rows(params, triangular):
    """The rows of level 2's second join, by brute force over the box: the
    box-point pairs (u, u + p z), both live, u + p z at or after u in box
    order, f(u) = f(u + p z) mod q, grouped by (z, class of u mod pi); each
    x-pair among them, q | f(x), meets every pair of its group, or when
    triangular those with u at or after x in box order."""
    pr, (pts, w) = params, box_weights(params)
    fq = [pr.f.eval(list(x)) % pr.q for x in pts]
    boxes, groups = defaultdict(list), defaultdict(list)
    for i, x in enumerate(pts):
        if w[i] > 0:
            boxes[tuple(c % pr.p for c in x), fq[i]].append(i)
    for members in boxes.values():
        for at, i in enumerate(members):
            for j in members[at:]:
                z = tuple((b - a) // pr.p for a, b in zip(pts[i], pts[j]))
                groups[z, tuple(c % pr.pi for c in pts[i])].append(i)
    rows = 0
    for g in groups.values():
        g.sort()
        for at, i in enumerate(g):
            if fq[i] == 0:
                rows += len(g) - at if triangular else len(g)
    return rows


@pytest.mark.parametrize("f, mirror", [(F, True), (F_ODD_EVEN, False)],
                         ids=["mirrored", "mixed-parity"])
def test_second_join_rows_match_brute_force(monkeypatch, f, mirror):
    """Level 2's second join emits the brute-force count of its rows: under
    the mirror only the u-pairs at or after each x-pair, y >= 0, about half
    of the full count the mixed-parity polynomial's join keeps."""
    joins, join = [], pipeline._pair_join

    def spy(left, right, own=None):
        npairs, ro, chunks = join(left, right, own)
        joins.append([own is not None, npairs, 0])

        def counted():
            for li, ri in chunks:
                joins[-1][2] += li.size
                yield li, ri
        return npairs, ro, counted()

    monkeypatch.setattr(pipeline, "_pair_join", spy)
    params = (PipelineParams(**SHOWCASE, with_pair_table=True) if mirror else
              PipelineParams(f=f, B=4, pi=5, p=3, q=7, with_pair_table=True))
    led = build_ledger(params)
    assert led.pair_quarter == mirror
    triangular, npairs, emitted = joins[2]  # correlations, box pairs, second
    assert triangular == mirror and emitted == npairs
    assert npairs == second_join_rows(params, mirror)
    if mirror:
        assert 2 * npairs > second_join_rows(params, False) > npairs


def test_smooth_corr2_is_bit_symmetric(default_ledgers):
    """Under the mirror, smooth corr2(+-y, +-z) are one float, bit for bit,
    at 200 filled cells and 100 drawn ones: each reads its congruence part
    and FS2 at the one stored cell, and T is bit-symmetric in z."""
    led = default_ledgers[("showcase", "smooth")]
    assert not led.exact and led.pair_quarter
    Y, Z, Ycells = led.shift_range, led.pair_range, len(led.corr_num)
    rng = np.random.default_rng(3)
    h, ky = np.divmod(rng.choice(led.pair_keys, 200, replace=False), Ycells)
    ys = (ffield._digits(ky, 2 * Y + 1, N) - Y).tolist()
    zs = (ffield._digits((2 * Z + 1) ** N // 2 + h, 2 * Z + 1, N) - Z).tolist()
    ys += rng.integers(-Y, Y + 1, (100, N)).tolist()
    zs += rng.integers(-Z, Z + 1, (100, N)).tolist()
    nonzero = 0
    for y, z in zip(ys, zs):
        want = led.corr2(y, z)
        neg_y, neg_z = [-c for c in y], [-c for c in z]
        for yy, zz in ((y, neg_z), (neg_y, z), (neg_y, neg_z)):
            assert led.corr2(yy, zz).hex() == want.hex(), (y, z)
        nonzero += want != 0
    assert nonzero > 200


def test_params_validation():
    good = dict(f=F, B=B, pi=2, p=3, q=5)
    with pytest.raises(InputError):
        PipelineParams(**{**good, "B": 0}).validate()
    with pytest.raises(InputError):
        PipelineParams(**{**good, "pi": 4}).validate()
    with pytest.raises(InputError):
        PipelineParams(**{**good, "p": 2}).validate()  # repeated prime
    with pytest.raises(InputError):
        PipelineParams(f=F, B=B, pi=2, p=3, q=5, weight="zero").validate()
    # regime warning, not an error
    warns = PipelineParams(f=F, B=2, pi=2, p=3, q=5).validate()
    assert warns and "regime" in warns[0]


def test_budget_refusal():
    with pytest.raises(BudgetExceeded):
        build_ledger(
            PipelineParams(f=F, B=B, pi=PI, p=P, q=Q), budget=Budget(10))


def test_deviation_probe_within_bound():
    g = parse_poly("x1^3 + x2^3 + x3^3", 3)
    rep = deviation_probe(g, B=8, p=5, q=37)
    assert rep.within
    assert rep.measured <= rep.bound


def test_deviation_probe_two_forms():
    """Two quadrics: their reductions mod 5 and mod 37 are read by
    sing_points as a codimension-2 intersection."""
    fs = [parse_poly("x1^2+x2^2+x3^2+x4^2", 4), parse_poly("x1^2+2*x2^2+3*x3^2+4*x4^2", 4)]
    rep = deviation_probe(fs, B=8, p=5, q=37)
    assert rep.r == 2
    assert rep.geometry == {"5": "holds_empirically", "37": "holds_empirically"}
    assert rep.within


def test_deviation_probe_runs_no_direction_sweep(monkeypatch):
    g = parse_poly("x1^3 + x2^3 + x3^3 + x1*x2*x3", 3)
    want = deviation_probe(g, B=8, p=5, q=37)
    # the probe reads only R0, and R0 does not depend on the other checks
    assert want.geometry == {str(m): geometry.r_check(g, m).r0.verdict
                             for m in (5, 37)}

    def no_sweep(*args, **kwargs):
        raise AssertionError("deviation_probe reads only the R0 verdict")

    monkeypatch.setattr(geometry, "sigma_sweep", no_sweep)
    assert deviation_probe(g, B=8, p=5, q=37) == want


def test_deviation_probe_rejects_bad_inputs():
    g = parse_poly("x1^3 + x2^3 + x3^3", 3)
    with pytest.raises(InputError):
        deviation_probe(g, B=8, p=5, q=5)  # equal primes
    with pytest.raises(InputError):
        deviation_probe(parse_poly("x1^3 + x2", 2), B=4, p=3, q=11)
