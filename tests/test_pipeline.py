"""End-to-end checks of the correlation ledger against brute force.

The showcase instance (a cubic in three variables, B=4, moduli 2/3/5) is
small enough to recompute every table entry directly over the integer
box, so each assertion has an independent oracle.
"""
import dataclasses
import itertools
import json
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from vdc import cli, pipeline
from vdc.errors import Budget, BudgetExceeded, InputError, PreconditionError
from vdc.mpoly import parse_poly
from vdc.pipeline import (
    PipelineParams,
    _residuals,
    aggregate_bound,
    build_ledger,
    deviation_probe,
)

N = 3
F = parse_poly("x1^3 + x2^3 + x3^3 - x1*x2*x3", N)
B, PI, P, Q = 4, 2, 3, 5
H = 2 * B - 1
BOX = list(itertools.product(range(-H, H + 1), repeat=N))


def wrat(x):
    """Exact triangular weight on the showcase box."""
    v = Fraction(1)
    for c in x:
        v *= Fraction(max(0, 2 * B - abs(c)), 2 * B)
    return v


def fval(x):
    return F.eval(list(x))


@pytest.fixture(scope="module")
def led():
    params = PipelineParams(f=F, B=B, pi=PI, p=P, q=Q, weight="hat",
                            with_pair_table=True)
    return build_ledger(params)


def test_all_residual_identities_hold(led):
    assert len(led.residuals) == 9
    for rc in led.residuals.values():
        assert rc.ok, (rc.name, rc.value)
    assert led.exact
    assert led.pair_exact


def test_counts_match_brute_force(led):
    nw_full = sum(wrat(x) for x in BOX if fval(x) % (PI * P * Q) == 0)
    nw_pq = sum(wrat(x) for x in BOX if fval(x) % (P * Q) == 0)
    nw_box = sum(wrat(x) for x in BOX)
    assert nw_full == Fraction(4337, 128)
    assert nw_pq == Fraction(5345, 128)
    assert led.count_full == nw_full
    assert led.count_pq == nw_pq
    assert led.box_weight_total == nw_box
    assert led.expected_per_class == nw_box / (PI**N * P * Q)


def test_corr_matches_brute_force(led):
    sols_pq = [x for x in BOX if fval(x) % (P * Q) == 0]
    shifts = [(0, 0, 0), (1, 0, 0), (-2, 1, 3), (3, -3, 2), (4, 4, 4),
              (-7, 0, 0)]
    for y in shifts:
        cong = Fraction(0)
        for x in sols_pq:
            xy = tuple(x[i] + PI * y[i] for i in range(N))
            if fval(xy) % (P * Q) == 0:
                cong += wrat(x) * wrat(xy)
        fsum = sum(wrat(x) * wrat(tuple(x[i] + PI * y[i] for i in range(N)))
                   for x in BOX)
        assert led.corr(y) == cong - Fraction(1, (P * Q) ** 2) * fsum, y


def test_shift_record_matches_brute_force(led):
    y = (1, -1, 0)
    rec = led.shift_record(y)
    shifted = tuple(PI * c for c in y)
    sols_q = [x for x in BOX if fval(x) % Q == 0]

    inner = defaultdict(Fraction)
    for x in sols_q:
        xy = tuple(x[i] + shifted[i] for i in range(N))
        if fval(xy) % Q == 0:
            inner[tuple(c % P for c in x)] += wrat(x) * wrat(xy)
    fs_y = sum(wrat(x) * wrat(tuple(x[i] + shifted[i] for i in range(N)))
               for x in BOX)
    Ky = fs_y / (P**N * Q * Q)
    classes = list(itertools.product(range(P), repeat=N))
    Xy = [v for v in classes
          if fval(v) % P == 0
          and fval(tuple(v[i] + shifted[i] for i in range(N))) % P == 0]

    assert rec.fs_sum == fs_y
    assert rec.expected == Ky
    assert rec.pair_class_count == len(Xy)
    assert rec.first_moment == sum(inner[v] for v in Xy) - len(Xy) * Ky
    assert rec.second_moment == sum((inner[v] - Ky) ** 2 for v in classes)
    defect = Ky * (len(Xy) - P ** (N - 2))
    assert rec.class_defect == defect
    assert led.corr(y) - rec.first_moment == defect

    # refinement: split each class by the residue of the shifted value
    inner3 = defaultdict(Fraction)
    for x in sols_q:
        xy = tuple(x[i] + shifted[i] for i in range(N))
        inner3[(tuple(c % P for c in x), fval(xy) % Q)] += wrat(x) * wrat(xy)
    sig3 = sum((inner3[(v, a)] - Ky) ** 2
               for v in classes for a in range(Q))
    assert rec.refined_second_moment == sig3


def test_pair_correlation_matches_brute_force(led):
    sols_q = [x for x in BOX if fval(x) % Q == 0]
    pairs = [((1, 0, 0), (1, 0, 0)), ((0, 1, -1), (-1, 2, 0)),
             ((2, 2, 2), (0, 0, 0)), ((0, 0, 0), (1, -1, 2))]
    for yy, zz in pairs:
        sy = tuple(PI * c for c in yy)
        sz = tuple(P * c for c in zz)
        cong = Fraction(0)
        for x in sols_q:
            x1 = tuple(x[i] + sy[i] for i in range(N))
            x2 = tuple(x[i] + sz[i] for i in range(N))
            x3 = tuple(x[i] + sy[i] + sz[i] for i in range(N))
            if fval(x2) % Q == 0 and (fval(x3) - fval(x1)) % Q == 0:
                cong += wrat(x) * wrat(x1) * wrat(x2) * wrat(x3)
        fs2 = sum(wrat(x)
                  * wrat(tuple(x[i] + sy[i] for i in range(N)))
                  * wrat(tuple(x[i] + sz[i] for i in range(N)))
                  * wrat(tuple(x[i] + sy[i] + sz[i] for i in range(N)))
                  for x in BOX)
        expect = cong - Fraction(1, Q**3) * fs2
        assert led.corr2(yy, zz) == expect, (yy, zz)


def test_aggregate_recompute_matches(led):
    agg = aggregate_bound(led, recompute=True)
    assert agg["recomputed_matches"]
    assert agg["aggregate"] == pytest.approx(led.aggregate)


def test_shift_outside_table_rejected(led):
    with pytest.raises(InputError):
        led.corr((led.shift_range + 1, 0, 0))
    with pytest.raises(InputError):
        led.shift_record((0, -led.shift_range - 1, 0))


def test_corr2_requires_pair_table():
    led_np = build_ledger(PipelineParams(f=F, B=3, pi=2, p=3, q=5))
    with pytest.raises(PreconditionError):
        led_np.corr2((0, 0, 0), (0, 0, 0))
    with pytest.raises(PreconditionError):
        aggregate_bound(led_np)


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


def test_exact_ledger_with_float_level2():
    # at B=8 the level-2 int64 bound fails, so only level 2 leaves exact ints
    led_f = build_ledger(PipelineParams(f=F, B=8, pi=3, p=5, q=37,
                                        weight="hat", with_pair_table=True))
    assert led_f.exact
    assert led_f.pair_exact is False
    assert any("level 2 ran in float64" in w for w in led_f.warnings)
    assert len(led_f.residuals) == 9
    bad = [rc.name for rc in led_f.residuals.values() if not rc.ok]
    assert not bad, bad


@pytest.mark.parametrize("weight", ["hat", "smooth"])
def test_residual_checks_can_fail(weight):
    led_w = build_ledger(PipelineParams(f=F, B=3, pi=2, p=3, q=5,
                                        weight=weight))
    assert _residuals(led_w)["per_shift_defect"].ok
    sxy = led_w.sxy_num.copy()
    k = int(np.argmax(np.abs(sxy)))
    # one unit of the exact numerator scale; a 1e-6 relative error in float
    sxy[k] = sxy[k] + 1 if led_w.exact else sxy[k] * (1 + 1e-6)
    bad = _residuals(dataclasses.replace(led_w, sxy_num=sxy))
    assert not bad["per_shift_defect"].ok


# the README showcase, and an instance with pi^n = 125 classes (four groups
# of 32 in the correlation pass) whose hat run takes float64 level 2
CHUNK_CASES = {
    "showcase": dict(f=F, B=B, pi=PI, p=P, q=Q),
    "pi5": dict(f=F, B=6, pi=5, p=3, q=29),
}
CHUNKED_ARRAYS = ("corr_num", "t0_num", "t1_num", "ss2", "ss3", "sxy_num",
                  "pair_table", "qsum", "abs2_num")


@pytest.fixture(scope="module")
def default_ledgers():
    return {
        (case, weight): build_ledger(PipelineParams(
            **kw, weight=weight, with_pair_table=True))
        for case, kw in CHUNK_CASES.items() for weight in ("hat", "smooth")
    }


# the showcase joins ~1.9M pairs, so PAIR_BLOCK = 1 and 7 there take ~45 s
# and ~6 s per build; the smallest blocks run on the pi5 case only
@pytest.mark.parametrize("weight", ["hat", "smooth"])
@pytest.mark.parametrize("case, block", [
    ("showcase", 64), ("pi5", 1), ("pi5", 7), ("pi5", 64),
])
def test_pair_block_does_not_change_results(default_ledgers, monkeypatch,
                                            case, block, weight):
    ref = default_ledgers[(case, weight)]
    monkeypatch.setattr(pipeline, "PAIR_BLOCK", block)
    led = build_ledger(PipelineParams(**CHUNK_CASES[case], weight=weight,
                                      with_pair_table=True))
    for name in CHUNKED_ARRAYS:
        assert np.array_equal(getattr(led, name), getattr(ref, name)), name
    assert led.aggregate == ref.aggregate
    assert led.pair_exact == ref.pair_exact == (case == "showcase"
                                                and weight == "hat")


class RecordingBudget(Budget):
    def __init__(self):
        super().__init__()
        self.charges = defaultdict(int)

    def charge(self, amount, what="points"):
        super().charge(amount, what)
        self.charges[what] += int(amount)


@pytest.mark.parametrize("case", CHUNK_CASES)
def test_pair_charges_equal_emitted_pairs(monkeypatch, case):
    emitted = []
    join = pipeline._pair_join

    def counting_join(left, right):
        npairs, chunks = join(left, right)
        emitted.append(0)
        slot = len(emitted) - 1

        def counted():
            for li, ri in chunks:
                emitted[slot] += li.size
                yield li, ri
        return npairs, counted()

    monkeypatch.setattr(pipeline, "_pair_join", counting_join)
    budget = RecordingBudget()
    build_ledger(PipelineParams(**CHUNK_CASES[case], with_pair_table=True),
                 budget)
    # joins in call order: correlation, level 1, x-pairs, then the z batches
    corr, lvl1, xpairs = emitted[:3]
    assert budget.charges["correlation pairs"] == corr + lvl1
    assert budget.charges["second-difference pairs"] == xpairs


def test_showcase_budget_used(capsys):
    code = cli.dispatch(["pipeline", "--poly", "x1^3+x2^3+x3^3-x1*x2*x3",
                         "--n", "3", "--B", "4", "--pi", "2", "--p", "3",
                         "--q", "5", "--pair-table"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["run"]["budget"]["used"] == 4982227


def test_tables_match_brute_force_across_class_groups():
    # pi^n = 125 classes mod pi, so the correlation pass spans four groups
    b, pi, p, q = 4, 5, 3, 7
    led = build_ledger(PipelineParams(f=F, B=b, pi=pi, p=p, q=q, weight="hat",
                                      with_pair_table=True))
    assert led.exact and led.pair_exact
    h = 2 * b - 1
    box = list(itertools.product(range(-h, h + 1), repeat=N))
    fv = {x: fval(x) for x in box}
    wnum = {x: math.prod(2 * b - abs(c) for c in x) for x in box}
    sols_q = [x for x in box if fv[x] % q == 0]
    classes = list(itertools.product(range(p), repeat=N))
    zero_p = {v for v in classes if fval(v) % p == 0}

    def add(x, s):
        return tuple(x[i] + s[i] for i in range(N))

    Y = led.shift_range
    for y in itertools.product(range(-Y, Y + 1), repeat=N):
        k = led.shift_key(y)
        sy = tuple(pi * c for c in y)
        corr, inner = 0, defaultdict(int)
        for x in sols_q:
            c = add(x, sy)
            if c not in fv:
                continue
            inner[(tuple(t % p for t in x), fv[c] % q)] += wnum[x] * wnum[c]
            if fv[x] % (p * q) == 0 and fv[c] % (p * q) == 0:
                corr += wnum[x] * wnum[c]
        xy = {v for v in zero_p if tuple(t % p for t in add(v, sy)) in zero_p}
        at0 = {v: s for (v, a), s in inner.items() if a == 0}
        assert led.corr_num[k] == corr, y
        assert led.t0_num[k] == sum(inner.values()), y
        assert led.t1_num[k] == sum(at0.values()), y
        assert led.ss3[k] == sum(s * s for s in inner.values()), y
        assert led.ss2[k] == sum(s * s for s in at0.values()), y
        assert led.sxy_num[k] == sum(s for v, s in at0.items() if v in xy), y

    den = Fraction(1, (2 * b) ** (4 * N))
    for yy, zz in [((1, 0, 0), (1, 0, 0)), ((0, 1, -1), (-1, 2, 0)),
                   ((1, 1, 1), (0, 0, 0)), ((0, 0, 0), (1, -1, 2)),
                   ((-1, 0, 1), (2, 1, -2))]:
        sy = tuple(pi * c for c in yy)
        sz = tuple(p * c for c in zz)
        cong = full = 0
        for x in box:
            x1, x2, x3 = add(x, sy), add(x, sz), add(add(x, sy), sz)
            if not all(t in fv for t in (x1, x2, x3)):
                continue
            w4 = wnum[x] * wnum[x1] * wnum[x2] * wnum[x3]
            full += w4
            if (fv[x] % q == 0 and fv[x2] % q == 0
                    and (fv[x3] - fv[x1]) % q == 0):
                cong += w4
        assert led.corr2(yy, zz) == (cong - Fraction(full, q**3)) * den, (yy, zz)


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


def test_deviation_probe_rejects_bad_inputs():
    g = parse_poly("x1^3 + x2^3 + x3^3", 3)
    with pytest.raises(InputError):
        deviation_probe(g, B=8, p=5, q=5)  # equal primes
    with pytest.raises(InputError):
        deviation_probe(parse_poly("x1^3 + x2", 2), B=4, p=3, q=11)
