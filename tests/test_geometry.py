"""Dimension heuristics, singular loci, direction sweeps, and the prime
admissibility checks."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vdc.errors import Budget, BudgetExceeded, InputError, PreconditionError
from vdc import geometry
from vdc.ffield import FqPoly, enum_proj, field_make, proj_blocks, reduce_mod
from vdc.geometry import (
    _KERNEL_CHUNK,
    MAX_WITNESSES,
    RCheckPolicy,
    VarietySpec,
    _dim_est_array,
    _PrimeEngine,
    _r2_counts,
    _rank,
    _sigma_single,
    affine_count,
    dim_est,
    dim_est_affine,
    proj_space_size,
    r_check,
    sigma_sweep,
    sigma_y,
    sing_points,
    values_on,
)
from vdc.mpoly import directional_form, hessian_form, parse_poly

FERMAT5 = parse_poly("x1^4+x2^4+x3^4+x4^4+x5^4", 5)
# non-diagonal quartics: the first has no singular point over F_7 or F_49,
# the second is singular over F_5 (at (0:0:1:1:0))
QUARTIC4 = parse_poly("x1^4+2*x2^4-x3^4+x4^4+3*x1*x2^3-x3^2*x4^2", 4)
QUARTIC5 = parse_poly("x1^4-x2^4+2*x3^4+x4^4-3*x5^4+x1^2*x2^2+2*x3*x4^3", 5)


def test_proj_space_sizes():
    assert proj_space_size(-1, 7) == 0
    assert proj_space_size(0, 7) == 1
    assert proj_space_size(2, 7) == 57
    assert proj_space_size(4, 7) == 2801


def test_dim_est_hits_exact_space_sizes():
    for q in (3, 7, 101):
        for d in range(5):
            assert dim_est(proj_space_size(d, q), q) == d
    assert dim_est(0, 7) == -1
    assert dim_est(1, 7) == 0
    with pytest.raises(InputError):
        dim_est(-1, 7)


def _dim_est_scalar(count: int, q: int) -> int:
    """The threshold rule as a scalar loop: the least d with count^2 <=
    |P^d| * |P^(d+1)|, and -1 for the empty set."""
    if count < 0:
        raise InputError("negative count", count=count)
    if count == 0:
        return -1
    d = 0
    c2 = count * count
    while c2 > proj_space_size(d, q) * proj_space_size(d + 1, q):
        d += 1
    return d


def test_dim_est_array_matches_scalar():
    for p in (2, 3, 5, 7):
        for n in range(1, 6):
            counts = np.arange(proj_space_size(n - 1, p) + 1)
            want = [_dim_est_scalar(int(c), p) for c in counts]
            assert _dim_est_array(counts, p).tolist() == want, (p, n)
            assert [dim_est(int(c), p) for c in counts[::7]] == want[::7]
    # squares that reach 2^63 compare as Python ints
    big = np.array([0, 7, 3 * 10**9, 4 * 10**9, 2**40, 2**62], dtype=np.int64)
    assert _dim_est_array(big, 7).tolist() == [_dim_est_scalar(int(c), 7) for c in big]
    assert dim_est(2**40, 2) == _dim_est_scalar(2**40, 2)
    with pytest.raises(InputError):
        _dim_est_array(np.array([3, -1]), 7)


def test_dim_est_affine_thresholds():
    # q^(d-1/2) < c <= q^(d+1/2), exact integer comparisons
    q = 49
    assert dim_est_affine(1, q) == 0
    assert dim_est_affine(7, q) == 0  # boundary: c^2 == q^(2*0+1)
    assert dim_est_affine(8, q) == 1
    assert dim_est_affine(q * 7, q) == 1
    assert dim_est_affine(q * 7 + 1, q) == 2


def _rank_rows(fld, rows: list[list[int]]) -> int:
    """Exact rank of a small matrix over F_q by Gaussian elimination."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = fld.inv(rows[rank][col])
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                c = fld.mul(rows[i][col], inv)
                rows[i] = [
                    fld.sub(a, fld.mul(c, b)) for a, b in zip(rows[i], rows[rank])
                ]
        rank += 1
        col += 1
    return rank


def _degenerate_rows(rng, fld, r, n):
    """r rows over fld: random, or copies and multiples of one row, or zero."""
    base = [rng.randrange(fld.q) for _ in range(n)]
    pick = [list(base), [fld.mul(rng.randrange(fld.q), v) for v in base], [0] * n,
            [rng.randrange(fld.q) for _ in range(n)]]
    return [list(pick[rng.randrange(4)]) for _ in range(r)]


def test_rank_paths_agree():
    """The batched elimination and the scalar Gaussian elimination give the
    same rank on random and degenerate matrices over F_73."""
    fld = field_make(73)
    rng = random.Random(44)
    n = 4
    for r in (2, 3):
        rows_batch = [[[rng.randrange(73) for _ in range(n)] for _ in range(r)]
                      for _ in range(200)]
        rows_batch += [_degenerate_rows(rng, fld, r, n) for _ in range(100)]
        got = _rank(fld, np.array(rows_batch, dtype=np.int64))
        assert got.tolist() == [_rank_rows(fld, rows) for rows in rows_batch]


def _row_reduce_full_width(fld, A):
    """_row_reduce as it was before it skipped the columns left of the
    pivot: every step updates the whole (M, r, n) stack."""
    M, r, n = A.shape
    rows = np.arange(M)
    used = np.zeros((M, r), dtype=bool)
    prow = np.full((M, n), -1, dtype=np.int64)
    for c in range(n):
        cand = (A[:, :, c] != 0) & ~used
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        pr = A[rows, piv]
        pr = fld.mul_array(pr, np.where(has, fld.inv_array(pr[:, c]), 0)[:, None])
        A = fld.sub_mul_array(A, A[:, :, c, None], pr[:, None, :])
        A[rows[has], piv[has]] = pr[has]
        used[rows[has], piv[has]] = True
        prow[has, c] = piv[has]
    return A, prow


def _assert_row_reduce_matches_full_width(fld, A):
    """The whole reduced stack and prow, not just the rank: _kernel_counts
    reads A's entries.  The input stack is left as it was."""
    before = A.copy()
    got, prow = geometry._row_reduce(fld, A)
    want, want_prow = _row_reduce_full_width(fld, before)
    assert np.array_equal(A, before)
    assert np.array_equal(got, want) and np.array_equal(prow, want_prow)


@st.composite
def _rank_stacks(draw):
    """A field (F_p or F_{p^k}, k <= 3) and a stack of r x n matrices whose
    rows are random, duplicated, scaled or zero."""
    p, k = draw(st.sampled_from([(2, 1), (5, 1), (73, 1), (2, 2), (2, 3), (3, 2),
                                 (3, 3), (7, 2)]))
    fld = field_make(p, k)
    r, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return fld, [_degenerate_rows(rng, fld, r, n) for _ in range(draw(st.integers(1, 12)))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_rank_stacks())
def test_batched_rank_matches_gaussian_elimination(case):
    fld, stack = case
    got = _rank(fld, np.array(stack, dtype=np.int64))
    assert got.tolist() == [_rank_rows(fld, rows) for rows in stack]
    _assert_row_reduce_matches_full_width(fld, np.array(stack, dtype=np.int64))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rank_one_mask_matches_gauss_over_extensions(p):
    """sing_points reads rank < 1 as every Jacobian entry being the zero
    code; a code that is a multiple of p is a nonzero element of F_{p^2},
    so the elimination and the scalar oracle must count it as nonzero."""
    fld = field_make(p, 2)
    forms = [
        parse_poly("x1^4+x2^4+x3^4", 3),  # smooth
        parse_poly("x1^2*x2^2+x3^4", 3),  # singular at (1:0:0), (0:1:0)
        parse_poly("x1*x2*x3^2", 3),  # singular along lines
    ]
    seen_multiple_of_p = False
    for f in forms:
        F = reduce_mod(f, fld)
        pts = enum_proj(fld, 3)
        jac = np.stack([values_on(F.partial(i), pts) for i in (1, 2, 3)], axis=1)
        seen_multiple_of_p |= bool(np.any((jac != 0) & (jac % p == 0)))
        want = [_rank_rows(fld, [list(map(int, row))]) < 1 for row in jac]
        assert (_rank(fld, jac[:, None]) < 1).tolist() == want
        on = values_on(F, pts) == 0
        rep = sing_points(VarietySpec(fld, 3, (F,)))
        assert rep.sing_points == int(np.count_nonzero(np.array(want) & on))
    assert seen_multiple_of_p
    # a form with a coefficient outside F_p
    F = FqPoly(fld, 3, {(4, 0, 0): p, (0, 4, 0): 1, (0, 0, 4): 1, (2, 2, 0): 1})
    pts = enum_proj(fld, 3)
    jac = np.stack([values_on(F.partial(i), pts) for i in (1, 2, 3)], axis=1)
    want = [_rank_rows(fld, [list(map(int, row))]) < 1 for row in jac]
    assert (_rank(fld, jac[:, None]) < 1).tolist() == want


def test_sing_points_rank_matches_gauss_for_two_forms():
    """With r >= 2 forms sing_points eliminates the Jacobian stack: its
    singular points are those where the scalar oracle finds rank < r."""
    for fld, forms in [(field_make(7, 2), ("x1^2+x2*x3", "x2^2+x1*x4")),
                       (field_make(2, 3), ("x1*x2+x3^2", "x2*x4+x1^2", "x3*x4"))]:
        F = [reduce_mod(parse_poly(f, 4), fld) for f in forms]
        for r in range(2, len(F) + 1):
            rep = sing_points(VarietySpec(fld, 4, tuple(F)), expected_codim=r)
            pts = enum_proj(fld, 4)
            vpts = pts[np.all([values_on(f, pts) == 0 for f in F], axis=0)]
            jac = [[[int(values_on(f.partial(i), vpts[m : m + 1])[0]) for i in range(1, 5)]
                    for f in F[:r]] for m in range(len(vpts))]
            sing = [tuple(map(int, v)) for v, rows in zip(vpts, jac) if _rank_rows(fld, rows) < r]
            assert rep.total_points == len(vpts) and rep.sing_points == len(sing)
            assert rep.witnesses == sing[: geometry.MAX_WITNESSES]


def test_variety_spec_refuses_a_form_over_another_field():
    # read over F_3, the F_9 coefficient 4 (the element x + 1) would become 1
    F9 = FqPoly(field_make(3, 2), 3, {(2, 0, 0): 4, (0, 2, 0): 1})
    with pytest.raises(InputError):
        VarietySpec(field_make(3), 3, (F9,))


def test_affine_count_refuses_a_form_over_another_field():
    F7 = reduce_mod(parse_poly("x1^2+x2^2-x3^2", 3), field_make(7))
    with pytest.raises(InputError):
        affine_count([F7], field_make(5), 3)
    assert affine_count([F7], field_make(7), 3) == affine_count(
        [parse_poly("x1^2+x2^2-x3^2", 3)], field_make(7), 3)
    # a zero form imposes nothing
    assert affine_count([FqPoly(field_make(7), 3), F7], field_make(7), 3) == affine_count(
        [F7], field_make(7), 3)
    assert affine_count([parse_poly("7*x1", 3)], field_make(7), 3) == 7**3


def test_sweeps_refuse_a_form_over_another_field():
    """r_check, sigma_sweep and sigma_y take an FqPoly over F_p only, and it
    reads as the IntPoly it reduces."""
    f = parse_poly("x1^4+x2^4+x3^4+x1*x2*x3^2", 3)
    F5, F7 = (reduce_mod(f, field_make(m)) for m in (5, 7))

    def sweep(F):
        out = sigma_sweep(F, 7)
        return out.p, [a.tolist() for a in (out.directions, out.s, out.s_tilde, out.sigma)]

    for run in (lambda F: r_check(F, 7), lambda F: r_check(F, 7, which=("r0", "r1")),
                lambda F: sigma_y(F, [1, 2, 6], p=7), sweep):
        with pytest.raises(InputError, match="another field"):
            run(F5)
        assert run(F7) == run(f)


def test_fermat_quintic_quartic_is_smooth_over_f7():
    rep = sing_points(VarietySpec(field_make(7), 5, (FERMAT5,)))
    assert rep.total_points == 400
    assert rep.sing_points == 0
    assert rep.dim_est_variety == 3
    assert rep.dim_est_sing == -1


def test_singular_quadric_found():
    # V(x1*x2) in P^2 is two planes meeting in the singular point (0:0:1)
    f = parse_poly("x1*x2", 3)
    rep = sing_points(VarietySpec(field_make(5), 3, (f,)))
    assert rep.sing_points == 1
    assert rep.witnesses == [(0, 0, 1)]


def test_identically_zero_form_marks_everything_singular():
    f = parse_poly("5*x1^2", 2)
    rep = sing_points(VarietySpec(field_make(5), 2, (f,)))
    assert rep.total_points == rep.sing_points == proj_space_size(1, 5)


def test_complete_intersection_codim2():
    fld = field_make(11)
    forms = (parse_poly("x1*x4-x2*x3", 4), parse_poly("x1^2+x2^2-x3^2-x4^2", 4))
    rep = sing_points(VarietySpec(fld, 4, forms), expected_codim=2)
    assert rep.total_points == 24
    assert rep.dim_est_variety == 1
    assert rep.sing_points == 0
    assert rep.expected_codim == 2


# (p, k, n) with q^n small enough for a row oracle over all of F_q^n
SCAN_CASES = [(p, k, n) for p, k in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2),
                                     (5, 2), (2, 3), (3, 3)]
              for n in range(1, 5) if (p**k) ** n <= 2**14]


@st.composite
def _scan_forms(draw):
    """A field, n, and a homogeneous form over it (the zero form included):
    each term a coefficient times a product of d drawn variables."""
    p, k, n = draw(st.sampled_from(SCAN_CASES))
    fld = field_make(p, k)
    d = draw(st.integers(0, 6))
    monos = st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(
        lambda vs: tuple(vs.count(i) for i in range(n)))
    terms = draw(st.dictionaries(monos, st.integers(1, fld.q - 1), max_size=4))
    return fld, n, FqPoly(fld, n, terms)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_scan_forms())
def test_scans_on_boxes_match_rows(case):
    """The form on enum_proj's blocks, read in order, is values_on over
    enum_proj; sing_points' points and witnesses and affine_count agree
    with scans over point rows."""
    fld, n, F = case
    pts = enum_proj(fld, n)
    rows = values_on(F, pts)
    blocks = np.concatenate([geometry._eval_terms(F.terms, cols, shape, fld).ravel()
                             for cols, shape in proj_blocks(fld, n)])
    assert np.array_equal(blocks, rows)
    rep = sing_points(VarietySpec(fld, n, (F,)))
    vpts = pts[rows == 0]
    jac = np.stack([values_on(F.partial(i), vpts) for i in range(1, n + 1)], axis=1)
    sing = vpts[~np.any(jac != 0, axis=1)]
    assert rep.total_points == len(vpts) and rep.sing_points == len(sing)
    assert rep.witnesses == [tuple(map(int, w)) for w in sing[:geometry.MAX_WITNESSES]]
    grid = np.indices((fld.q,) * n).reshape(n, -1).T
    assert affine_count([F], fld, n) == int(np.count_nonzero(values_on(F, grid) == 0))


def test_sing_points_charges_the_enumeration_before_evaluating(monkeypatch):
    fld, n = field_make(3, 2), 3
    spec = VarietySpec(fld, n, (reduce_mod(parse_poly("x1^4+x2^4+x1*x2*x3^2", n), fld),))
    charges, evaluated = [], []

    class Recording(Budget):
        def charge(self, amount, what="points"):
            charges.append((amount, what))
            super().charge(amount, what)

    def spy(*args):
        evaluated.append(1)
        return evaluate(*args)

    evaluate = geometry._eval_terms
    monkeypatch.setattr(geometry, "_eval_terms", spy)
    sing_points(spec, budget=Recording())
    assert charges == [(fld.q**n, "projective enumeration")] and evaluated
    charges.clear()
    evaluated.clear()
    with pytest.raises(BudgetExceeded):
        sing_points(spec, budget=Recording(fld.q**n - 1))
    assert len(charges) == 1 and not evaluated


def test_sigma_y_fermat_axis_and_diagonal():
    """Pinned degeneracy data for the n=5 quartic over F_7: the axis
    direction is badly degenerate, the diagonal not at all."""
    axis = sigma_y(FERMAT5, [1, 0, 0, 0, 0], p=7)
    assert (axis.s_tilde, axis.s) == (3, 2)
    assert axis.sigma == 3
    diag = sigma_y(FERMAT5, [1, 1, 1, 1, 1], p=7)
    assert diag.sigma == -1
    with pytest.raises(PreconditionError):
        sigma_y(FERMAT5, [7, 0, 0, 0, 0], p=7)  # zero mod p


@pytest.mark.parametrize("form,p", [
    (FERMAT5, 3), (FERMAT5, 5), (FERMAT5, 7),
    (parse_poly("x1^4+x2^4+x3^4", 3), 5),
    (QUARTIC4, 7), (QUARTIC5, 5),
], ids=["fermat5-3", "fermat5-5", "fermat5-7", "fermat3-5", "quartic4-7", "quartic5-5"])
def test_sigma_sweep_matches_per_direction_oracle(form, p):
    sweep = sigma_sweep(form, p)
    eng = _PrimeEngine(reduce_mod(form, field_make(p)))
    assert np.array_equal(sweep.directions, eng.pts)
    for j, y in enumerate(sweep.directions):
        rep = _sigma_single(eng, y)
        got = (sweep.s[j], sweep.s_tilde[j], sweep.sigma[j])
        assert got == (rep.s, rep.s_tilde, rep.sigma), tuple(y)


def test_sigma_sweep_same_in_small_chunks(monkeypatch):
    want = sigma_sweep(QUARTIC4, 7)
    monkeypatch.setattr(geometry, "_KERNEL_CHUNK", 7)
    got = sigma_sweep(QUARTIC4, 7)
    for name in ("s", "s_tilde", "sigma"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_fermat5_s_tilde_closed_form_at_p11():
    # F_y has gradient 12 (y_i x_i^2)_i, so Sing V(F_y) is the coordinate
    # subspace on the zeros of y when p does not divide 12
    sweep = sigma_sweep(FERMAT5, 11)
    zeros = np.count_nonzero(sweep.directions == 0, axis=1)
    assert np.array_equal(sweep.s_tilde, zeros - 1)


@pytest.mark.parametrize("form,p", [(FERMAT5, 5), (QUARTIC4, 7), (QUARTIC5, 5)],
                         ids=["fermat5-5", "quartic4-7", "quartic5-5"])
def test_r2_counts_match_triple_singular_scan(form, p):
    fld = field_make(p)
    eng = _PrimeEngine(reduce_mod(form, fld))
    rng = random.Random(p * 100 + form.n)
    ys = [eng.pts[0]] + [eng.pts[rng.randrange(eng.N)] for _ in range(3)]
    checked_nonzero = 0
    for y in ys:
        counts = _r2_counts(eng, y)
        hits = np.flatnonzero(counts)
        zs = list(rng.sample(range(eng.N), 3))
        zs += list(hits[: 2]) if hits.size else []
        for zi in zs:
            z = [int(c) for c in eng.pts[zi]]
            yl = [int(c) for c in y]
            spec = VarietySpec(fld, form.n, (form, directional_form(form, yl),
                                             hessian_form(form, yl, z)))
            want = sing_points(spec, expected_codim=3).sing_points
            assert counts[zi] == want, (yl, z)
            checked_nonzero += want > 0
    assert checked_nonzero


def _r2_counts_one_y(eng, y):
    """_r2_counts for a single direction, as it was before directions were
    stacked: the points of V(F, F_y) and one kernel count."""
    p, n = eng.p, eng.n
    sel = eng.grad[eng.on] @ y % p == 0
    a = eng.grad[eng.on[sel]]
    b = np.tensordot(eng.hess[eng.on[sel]], y, axes=([1], [0])) % p
    A = np.tensordot(eng.third[sel], y, axes=([1], [0])) % p
    pm = (a[:, :, None] * b[:, None, :] - a[:, None, :] * b[:, :, None]) % p
    i, j, l = np.array(list(combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3).T
    minors = (pm[:, i, j, None] * A[:, l] - pm[:, i, l, None] * A[:, j]
              + pm[:, j, l, None] * A[:, i])
    return geometry._kernel_counts(eng, np.concatenate([b[:, None], minors], axis=1))[0]


@pytest.mark.parametrize("form,p", [
    (FERMAT5, 3), (QUARTIC4, 5), (parse_poly("x1^4+x2^4+x3^4", 3), 7),
], ids=["fermat5-3-every-fiber-P4", "quartic4-5-nonsingular", "fermat3-7-empty-directions"])
def test_r2_counts_stacked_match_one_direction_at_a_time(form, p, monkeypatch):
    eng = _PrimeEngine(reduce_mod(form, field_make(p)))
    rng = random.Random(p)
    ys = eng.pts[sorted(rng.sample(range(eng.N), min(eng.N, 40)))]
    empty = ~np.any(eng.grad[eng.on] @ ys.T % p == 0, axis=0)
    want = np.array([_r2_counts_one_y(eng, y) for y in ys])
    if form is FERMAT5:
        # p divides d - 1: every point of V(F, F_y) counts for every z
        assert np.array_equal(want, np.repeat(want[:, :1], eng.N, axis=1))
        assert want.min() > 0
    if form.n == 3:
        assert empty.any() and not want[empty].any()
    calls = []

    def counting_kernel(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    kernel = geometry._kernel_counts
    monkeypatch.setattr(geometry, "_kernel_counts", counting_kernel)
    assert np.array_equal(_r2_counts(eng, ys), want)
    assert len(calls) == 1
    # a block's largest temporary is the third-derivative tensor on the
    # points of V(F), |V(F)| n^3 entries per direction (n <= 8): three per block
    monkeypatch.setattr(geometry, "_KERNEL_CHUNK", 3 * eng.on.size * form.n**3)
    calls.clear()
    assert np.array_equal(_r2_counts(eng, ys), want)
    assert len(calls) == -(-len(ys) // 3)


def _t_rows_one(values, base, n, q):
    """One row of _t_rows as it was before the table was batched: (s,
    count, dim, bound, ok) for s = -1..n-1, counts by sort and searchsorted."""
    counts = values.size - np.searchsorted(np.sort(values), base + np.arange(n + 1))
    dims = _dim_est_array(counts, q).tolist()
    return [(s, c, d, n - 2 - s, d <= n - 2 - s)
            for s, c, d in zip(range(-1, n), counts.tolist(), dims)]


def _t_rows_per_y(values, bases, n, q):
    """_t_rows by a loop over the rows of values, one _t_rows_one each."""
    rows = [_t_rows_one(v, int(b), n, q) for v, b in zip(values, bases)]
    counts, dims, fail = (np.array([[row[i] for row in t] for t in rows], dtype=np.int64)
                          .reshape(len(rows), n + 1) for i in (1, 2, 4))
    return counts, dims, fail == 0


@pytest.mark.parametrize("form,p", [
    (FERMAT5, 7), (QUARTIC5, 5),
    (parse_poly("-x1^4+3*x2^4+x3^4+x3^2*x4^2-3*x3*x4^3+3*x4^4", 4), 7),
], ids=["fermat5-7-sampled", "quartic5-5", "quartic4-7-r2-failures"])
def test_r2_table_batched_matches_per_y_loop(form, p, monkeypatch):
    """The R2 verdict table in one batch against a loop over the tested y,
    one sort and searchsorted each: the same R2Result, with the failures
    in (y, s) order and cut at MAX_WITNESSES, all of them Python ints."""
    got = r_check(form, p)
    monkeypatch.setattr(geometry, "_t_rows", _t_rows_per_y)
    want = r_check(form, p)
    assert got.r1 == want.r1 and got.r2 == want.r2
    assert got.r2.sampled == (proj_space_size(form.n - 1, p) > geometry.R2_EXHAUSTIVE_LIMIT)
    assert all(type(v) is int for f in got.r2.failures for v in (*f[0], *f[1:]))
    # every failure, uncut, from the per-y rows in the order R2 tests the y
    sweep = sigma_sweep(form, p)
    rng = np.random.default_rng(RCheckPolicy().seed)
    chosen = np.sort(rng.choice(sweep._engine.N, size=64, replace=False))
    syz = _dim_est_array(_r2_counts(sweep._engine, sweep.directions[chosen]), p)
    every = [(tuple(map(int, sweep.directions[yi])), s, dim, bound, count)
             for yi, row in zip(chosen, syz)
             for s, count, dim, bound, ok in _t_rows_one(row, int(sweep.sigma[yi]), form.n, p)
             if not ok]
    assert got.r2.failures == every[:MAX_WITNESSES]
    assert every and (len(every) > MAX_WITNESSES or form is QUARTIC5)  # 17, 2 and 17


def test_t_set_monotone_in_s():
    f = parse_poly("x1^4+x2^4+x3^4", 3)
    table = r_check(f, 5, which=("r1",)).r1.table
    assert [row[0] for row in table] == [-1, 0, 1, 2]
    counts = [count for _, count, _, _, _ in table]
    assert counts[0] == proj_space_size(2, 5)  # sigma >= -1 is everything
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    sweep = sigma_sweep(f, 5)
    assert counts == [int(np.count_nonzero(sweep.sigma >= s)) for s in range(-1, 3)]


def test_r_check_diagonal_certification_and_failure():
    rep = r_check(FERMAT5, 7)
    assert rep.r0.verdict == "certified"
    # T_3 is the five coordinate directions: geometric dimension 0, equal
    # to the bound, but five points read as a curve by dim_est at p = 7,
    # so the verdict is "fails" although R1 is not shown false here
    assert rep.r1.verdict == "fails"
    row = {s: (count, dim, bound) for s, count, dim, bound, _ in rep.r1.table}
    assert row[3][0] > 0  # T_3 is nonempty (the five axes)


def test_r_check_reuses_the_sweep_engine(monkeypatch):
    built = []

    class CountingEngine(_PrimeEngine):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(geometry, "_PrimeEngine", CountingEngine)
    rep = r_check(QUARTIC4, 7)
    assert rep.r2.y_tested == 64
    assert len(built) == 1


def test_r_check_enumerates_the_sweep_points_once(monkeypatch):
    calls = []

    def counting_enum(fld, n, budget=None):
        calls.append(fld.q)
        return enum_proj(fld, n, budget)

    monkeypatch.setattr(geometry, "enum_proj", counting_enum)
    rep = r_check(QUARTIC4, 7)
    # R0 scans F_7 and F_49 on boxes; only the sweep engine builds rows
    assert rep.r0.verdict == "holds_empirically" and rep.r0.scanned_extensions == [1, 2]
    assert rep.r2.y_tested == 64
    assert calls == [7]


def _kernel_counts_by_lead(eng: _PrimeEngine, L: np.ndarray, group: np.ndarray | None = None,
                           groups: int = 1) -> np.ndarray:
    """counts[g, j] = #{m in group g : L[m] y = 0} for y = eng.pts[j], over F_p.

    L is an (M, r, n) stack of matrices and group[m] in [0, groups) the
    group of L[m] (all 0 when not given).  All M are brought to reduced
    row echelon form at once, one column per step; the projective points
    of each nonzero kernel are then enumerated (as combinations of its
    basis by the points of P^(k-1)) and their enum_proj indices counted
    per group.  The work is the number of incidences, not M times
    |P^(n-1)|.
    """
    p, n, pts = eng.p, eng.n, eng.pts
    inv = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64)
    Ny = pts.shape[0]
    counts = np.zeros(groups * Ny, dtype=np.int64)
    A = L % p
    M, r, _ = A.shape
    if M == 0:
        return counts.reshape(groups, Ny)
    offset = (np.zeros(M, dtype=np.int64) if group is None else group) * Ny
    rows = np.arange(M)
    used = np.zeros((M, r), dtype=bool)
    prow = np.full((M, n), -1, dtype=np.int64)  # row holding column c's pivot
    for c in range(n):
        cand = (A[:, :, c] != 0) & ~used
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        pr = A[rows, piv]
        pr = pr * np.where(has, inv[pr[:, c]], 0)[:, None] % p
        A = (A - A[:, :, c, None] * pr[:, None, :]) % p
        A[rows[has], piv[has]] = pr[has]
        used[rows[has], piv[has]] = True
        prow[has, c] = piv[has]
    free = prow < 0
    k = free.sum(axis=1)
    # index of a point whose first nonzero coordinate, at `lead`, is 1:
    # the offset of lead's block plus the base-p value of the rest
    pw = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    base = np.concatenate(([0], np.cumsum(pw)[:-1])) - pw
    eye = np.eye(n, dtype=np.int64)
    for kk in np.unique(k[k > 0]):
        sel = np.flatnonzero(k == kk)
        # basis vector of free column f: 1 at f, -A[pivot row of c, f] at
        # each pivot column c, 0 at the other free columns
        P = np.take_along_axis(A[sel], np.maximum(prow[sel], 0)[:, :, None], axis=1)
        full = np.where(free[sel][:, None, :], eye, -P.transpose(0, 2, 1) % p)
        basis = full[free[sel]].reshape(sel.size, kk, n)
        C = pts[Ny - proj_space_size(kk - 1, p):, n - kk:]  # P^(kk-1)
        cc = min(C.shape[0], max(1, _KERNEL_CHUNK // n))
        mc = max(1, _KERNEL_CHUNK // (cc * n))
        for lo in range(0, C.shape[0], cc):
            Cc = C[lo : lo + cc]
            for mlo in range(0, sel.size, mc):
                V = np.matmul(Cc, basis[mlo : mlo + mc]) % p  # (m, c, n)
                lead = (V != 0).argmax(axis=2)
                lv = np.take_along_axis(V, lead[:, :, None], axis=2)[:, :, 0]
                V = V * inv[lv][:, :, None] % p
                idx = offset[sel[mlo : mlo + mc], None] + base[lead] + V @ pw
                counts += np.bincount(idx.ravel(), minlength=groups * Ny)
    return counts.reshape(groups, Ny)


def _kernel_counts_by_matmul(eng: _PrimeEngine, L: np.ndarray, group: np.ndarray | None = None,
                             groups: int = 1) -> np.ndarray:
    """_kernel_counts as it was before it coded kernel points from their
    pivot columns: each point is a matmul of P^(k-1) by the kernel's basis,
    reduced mod p in all n coordinates and coded by V @ pw."""
    p, n, pts = eng.p, eng.n, eng.pts
    Ny = pts.shape[0]
    counts = np.zeros(groups * Ny, dtype=np.int64)
    M = L.shape[0]
    if M == 0:
        return counts.reshape(groups, Ny)
    offset = (np.zeros(M, dtype=np.int64) if group is None else group) * Ny
    A, prow = _row_reduce_full_width(eng.F.field, L % p)
    free = prow < 0
    k = free.sum(axis=1)
    eye = np.eye(n, dtype=np.int64)
    for kk in np.unique(k[k > 0]):
        sel = np.flatnonzero(k == kk)
        # basis vector of free column f: 1 at f, -A[pivot row of c, f] at
        # each pivot column c, 0 at the other free columns
        P = np.take_along_axis(A[sel], np.maximum(prow[sel], 0)[:, :, None], axis=1)
        full = np.where(free[sel][:, None, :], eye, -P.transpose(0, 2, 1) % p)
        basis = full[free[sel]].reshape(sel.size, kk, n)
        C = pts[Ny - proj_space_size(kk - 1, p):, n - kk:]  # P^(kk-1)
        cc = min(C.shape[0], max(1, _KERNEL_CHUNK // n))
        mc = max(1, _KERNEL_CHUNK // (cc * n))
        for lo in range(0, C.shape[0], cc):
            Cc = C[lo : lo + cc]
            for mlo in range(0, sel.size, mc):
                V = np.matmul(Cc, basis[mlo : mlo + mc]) % p  # (m, c, n)
                idx = offset[sel[mlo : mlo + mc], None] + eng.index[V @ eng.pw]
                counts += np.bincount(idx.ravel(), minlength=groups * Ny)
    return counts.reshape(groups, Ny)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_kernel_counts_by_table_match_lead_normalising(p, monkeypatch):
    """The pivot-column coding against the matmul enumeration and the kernel
    count that normalised each point by its leading coordinate, on random
    stacks of every kernel dimension (low-rank rows drawn as combinations,
    zero matrices included), with groups and without.  A chunk of n p^2
    entries takes p^2 points of P^(k-1) and one matrix at a time, so for
    k >= 3 the chunks split both the points and the matrices."""
    rng = np.random.default_rng(p)
    for n in range(1, 6):
        eng = _PrimeEngine(FqPoly(field_make(p), n, {(2,) + (0,) * (n - 1): 1}))
        for r in range(1, n + 2):
            M, groups = 40, int(rng.integers(1, 5))
            rank = rng.integers(0, min(r, n) + 1, size=M)
            L = rng.integers(0, p, size=(M, r, n))
            L[np.arange(r) >= rank[:, None]] = 0  # rank[m] nonzero rows
            L = rng.integers(0, p, size=(M, r, r)) @ L  # mixed, rank <= rank[m]
            group = rng.integers(0, groups, size=M)
            _assert_row_reduce_matches_full_width(eng.F.field, L % p)
            want = _kernel_counts_by_matmul(eng, L, group, groups)
            assert np.array_equal(want, _kernel_counts_by_lead(eng, L, group, groups))
            want_one = _kernel_counts_by_matmul(eng, L)
            for chunk in (_KERNEL_CHUNK, n * p * p):
                monkeypatch.setattr(geometry, "_KERNEL_CHUNK", chunk)
                assert np.array_equal(geometry._kernel_counts(eng, L, group, groups), want)
                assert np.array_equal(geometry._kernel_counts(eng, L), want_one)


def test_r_check_char_divides_exponent_fails_r0():
    f = parse_poly("x1^4+x2^4+x3^4", 3)
    rep = r_check(f, 2, which=("r0",))
    assert rep.r0.verdict in ("fails", "holds_empirically")
    # x^4 = x over F_2 turns the quartic into a hyperplane-like locus with
    # vanishing gradient; the scan must find singular points
    assert rep.r0.verdict == "fails"


def test_r_check_which_subsets():
    f = parse_poly("x1^4+x2^4+x3^4", 3)
    rep = r_check(f, 5, which=("r0",))
    assert rep.r0.verdict == "certified"
    assert rep.r1.verdict == "not_requested"
    assert rep.r2.verdict == "not_requested"
    rep = r_check(f, 5, which=("r2",))
    assert rep.r0.verdict == "not_requested"
    assert rep.r1.verdict == "not_requested"
    assert rep.r2.verdict in ("holds_empirically", "fails")
    with pytest.raises(InputError):
        r_check(f, 5, which=("r0", "r9"))
    with pytest.raises(InputError):
        r_check(f, 5, which=())


def test_r_check_zero_form():
    f = parse_poly("5*x1^4+5*x2^4", 2)
    rep = r_check(f, 5)
    assert rep.r0.verdict == rep.r1.verdict == rep.r2.verdict == "fails"
    with pytest.raises(InputError):
        r_check(f, 5, which=("r9",))


def test_r2_samples_must_be_positive():
    for bad in (0, -3):
        with pytest.raises(InputError):
            RCheckPolicy(r2_samples=bad)
    assert RCheckPolicy(r2_samples=1).r2_samples == 1
    with pytest.raises(InputError):  # np.random.default_rng refuses it
        RCheckPolicy(seed=-1)
    assert RCheckPolicy(seed=0).seed == 0


def test_r_check_budget_refusal_is_explicit():
    rep = r_check(FERMAT5, 7, budget=Budget(10))
    assert rep.r0.verdict == "certified"  # no enumeration needed
    assert rep.r1.verdict == "skipped_budget"
    assert rep.r2.verdict == "skipped_budget"
    assert rep.warnings


def test_r0_and_r2_skip_for_budget():
    """R0 over F_7 needs 7^4 points and is skipped under a 2,000 budget.
    Under 500,000, R1's sweep charges 8,801 and the R2 sweep that follows
    does not fit."""
    f = parse_poly("x1^4+x1*x2^3+x2^4+x3^4+x4^4-x1^2*x3^2", 4)
    rep = r_check(f, 7, which=("r0",), budget=Budget(2000))
    assert rep.r0.verdict == "skipped_budget"
    assert rep.warnings == ["R0 scan skipped: budget"]
    budget = Budget(500_000)
    rep = r_check(f, 7, which=("r1", "r2"), budget=budget)
    assert budget.used == 8801
    assert rep.r2.verdict == "skipped_budget"
    assert rep.r2.note == "second-difference sweep over budget"
    assert rep.r2.y_tested == 0


def test_budget_stops_enumeration_before_work():
    quartic4 = parse_poly("x1^4+x2^4+x3^4+x4^4", 4)
    with pytest.raises(BudgetExceeded):
        sing_points(VarietySpec(field_make(11), 4, (quartic4,)),
                    budget=Budget(5))


def test_r2_sampling_is_deterministic(monkeypatch):
    monkeypatch.setattr(geometry, "R2_EXHAUSTIVE_LIMIT", 4)
    f = parse_poly("x1^4+x2^4+x3^4+2*x1*x2*x3^2", 3)
    pol = RCheckPolicy(r2_samples=8, seed=9)
    a = r_check(f, 5, pol)
    b = r_check(f, 5, pol)
    assert a.r2.sampled and b.r2.sampled
    assert a.r2.y_tested == b.r2.y_tested == 8
    assert a.r2.failures == b.r2.failures
