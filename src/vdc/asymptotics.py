"""Exact rational bookkeeping for the exponent side of the method.

Everything here manipulates exponents of B, pi, p, q as exact fractions —
no floating point.  The headline quantity is

    thm_exponent(n) = n - 4 + (37n - 18)/(n^2 + 8n - 4),

the exponent of B the double-differencing argument proves for non-singular
quartic forms in n >= 5 variables once the moduli are sized as

    pi ~ B^alpha,  p ~ B^beta,  q ~ B^gamma,
    alpha = (n^2-n-2)/(n^2+8n-4),  beta = (n^2-2n+8)/(n^2+8n-4),
    gamma = 2 alpha.

`aggregate_term_exponents` expands the ten-term bound on the level-2
aggregate and reports which terms dominate (for n >= 11 it must be terms
1, 2 and 9, all equal to the headline exponent).  Terms 2 and 3 mirror
each other under swapping the pi and p exponents, so they tie exactly
when alpha == beta, i.e. at n = 10: there term 3 joins the leaders.
`error_term_exponents` does the same for the coarse, first-difference, class-defect and
refinement error families.  `prime_select` turns the target sizes into
actual primes via ascending scans of the doubling intervals, filtered by
the empirical non-singularity checks from the geometry module.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import Budget, InputError, PreconditionError, ensure_budget
from .ffield import primes_in_interval
from .geometry import RCheckPolicy, r_check
from .mpoly import IntPoly


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class ExponentVector:
    """Exponents of (B, pi, p, q) in one monomial bound."""

    b: Fraction
    pi: Fraction
    p: Fraction
    q: Fraction

    def substitute(self, alpha: Fraction, beta: Fraction, gamma: Fraction) -> Fraction:
        """Exponent of B after pi = B^alpha, p = B^beta, q = B^gamma."""
        return self.b + alpha * self.pi + beta * self.p + gamma * self.q

    def plus(self, other: "ExponentVector", t) -> "ExponentVector":
        t = _fr(t)
        return ExponentVector(
            self.b + t * other.b,
            self.pi + t * other.pi,
            self.p + t * other.p,
            self.q + t * other.q,
        )

    def __str__(self) -> str:
        parts = []
        for sym, e in (("B", self.b), ("pi", self.pi), ("p", self.p), ("q", self.q)):
            if e:
                parts.append(f"{sym}^({e})")
        return " ".join(parts) if parts else "1"


def _vec(b, pi, p, q) -> ExponentVector:
    return ExponentVector(_fr(b), _fr(pi), _fr(p), _fr(q))


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 5:
        raise InputError("need an integer n >= 5", n=n)


def thm_exponent(n: int) -> Fraction:
    """The proven exponent of B: n - 4 + (37n - 18)/(n^2 + 8n - 4)."""
    _check_n(n)
    return Fraction(n - 4) + Fraction(37 * n - 18, n * n + 8 * n - 4)


def dimension_growth_exponent(n: int) -> Fraction:
    """The classical benchmark n - 3 + 9/(n + 2) for quartics."""
    _check_n(n)
    return Fraction(n - 3) + Fraction(9, n + 2)


@dataclass(frozen=True)
class ParamExponents:
    n: int
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    main: Fraction  # n - (alpha + beta + gamma)


def param_exponents(n: int) -> ParamExponents:
    """The modulus sizes, and the main-term exponent they produce."""
    _check_n(n)
    D = n * n + 8 * n - 4
    alpha = Fraction(n * n - n - 2, D)
    beta = Fraction(n * n - 2 * n + 8, D)
    gamma = 2 * alpha
    return ParamExponents(n, alpha, beta, gamma, n - (alpha + beta + gamma))


def comparison(n: int) -> dict:
    """The headline exponent against the two standing benchmarks."""
    t = thm_exponent(n)
    s = dimension_growth_exponent(n)
    return {
        "n": n,
        "thm": t,
        "dimension_growth": s,
        "n_minus_3": Fraction(n - 3),
        "beats_dimension_growth": t < s,
        "beats_n_minus_3": t < n - 3,
    }


def improvement_thresholds(limit: int = 200) -> dict:
    """First n at which each benchmark is strictly beaten, verified to hold
    for every larger n up to `limit`."""
    out = {}
    for key in ("beats_dimension_growth", "beats_n_minus_3"):
        first = None
        for n in range(5, limit + 1):
            hit = comparison(n)[key]
            if first is None and hit:
                first = n
            if first is not None and not hit:
                raise PreconditionError(
                    "improvement is not monotone past its threshold",
                    key=key, n=n, first=first,
                )
        out[key.removeprefix("beats_")] = first
    return out


def aggregate_terms(n: int) -> list[ExponentVector]:
    """The ten monomial bounds on the level-2 aggregate, in display order."""
    _check_n(n)
    return [
        _vec(Fraction(3 * n + 1, 4), Fraction(-1, 2), Fraction(-1, 2), Fraction(n - 4, 8)),
        _vec(Fraction(3 * n + 1, 4), Fraction(n - 5, 4), Fraction(-1, 2), Fraction(-1, 8)),
        _vec(Fraction(3 * n + 1, 4), Fraction(-1, 2), Fraction(n - 5, 4), Fraction(-1, 8)),
        _vec(Fraction(3 * n, 4), Fraction(n - 3, 4), Fraction(-1, 4), Fraction(-1, 2)),
        _vec(Fraction(n + 1, 2), Fraction(n - 3, 4), Fraction(-1, 4), Fraction(n - 4, 8)),
        _vec(Fraction(3 * n, 4), Fraction(n - 4, 4), 0, Fraction(-1, 2)),
        _vec(Fraction(2 * n + 3, 4), Fraction(n - 4, 4), 0, Fraction(n - 5, 8)),
        _vec(Fraction(2 * n + 3, 4), Fraction(n - 4, 4), Fraction(n - 4, 4), Fraction(-1, 8)),
        _vec(Fraction(3 * n, 4), Fraction(-1, 2), Fraction(n - 2, 4), Fraction(-1, 4)),
        _vec(Fraction(2 * n + 1, 4), Fraction(-1, 2), Fraction(n - 2, 4), Fraction(n - 2, 8)),
    ]


@dataclass
class AggregateTermReport:
    n: int
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    main: Fraction
    vectors: list
    values: list  # substituted exponents of B, 1-based display order
    argmax: list  # 1-based indices of the maximal terms
    max_value: Fraction
    matches_main: bool  # max equals thm_exponent(n)
    expected_leaders: bool | None  # n >= 10: argmax == [1, 2, 9]; False at 10 (term 3 ties)


def aggregate_term_exponents(n: int) -> AggregateTermReport:
    """Substitute the modulus sizes into all ten terms and rank them."""
    pe = param_exponents(n)
    vecs = aggregate_terms(n)
    values = [v.substitute(pe.alpha, pe.beta, pe.gamma) for v in vecs]
    mx = max(values)
    argmax = [i + 1 for i, v in enumerate(values) if v == mx]
    return AggregateTermReport(
        n=n,
        alpha=pe.alpha,
        beta=pe.beta,
        gamma=pe.gamma,
        main=thm_exponent(n),
        vectors=vecs,
        values=values,
        argmax=argmax,
        max_value=mx,
        matches_main=mx == thm_exponent(n),
        expected_leaders=(argmax == [1, 2, 9]) if n >= 10 else None,
    )


@dataclass(frozen=True)
class ParametricTerm:
    """A monomial bound with a free parameter (cutoff C or defect level s):
    the vector is base + t * step."""

    label: str
    base: ExponentVector
    step: ExponentVector
    param: str

    def at(self, t) -> ExponentVector:
        return self.base.plus(self.step, t)


# Natural scale of each error family: "count" terms bound a point count
# directly, "variance" terms bound a sum of squared deviations (two powers
# of the count), "per_shift" terms bound a single shifted class.
_FAMILY_SCALE = {
    "coarse": "count",
    "first_difference": "variance",
    "class_defect": "per_shift",
    "refinement": "count",
}


@dataclass
class ErrorTermReport:
    n: int
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    main: Fraction
    groups: dict  # family -> list of (label, ExponentVector, substituted value)
    parametric: dict  # family -> (ParametricTerm, list of (t, substituted value))
    exceeds_main: list  # (family, label, value) strictly above the main exponent
    scale: dict = dc_field(default_factory=dict)  # family -> natural scale


def error_term_exponents(n: int) -> ErrorTermReport:
    """Exponent vectors for the four error families of the two-level
    decomposition: the coarse deviation, the first-difference remainder,
    the per-shift class defect (free parameter s = singular-locus
    dimension), and the refinement remainder (free cutoff C).

    ``exceeds_main`` compares every substituted exponent against the main
    one directly.  That comparison is only meaningful for families at the
    count scale; the first-difference family lives at the variance scale
    (two powers of the count), so its entries land above the main exponent
    by construction.  The ``scale`` map records the natural scale of each
    family so downstream consumers can weigh the list accordingly."""
    pe = param_exponents(n)
    main = thm_exponent(n)
    half = Fraction(1, 2)

    groups = {
        "coarse": [
            ("sqrt_p", _vec(Fraction(n + 1, 2), 0, -half, Fraction(n - 2, 4))),
            ("sqrt_q", _vec(Fraction(n + 1, 2), 0, Fraction(n - 2, 2), Fraction(-1, 4))),
            ("density", _vec(n, 0, Fraction(-n, 2), -1)),
        ],
        "first_difference": [
            ("sqrt_p", _vec(Fraction(3 * n + 1, 2), -n, Fraction(-3, 2), Fraction(n - 6, 4))),
            ("sqrt_q", _vec(Fraction(3 * n + 1, 2), -n, Fraction(n - 4, 2), Fraction(-5, 4))),
            ("density", _vec(2 * n, -n, Fraction(-(n + 2), 2), -2)),
        ],
        "class_defect": [],
        "refinement": [
            ("sqrt", _vec(Fraction(n + 1, 2), 0, -1, Fraction(n - 6, 4))),
        ],
    }
    parametric_defs = {
        "first_difference": ParametricTerm(
            "smooth_tail",
            _vec(2 * n, -n, -2, -2),
            _vec(-1, 1, 0, 0),
            "C",
        ),
        "class_defect": ParametricTerm(
            "defect_level",
            _vec(n, 0, Fraction(-n, 2), -2),
            _vec(0, 0, half, 0),
            "s",
        ),
        "refinement": ParametricTerm(
            "smooth_tail",
            _vec(n, 0, -1, Fraction(-3, 2)),
            _vec(-1, 1, 0, 0),
            "C",
        ),
    }

    sub = lambda v: v.substitute(pe.alpha, pe.beta, pe.gamma)  # noqa: E731
    out_groups = {
        fam: [(label, vec, sub(vec)) for label, vec in terms]
        for fam, terms in groups.items()
    }
    out_param = {}
    for fam, term in parametric_defs.items():
        if term.param == "C":
            samples = [(t, sub(term.at(t))) for t in (1, 2, n - 1)]
        else:
            samples = [(t, sub(term.at(t))) for t in (-1, 0, 1)]
        out_param[fam] = (term, samples)

    exceeds = []
    for fam, rows in out_groups.items():
        for label, _, val in rows:
            if val > main:
                exceeds.append((fam, label, val))
    for fam, (term, samples) in out_param.items():
        for t, val in samples:
            if val > main:
                exceeds.append((fam, f"{term.label}@{term.param}={t}", val))
    return ErrorTermReport(
        n=n,
        alpha=pe.alpha,
        beta=pe.beta,
        gamma=pe.gamma,
        main=main,
        groups=out_groups,
        parametric=out_param,
        exceeds_main=exceeds,
        scale=dict(_FAMILY_SCALE),
    )


# -- prime selection ------------------------------------------------------------


def iroot(x: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if x < 0 or k < 1:
        raise InputError("iroot needs x >= 0 and k >= 1", x=x, k=k)
    if x == 0:
        return 0
    if k == 1:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def _target(B: int, e: Fraction, c: int) -> int:
    """Floor of c * B^e (e a positive rational), clamped to >= 2."""
    return max(2, c * iroot(B**e.numerator, e.denominator))


@dataclass
class ParamChoice:
    """A concrete (pi, p, q) for one box size, with the audit trail."""

    n: int
    B: int
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    pi: int
    p: int
    q: int
    intervals: dict  # role -> (lo, hi)
    checks: dict  # role -> {check name -> verdict}
    skipped: list  # (role, prime, reason)
    warnings: list = dc_field(default_factory=list)
    regime: str = "theorem"


_ROLE_FILTERS = {"pi": ("r0",), "p": ("r0", "r1"), "q": ("r0", "r1", "r2")}


def prime_select(
    B: int,
    n: int,
    constants: tuple = (1, 1, 1),
    F: IntPoly | None = None,
    policy: RCheckPolicy | None = None,
    budget: Budget | None = None,
    strict_checks: bool = False,
) -> ParamChoice:
    """Pick the smallest admissible primes pi ~ B^alpha, p ~ B^beta,
    q ~ B^gamma from the doubling intervals [c t, 2 c t].

    With a form F, every candidate runs the empirical non-singularity
    checks (pi wants R0; p wants R0+R1; q wants R0+R1+R2).  A candidate
    whose checks fail is skipped with its witness recorded.  A check the
    budget cannot afford is accepted with a stamped warning unless
    strict_checks is set, in which case it is a refusal.
    """
    _check_n(n)
    if B < 2:
        raise InputError("B must be >= 2", B=B)
    if len(constants) != 3 or any(int(c) < 1 for c in constants):
        raise InputError("constants must be three integers >= 1",
                         constants=list(constants))
    budget = ensure_budget(budget)
    pe = param_exponents(n)
    warnings: list[str] = []
    regime = "theorem"
    if n < 10:
        regime = "outside-theorem-regime"
        warnings.append(
            f"gamma = {pe.gamma} < 1 for n = {n}: the modulus q cannot "
            "outgrow B, so the headline bound does not apply at this n"
        )

    roles = ("pi", "p", "q")
    exps = {"pi": pe.alpha, "p": pe.beta, "q": pe.gamma}
    intervals = {}
    for role, c in zip(roles, constants):
        t = _target(B, exps[role], int(c))
        intervals[role] = (t, 2 * t)

    chosen: dict[str, int] = {}
    checks: dict[str, dict] = {}
    skipped: list = []
    for role in roles:
        lo, hi = intervals[role]
        picked = None
        for cand in primes_in_interval(lo, hi):
            if cand in chosen.values():
                skipped.append((role, cand, "already used"))
                continue
            if F is None:
                picked, checks[role] = cand, {"geometry": "not-requested"}
                break
            rep = r_check(F, cand, policy, budget, which=_ROLE_FILTERS[role])
            verdicts = {"r0": rep.r0.verdict, "r1": rep.r1.verdict,
                        "r2": rep.r2.verdict}
            needed = {k: verdicts[k] for k in _ROLE_FILTERS[role]}
            bad = {k: v for k, v in needed.items() if v == "fails"}
            if bad:
                witness = rep.r0.witness if "r0" in bad else None
                skipped.append((role, cand, {"failed": bad, "witness": witness}))
                continue
            skipped_budget = [k for k, v in needed.items() if v == "skipped_budget"]
            if skipped_budget and strict_checks:
                raise PreconditionError(
                    "admissibility checks ran out of budget",
                    role=role, prime=cand, checks=skipped_budget,
                )
            if skipped_budget:
                warnings.append(
                    f"{role}={cand} accepted with unverified checks "
                    f"{skipped_budget} (budget)"
                )
            picked, checks[role] = cand, needed
            break
        if picked is None:
            raise PreconditionError(
                "no qualifying prime in the interval",
                role=role, interval=[lo, hi],
            )
        chosen[role] = picked

    return ParamChoice(
        n=n,
        B=B,
        alpha=pe.alpha,
        beta=pe.beta,
        gamma=pe.gamma,
        pi=chosen["pi"],
        p=chosen["p"],
        q=chosen["q"],
        intervals=intervals,
        checks=checks,
        skipped=skipped,
        warnings=warnings,
        regime=regime,
    )
