"""Seeded operation lists for the benchmark workloads.

An op is the argv of one `vdc` CLI call plus what its correctness check
needs.  vdc only ever sees the argv strings; the checks in checks.py use
the term dicts kept here.

Forms are a diagonal part plus two cross monomials, with coefficients in
+-1..3.  Each cross monomial lies inside one block of two consecutive
variables (x1,x2), (x3,x4), ..., which keeps the oracle's block-wise box
counts cheap; the grid evaluators' cost does not depend on which
variables a monomial uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle

COEFFS = (-3, -2, -1, 1, 2, 3)
CROSS_TERMS = 2

# rcheck forms come from seed % RCHECK_VARIANTS, so that rcheck_expected.json
# can hold the seed commit's result for every input the workload can make.
RCHECK_VARIANTS = 32

TYPICAL_TOLERANCE = 0.1

BIG_MODULUS = 2039 * 2053 * 2063

POISSON_ARGV = ["poisson", "--B", "1048576", "--a", "64", "--k", "3",
                "--decay-grid", ",".join(str(2**i) for i in range(13))]


@dataclass
class Op:
    kind: str  # count | ledger | rcheck | primes | poisson
    argv: list
    terms: dict | None = None
    n: int = 0
    B: int = 0
    modulus: int = 1
    weight: str | None = None
    primes: tuple = ()


def gen_form(rng: random.Random, n: int, d: int, cross: int = CROSS_TERMS) -> dict:
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = d
        terms[tuple(e)] = rng.choice(COEFFS)
    blocks = [(i, i + 1) for i in range(0, n - 1, 2)]
    while len(terms) < n + cross:
        i, j = rng.choice(blocks)
        a = rng.randint(1, d - 1)
        e = [0] * n
        e[i], e[j] = a, d - a
        terms.setdefault(tuple(e), rng.choice(COEFFS))
    return terms


def render(terms: dict) -> str:
    out = []
    for exps, c in sorted(terms.items(), reverse=True):
        mono = "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(exps) if e)
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        sign = "-" if c < 0 else ("+" if out else "")
        out.append(f"{sign}{mag}{mono}")
    return "".join(out)


def _nonsingular_form(rng: random.Random, n: int, p: int) -> dict:
    """A non-diagonal quartic with no singular point over F_p, so that the
    R0 scan always goes on to F_{p^2} and every variant costs alike."""
    while True:
        terms = gen_form(rng, n, 4)
        if oracle.singular_points_fp(terms, n, p) == 0:
            return terms


def _isotropic_form(rng: random.Random, n: int, B: int, m: int) -> dict:
    """A quartic with an integer zero other than the origin in the box.

    With m above every |f(x)| in the box, the count mod m is the number of
    integer zeros; a form whose only zero is the origin would make the
    count trivially 1 and leave the negative coordinates, where the
    evaluator's residues are largest, out of the answer.
    """
    while True:
        terms = gen_form(rng, n, 4)
        if oracle.weighted_count(terms, n, B, m, None) > 1:
            return terms


def _count_op(terms, n, B, m, weight=None) -> Op:
    argv = ["count", f"--poly={render(terms)}", "--n", str(n), "--B", str(B),
            "--modulus", str(m)]
    if weight:
        argv += ["--weight", weight]
    return Op("count", argv, terms, n, B, m, weight)


def count_ops(seed: int) -> list[Op]:
    rng = random.Random(f"count:{seed}")
    return [
        _count_op(gen_form(rng, 4, 4), 4, 16, 7 * 11 * 13, "hat"),
        _count_op(gen_form(rng, 4, 4), 4, 12, 13 * 17, "smooth"),
        _count_op(gen_form(rng, 6, 4), 6, 6, 5 * 13 * 17),
        Op("poisson", POISSON_ARGV),
    ]


def bigmod_ops(seed: int) -> list[Op]:
    """A congruence count with m > 3.04e9, where the int64 `v * base % m`
    in the modular evaluator overflows: at the seed commit this op returns
    wrong counts on every seed, so its checks fail until that is fixed."""
    rng = random.Random(f"count-bigmod:{seed}")
    terms = _isotropic_form(rng, 4, 10, BIG_MODULUS)
    return [_count_op(terms, 4, 10, BIG_MODULUS)]


def _ledger_op(terms, n, B, primes, weight, pair_table) -> Op:
    pi, p, q = primes
    argv = ["pipeline", f"--poly={render(terms)}", "--n", str(n), "--B", str(B),
            "--pi", str(pi), "--p", str(p), "--q", str(q), "--weight", weight]
    if pair_table:
        argv.append("--pair-table")
    return Op("ledger", argv, terms, n, B, weight=weight, primes=primes)


def _typical_form(rng: random.Random, n: int, d: int, H: int, q: int) -> dict:
    """A form whose zeros mod q in the box |x_i| <= H number within
    TYPICAL_TOLERANCE of the box size over q.

    The ledger's pair passes scale with that count (squared, per residue
    class), which otherwise ranges over a factor of four between random
    forms; this keeps every seed's ledger about the same amount of work.
    """
    expected = (2 * H + 1) ** n / q
    while True:
        terms = gen_form(rng, n, d)
        zeros = oracle.weighted_count(terms, n, H, q, None)
        if abs(zeros - expected) <= TYPICAL_TOLERANCE * expected:
            return terms


def ledger_ops(seed: int) -> list[Op]:
    # the smooth op repeats the first hat op's form and box
    rng = random.Random(f"ledger:{seed}")
    cubic = _typical_form(rng, 3, 3, 15, 37)
    return [
        _ledger_op(cubic, 3, 8, (3, 5, 37), "hat", True),
        _ledger_op(cubic, 3, 8, (3, 5, 37), "smooth", True),
        _ledger_op(_typical_form(rng, 3, 3, 19, 41), 3, 10, (3, 5, 41), "hat", False),
        _ledger_op(_typical_form(rng, 4, 4, 5, 13), 4, 3, (2, 3, 13), "hat", True),
        _ledger_op(_typical_form(rng, 3, 3, 6, 29), 3, 6, (3, 5, 29), "indicator",
                   True),
    ]


def _rcheck_op(terms, n, p) -> Op:
    argv = ["geom", "rcheck", f"--form={render(terms)}", "--n", str(n), "--p", str(p)]
    return Op("rcheck", argv, terms, n, modulus=p)


def rcheck_ops(seed: int) -> list[Op]:
    rng = random.Random(f"rcheck:{seed % RCHECK_VARIANTS}")
    diag10 = gen_form(rng, 10, 4, cross=0)
    return [
        _rcheck_op(_nonsingular_form(rng, 4, 7), 4, 7),
        _rcheck_op(_nonsingular_form(rng, 5, 5), 5, 5),
        _rcheck_op(gen_form(rng, 5, 4, cross=0), 5, 7),
        Op("primes", ["primes", "--B", "64", "--n", "10", f"--form={render(diag10)}"],
           diag10, 10),
    ]


WORKLOADS = {"ledger": ledger_ops, "rcheck": rcheck_ops, "count": count_ops}

# Known-defect probes: run.py takes them like workloads, but BENCHMARK.json
# does not list them, because a benchmarked workload must have no failing op.
DEFECT_PROBES = {"count-bigmod": bigmod_ops}
