"""Correctness checks and fallback counts for one op's CLI result.

The reference values come from oracle.py, which shares no code with vdc's
evaluators, except for the rcheck ops: there only the R0 verdict over F_p
has an independent oracle (a brute-force Jacobian scan), and the rest of
each result is compared with the digest recorded from the seed commit in
rcheck_expected.json (written by record.py).
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import oracle

SMOOTH_RTOL = 1e-9
EXPECTED_PATH = Path(__file__).with_name("rcheck_expected.json")

FALLBACK_WARNINGS = ("pair table summarized", "level 2 ran in float64")


def op_key(argv: list) -> str:
    return " ".join(argv)


def digest(result) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _number(v):
    """A CLI number: {"num", "den"} rationals become Fractions."""
    if isinstance(v, dict):
        return Fraction(int(v["num"]), int(v["den"]))
    return v


def _same(got, want) -> bool:
    if isinstance(want, float):
        return math.isclose(float(got), want, rel_tol=SMOOTH_RTOL)
    return got == want


def _compare(problems: list, name: str, got, want) -> None:
    got = _number(got)
    if not _same(got, want):
        problems.append(f"{name}: got {got}, oracle {want}")


def _count_check(op):
    want = oracle.weighted_count(op.terms, op.n, op.B, op.modulus, op.weight)

    def check(result):
        problems = []
        _compare(problems, "value", result["value"], want)
        return problems
    return check


def _ledger_check(op):
    pi, p, q = op.primes

    def count(m):
        return oracle.weighted_count(op.terms, op.n, op.B, m, op.weight)

    want = {
        "count_pq": count(p * q),
        "count_full": count(pi * p * q),
        "box_weight_total": oracle.box_weight_total(op.n, op.B, op.weight),
    }

    def check(result):
        problems = [f"residual {name} not ok"
                    for name, rc in result["residuals"].items() if not rc["ok"]]
        for name, value in want.items():
            _compare(problems, name, result["counts"][name], value)
        return problems
    return check


def _r0_problems(op, singular: int, result) -> list:
    """Cross-check the R0 verdict over F_p against a brute-force scan that
    found `singular` singular points."""
    r0 = result["r0"]
    witness_k = r0["witness"][-1] if r0["witness"] else None
    if singular:
        ok = r0["verdict"] == "fails" and witness_k == 1
    elif r0["verdict"] == "certified":
        ok = True
    else:
        ok = 1 in r0["scanned_extensions"] and witness_k != 1
    if ok:
        return []
    return [f"R0 verdict {r0['verdict']} (witness over F_p^{witness_k}) but "
            f"brute force finds {singular} singular points over F_{op.modulus}"]


def _recorded_check(op, recorded: dict):
    want = recorded.get(op_key(op.argv))
    singular = (oracle.singular_points_fp(op.terms, op.n, op.modulus)
                if op.kind == "rcheck" else None)

    def check(result):
        problems = [] if singular is None else _r0_problems(op, singular, result)
        if want is None:
            problems.append("no result recorded from the seed commit")
        elif digest(result) != want:
            problems.append("result differs from the one recorded at the seed commit")
        return problems
    return check


def _poisson_check(op):
    B, a = (int(op.argv[op.argv.index(flag) + 1]) for flag in ("--B", "--a"))
    lhs, main = oracle.poisson_sums(B, a)

    def check(result):
        problems = []
        _compare(problems, "lhs", result["probe"]["lhs"], lhs)
        _compare(problems, "main", result["probe"]["main"], main)
        decay = result["decay"]
        _compare(problems, "l1", decay["l1"], oracle.SMOOTH_L1)
        if not all(0 < row["magnitude"] <= oracle.SMOOTH_L1 for row in decay["rows"]):
            problems.append("a transform magnitude lies outside (0, l1]")
        return problems
    return check


def make_checks(ops: list) -> list:
    """One check(result) -> [problem, ...] per op; the references are
    computed here, once, so the timed passes only compare."""
    recorded = json.loads(EXPECTED_PATH.read_text())
    out = []
    for op in ops:
        if op.kind == "count":
            out.append(_count_check(op))
        elif op.kind == "ledger":
            out.append(_ledger_check(op))
        elif op.kind in ("rcheck", "primes"):
            out.append(_recorded_check(op, recorded))
        else:
            out.append(_poisson_check(op))
    return out


def fallbacks(op, result) -> int:
    """Silent degradations visible in one op's result."""
    if op.kind == "ledger":
        n = sum(1 for w in result["warnings"]
                for tag in FALLBACK_WARNINGS if tag in w)
        pair = result.get("pair")
        if pair is not None and result["exact"] and not pair["exact"]:
            n += 1
        return n
    if op.kind == "rcheck":
        n = sum(1 for c in ("r0", "r1", "r2")
                if result[c]["verdict"] == "skipped_budget")
        return n + int(result["r2"]["sampled"])
    if op.kind == "primes":
        return sum(1 for checks in result["checks"].values()
                   for v in checks.values() if v == "skipped_budget")
    return 0
