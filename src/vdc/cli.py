"""Command-line entry point.

One executable, `vdc`, with a subcommand per capability:

    count       lattice-point counts in a box (plain, congruence, weighted)
    geom sing   singular locus of a projective variety over F_q
    geom rcheck prime admissibility checks R0/R1/R2 for a form
    pipeline    two-level differencing ledger and its residual checks
    exponents   exact exponent bookkeeping for one dimension n
    primes      modulus selection for one box size
    poisson     progression-averaging probe for the smooth weight
    poly diff   difference polynomials

Every run prints a single JSON document: {"schema", "run", "result"}.
The run manifest echoes the semantic parameters, the versions in play,
the seed, the budget spent, and the wall time; with wall_time_ms
normalized, re-running a command is byte-identical.

Exit codes: 0 success; 2 clean refusal (bad input, failed precondition,
budget) with a machine-readable diagnostic on stdout; 1 internal error;
64 usage errors (unknown flags, missing arguments).
"""

from __future__ import annotations

import argparse
import functools
import platform
import sys
import time

import numpy as np

from . import __version__
from .analysis import fourier_decay_probe, poisson_probe
from .asymptotics import (
    aggregate_term_exponents,
    comparison,
    dimension_growth_exponent,
    error_term_exponents,
    param_exponents,
    prime_select,
    thm_exponent,
)
from .counting import count_box_mod, weighted_count
from .errors import DEFAULT_BUDGET, Budget, InputError, VdcError
from .ffield import parse_field
from .geometry import RCheckPolicy, VarietySpec, r_check, sing_points
from .jsonio import frac_dict, mixed_str, render_json
from .mpoly import diff_y, diff_yz, format_poly, parse_poly
from .pipeline import PipelineParams, build_ledger

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    """argparse that exits 64 (not 2) on usage errors, keeping 2 for refusals."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


@functools.cache  # parse_args leaves the parser as it found it
def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="max points enumerated before refusing")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled sweeps (echoed in the manifest)")
    common.add_argument("--emit", metavar="PATH", default=None,
                        help="also write the JSON document to this file")

    top = _Parser(prog="vdc", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    c = sub.add_parser("count", parents=[common],
                       help="lattice-point counts in the box |x_i| <= B")
    c.add_argument("--poly", action="append", required=True,
                   help="polynomial (repeatable: all must vanish / be divisible)")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--B", type=int, required=True)
    c.add_argument("--modulus", type=int, default=None,
                   help="count x with every polynomial divisible by this "
                        "(default: with every polynomial zero)")
    c.add_argument("--weight", choices=("smooth", "hat", "indicator"),
                   default=None, help="weight each point by W(x/B)")

    g = sub.add_parser("geom", help="finite-field geometry")
    gs = g.add_subparsers(dest="geom_cmd", required=True, parser_class=_Parser)
    g1 = gs.add_parser("sing", parents=[common],
                       help="singular locus of V(forms) in P^(n-1)(F_q)")
    g1.add_argument("--form", action="append", required=True)
    g1.add_argument("--n", type=int, required=True)
    g1.add_argument("--field", required=True, help="field literal: 7 or 2^4")
    g1.add_argument("--codim", type=int, default=None,
                    help="expected codimension (default: number of forms)")
    g2 = gs.add_parser("rcheck", parents=[common],
                       help="R0/R1/R2 admissibility of a form mod p")
    g2.add_argument("--form", required=True)
    g2.add_argument("--n", type=int, required=True)
    g2.add_argument("--p", type=int, required=True)
    g2.add_argument("--checks", default="r0,r1,r2",
                    help="comma-separated subset of r0,r1,r2")
    g2.add_argument("--r2-samples", type=int, default=64)

    p = sub.add_parser("pipeline", parents=[common],
                       help="two-level differencing ledger")
    p.add_argument("--poly", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--pi", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--weight", choices=("smooth", "hat", "indicator"),
                   default="hat")
    p.add_argument("--pair-table", action="store_true",
                   help="build the second-difference tables and the aggregate")
    p.add_argument("--records", type=int, default=5,
                   help="how many per-shift records to include")

    e = sub.add_parser("exponents", parents=[common],
                       help="exact exponent bookkeeping at dimension n")
    e.add_argument("--n", type=int, required=True)

    r = sub.add_parser("primes", parents=[common],
                       help="pick moduli (pi, p, q) for one box size")
    r.add_argument("--B", type=int, required=True)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--form", default=None,
                   help="run admissibility checks against this form")
    r.add_argument("--c-pi", type=int, default=1)
    r.add_argument("--c-p", type=int, default=1)
    r.add_argument("--c-q", type=int, default=1)
    r.add_argument("--r2-samples", type=int, default=64)
    r.add_argument("--strict", action="store_true",
                   help="refuse when checks run out of budget")

    s = sub.add_parser("poisson", parents=[common],
                       help="progression-averaging probe for the smooth weight")
    s.add_argument("--n", type=int, default=1)
    s.add_argument("--B", type=int, required=True)
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--decay-grid", type=_csv_ints, default=None,
                   help="also tabulate transform decay on these frequencies")

    y = sub.add_parser("poly", help="polynomial operators")
    ys = y.add_subparsers(dest="poly_cmd", required=True, parser_class=_Parser)
    y1 = ys.add_parser("diff", parents=[common],
                       help="difference polynomial f(x+y) - f(x)")
    y1.add_argument("--poly", required=True)
    y1.add_argument("--n", type=int, required=True)
    y1.add_argument("--y", type=_csv_ints, required=True)
    y1.add_argument("--z", type=_csv_ints, default=None,
                    help="second difference along z as well")
    return top


# -- subcommand handlers -------------------------------------------------------


def _run_count(args, budget):
    fs = [parse_poly(s, args.n) for s in args.poly]
    params = {"poly": [format_poly(f) for f in fs], "n": args.n, "B": args.B,
              "modulus": args.modulus, "weight": args.weight}
    if args.weight is not None:
        res = weighted_count(fs, args.B, args.modulus, args.weight, budget)
        return params, {"value": res.value, "exact": res.exact,
                        "points_scanned": res.points_scanned}
    return params, {"value": count_box_mod(fs, args.B, args.modulus, budget)}


def _run_geom_sing(args, budget):
    fld = parse_field(args.field)
    forms = [parse_poly(s, args.n) for s in args.form]
    params = {"form": [format_poly(f) for f in forms], "n": args.n,
              "field": fld.literal(), "codim": args.codim}
    rep = sing_points(VarietySpec(fld, args.n, tuple(forms)),
                      expected_codim=args.codim, budget=budget)
    return params, rep


def _run_geom_rcheck(args, budget):
    form = parse_poly(args.form, args.n)
    which = tuple(t.strip() for t in args.checks.split(",") if t.strip())
    params = {"form": format_poly(form), "n": args.n, "p": args.p,
              "checks": list(which), "r2_samples": args.r2_samples}
    policy = RCheckPolicy(r2_samples=args.r2_samples, seed=args.seed)
    rep = r_check(form, args.p, policy, budget, which=which)
    return params, rep


def _run_pipeline(args, budget):
    f = parse_poly(args.poly, args.n)
    params = {"poly": format_poly(f), "n": args.n, "B": args.B,
              "pi": args.pi, "p": args.p, "q": args.q,
              "weight": args.weight, "pair_table": bool(args.pair_table)}
    led = build_ledger(
        PipelineParams(f, args.B, args.pi, args.p, args.q, weight=args.weight,
                       with_pair_table=args.pair_table),
        budget=budget,
    )
    result = {
        "exact": led.exact,
        "counts": {
            "box_weight_total": led.box_weight_total,
            "count_full": led.count_full,
            "count_pq": led.count_pq,
            "expected_per_class": led.expected_per_class,
            "zero_classes": led.zero_classes,
        },
        "moments": {
            "first": led.first_moment,
            "second": led.second_moment,
            "coarse_deviation": led.coarse_deviation,
        },
        "shift_range": led.shift_range,
        "residuals": {name: rc for name, rc in sorted(led.residuals.items())},
        "records": led.shift_records(limit=max(0, args.records)),
        "warnings": led.warnings,
    }
    if args.pair_table:
        result["pair"] = {
            "range": led.pair_range,
            "aggregate": led.aggregate,
            "exact": led.exact,
        }
    return params, result


def _run_exponents(args, budget):
    n = args.n
    params = {"n": n}
    thm = thm_exponent(n)
    pe = param_exponents(n)
    cmp_ = comparison(n)
    agg = aggregate_term_exponents(n)
    err = error_term_exponents(n)
    result = {
        "thm": {**frac_dict(thm), "display": mixed_str(thm)},
        "alpha": frac_dict(pe.alpha),
        "beta": frac_dict(pe.beta),
        "gamma": frac_dict(pe.gamma),
        "dimension_growth": {
            **frac_dict(dimension_growth_exponent(n)),
            "display": mixed_str(dimension_growth_exponent(n)),
        },
        "beats_dimension_growth": cmp_["beats_dimension_growth"],
        "beats_n_minus_3": cmp_["beats_n_minus_3"],
        "aggregate_terms": {
            "values": [frac_dict(v) for v in agg.values],
            "argmax": agg.argmax,
            "matches_main": agg.matches_main,
            "expected_leaders": agg.expected_leaders,
        },
        "error_terms": {
            "exceeds_main": [[fam, label, frac_dict(v)]
                             for fam, label, v in err.exceeds_main],
            "scale": err.scale,
        },
    }
    return params, result


def _run_primes(args, budget):
    form = parse_poly(args.form, args.n) if args.form else None
    params = {"B": args.B, "n": args.n,
              "constants": [args.c_pi, args.c_p, args.c_q],
              "form": format_poly(form) if form else None,
              "strict": bool(args.strict), "r2_samples": args.r2_samples}
    policy = RCheckPolicy(r2_samples=args.r2_samples, seed=args.seed)
    choice = prime_select(args.B, args.n,
                          constants=(args.c_pi, args.c_p, args.c_q),
                          F=form, policy=policy, budget=budget,
                          strict_checks=args.strict)
    return params, choice


def _run_poisson(args, budget):
    params = {"n": args.n, "B": args.B, "a": args.a, "k": args.k,
              "decay_grid": args.decay_grid}
    probe = poisson_probe("smooth", args.B, args.a, args.k, n=args.n,
                          budget=budget)
    if args.decay_grid is None:
        return params, probe
    decay = fourier_decay_probe("smooth", args.k, args.decay_grid, budget)
    return params, {"probe": probe, "decay": decay}


def _run_poly_diff(args, budget):
    f = parse_poly(args.poly, args.n)
    params = {"poly": format_poly(f), "n": args.n, "y": args.y, "z": args.z}
    if args.z is None:
        g = diff_y(f, args.y)
    else:
        g = diff_yz(f, args.y, args.z)
    return params, {"poly": format_poly(g), "degree": g.degree()}


_HANDLERS = {
    "count": _run_count,
    "geom/sing": _run_geom_sing,
    "geom/rcheck": _run_geom_rcheck,
    "pipeline": _run_pipeline,
    "exponents": _run_exponents,
    "primes": _run_primes,
    "poisson": _run_poisson,
    "poly/diff": _run_poly_diff,
}


def _schema_slug(args) -> str:
    if args.cmd == "geom":
        return f"geom/{args.geom_cmd}"
    if args.cmd == "poly":
        return f"poly/{args.poly_cmd}"
    return args.cmd


def _emit(text: str, path: str | None) -> None:
    sys.stdout.write(text)
    if path:
        with open(path, "w") as fh:
            fh.write(text)


def dispatch(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    slug = _schema_slug(args)
    t0 = time.monotonic()
    try:
        budget = Budget(args.budget)
        if args.seed < 0:
            raise InputError("seed must be >= 0", seed=args.seed)
        params, result = _HANDLERS[slug](args, budget)
    except VdcError as err:
        _emit(render_json({
            "schema": "vdc/error/v1",
            "error": err.to_json(),
        }), args.emit)
        return 2
    except Exception as err:  # noqa: BLE001 - the CLI boundary
        sys.stderr.write(f"internal error: {err!r}\n")
        _emit(render_json({
            "schema": "vdc/error/v1",
            "error": {"code": "internal", "message": str(err),
                      "details": {"type": type(err).__name__}},
        }), args.emit)
        return 1
    doc = {
        "schema": f"vdc/{slug.replace('/', '-')}/v1",
        "run": {
            "subcommand": slug,
            "params": params,
            "seed": args.seed,
            "versions": {
                "vdc": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "budget": {"limit": budget.limit, "used": budget.used},
            "wall_time_ms": int((time.monotonic() - t0) * 1000),
        },
        "result": result,
    }
    _emit(render_json(doc), args.emit)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
