"""Contract tests for the command-line interface.

Every command emits one JSON document; these tests pin the schema, the
exit codes, and byte-for-byte determinism across worker counts (after
normalizing the wall-clock field, which is the only nondeterministic
entry).
"""
import itertools
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

import vdc.cli as cli
from vdc.errors import DEFAULT_BUDGET
from vdc.jsonio import mixed_str
from vdc.mpoly import parse_poly


def run_cli(argv, tmp_path=None, capsys=None):
    """Dispatch in-process and return (exit_code, parsed_document)."""
    code = cli.dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_bytes(argv, capsys):
    code = cli.dispatch(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out)


def test_count_golden(capsys):
    code, doc = run_cli(
        ["count", "--poly", "x1^4+x2^4-2*x3^4", "--n", "3", "--B", "1",
         "--modulus", "3"], capsys=capsys)
    assert code == 0
    assert doc["schema"] == "vdc/count/v1"
    assert doc["result"]["value"] == 9
    run = doc["run"]
    assert run["subcommand"] == "count"
    assert run["params"]["modulus"] == 3
    assert "workers" not in run["params"]
    assert set(run["versions"]) == {"vdc", "python", "numpy"}
    assert run["budget"]["used"] <= run["budget"]["limit"]


def test_split_count_is_charged_its_sub_boxes(capsys):
    """An n = 8 diagonal count splits into two 13^4 sub-boxes: it is
    charged their 2 * 13^4 points, not the 13^8 of its box, so it runs
    under the default budget."""
    code, doc = run_cli(
        ["count", "--poly", "x1^4+x2^4+x3^4+x4^4-x5^4-x6^4-x7^4-x8^4", "--n", "8",
         "--B", "6", "--modulus", "17"], capsys=capsys)
    assert code == 0
    assert doc["result"]["value"] == 54_099_073
    assert doc["run"]["budget"] == {"limit": DEFAULT_BUDGET, "used": 2 * 13**4}
    assert DEFAULT_BUDGET < 13**8


def _brute_count(polys, n, B, weight):
    """Sum over |x_i| <= H of the weight of x, where every polynomial is 0;
    weight None counts the points of |x_i| <= B."""
    fs = [parse_poly(s, n) for s in polys]
    H = B if weight is None else 2 * B - 1
    total = Fraction(0)
    for x in itertools.product(range(-H, H + 1), repeat=n):
        if all(f.eval(list(x)) == 0 for f in fs):
            w = Fraction(1)
            if weight == "hat":
                for c in x:
                    w *= Fraction(2 * B - abs(c), 2 * B)
            total += w
    return total


@pytest.mark.parametrize("polys,n,B,weight", [
    (["x1^4+x2^4+x3^4"], 3, 6, "hat"),  # the README showcase
    (["x1", "x2"], 2, 1, None),
    (["x1^2-x2^2"], 2, 3, "hat"),
    (["x1^2-x2^2", "x1-x2+x3"], 3, 2, None),
], ids=["readme-hat", "two-linear", "cone-hat", "two-polys"])
def test_count_without_modulus_counts_common_zeros(polys, n, B, weight, capsys):
    argv = ["count", "--n", str(n), "--B", str(B)]
    for s in polys:
        argv += ["--poly", s]
    if weight:
        argv += ["--weight", weight]
    code, doc = run_cli(argv, capsys=capsys)
    assert code == 0
    expect = _brute_count(polys, n, B, weight)
    value = doc["result"]["value"]
    if weight:
        assert Fraction(int(value["num"]), int(value["den"])) == expect
    else:
        assert value == expect


def test_poly_diff_golden(capsys):
    code, doc = run_cli(
        ["poly", "diff", "--poly", "x1^3", "--n", "1", "--y", "1"],
        capsys=capsys)
    assert code == 0
    assert doc["schema"] == "vdc/poly-diff/v1"
    assert doc["result"] == {"poly": "3*x1^2 + 3*x1 + 1", "degree": 2}


def test_poly_second_difference(capsys):
    code, doc = run_cli(
        ["poly", "diff", "--poly", "x1^3+x2^3", "--n", "2",
         "--y", "1,0", "--z", "0,1"], capsys=capsys)
    assert code == 0
    assert doc["result"]["degree"] <= 1


def test_exponents_golden(capsys):
    code, doc = run_cli(["exponents", "--n", "29"], capsys=capsys)
    assert code == 0
    res = doc["result"]
    assert res["thm"] == {"num": "27780", "den": "1069",
                          "display": "25 + 1055/1069"}
    assert res["beats_dimension_growth"] is True
    assert res["beats_n_minus_3"] is True
    assert res["aggregate_terms"]["argmax"] == [1, 2, 9]
    assert res["aggregate_terms"]["matches_main"] is True
    assert res["error_terms"]["scale"]["first_difference"] == "variance"


def test_exponent_displays(capsys):
    """A whole number displays without a fraction, a proper fraction
    without a whole part."""
    code, doc = run_cli(["exponents", "--n", "7"], capsys=capsys)
    assert code == 0
    assert doc["result"]["dimension_growth"]["display"] == "5"
    assert mixed_str(Fraction(-3, 7)) == "-3/7"
    assert mixed_str(Fraction(-12, 1)) == "-12"


def test_pipeline_showcase(capsys):
    code, doc = run_cli(
        ["pipeline", "--poly", "x1^3+x2^3+x3^3-x1*x2*x3", "--n", "3",
         "--B", "4", "--pi", "2", "--p", "3", "--q", "5",
         "--pair-table"], capsys=capsys)
    assert code == 0
    res = doc["result"]
    assert res["exact"] is True
    assert res["counts"]["count_full"] == {"num": "4337", "den": "128"}
    assert len(res["residuals"]) == 9
    assert all(r["ok"] for r in res["residuals"].values())
    assert res["pair"]["exact"] is True
    assert res["pair"]["aggregate"] == pytest.approx(85.0050477733564)
    assert len(res["records"]) == 5
    # the whole exact result is pinned; the smooth one is not, since its
    # exp() values depend on the platform's libm
    golden = Path(__file__).parent / "golden" / "pipeline_showcase_result.json"
    assert res == json.loads(golden.read_text())


def test_pipeline_pi5_level2_golden(capsys):
    """A hat run whose level 2 once ran in float64: it stays exact, and
    refined_square_expansion holds with tolerance 0."""
    code, doc = run_cli(
        ["pipeline", "--poly", "x1^3+x2^3+x3^3-x1*x2*x3", "--n", "3",
         "--B", "6", "--pi", "5", "--p", "3", "--q", "29",
         "--pair-table"], capsys=capsys)
    assert code == 0
    assert doc["result"]["pair"]["exact"] is True
    rc = doc["result"]["residuals"]["refined_square_expansion"]
    assert rc["ok"] and rc["tol"] == 0
    golden = Path(__file__).parent / "golden" / "pipeline_pi5_level2_result.json"
    assert doc["result"] == json.loads(golden.read_text())


def test_pipeline_n4_b3_level2_golden(capsys):
    """An n = 4 hat run whose level 2 spans 28561 x 6561 cells: it keeps
    the cells its join fills and warns of nothing.  The golden pins its
    qsum and abs2_num through the refined_square_expansion residual and
    pair.aggregate."""
    code, doc = run_cli(
        ["pipeline", "--poly=-x1^4+2*x1^3*x2-3*x2^4-2*x3^4+x3^3*x4+2*x4^4",
         "--n", "4", "--B", "3", "--pi", "2", "--p", "3", "--q", "13",
         "--weight", "hat", "--pair-table"], capsys=capsys)
    assert code == 0
    assert doc["result"]["pair"]["exact"] is True
    assert doc["result"]["warnings"] == []
    golden = (Path(__file__).parent / "golden"
              / "pipeline_n4_b3_level2_result.json")
    assert doc["result"] == json.loads(golden.read_text())


GEOMETRY_GOLDENS = [
    (["geom", "sing", "--form", "x1^4+x2^4+x3^4+x4^4+x5^4", "--n", "5",
      "--field", "7"], "geom_sing_fermat5_f7_result.json"),
    (["geom", "sing", "--form", "x1^4+x2^4+x3^4+x4^4+x5^4", "--n", "5",
      "--field", "3^2"], "geom_sing_fermat5_f9_result.json"),
    (["geom", "rcheck", "--form", "x1^4+x2^4+x3^4", "--n", "3", "--p", "5"],
     "geom_rcheck_quartic3_p5_result.json"),
    # singular points in lead blocks 0 and 2 of enum_proj's order
    (["geom", "sing", "--form", "x1^4+x2^4+x1*x2*x3^2", "--n", "3", "--field", "2^3"],
     "geom_sing_f8_result.json"),
    # two forms over F_49: the Jacobian's rank is read by row reduction over
    # F_{p^2}; singular points in lead blocks 2 and 3
    (["geom", "sing", "--form", "x1^2+x2*x3", "--form", "x2^2+x1*x4", "--n", "4",
      "--field", "7^2"], "geom_sing_two_quadrics_f49_result.json"),
]


@pytest.mark.parametrize("argv,golden", GEOMETRY_GOLDENS,
                         ids=[g for _, g in GEOMETRY_GOLDENS])
def test_geometry_showcase_golden(argv, golden, capsys):
    """The whole result of each geometry showcase command is pinned."""
    code, doc = run_cli(argv, capsys=capsys)
    assert code == 0
    path = Path(__file__).parent / "golden" / golden
    assert doc["result"] == json.loads(path.read_text())


POISSON_GOLDENS = [
    (["poisson", "--B", "64", "--a", "4", "--k", "2", "--decay-grid", "1,2,4"],
     "poisson_readme_result.json"),
    (["poisson", "--n", "2", "--B", "1000", "--a", "7", "--k", "3",
      "--decay-grid", "1,3,5,17,33,100,1000"], "poisson_n2_result.json"),
]


@pytest.mark.parametrize("argv,golden", POISSON_GOLDENS,
                         ids=[g for _, g in POISSON_GOLDENS])
def test_poisson_golden(argv, golden, capsys):
    """The whole result of the README poisson command and of an n = 2 run
    with an odd B and frequencies that are not powers of two is pinned.
    Its floats come from exp, cos and sin, so the goldens hold for the
    libm they were recorded with."""
    code, doc = run_cli(argv, capsys=capsys)
    assert code == 0
    path = Path(__file__).parent / "golden" / golden
    assert doc["result"] == json.loads(path.read_text())


def test_geom_sing_smooth_quartic(capsys):
    code, doc = run_cli(
        ["geom", "sing", "--form", "x1^4+x2^4+x3^4+x4^4+x5^4",
         "--n", "5", "--field", "7"], capsys=capsys)
    assert code == 0
    res = doc["result"]
    assert res["total_points"] == 400
    assert res["sing_points"] == 0
    assert res["dim_est_variety"] == 3
    assert res["dim_est_sing"] == -1


def test_geom_rcheck_direction_sweep_table(capsys):
    code, doc = run_cli(
        ["geom", "rcheck", "--form", "x1^4+x2^4+x3^4", "--n", "3",
         "--p", "5"], capsys=capsys)
    assert code == 0
    res = doc["result"]
    assert res["r0"]["verdict"] == "certified"
    assert res["r1"]["verdict"] == "fails"
    # rows are [s, count, dim_est, allowed, ok]
    assert res["r1"]["table"] == [
        [-1, 31, 2, 2, True],
        [0, 15, 2, 1, False],
        [1, 3, 1, 0, False],
        [2, 0, -1, -1, True],
    ]


def test_primes_selection(capsys):
    code, doc = run_cli(["primes", "--B", "64", "--n", "10"], capsys=capsys)
    assert code == 0
    res = doc["result"]
    assert (res["pi"], res["p"], res["q"]) == (11, 13, 67)
    assert res["regime"] == "theorem"


def test_poisson_with_decay_grid(capsys):
    code, doc = run_cli(
        ["poisson", "--B", "64", "--a", "4", "--k", "2",
         "--decay-grid", "1,2,4"], capsys=capsys)
    assert code == 0
    res = doc["result"]
    assert res["probe"]["within"] is True
    assert len(res["decay"]["rows"]) == 3


def test_poisson_decay_rows_below_the_floor(capsys):
    """Past xi = 32 the transform is below the table's rounding floor: those
    rows are flagged, named in one warning and kept out of max_product."""
    grid = [2**i for i in range(13)]
    code, doc = run_cli(
        ["poisson", "--B", "64", "--a", "4", "--k", "6",
         "--decay-grid", ",".join(map(str, grid))], capsys=capsys)
    assert code == 0
    decay = doc["result"]["decay"]
    assert [r["below_floor"] for r in decay["rows"]] == [x > 32 for x in grid]
    assert decay["max_product"] == max(
        r["product"] for r in decay["rows"] if not r["below_floor"])
    assert decay["panels"] == 32768 and 0 < decay["floor"] < 1e-14
    assert len(decay["warnings"]) == 1
    assert "xi = 64, 128, 256, 512, 1024, 2048, 4096;" in decay["warnings"][0]


def test_cached_parser_dispatches_like_a_fresh_one(capsys):
    """The parser is built once per process; a usage error in between
    leaves it as a fresh one would be."""
    runs = [["poisson", "--B", "8", "--a", "2", "--k", "1"],
            ["poisson", "--B", "8", "--bogus"],
            ["count", "--poly", "x1^2-x2^2", "--n", "2", "--B", "3"],
            ["poisson", "--B", "8", "--a", "2", "--k", "1"]]

    def dispatch(argv):
        try:
            code = cli.dispatch(argv)
        except SystemExit as err:
            code = err.code
        cap = capsys.readouterr()
        return code, re.sub(r'"wall_time_ms": \d+', "", cap.out), cap.err

    cached = [dispatch(argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(dispatch(argv))
    assert cached == fresh
    assert [c for c, _, _ in cached] == [0, 64, 0, 0]
    assert cached[0] == cached[3]


@pytest.mark.parametrize("argv", [
    ["count", "--poly", "x1^4+2*x2^4-x3^4", "--n", "3", "--B", "2", "--modulus", "5"],
    ["geom", "rcheck", "--form", "x1^4+2*x2^4-x3^4", "--n", "3", "--p", "5"],
], ids=["poly", "form"])
def test_leading_minus_value_in_equals_spelling(capsys, argv):
    """A --poly or --form value that starts with "-" is written with "=":
    -f has the zeros of f, so the result is f's.  As a word of its own the
    value reads as an option, which exits 64."""
    at = argv.index("--n") - 2
    flag, neg = argv[at], "-x1^4-2*x2^4+x3^4"
    code, want = run_cli(argv, capsys=capsys)
    got_code, got = run_cli([*argv[:at], f"{flag}={neg}", *argv[at + 2:]],
                            capsys=capsys)
    assert code == got_code == 0 and got["result"] == want["result"]
    with pytest.raises(SystemExit) as err:
        cli.dispatch([*argv[:at], flag, neg, *argv[at + 2:]])
    assert err.value.code == 64


def test_refusal_exit_code_and_error_schema(capsys):
    code, doc = run_cli(
        ["count", "--poly", "x1^+2", "--n", "1", "--B", "1"], capsys=capsys)
    assert code == 2
    assert doc["schema"] == "vdc/error/v1"
    assert doc["error"]["code"] == "input"
    assert doc["error"]["message"]


def test_budget_refusal_exit_code(capsys):
    code, doc = run_cli(
        ["pipeline", "--poly", "x1^3+x2^3+x3^3", "--n", "3", "--B", "4",
         "--pi", "2", "--p", "3", "--q", "5", "--budget", "10"],
        capsys=capsys)
    assert code == 2
    assert doc["error"]["code"] == "budget"


CUBIC3 = "x1^3+2*x2^3-x3^3+x1*x2*x3"


def test_count_modulus_past_int64_products(capsys):
    # 8589934613 = m + 4, so x1 = +-2 are the zeros mod m
    code, doc = run_cli(
        ["count", "--poly", "x1^2-8589934613", "--n", "1", "--B", "6",
         "--modulus", "8589934609"], capsys=capsys)
    assert code == 0
    assert doc["result"]["value"] == 2


def test_pipeline_q_past_int64_products(capsys):
    code, doc = run_cli(
        ["pipeline", "--poly", CUBIC3, "--n", "3", "--B", "4", "--pi", "3",
         "--p", "5", "--q", "8589934609"], capsys=capsys)
    assert code == 0
    res = doc["result"]
    # q exceeds every |f| on the box, so this is the hat-weighted count of
    # the integer zeros, summed by brute force in Python ints
    assert res["counts"]["count_full"] == {"num": "43", "den": "8"}
    assert all(r["ok"] for r in res["residuals"].values())


def test_pipeline_q_near_2_61_runs(capsys):
    """p^n q = 125 (2^61 - 1) once keyed level 1 past int64, and the
    command was refused; level 1 now keys by box class, and level 2 with
    it."""
    code, doc = run_cli(
        ["pipeline", "--poly", CUBIC3, "--n", "3", "--B", "4", "--pi", "3",
         "--p", "5", "--q", "2305843009213693951", "--pair-table"],
        capsys=capsys)
    assert code == 0
    res = doc["result"]
    # q exceeds every |f| on the box: the count of the integer zeros again
    assert res["counts"]["count_full"] == {"num": "43", "den": "8"}
    assert all(r["ok"] for r in res["residuals"].values())
    assert res["pair"]["exact"] is True


@pytest.mark.parametrize("argv,error", [
    (["count", "--poly", "x1^2-4", "--n", "1", "--B", "6",
      "--modulus", "18446744073709551629"], "input"),
    # ((2*4+1) * (2*2+1))^12 = 45^12 pair-table cells >= 2^63
    (["pipeline", "--poly", CUBIC3, "--n", "12", "--B", "2", "--pi", "2",
      "--p", "3", "--q", "5", "--pair-table"], "precondition"),
    (["pipeline", "--poly", CUBIC3, "--n", "3", "--B", "4", "--pi", "3",
      "--p", "101", "--q", "103", "--budget", "200000"], "budget"),
    (["pipeline", "--poly", CUBIC3, "--n", "3", "--B", "4", "--pi", "3",
      "--p", "5", "--q", "7", "--budget", "0"], "input"),
    (["pipeline", "--poly", CUBIC3, "--n", "3", "--B", "4", "--pi", "3",
      "--p", "5", "--q", "7", "--budget", "-5"], "input"),
], ids=["modulus-past-2^63", "pair-key-packing", "zero-grid-mod-p",
        "budget-0", "budget-negative"])
def test_oversized_moduli_and_grids_refuse(argv, error, capsys):
    code, doc = run_cli(argv, capsys=capsys)
    assert code == 2
    assert doc["schema"] == "vdc/error/v1"
    assert doc["error"]["code"] == error


def test_usage_errors_exit_64(capsys):
    for argv in (["nonsense"],
                 ["count", "--poly", "x1^2", "--n", "zzz", "--B", "1"],
                 []):
        with pytest.raises(SystemExit) as ei:
            cli.dispatch(argv)
        assert ei.value.code == 64
        capsys.readouterr()


def test_common_flags_before_a_nested_subcommand_exit_64(capsys):
    rcheck = ["rcheck", "--form", "x1^4+x2^4+x3^4", "--n", "3", "--p", "5"]
    diff = ["diff", "--poly", "x1^3", "--n", "1", "--y", "1"]
    for argv in (["geom", "--budget", "10"] + rcheck, ["poly", "--seed", "7"] + diff):
        with pytest.raises(SystemExit) as ei:
            cli.dispatch(argv)
        assert ei.value.code == 64, argv
        capsys.readouterr()
    # after the leaf subcommand the same flags take effect
    code, doc = run_cli(["geom"] + rcheck + ["--budget", "10"], capsys=capsys)
    assert code == 0
    assert doc["run"]["budget"]["limit"] == 10
    assert doc["result"]["r1"]["verdict"] == "skipped_budget"
    code, doc = run_cli(["poly"] + diff + ["--seed", "7"], capsys=capsys)
    assert code == 0
    assert doc["run"]["seed"] == 7


@pytest.mark.parametrize("argv", [
    ["geom", "rcheck", "--form", "x1^4+x2^4+x3^4", "--n", "3", "--p", "5",
     "--r2-samples", "0"],
    ["geom", "rcheck", "--form", "x1^4+x2^4+x3^4", "--n", "3", "--p", "5",
     "--r2-samples", "-1"],
    ["geom", "rcheck", "--form", "5*x1^4+5*x2^4", "--n", "2", "--p", "5",
     "--checks", "r9"],
    ["geom", "rcheck", "--form", "x1^4+x2^4+x3^4", "--n", "3", "--p", "5",
     "--checks", ""],
    ["geom", "rcheck", "--form", "x1^4+x2^4+x3^4", "--n", "3", "--p", "5",
     "--checks", ","],
    ["geom", "rcheck", "--form", "x1^4+x2^4+x3^4+x4^4", "--n", "4", "--p", "11",
     "--seed", "-1", "--checks", "r2"],
], ids=["r2-samples-0", "r2-samples-negative", "unknown-check-zero-form", "no-checks",
        "no-checks-comma", "seed-negative"])
def test_rcheck_bad_options_refuse(argv, capsys):
    code, doc = run_cli(argv, capsys=capsys)
    assert code == 2
    assert doc["error"]["code"] == "input"


@pytest.mark.parametrize("argv", [
    ["count", "--poly", "x1^4+x2^4-2*x3^4", "--n", "3", "--B", "1", "--modulus", "3"],
    ["geom", "sing", "--form", "x1^4+x2^4+x3^4+x4^4+x5^4", "--n", "5", "--field", "7"],
    ["pipeline", "--poly", "x1^3+x2^3+x3^3-x1*x2*x3", "--n", "3", "--B", "4",
     "--pi", "2", "--p", "3", "--q", "5"],
    ["exponents", "--n", "7"],
    ["poisson", "--B", "64", "--a", "2", "--k", "1"],
    ["poly", "diff", "--poly", "x1^3", "--n", "1", "--y", "1"],
], ids=["count", "geom-sing", "pipeline", "exponents", "poisson", "poly-diff"])
def test_negative_seed_refused_by_every_subcommand(argv, capsys):
    code, doc = run_cli(argv + ["--seed", "-1"], capsys=capsys)
    assert code == 2
    assert doc["error"] == {"code": "input", "message": "seed must be >= 0",
                            "details": {"seed": -1}}


def test_internal_error_exit_code(capsys, monkeypatch):
    def boom(args, budget):
        raise RuntimeError("synthetic")

    monkeypatch.setitem(cli._HANDLERS, "exponents", boom)
    code = cli.dispatch(["exponents", "--n", "12"])
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert doc["error"]["code"] == "internal"
    assert "synthetic" in captured.err


def test_worker_count_byte_identity(capsys):
    """There is no --workers flag: every command runs single-threaded, and
    the flag is a usage error."""
    for base in (["pipeline", "--poly", "x1^3+x2^3+x3^3-x1*x2*x3", "--n", "3",
                  "--B", "4", "--pi", "2", "--p", "3", "--q", "5",
                  "--weight", "smooth", "--pair-table"],
                 ["count", "--poly", "x1^4+x2^4+x3^4", "--n", "3", "--B", "6",
                  "--modulus", "13"]):
        with pytest.raises(SystemExit) as ei:
            cli.dispatch(base + ["--workers", "4"])
        assert ei.value.code == 64, base
        capsys.readouterr()


def test_emit_writes_file(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = cli.dispatch(["exponents", "--n", "12", "--emit", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert out.read_text() == printed
    json.loads(printed)


def _readme_commands():
    """The argv of every `vdc ...` line in the README's CLI block."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("vdc ")]


def test_readme_commands(capsys):
    cmds = _readme_commands()
    assert len(cmds) >= 10
    for argv in cmds:
        assert run_bytes(argv, capsys) == run_bytes(argv, capsys), argv
