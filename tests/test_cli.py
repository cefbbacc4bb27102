"""Contract tests for the command-line interface.

Every command emits one JSON document; these tests pin the schema, the
exit codes, and byte-for-byte determinism across worker counts (after
normalizing the wall-clock field, which is the only nondeterministic
entry).
"""
import json
import re
from pathlib import Path

import pytest

import vdc.cli as cli


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


def test_pipeline_float_level2_golden(capsys):
    """Exact weights with a float64 level 2: the golden pins the order of
    the pair table's float sums (qsum, the per-y sums behind the aggregate)."""
    code, doc = run_cli(
        ["pipeline", "--poly", "x1^3+x2^3+x3^3-x1*x2*x3", "--n", "3",
         "--B", "6", "--pi", "5", "--p", "3", "--q", "29",
         "--pair-table"], capsys=capsys)
    assert code == 0
    assert doc["result"]["pair"]["exact"] is False
    golden = Path(__file__).parent / "golden" / "pipeline_pi5_float_level2_result.json"
    assert doc["result"] == json.loads(golden.read_text())


GEOMETRY_GOLDENS = [
    (["geom", "sing", "--form", "x1^4+x2^4+x3^4+x4^4+x5^4", "--n", "5",
      "--field", "7"], "geom_sing_fermat5_f7_result.json"),
    (["geom", "sing", "--form", "x1^4+x2^4+x3^4+x4^4+x5^4", "--n", "5",
      "--field", "3^2"], "geom_sing_fermat5_f9_result.json"),
    (["geom", "rcheck", "--form", "x1^4+x2^4+x3^4", "--n", "3", "--p", "5"],
     "geom_rcheck_quartic3_p5_result.json"),
]


@pytest.mark.parametrize("argv,golden", GEOMETRY_GOLDENS,
                         ids=[g for _, g in GEOMETRY_GOLDENS])
def test_geometry_showcase_golden(argv, golden, capsys):
    """The whole result of each geometry showcase command is pinned."""
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


@pytest.mark.parametrize("argv,error", [
    (["count", "--poly", "x1^2-4", "--n", "1", "--B", "6",
      "--modulus", "18446744073709551629"], "input"),
    (["pipeline", "--poly", CUBIC3, "--n", "3", "--B", "4", "--pi", "3",
      "--p", "5", "--q", "2305843009213693951"], "precondition"),
    (["pipeline", "--poly", CUBIC3, "--n", "3", "--B", "4", "--pi", "3",
      "--p", "101", "--q", "103", "--budget", "200000"], "budget"),
], ids=["modulus-past-2^63", "level1-key-packing", "zero-grid-mod-p"])
def test_oversized_moduli_and_grids_refuse(argv, error, capsys):
    code, doc = run_cli(argv, capsys=capsys)
    assert code == 2
    assert doc["error"]["code"] == error


def test_usage_errors_exit_64(capsys):
    for argv in (["nonsense"],
                 ["count", "--poly", "x1^2", "--n", "zzz", "--B", "1"],
                 []):
        with pytest.raises(SystemExit) as ei:
            cli.dispatch(argv)
        assert ei.value.code == 64
        capsys.readouterr()


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
    base = ["pipeline", "--poly", "x1^3+x2^3+x3^3-x1*x2*x3", "--n", "3",
            "--B", "4", "--pi", "2", "--p", "3", "--q", "5",
            "--weight", "smooth", "--pair-table"]
    one = run_bytes(base + ["--workers", "1"], capsys)
    four = run_bytes(base + ["--workers", "4"], capsys)
    assert one == four

    base = ["count", "--poly", "x1^4+x2^4+x3^4", "--n", "3", "--B", "6",
            "--modulus", "13"]
    one = run_bytes(base + ["--workers", "1"], capsys)
    four = run_bytes(base + ["--workers", "4"], capsys)
    assert one == four


def test_emit_writes_file(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = cli.dispatch(["exponents", "--n", "12", "--emit", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert out.read_text() == printed
    json.loads(printed)
