"""Benchmark for vdc: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload ledger --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; vdc is imported from ./src.  The
workload's ops (see workloads.py) are generated from the seed and fed to
vdc.cli.dispatch in-process by one closed-loop client: the next op starts
when the previous one returns, passes repeat while the next one should
end within --seconds, and --workers stays at its default of 1.  Every
result is checked (checks.py); an op fails on a nonzero exit or a failed
check.  `--workload count-bigmod` runs a known-defect probe instead of a
benchmarked workload (see DEFECT_PROBES in workloads.py).

The last line of stdout is one JSON object.  With --trace 0 its metrics
are the end-to-end ones:

    wall_s        median time of one pass over the ops (dispatch calls only)
    setup_s       median, over SETUP_RUNS fresh interpreters, of the time
                  from process start until `import numpy, vdc.cli` is done
    peak_rss_mib  ru_maxrss of this process
    ok_share      1 - failed ops / attempted ops

With --trace 1 the first half of the time runs untraced passes and the
second half traced ones (spans.py); the metrics are the per-layer ones,
medians over the traced passes, plus trace.overhead_s (traced minus
untraced median pass time).  The line before the JSON summarizes the run
for people, including fail_share and the fallbacks per pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import DEFECT_PROBES, WORKLOADS

SETUP_RUNS = 7
SRC = Path("src")


def measure_setup() -> float:
    """Median time from spawning an interpreter until vdc.cli is imported.

    The child reports time.monotonic(), which is system-wide, when its
    imports are done; interpreter teardown is not counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC.resolve()))
    code = "import time, numpy, vdc.cli; print(repr(time.monotonic()))"
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        times.append(float(out) - t0)
    return statistics.median(times)


def call(cli, argv: list) -> tuple[int, str, float]:
    """(exit code, stdout, seconds) of one dispatch."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.dispatch(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, buf.getvalue(), time.perf_counter() - t0


class Runner:
    def __init__(self, cli, ops: list):
        self.cli, self.ops = cli, ops
        self.checks = checks.make_checks(ops)
        self.attempted = self.failed = 0
        self.reported = set()

    def _problems(self, i: int, rc, out: str) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            result = json.loads(out)["result"]
            return self.checks[i](result)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"malformed result: {exc!r}"]

    def one_pass(self, tracer=None) -> dict:
        if tracer is not None:
            tracer.reset()
        wall, fallbacks = 0.0, 0
        for i, op in enumerate(self.ops):
            rc, out, dt = call(self.cli, op.argv)
            wall += dt
            problems = self._problems(i, rc, out)
            self.attempted += 1
            if problems:
                self.failed += 1
                if i not in self.reported:
                    self.reported.add(i)
                    print(f"op {i} failed ({' '.join(op.argv)}): {'; '.join(problems)}",
                          file=sys.stderr)
            else:
                fallbacks += checks.fallbacks(op, json.loads(out)["result"])
        record = {"wall": wall, "fallbacks": fallbacks}
        if tracer is not None:
            record["layers"] = tracer.metrics()
        return record

    def passes(self, seconds: float, tracer=None) -> list:
        """At least one pass; another only if, taking as long as the last
        one, it would end within `seconds` of the start."""
        end = time.perf_counter() + seconds
        out = []
        while True:
            t0 = time.perf_counter()
            out.append(self.one_pass(tracer))
            now = time.perf_counter()
            if 2 * now - t0 > end:
                return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ops_for = {**WORKLOADS, **DEFECT_PROBES}
    ap.add_argument("--workload", required=True, choices=sorted(ops_for))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "vdc" / "cli.py").is_file():
        print("run.py: no src/vdc here; run it from the root of a vdc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    setup_s = None if args.trace else measure_setup()
    import vdc.cli

    runner = Runner(vdc.cli, ops_for[args.workload](args.seed))
    if args.trace:
        import spans

        plain = runner.passes(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        runs = runner.passes(args.seconds / 2, tracer)
    else:
        runs = runner.passes(args.seconds)

    wall_s = statistics.median(r["wall"] for r in runs)
    fail_share = runner.failed / runner.attempted
    fallbacks = statistics.median(r["fallbacks"] for r in runs)
    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in runs),
                          "unit": unit}
                   for name, unit, _ in spans.PER_LAYER}
        overhead = wall_s - statistics.median(r["wall"] for r in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["fallbacks"] = {"value": fallbacks, "unit": "count"}
        metrics["fail_share"] = {"value": fail_share, "unit": "share"}
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
            "ok_share": {"value": 1 - fail_share, "unit": "share"},
        }
    summary = [f"workload={args.workload}", f"seed={args.seed}",
               f"passes={len(runs)}", f"wall_s={wall_s:.4f} s"]
    if not args.trace:
        summary += [f"setup_s={setup_s:.4f} s",
                    f"peak_rss_mib={metrics['peak_rss_mib']['value']:.1f} MiB"]
    summary += [f"fail_share={fail_share:.4f} ({runner.failed}/{runner.attempted} ops)",
                f"fallbacks={fallbacks:g} per pass"]
    print(" ".join(summary))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
