"""Run every workload over several seeds and summarize; optionally save.

    python3 perfbench/report.py --seeds 10 --seconds 30 [--out FILE]

Run from the root of a checkout.  For each workload it runs run.py once
per seed (1..N) untraced and once traced (seed 1), each in a fresh
process, and prints every run's summary line (wall_s, setup_s,
peak_rss_mib, fail_share and fallbacks, with units) and then, per
end-to-end metric, the median and quartiles over the seeds, with the
quartile spread as a share of the median.  With --out it writes all of
that, the traced per-layer metrics, nproc, the Python and numpy versions
and a digest of src/vdc to FILE; baseline.json was written this way.
It also runs each known-defect probe once per seed for one second and
records whether its checks still fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import DEFECT_PROBES, WORKLOADS

RUN = Path(__file__).with_name("run.py")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout.splitlines()
    print(out[-2], flush=True)
    return json.loads(out[-1])


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("src/vdc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1 = q3 = med
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    seeds = list(range(1, args.seeds + 1))
    report = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": np.__version__, "src_vdc_sha256": src_digest(),
              "run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, s, args.seconds, 0) for s in seeds]
        traced = run_once(workload, seeds[0], args.seconds, 1)
        e2e = {}
        for name, m in runs[0]["metrics"].items():
            e2e[name] = {"unit": m["unit"],
                         **spread([r["metrics"][name]["value"] for r in runs])}
        report["workloads"][workload] = {
            "end_to_end": e2e,
            "correct": all(r["correct"] for r in runs),
            "fail_share": traced["metrics"]["fail_share"]["value"],
            "fallbacks": traced["metrics"]["fallbacks"]["value"],
            "per_layer_traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    report["defect_probes"] = {}
    for probe in DEFECT_PROBES:
        runs = [run_once(probe, s, 1, 0) for s in seeds]
        report["defect_probes"][probe] = {
            "correct": all(r["correct"] for r in runs),
            "fail_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
        }
    print()
    for workload, data in report["workloads"].items():
        for name, s in data["end_to_end"].items():
            print(f"{workload:7s} {name:13s} median {s['median']:10.4f} {s['unit']:5s}"
                  f" q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['iqr_share']:.4f}")
        print(f"{workload:7s} fail_share {data['fail_share']:.4f} share, "
              f"fallbacks {data['fallbacks']:g} count per pass")
    for probe, data in report["defect_probes"].items():
        print(f"{probe} (defect probe) fail_share {data['fail_share']:.4f} share")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
