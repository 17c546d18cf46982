"""Run the benchmark over several seeds and print, per workload and
metric, the median, quartiles and spread (interquartile distance as a
share of the median), with units, sample counts, the fail ratio and the
calibration loop times.

    python3 perfbench/spread.py --workloads relations_p2,tiling_p2,decompose_stream --seeds 1-10

Runs are sequential and untraced, from the current directory (a checkout
root), with BENCHMARK.json's run_seconds.  Each run's result line and
record are appended to .perfbench/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_seeds(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        with open(os.path.join(".perfbench", f"{workload}.json")) as fh:
            record = json.load(fh)
        runs.append((result, record))
        with open(os.path.join(".perfbench", "spread.jsonl"), "a") as fh:
            fh.write(json.dumps({"result": result, "record": record}) + "\n")
    return runs


def summarize(workload, runs):
    failed = sum(r["failed"] for r, _ in runs)
    attempted = sum(r["attempted"] for r, _ in runs)
    samples = [rec["samples"] for _, rec in runs]
    calib = [x for _, rec in runs for x in rec["calibration_s"]]
    print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r, _ in runs)}, "
          f"fail_ratio {failed}/{attempted}, latency samples per run "
          f"{min(samples)}..{max(samples)}, calibration loop "
          f"{min(calib):.3f}..{max(calib):.3f} s, outputs "
          f"{sorted({d[:12] for _, rec in runs for d in rec['digests']})}")
    for name in runs[0][0]["metrics"]:
        values = [r["metrics"][name]["value"] for r, _ in runs]
        unit = runs[0][0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:42s} {unit:6s} median {med:14.6f}  q1 {q1:14.6f}"
              f"  q3 {q3:14.6f}  spread {spread:.4f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default="relations_p2,tiling_p2,decompose_stream")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    os.makedirs(".perfbench", exist_ok=True)
    for workload in args.workloads.split(","):
        summarize(workload, run_seeds(workload, args.seeds, seconds))
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
