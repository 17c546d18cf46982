"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

From a checkout root, for each of the three workloads it makes two
traced runs with the same seed and asserts that

* both runs validate their outputs, and traced and untraced outputs have
  the same sha256 (run.py marks the result incorrect otherwise);
* every count (calls, cells, bytes, ratios) repeats exactly;
* each span fires on the workloads perfbench/predictions.json names in
  ``fires_on`` and stays at zero on those in ``absent_on``.

It also copies BENCHMARK.json and perfbench/ alone into a scratch
directory and asserts that the benchmark exits non-zero there without
printing a result.  Exits 1 when any assertion fails.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

TIME_UNITS = ("s", "ms")


def check_workload(workload, units, predictions):
    problems = []
    results = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        with open(os.path.join(".perfbench", f"{workload}.json")) as fh:
            digests = json.load(fh)["digests"]
        if len(digests) != 1:
            problems.append(f"traced and untraced digests differ: {digests}")
        results[-1]["digests"] = digests
    first, second = results
    for res in results:
        if not res["correct"]:
            problems.append("a traced run reported correct=false")
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != units:
            problems.append(f"metrics or units differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(units.items()))}")
            return problems
    if first["digests"] != second["digests"]:
        problems.append("output digests differ between the two runs")
    for name, unit in units.items():
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if unit not in TIME_UNITS and a != b:
            problems.append(f"{name}: count differs between runs ({a} vs {b})")
        pred = predictions.get(name, {})
        if workload in pred.get("fires_on", ()) and not a > 0:
            problems.append(f"{name}: predicted to fire but is {a}")
        if workload in pred.get("absent_on", ()) and a != 0:
            problems.append(f"{name}: predicted absent but is {a}")
        exact = pred.get("exact", {}).get(workload)
        if exact is not None and a != exact:
            problems.append(f"{name}: expected exactly {exact}, got {a}")
    return problems


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: exit non-zero, no result."""
    with tempfile.TemporaryDirectory(dir=".perfbench") as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tiling_p2",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "predictions.json")) as fh:
        predictions = json.load(fh)["layers"]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failed = False
    for workload in WORKLOADS:
        problems = check_workload(workload, units, predictions)
        print(f"{workload}: {'ok' if not problems else 'FAIL'}", flush=True)
        for p in problems:
            print(f"  {p}")
        failed = failed or bool(problems)
    problems = check_bare_directory()
    print(f"bare directory: {'ok' if not problems else 'FAIL'}")
    for p in problems:
        print(f"  {p}")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
