"""quatcliff benchmark: end-to-end and per-layer timings of three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload relations_p2 --seed 1 --seconds 20 --trace 0

Workloads (one caller, closed loop, every child a fresh interpreter with
QUATCLIFF_WORKERS=1 and a fixed PYTHONHASHSEED):

* ``relations_p2``  ``quatcliff verify-relations --p 2 --max-degree 2``:
  144 bracket rules on six bidegrees; operator application and scalars.
* ``tiling_p2``     ``quatcliff fischer --p 2 --a 2 --b 2 --check thm10``:
  the graded tiling at degree 4 from cold caches; elimination and
  kernel/piece construction.  Its (2,2) bidegree fails today (piece
  dimensions sum to 1608 against rank 1600) and is counted as 1 failed
  check of 5.
* ``decompose_stream``  ``fischer.decompose_polynomial`` on seeded
  Gaussian-integer polynomials at p=2, each covering a subset of the six
  bidegrees with a+b <= 2, pieces cached during set-up.

With ``--trace 0`` the run reports the end-to-end metrics over a fixed
number of timed repetitions that follows from ``--seconds`` alone.  With
``--trace 1`` it makes one call (or one stream pass) untraced and one
with every layer's public functions wrapped (perfbench/tracer.py), and
reports the per-layer metrics and the tracing overhead.  The piece
construction metrics (tracer.SETUP_AND_TIMED) cover set-up and the
timed call; every other per-layer metric covers the timed call only, so
the pieces decompose_stream builds in set-up show there and in setup_s,
not in the stream's counts.  Every output is validated;
``attempted``/``failed`` count checks (rules, bidegrees or inputs), and
a crash or an output that cannot be validated counts as failed.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  A fuller record goes to .perfbench/<workload>.json.
The run exits 2 without a result when the checkout holds no quatcliff
sources, and 1 when a child cannot be set up.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
HASH_SEED = "0"
# checks one operation attempts, charged as failed when it crashes
CHECKS_PER_OP = {"relations_p2": wl.RELATIONS_RULES,
                 "tiling_p2": wl.TILING_DEGREE + 1,
                 "decompose_stream": len(wl.STREAM_SUBSETS)}


# seconds of --seconds that one timed repetition stands for
REPEAT_S = {"relations_p2": 30.0, "tiling_p2": 20.0, "decompose_stream": 5.0}


class SetupFailed(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    for name in ("QUATCLIFF_DIM_CAP", "QUATCLIFF_RATIONAL_BACKEND"):
        env.pop(name, None)
    env["QUATCLIFF_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(root, spec, go):
    """Spawn one child; returns (setup seconds, result dict or None).

    Set-up time runs from spawning the child until it reports READY.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    with tempfile.TemporaryFile(mode="w+", dir=spec["workdir"]) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            if ready.strip() != "READY":
                proc.wait(timeout=CHILD_TIMEOUT_S)
                err.seek(0)
                raise SetupFailed(err.read()[-2000:] or "child exited early")
            try:
                out, _ = proc.communicate("GO\n" if go else "EXIT\n",
                                          timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return setup_s, {"crashed": "child timed out"}
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if not go:
            return setup_s, None
        lines = out.strip().splitlines()
        try:
            return setup_s, json.loads(lines[-1])
        except (IndexError, ValueError):
            err.seek(0)
            return setup_s, {"crashed": f"exit {proc.returncode}: "
                                        f"{err.read()[-2000:]}"}


def repeats(workload, seconds):
    """Timed repetitions in one run: CLI calls or stream passes.

    The count follows from --seconds alone, never from measured times,
    so every version of the program is measured on the same number of
    samples.  At --seconds 20 it is one CLI call (each takes 15-35 s on a
    2-vCPU machine) or four stream passes (7-13 s each).
    """
    return max(1, round(seconds / REPEAT_S[workload]))


def measure(root, workload, seed, count, trace, workdir, setup_samples=1):
    """Run `count` timed repetitions in a closed loop of fresh children.

    The CLI workloads make one call per child (caches start cold each
    time); the stream runs all its passes inside one child.  Set-up-only
    children are spawned until `setup_samples` set-ups were timed.
    """
    stream = workload == "decompose_stream"
    spec = {"workload": workload, "seed": seed,
            "repeats": count if stream else 1, "trace": trace,
            "workdir": workdir}
    setups, results = [], []
    # set-up-only children before and after the work, to spread them in time
    for _ in range((setup_samples - 1) // 2):
        setups.append(run_child(root, spec, go=False)[0])
    for _ in range(1 if stream else count):
        setup_s, res = run_child(root, spec, go=True)
        setups.append(setup_s)
        results.append(res)
        if "crashed" in res:
            break
    while len(setups) < setup_samples:
        setups.append(run_child(root, spec, go=False)[0])
    return setups, results


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a
    share q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tally(workload, results):
    """(attempted, failed, valid, problems) over all children."""
    attempted = failed = 0
    valid = True
    problems = []
    for res in results:
        if "crashed" in res:
            attempted += CHECKS_PER_OP[workload]
            failed += CHECKS_PER_OP[workload]
            valid = False
            problems.append(res["crashed"].strip().splitlines()[-1])
            continue
        attempted += res["attempted"]
        failed += res["failed"]
        if res["problems"]:
            valid = False
            problems.extend(res["problems"])
    return attempted, failed, valid, problems


def end_to_end(setups, results):
    """wall_s is the median time of one CLI call or one stream pass;
    every timed call is one latency sample."""
    ok = [r for r in results if "crashed" not in r]
    latencies = [x for r in ok for x in r["latencies"]]
    walls = [x for r in ok for x in r["walls"]]
    if not latencies:
        return {}, 0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
        "throughput_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
    }
    return metrics, len(latencies)


def calibrate():
    """A fixed pure-Python loop; its time shows machine drift between
    runs and is never used to normalise a metric."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def environment(root):
    # git may look at the checkout's own .git only, never above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)

    def git(*args):
        try:
            return subprocess.run(["git", "--no-optional-locks", *args],
                                  cwd=root, env=env, capture_output=True,
                                  text=True, timeout=30, check=True).stdout
        except (OSError, subprocess.SubprocessError):
            return None
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "git_sha": sha.strip() if sha else None,
            "git_dirty": bool(status.strip()) if status is not None else None,
            "pythonhashseed": HASH_SEED, "quatcliff_workers": "1"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quatcliff", "__init__.py")):
        print("error: no quatcliff sources under ./src; run from the root "
              "of a quatcliff checkout", file=sys.stderr)
        return 2
    state = os.path.join(root, ".perfbench")
    os.makedirs(state, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=state)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "repeats": 1 if args.trace else repeats(args.workload,
                                                      args.seconds),
              "environment": environment(root),
              "calibration_s": [calibrate()]}
    try:
        if args.trace:
            # one call or pass on each side, on the same inputs
            plain = measure(root, args.workload, args.seed, 1, False,
                            workdir)[1]
            traced = measure(root, args.workload, args.seed, 1, True,
                             workdir)[1]
            results = plain + traced
        else:
            setups, results = measure(root, args.workload, args.seed,
                                      record["repeats"], False, workdir,
                                      SETUP_SAMPLES)
    except SetupFailed as exc:
        print(f"error: a benchmark child could not be set up:\n{exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["calibration_s"].append(calibrate())

    attempted, failed, valid, problems = tally(args.workload, results)
    digests = sorted({r["digest"] for r in results if r.get("digest")})
    if args.trace:
        p, t = plain[0], traced[0]
        ok = "crashed" not in p and "crashed" not in t
        if ok and p["digest"] != t["digest"]:
            valid = False
            problems.append("traced and untraced outputs differ")
        metrics = {}
        if ok:
            metrics = {k: (v, unit_of(k)) for k, v in t["layers"].items()}
            metrics["trace.overhead_s"] = (t["walls"][0] - p["walls"][0], "s")
            record["bases"] = t["bases"]
            record["layers_by_phase"] = t["layers_by_phase"]
        samples = len(t.get("latencies", ()))
    else:
        metrics, samples = end_to_end(setups, results)
        record["setup_samples_s"] = setups
    valid = valid and bool(metrics)
    backends = sorted({r["backend"] for r in results if "backend" in r})
    record.update(backend=backends, digests=digests, samples=samples,
                  problems=problems[:50],
                  fail_ratio={"failed": failed, "attempted": attempted})

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{samples} latency samples over {record['repeats']} timed "
          f"repetition(s), backend {','.join(backends)}, "
          f"python {record['environment']['python']}, "
          f"nproc {record['environment']['nproc']}, "
          f"git {record['environment']['git_sha']} "
          f"dirty={record['environment']['git_dirty']}")
    phases = record.get("layers_by_phase")
    if phases:
        print(f"  {'metric':44s} {'reported':>14s} {'unit':6s} "
              f"{'set-up phase':>14s} {'timed phase':>14s}  reported over")
    for name, (value, unit) in metrics.items():
        line = f"  {name:44s} {value:14.6f} {unit:6s}"
        if phases and name in phases["setup"]:
            line += (f" {phases['setup'][name]:14.6f} "
                     f"{phases['timed'][name]:14.6f}  "
                     + ("set-up+timed" if name in tracer.SETUP_AND_TIMED
                        else "timed"))
        print(line)
    if not args.trace:
        print(f"  setup samples: {len(setups)}")
    for name, base in record.get("bases", {}).items():
        print(f"  base of {name}: {base}")
    print(f"  fail_ratio {failed / attempted if attempted else 1.0:.4f} "
          f"({failed}/{attempted} checks)")
    print("  calibration loop s: "
          + " ".join(f"{x:.4f}" for x in record["calibration_s"]))
    print(f"  output sha256: {' '.join(d[:16] for d in digests)}")
    for problem in problems[:10]:
        print(f"  problem: {problem}")
    with open(os.path.join(state, f"{args.workload}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(json.dumps({
        "correct": valid, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def unit_of(name):
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
