"""One benchmark child: a fresh interpreter that sets up, says READY,
waits for GO (or EXIT), runs its workload once and prints one JSON line.

Run by perfbench/run.py as ``python3 perfbench/child.py '<spec json>'``
from the checkout root, with ``src`` on PYTHONPATH.  The spec holds the
workload name, seed, number of stream passes, trace flag and a scratch
directory.
"""

import io
import json
import os
import resource
import sys
import time
import traceback

import workloads as wl


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_cli(cli, argv, out_path):
    """Time one cli.main call; its stdout summary is captured."""
    real_stdout = sys.stdout
    sys.stdout = io.StringIO()
    try:
        t0 = time.perf_counter()
        code = cli.main(argv + ["--json", out_path])
        wall = time.perf_counter() - t0
    finally:
        sys.stdout = real_stdout
    return code, wall


def cli_workload(spec, argv, check):
    from quatcliff import cli
    out_path = os.path.join(spec["workdir"], "report.json")
    try:
        code, wall = _run_cli(cli, argv, out_path)
    except Exception:
        return {"crashed": traceback.format_exc(limit=3)}
    rss = _peak_rss_mb()
    try:
        with open(out_path) as fh:
            report = json.load(fh)
        attempted, failed, problems = check(report, code)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {"crashed": f"unreadable report (exit {code}): {exc!r}"}
    return {"latencies": [wall], "walls": [wall], "peak_rss_mb": rss,
            "attempted": attempted, "failed": failed, "problems": problems,
            "exit_code": code, "digest": wl.digest(wl.deterministic_part(report))}


def stream_workload(spec):
    """Decompose one seeded round of inputs in `spec["repeats"]` passes.
    Every call is one latency sample and every pass is validated and must
    give the same outputs."""
    from quatcliff import fischer
    from quatcliff.poly import SpinorPolynomial
    from quatcliff.scalars import xs
    inputs = wl.stream_round(spec["seed"])
    polys = [SpinorPolynomial(2 * wl.P, {k: xs(re, im)
                                         for k, (re, im) in t.items()})
             for t in inputs]
    passes, problems, digests = [], [], []
    failed = 0
    for n in range(1, spec["repeats"] + 1):
        times, outputs = [], []
        for terms, F in zip(inputs, polys):
            t0 = time.perf_counter()
            try:
                rep = fischer.decompose_polynomial(F, wl.P)
            except Exception:
                rep = traceback.format_exc(limit=3)
            times.append(time.perf_counter() - t0)
            # validate before the next input, so only one report is alive
            if isinstance(rep, str):
                bad = [rep.strip().splitlines()[-1]]
                outputs.append(rep)
            else:
                bad = wl.check_decomposition(terms, rep)
                outputs.append(wl.digest(rep.to_json()))
            failed += bool(bad)
            problems.extend(f"pass {n}: {b}" for b in bad)
        passes.append(times)
        digests.append(wl.digest(outputs))
    if len(set(digests)) > 1:
        problems.append("outputs differ between passes")
    return {"latencies": [x for times in passes for x in times],
            "walls": [sum(times) for times in passes],
            "peak_rss_mb": _peak_rss_mb(),
            "attempted": len(inputs) * len(passes), "failed": failed,
            "problems": problems[:20], "digest": digests[0]}


def setup(spec):
    """Import the package (and fill the piece cache for the stream);
    returns the tracer when tracing."""
    import quatcliff
    from quatcliff import cli, scalars  # noqa: F401  (loads every layer)
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(quatcliff.__file__).startswith(src + os.sep):
        raise RuntimeError(f"quatcliff imported from {quatcliff.__file__}, "
                           f"not from {src}")
    tracer = None
    if spec["trace"]:
        import tracer as tr
        tracer = tr.Tracer()
        tr.install(tracer)
    if spec["workload"] == "decompose_stream":
        from quatcliff import fischer
        for a, b in wl.STREAM_BIDEGREES:
            fischer.full_decomposition_pieces(wl.P, a, b)
    return tracer


def main():
    spec = json.loads(sys.argv[1])
    tracer = setup(spec)
    if tracer is not None:
        import tracer as tr
        at_ready = tr.snapshot(tracer)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0
    name = spec["workload"]
    if name == "relations_p2":
        result = cli_workload(spec, wl.RELATIONS_ARGV, wl.check_relations)
    elif name == "tiling_p2":
        from quatcliff.poly import poly_dim
        result = cli_workload(
            spec, wl.TILING_ARGV,
            lambda report, code: wl.check_tiling(report, code, poly_dim))
    else:
        result = stream_workload(spec)
    from quatcliff import scalars
    result["backend"] = scalars.BACKEND_NAME
    result["python"] = sys.version.split()[0]
    if tracer is not None:
        at_end = tr.snapshot(tracer)
        result["layers"], result["layers_by_phase"] = tr.phase_metrics(
            at_ready, at_end)
        result["bases"] = tr.bases(at_ready, at_end)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
