"""Command line front end: run configurations, JSON reports, exit codes.

Each check is one runner in the table `_RUNNERS`; its keys, in report
order, are `CHECK_NAMES`.  A runner returns the JSON dict it reports,
with a boolean "passed", and the library checks it calls return plain
JSON too, so nothing converts a report object.  Check names are short
stable tokens (they double as CLI flag values and report keys):

* ``relations``   the full bracket rule table, each rule proved in
                  normal form and checked on the polynomial spaces
                  only where the proof does not settle it
* ``cells``       the spinor cell triangle and its ladder scalars
* ``thm5``        tiling of scalar harmonics by twisted raising powers
* ``prop8``       tiling of the q-monogenic cell spaces
* ``prop9``       the sixteen-piece tiling of cell-valued symplectic
                  harmonics, with exclusion witnesses
* ``thm10``       the graded tiling of the whole polynomial space
* ``euclidean``   monogenic dimension ladder on R^(4p)
* ``hermitian``   per-grade hermitian ladder of even words
* ``example13``   the pinned p=2 decomposition of z2 fd{1}I

The grid checks (thm5 to hermitian) share one label loop, `_walk`: a
label whose space is over the dimension cap is reported as skipped with
its needed dimension, and every other label is run.  relations caps its
degree instead, and writes the same skip record when even degree 0 is
over the cap; cells and example13 have no labels.

`run` returns the report dict; `emit_report` is the one JSON writer,
for every subcommand's report.  `main` builds one RunConfig for each
report subcommand from `_COMMAND_CHECKS` (fischer runs the check it
names) and runs it; decompose splits an input polynomial instead.

The checks run one after another in this process, which starts no
other.  Emitted JSON is canonical (sorted keys), so identical
configurations produce identical bytes apart from the timing block.
"""

import argparse
import json
import sys
import time
from math import comb

from . import fischer, relations
from .env import env_int
from .poly import SpinorPolynomial, _is_int, poly_dim, require_int

SCHEMA_VERSION = 2

DEFAULT_DIM_CAP = 10 ** 5

MAX_TOTAL_DEGREE = 6


class RunConfig:
    """What to run: quaternionic rank p, degree range, selected checks.

    `dim_cap` bounds the spinor-valued polynomial spaces a check may
    touch; labels over the cap are reported as skipped, never attempted.
    `dim_cap` defaults to the QUATCLIFF_DIM_CAP environment variable; a
    value there that is not a positive integer raises ValueError.
    `label_filter` narrows the degree grid to one (a, b[, r]) label, under
    the same degree bound a + b <= MAX_TOTAL_DEGREE; the `fischer`
    subcommand uses it, programmatic callers may too.  A filter field
    that a selected check does not read (`_FILTER_FIELDS`) raises
    ValueError rather than being ignored.
    """

    __slots__ = ("p", "max_total_degree", "checks", "output", "dim_cap",
                 "label_filter")

    def __init__(self, p=1, max_total_degree=3, checks=(), output=None,
                 dim_cap=None, label_filter=None):
        self.p = p
        self.max_total_degree = max_total_degree
        self.checks = tuple(checks)
        self.output = output
        self.dim_cap = (env_int("QUATCLIFF_DIM_CAP", DEFAULT_DIM_CAP)
                        if dim_cap is None else dim_cap)
        self.label_filter = label_filter

    def validate(self):
        if not _is_int(self.p) or not 1 <= self.p <= 3:
            raise ValueError(f"p must be an integer in 1..3, got {self.p!r}")
        if (not _is_int(self.max_total_degree)
                or not 0 <= self.max_total_degree <= MAX_TOTAL_DEGREE):
            raise ValueError("max_total_degree must be an integer in "
                             f"0..{MAX_TOTAL_DEGREE}, "
                             f"got {self.max_total_degree!r}")
        unknown = [c for c in self.checks if c not in CHECK_NAMES]
        if unknown:
            raise ValueError(f"unknown checks {unknown}; "
                             f"valid names: {', '.join(CHECK_NAMES)}")
        require_int("dim_cap", self.dim_cap, 1)
        if self.label_filter is not None:
            a = self.label_filter.get("a")
            b = self.label_filter.get("b")
            r = self.label_filter.get("r")
            if not (_is_int(a) and a >= 0 and _is_int(b) and b >= 0):
                raise ValueError("label_filter needs integer a >= 0, b >= 0")
            if a + b > MAX_TOTAL_DEGREE:
                raise ValueError("label_filter a + b must be at most "
                                 f"{MAX_TOTAL_DEGREE}, got {a + b}")
            if r is not None and not (_is_int(r) and 0 <= r <= self.p):
                raise ValueError(f"label_filter r must be in 0..{self.p}")
            if "prop9" in self.checks and a < b:
                raise ValueError("prop9 is stated for a >= b only, "
                                 f"got a = {a} < b = {b}")
            for check in self.checks:
                unread = set(self.label_filter) - _FILTER_FIELDS.get(
                    check, set())
                if unread:
                    raise ValueError(f"check {check} does not read the "
                                     f"label_filter fields {sorted(unread)}")
        return self

    def to_json(self):
        out = {"p": self.p, "max_total_degree": self.max_total_degree,
               "checks": list(self.checks), "output": self.output,
               "dim_cap": self.dim_cap}
        if self.label_filter is not None:
            out["label_filter"] = dict(self.label_filter)
        return out


# ------------------------------------------------------------- the checks

def _grid(config):
    """Bidegree labels {a, b} to visit, honoring any label filter."""
    if config.label_filter is not None:
        pairs = [(config.label_filter["a"], config.label_filter["b"])]
    else:
        pairs = relations.bidegrees_up_to(config.max_total_degree)
    return [{"a": a, "b": b} for a, b in pairs]


def _columns(config):
    if config.label_filter is not None:
        r = config.label_filter.get("r")
        if r is not None:
            return [r]
    return list(range(0, config.p + 1))


def _walk(config, labels, needed, run):
    """The one label loop of the grid checks.

    Each label is a dict of keyword arguments for `needed`, the dimension
    of the space the label touches, and for `run`, which checks the label
    and returns its report fields.  A label over `config.dim_cap` is not
    run; its entry is the label plus the skip record.  Returns the
    entries in label order and whether every run label passed.
    """
    cap = config.dim_cap
    entries = []
    passed = True
    for label in labels:
        dim = needed(**label)
        if dim > cap:
            entries.append(dict(label, skipped="cap", needed_dim=dim,
                                dim_cap=cap))
            continue
        entry = dict(label, **run(**label))
        passed = passed and entry["passed"]
        entries.append(entry)
    return entries, passed


def _report(rep):
    return {"report": rep, "passed": rep["passed"]}


def _run_relations(config):
    p, cap = config.p, config.dim_cap
    spinor = 1 << (2 * p)
    degree = config.max_total_degree
    capped = False
    while degree >= 0 and any(
            poly_dim(p, a, b) * spinor > cap
            for a, b in relations.bidegrees_up_to(degree)):
        degree -= 1
        capped = True
    if degree < 0:
        return {"p": p, "rules": [], "skipped": "cap", "needed_dim": spinor,
                "dim_cap": cap, "passed": True}
    rules = relations.verify_table(p, degree)
    out = {"p": p, "max_total_degree": degree, "rule_count": len(rules),
           "rules": rules, "passed": all(r["passed"] for r in rules)}
    if capped:
        out["capped_at_degree"] = degree
    return out


def _run_thm5(config):
    p = config.p

    def run(a, b):
        rep = fischer.symplectic_harmonic_decomposition(p, a, b)
        out = {"tiling": rep, "passed": rep["passed"]}
        if a >= b:
            sl2 = fischer.sl2_module_checks(p, a, b)
            out.update(sl2=sl2, passed=rep["passed"] and sl2["passed"])
        return out

    entries, passed = _walk(config, _grid(config),
                            lambda a, b: poly_dim(p, a, b), run)
    return {"p": p, "labels": entries, "passed": passed}


def _run_prop8(config):
    p = config.p
    labels = [dict(ab, r=r, k=k) for ab in _grid(config)
              for r in _columns(config) for k in range(0, p - r + 1)]
    entries, passed = _walk(
        config, labels,
        lambda a, b, **_: poly_dim(p, a, b) * 4 ** p,
        lambda a, b, r, k: _report(
            fischer.qmonogenic_decomposition(p, r, k, a, b)))
    return {"p": p, "labels": entries, "passed": passed}


def _run_prop9(config):
    p = config.p
    labels = [dict(ab, r=r) for ab in _grid(config) if ab["a"] >= ab["b"]
              for r in _columns(config)]
    entries, passed = _walk(
        config, labels,
        lambda a, b, **_: poly_dim(p, a, b) * 4 ** p,
        lambda a, b, r: _report(
            fischer.symplectic_harmonics_16_decomposition(p, a, b, r)))
    return {"p": p, "labels": entries, "passed": passed}


def _run_thm10(config):
    p = config.p
    if config.label_filter is not None:
        degrees = [config.label_filter["a"] + config.label_filter["b"]]
    else:
        degrees = range(0, config.max_total_degree + 1)
    entries, passed = _walk(
        config, [{"degree": k} for k in degrees],
        lambda degree: comb(degree + 4 * p - 1, 4 * p - 1) * 4 ** p,
        lambda degree: fischer.graded_tiling_check(p, degree))
    return {"p": p, "degrees": entries, "passed": passed}


def _run_euclidean(config):
    p, m = config.p, 4 * config.p
    entries, passed = _walk(
        config, [{"k": k} for k in range(0, config.max_total_degree + 1)],
        lambda k: comb(k + m - 1, m - 1) * 4 ** p,
        lambda k: fischer.euclidean_fischer_dims(m, k))
    return {"p": p, "m": m, "degrees": entries, "passed": passed}


def _run_hermitian(config):
    p, n = config.p, 2 * config.p
    entries, passed = _walk(
        config, _grid(config),
        lambda a, b: poly_dim(p, a, b) * 4 ** p,
        lambda a, b: fischer.hermitian_fischer_dims(n, a, b))
    return {"p": p, "n": n, "labels": entries, "passed": passed}


# The check table: a new check is one runner and one row here.
_RUNNERS = {
    "relations": _run_relations,
    "cells": lambda config: fischer.cells_check(config.p),
    "thm5": _run_thm5,
    "prop8": _run_prop8,
    "prop9": _run_prop9,
    "thm10": _run_thm10,
    "euclidean": _run_euclidean,
    "hermitian": _run_hermitian,
    "example13": lambda config: fischer.example_decomposition(),
}

CHECK_NAMES = tuple(_RUNNERS)

# The label_filter fields each grid check reads; the other checks read none.
_FILTER_FIELDS = {"thm5": {"a", "b"}, "prop8": {"a", "b", "r"},
                  "prop9": {"a", "b", "r"}, "thm10": {"a", "b"},
                  "hermitian": {"a", "b"}}


def run(config):
    """Execute the configured checks and return the report as a JSON
    dict: schema_version, config, checks, passed and timing.

    The checks run one after another in `CHECK_NAMES` order, each timed
    and each handed the same `config`.  The report passes exactly when
    every check passes (with no checks selected it is empty and passes).
    Writes it to `config.output` when set.
    """
    config.validate()
    checks, timing = {}, {}
    for name in CHECK_NAMES:
        if name in config.checks:
            t0 = time.perf_counter()
            checks[name] = _RUNNERS[name](config)
            timing[name] = time.perf_counter() - t0
    payload = {"schema_version": SCHEMA_VERSION, "config": config.to_json(),
               "checks": checks,
               "passed": all(rep["passed"] for rep in checks.values()),
               "timing": timing}
    if config.output:
        emit_report(payload, config.output)
    return payload


# ---------------------------------------------------------------- JSON I/O

def emit_report(payload, path):
    """Write `payload` as canonical JSON (sorted keys, two-space indent,
    trailing newline) and return it."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return payload


# ----------------------------------------------------------------- parsing

def build_parser():
    ap = argparse.ArgumentParser(
        prog="quatcliff",
        description="Exact verification of the quaternionic Clifford "
                    "operator algebra and its decompositions.")
    sub = ap.add_subparsers(dest="command", required=True)

    vr = sub.add_parser("verify-relations",
                        help="check every bracket rule on the polynomial "
                             "spaces up to a total degree")
    vr.add_argument("--p", type=int, default=1)
    vr.add_argument("--max-degree", type=int, default=3)
    vr.add_argument("--json", dest="json_path", metavar="OUT")

    ce = sub.add_parser("cells",
                        help="emit the spinor cell triangle: labels, "
                             "dimensions, ladder scalars")
    ce.add_argument("--p", type=int, default=1)
    ce.add_argument("--json", dest="json_path", metavar="OUT")

    fi = sub.add_parser("fischer",
                        help="run one decomposition check at one bidegree")
    fi.add_argument("--p", type=int, required=True)
    fi.add_argument("--a", type=int, required=True)
    fi.add_argument("--b", type=int, required=True)
    fi.add_argument("--r", type=int, default=None)
    fi.add_argument("--check", required=True,
                    choices=("thm5", "prop8", "prop9", "thm10"))
    fi.add_argument("--json", dest="json_path", metavar="OUT")

    de = sub.add_parser("decompose",
                        help="split a JSON polynomial into its tiling "
                             "pieces with zero residual")
    de.add_argument("--p", type=int, required=True)
    de.add_argument("--input", required=True)
    de.add_argument("--output", required=True)

    al = sub.add_parser("all", help="run every check")
    al.add_argument("--p", type=int, default=1)
    al.add_argument("--max-degree", type=int, default=3)
    al.add_argument("--json", dest="json_path", metavar="OUT")
    return ap


# The checks each report subcommand runs; fischer runs the one --check names.
_COMMAND_CHECKS = {"verify-relations": ("relations",), "cells": ("cells",),
                   "all": CHECK_NAMES}


def _config(args):
    """The RunConfig of a report subcommand: its checks, and the label
    filter of the --a, --b and --r that fischer takes."""
    label = {k: getattr(args, k) for k in ("a", "b", "r")
             if getattr(args, k, None) is not None}
    return RunConfig(
        p=args.p, max_total_degree=getattr(args, "max_degree", 3),
        checks=_COMMAND_CHECKS.get(args.command) or (args.check,),
        output=args.json_path, label_filter=label or None)


def _decompose(args):
    """Split the --input polynomial and write its report to --output;
    returns the exit code."""
    cap = RunConfig(p=args.p).validate().dim_cap
    with open(args.input) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.input}: JSON nested too "
                             "deeply to read") from None
    F = SpinorPolynomial.from_json(data, n=2 * args.p)
    for A, B in F.bidegrees():
        if A + B > MAX_TOTAL_DEGREE:
            raise ValueError(f"bidegree ({A},{B}) has total degree "
                             f"{A + B}, over the bound {MAX_TOTAL_DEGREE}")
        needed = poly_dim(args.p, A, B) * 4 ** args.p
        if needed > cap:
            raise ValueError(f"bidegree ({A},{B}) needs dimension "
                             f"{needed}, over the cap {cap}")
    payload = fischer.decompose_polynomial(F, args.p).to_json()
    payload["schema_version"] = SCHEMA_VERSION
    emit_report(payload, args.output)
    print("decompose:", "pass" if payload["passed"] else "FAIL")
    return 0 if payload["passed"] else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "decompose":
            return _decompose(args)
        payload = run(_config(args))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, rep in payload["checks"].items():
        print(f"{name}: {'pass' if rep['passed'] else 'FAIL'}")
    print("overall:", "pass" if payload["passed"] else "FAIL")
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
