"""Span timing around the public functions of each quatcliff layer.

The tracer is installed from outside the package: it replaces every
binding of a traced function (module globals that imported it by name,
class attributes such as ``__rmul__ = __mul__``) with a wrapper that
counts calls and accumulates inclusive and self time.  Self time is a
span's duration minus the part covered by nested traced spans, so the
self times of all spans plus the untraced remainder add up to the wall
time of the traced call.

Nothing here changes what the wrapped functions compute; the wrappers
pass arguments and results through unchanged.
"""

import functools
import importlib
import json
import sys
import time

from workloads import deterministic_part

# (span, owner, attribute names).  The owner is a module path, or a module
# path and a class name joined by ':'.  Every attribute listed under one
# span shares that span's counters.
SPANS = (
    ("scalars.mul", "quatcliff.scalars:ExtendedScalar", ("__mul__",)),
    ("scalars.add", "quatcliff.scalars:ExtendedScalar", ("__add__", "__sub__")),
    ("scalars.inverse", "quatcliff.scalars:ExtendedScalar", ("inverse",)),
    ("scalars.other", "quatcliff.scalars:ExtendedScalar",
     ("__neg__", "__truediv__", "conjugate")),
    ("linalg.axpy", "quatcliff.linalg", ("axpy",)),
    ("linalg.rref", "quatcliff.linalg", ("rref",)),
    ("linalg.nullspace", "quatcliff.linalg", ("nullspace",)),
    ("linalg.solve_many", "quatcliff.linalg", ("solve_many",)),
    ("poly.arith", "quatcliff.poly:SpinorPolynomial",
     ("__add__", "__sub__", "__neg__", "scale")),
    ("poly.move", "quatcliff.poly:SpinorPolynomial",
     ("mul_z_var", "mul_zbar_var", "diff_z", "diff_zbar", "wedge",
      "contract", "scale_by_euler")),
    ("poly.space_basis", "quatcliff.poly", ("space_basis",)),
    ("operators.apply", "quatcliff.operators", ("apply",)),
    ("operators.apply_cached", "quatcliff.operators", ("apply_cached",)),
    ("operators.apply_expression", "quatcliff.operators",
     ("apply_expression",)),
    ("relations.verify_bracket", "quatcliff.relations", ("verify_bracket",)),
    ("fischer.space_request", "quatcliff.fischer",
     ("harmonic_space", "symplectic_harmonic_space", "qmonogenic_space",
      "s_space", "t_space")),
    ("fischer.kernel_space", "quatcliff.fischer", ("kernel_space",)),
    ("fischer.piece_activity", "quatcliff.fischer", ("piece_activity",)),
    ("fischer.full_decomposition_pieces", "quatcliff.fischer",
     ("full_decomposition_pieces",)),
    ("fischer.graded_tiling_check", "quatcliff.fischer",
     ("graded_tiling_check",)),
    ("fischer.decompose_polynomial", "quatcliff.fischer",
     ("decompose_polynomial",)),
    ("cli.run", "quatcliff.cli", ("run",)),
    ("cli.emit_report", "quatcliff.cli", ("emit_report",)),
)


def _rref_cells(args, kwargs):
    rows = [r for r in args[0] if r]
    key_order = args[1] if len(args) > 1 else kwargs.get("key_order")
    keys = len(key_order) if key_order is not None else len(
        {k for r in rows for k in r})
    return len(rows) * keys


def _solve_many_cells(args, kwargs):
    basis, targets = args
    equations = {k for v in basis for k in v}
    for t in targets:
        equations.update(t)
    return len(equations) * (len(basis) + len(targets))


class Tracer:
    """Per-span [calls, inclusive seconds, self seconds] plus counters
    computed at a few span boundaries (elimination sizes, cache growth,
    report bytes)."""

    def __init__(self):
        self.stats = {}
        self.counters = dict.fromkeys(
            ("linalg.rref_cells", "linalg.rref_rank_sum",
             "linalg.solve_many_cells", "operators.terms_looked_up",
             "operators.cache_growth", "cli.report_bytes"), 0)
        self._stack = [0.0]

    def wrap(self, span, fn):
        stat = self.stats.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        before, after = self._hooks(span)

        if before is None and after is None:
            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - stack.pop()
                    stack[-1] += dt
        else:
            def traced(*args, **kwargs):
                h0 = clock()
                token = before(args, kwargs) if before else None
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - stack.pop()
                    stack[-1] += dt
                t1 = clock()
                if after:
                    after(token, args, kwargs, result)
                # hook work is tracing overhead: keep it out of the caller's
                # self time
                stack[-1] += (t0 - h0) + (clock() - t1)
                return result

        return functools.update_wrapper(traced, fn)

    def _hooks(self, span):
        c = self.counters
        if span == "linalg.rref":
            def after(token, args, kwargs, result):
                c["linalg.rref_cells"] += token
                c["linalg.rref_rank_sum"] += len(result[0])
            return _rref_cells, after
        if span == "linalg.solve_many":
            def after(token, args, kwargs, result):
                c["linalg.solve_many_cells"] += token
            return _solve_many_cells, after
        if span == "operators.apply_cached":
            def before(args, kwargs):
                return len(args[2] if len(args) > 2 else kwargs["cache"])

            def after(token, args, kwargs, result):
                cache = args[2] if len(args) > 2 else kwargs["cache"]
                c["operators.terms_looked_up"] += len(args[1].terms)
                c["operators.cache_growth"] += len(cache) - token
            return before, after
        if span == "cli.emit_report":
            # the timing block's digits vary, so count the rest of the report
            def after(token, args, kwargs, result):
                text = json.dumps(deterministic_part(result), sort_keys=True,
                                  indent=2)
                c["cli.report_bytes"] += len(text.encode())
            return None, after
        return None, None


def _owners():
    """Modules and classes of the loaded quatcliff package."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "quatcliff"
                               or name.startswith("quatcliff.")):
            continue
        out.append(mod)
        out.extend(v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__ == name)
    return out


def install(tracer):
    """Wrap every binding of every traced function."""
    owners = _owners()
    for span, owner, attrs in SPANS:
        mod_name, _, cls_name = owner.partition(":")
        home = importlib.import_module(mod_name)
        if cls_name:
            home = getattr(home, cls_name)
        for attr in attrs:
            original = vars(home)[attr]
            wrapper = tracer.wrap(span, original)
            for obj in owners:
                for key, value in list(vars(obj).items()):
                    if value is original:
                        setattr(obj, key, wrapper)


# Piece construction is the work that set-up does ahead of the timed
# calls on decompose_stream (and that tiling_p2 does inside its timed
# call), so these metrics cover both phases; every other metric covers
# the timed phase only.
SETUP_AND_TIMED = frozenset({
    "fischer.space_requests", "fischer.kernel_space_calls",
    "fischer.space_build_ratio", "fischer.kernel_space_self_s",
    "fischer.piece_activity_self_s",
    "fischer.full_decomposition_pieces_self_s",
})


def snapshot(tracer):
    """A copy of the tracer's span stats and counters."""
    return ({k: list(v) for k, v in tracer.stats.items()},
            dict(tracer.counters))


def since(later, earlier):
    """The stats and counters accumulated between two snapshots."""
    stats = {k: [x - y for x, y in zip(v, earlier[0].get(k, (0, 0.0, 0.0)))]
             for k, v in later[0].items()}
    counters = {k: v - earlier[1].get(k, 0) for k, v in later[1].items()}
    return stats, counters


def phase_metrics(at_ready, at_end):
    """Per-layer metrics of a traced child whose snapshots were taken when
    set-up ended and when the timed work ended.  Returns (reported,
    by_phase): reported takes SETUP_AND_TIMED over the whole run and the
    rest over the timed phase; by_phase labels both phases in full."""
    setup = layer_metrics(at_ready)
    timed = layer_metrics(since(at_end, at_ready))
    whole = layer_metrics(at_end)
    reported = {k: whole[k] if k in SETUP_AND_TIMED else v
                for k, v in timed.items()}
    return reported, {"setup": setup, "timed": timed}


def layer_metrics(state):
    """Per-layer metric values (without trace.overhead_s) of one
    snapshot or difference of snapshots."""
    st, c = state

    def calls(span):
        return st[span][0]

    def incl_s(span):
        return st[span][1]

    def self_s(span):
        return st[span][2]

    looked_up = c["operators.terms_looked_up"]
    requests = calls("fischer.space_request")
    return {
        "scalars.mul_calls": calls("scalars.mul"),
        "scalars.add_calls": calls("scalars.add"),
        "scalars.inverse_calls": calls("scalars.inverse"),
        "scalars.self_s": sum(self_s(s) for s in st if s.startswith("scalars.")),
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_self_s": self_s("linalg.rref"),
        "linalg.rref_cells": c["linalg.rref_cells"],
        "linalg.rref_rank_sum": c["linalg.rref_rank_sum"],
        "linalg.nullspace_self_s": self_s("linalg.nullspace"),
        "linalg.solve_many_calls": calls("linalg.solve_many"),
        "linalg.solve_many_self_s": self_s("linalg.solve_many"),
        "linalg.solve_many_cells": c["linalg.solve_many_cells"],
        "linalg.axpy_calls": calls("linalg.axpy"),
        "linalg.axpy_self_s": self_s("linalg.axpy"),
        "operators.apply_calls": calls("operators.apply"),
        "operators.apply_self_s": self_s("operators.apply"),
        "operators.apply_cached_calls": calls("operators.apply_cached"),
        "operators.apply_cached_self_s": self_s("operators.apply_cached"),
        "operators.apply_expression_self_s":
            self_s("operators.apply_expression"),
        "operators.term_cache_hit_ratio":
            1.0 - c["operators.cache_growth"] / looked_up
            if looked_up else 0.0,
        "poly.arith_calls": calls("poly.arith"),
        "poly.arith_self_s": self_s("poly.arith"),
        "poly.move_calls": calls("poly.move"),
        "poly.move_self_s": self_s("poly.move"),
        "poly.space_basis_s": incl_s("poly.space_basis"),
        "relations.verify_bracket_calls": calls("relations.verify_bracket"),
        "relations.verify_bracket_self_s": self_s("relations.verify_bracket"),
        "fischer.space_requests": requests,
        "fischer.kernel_space_calls": calls("fischer.kernel_space"),
        "fischer.space_build_ratio":
            calls("fischer.kernel_space") / requests if requests else 0.0,
        "fischer.kernel_space_self_s": self_s("fischer.kernel_space"),
        "fischer.piece_activity_self_s": self_s("fischer.piece_activity"),
        "fischer.full_decomposition_pieces_self_s":
            self_s("fischer.full_decomposition_pieces"),
        "fischer.graded_tiling_check_self_s":
            self_s("fischer.graded_tiling_check"),
        "fischer.decompose_polynomial_self_s":
            self_s("fischer.decompose_polynomial"),
        "cli.run_self_s": self_s("cli.run"),
        "cli.emit_report_s": incl_s("cli.emit_report"),
        "cli.report_bytes": c["cli.report_bytes"],
    }


def bases(at_ready, at_end):
    """The denominators behind the ratio metrics, for printing, over the
    phases phase_metrics reports each ratio on."""
    timed_counters = since(at_end, at_ready)[1]
    stats = at_end[0]
    return {
        "operators.term_cache_hit_ratio": {
            "terms_looked_up": timed_counters["operators.terms_looked_up"],
            "cache_growth": timed_counters["operators.cache_growth"]},
        "fischer.space_build_ratio": {
            "space_requests": stats["fischer.space_request"][0],
            "kernel_space_calls": stats["fischer.kernel_space"][0]},
    }
