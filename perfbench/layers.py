"""Per-layer metrics derived from the spans of one traced run.

Each metric is a pure function of the span records written by
`spans.Tracer` and the run window [t_entry, t_return].  Times are summed
over the outermost span of a name, so a function that reaches itself
through another wrapped function is not counted twice.  A layer the
workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from spans import PV_EVOLVE, SOLVE, SOLVER_INIT, children_index, covered, self_time

# name -> unit; the order is the report order
UNITS = {
    "poisson.solves": "count",
    "poisson.solve_ms": "ms",
    "poisson.solve_busy_s": "s",
    "poisson.solve_share": "ratio",
    "poisson.assemble_s": "s",
    "poisson.first_solve_s": "s",
    "kirchhoff.kr_minimize_s": "s",
    "kirchhoff.scan_s": "s",
    "kirchhoff.polish_s": "s",
    "kirchhoff.kr_solves": "count",
    "kirchhoff.scan_sites": "count",
    "kirchhoff.polish_iterations": "count",
    "kirchhoff.pv_table_s": "s",
    "kirchhoff.pv_step_ms": "ms",
    "kirchhoff.pv_solves": "count",
    "maximizer.ascent_s": "s",
    "maximizer.iterations": "count",
    "maximizer.ascent_iter_ms": "ms",
    "maximizer.best_response_ms": "ms",
    "maximizer.residual_s": "s",
    "maximizer.monotone_check_s": "s",
    "euler.steps": "count",
    "euler.step_ms": "ms",
    "euler.step_solve_share": "ratio",
    "euler.probe_s": "s",
    "asymptotics.run_sweep_s": "s",
    "asymptotics.energy_split_s": "s",
    "asymptotics.profile_distance_s": "s",
    "asymptotics.checks_s": "s",
    "asymptotics.overlap": "ratio",
    "fields.write_s": "s",
    "fields.rearrange_s": "s",
    "cli.self_s": "s",
    "grid.build_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

CHECKS = ("fit_energy_slope", "interaction_boundedness", "core_size_check",
          "center_convergence_check", "multiplier_check",
          "profile_convergence", "ascent_check")
NOT_ASCENT = {"kirchhoff.kr_minimize", "maximizer.steadiness_residual",
              "maximizer.monotone_map_check"}


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        self.kids = children_index(spans)

    def dur(self, sid):
        s = self.spans[sid]
        return s["end"] - s["start"]

    def ids(self, *names):
        return [i for i, s in enumerate(self.spans) if s["name"] in names]

    def outermost(self, *names):
        out = []
        for sid in self.ids(*names):
            p = self.spans[sid]["parent"]
            while p is not None and self.spans[p]["name"] not in names:
                p = self.spans[p]["parent"]
            if p is None:
                out.append(sid)
        return out

    def total(self, *names):
        return sum(self.dur(i) for i in self.outermost(*names))

    def descendants(self, sid):
        out, todo = [], list(self.kids.get(sid, ()))
        while todo:
            c = todo.pop()
            out.append(c)
            todo.extend(self.kids.get(c, ()))
        return out

    def under(self, roots, name):
        return [d for r in roots for d in self.descendants(r)
                if self.spans[d]["name"] == name]


def _median_ms(xs):
    return 1e3 * statistics.median(xs) if xs else 0.0


def layer_metrics(spans, t_entry: float, t_return: float) -> dict:
    """Every metric of UNITS except trace.overhead, which needs untraced runs."""
    S = _Spans(spans)
    run_s = t_return - t_entry
    m = {}

    solves = S.ids(SOLVE)
    first = [i for i in solves if spans[i]["info"].get("first")]
    warm = [S.dur(i) for i in solves if not spans[i]["info"].get("first")]
    busy = sum(S.dur(i) for i in solves)
    m["poisson.solves"] = len(solves)
    m["poisson.solve_ms"] = _median_ms(warm)
    m["poisson.solve_busy_s"] = busy
    m["poisson.solve_share"] = busy / run_s
    m["poisson.assemble_s"] = S.total(SOLVER_INIT)
    m["poisson.first_solve_s"] = sum(S.dur(i) for i in first)

    krm = S.outermost("kirchhoff.kr_minimize")
    scan = 0.0
    for sid in krm:
        grads = [spans[d]["start"] for d in S.descendants(sid)
                 if spans[d]["name"] == "kirchhoff.kr_gradient"]
        scan += (min(grads) if grads else spans[sid]["end"]) - spans[sid]["start"]
    m["kirchhoff.kr_minimize_s"] = sum(S.dur(i) for i in krm)
    m["kirchhoff.scan_s"] = scan
    m["kirchhoff.polish_s"] = m["kirchhoff.kr_minimize_s"] - scan
    m["kirchhoff.kr_solves"] = len(S.under(krm, SOLVE))
    m["kirchhoff.scan_sites"] = sum(spans[i]["info"].get("scan_sites", 0) for i in krm)
    m["kirchhoff.polish_iterations"] = sum(spans[i]["info"].get("iterations", 0)
                                           for i in krm)

    pv = S.outermost(PV_EVOLVE)
    table = [i for i in pv if spans[i]["info"].get("steps") == 1][:1]
    horizon = [i for i in pv if i not in table]
    steps = sum(spans[i]["info"].get("steps", 0) for i in horizon)
    m["kirchhoff.pv_table_s"] = sum(S.dur(i) for i in table)
    m["kirchhoff.pv_step_ms"] = (1e3 * sum(S.dur(i) for i in horizon) / steps
                                 if steps else 0.0)
    m["kirchhoff.pv_solves"] = len(S.under(table, SOLVE))

    mx = S.outermost("maximizer.maximize")
    ascent = sum(self_time(spans, i, S.kids, NOT_ASCENT) for i in mx)
    iters = sum(spans[i]["info"].get("iterations", 0) for i in mx)
    m["maximizer.ascent_s"] = ascent
    m["maximizer.iterations"] = iters
    m["maximizer.ascent_iter_ms"] = 1e3 * ascent / iters if iters else 0.0
    m["maximizer.best_response_ms"] = _median_ms(
        [S.dur(i) for i in S.ids("maximizer.best_response")])
    m["maximizer.residual_s"] = S.total("maximizer.steadiness_residual")
    m["maximizer.monotone_check_s"] = S.total("maximizer.monotone_map_check")

    steps_ids = S.outermost("euler.step")
    step_total = sum(S.dur(i) for i in steps_ids)
    m["euler.steps"] = len(steps_ids)
    m["euler.step_ms"] = _median_ms([S.dur(i) for i in steps_ids])
    m["euler.step_solve_share"] = (
        sum(S.dur(i) for i in S.under(steps_ids, SOLVE)) / step_total
        if step_total else 0.0)
    m["euler.probe_s"] = sum(self_time(spans, i, S.kids)
                             for i in S.outermost("euler.stability_experiment"))

    sweeps = S.outermost("asymptotics.run_sweep")
    wall = sum(S.dur(i) for i in sweeps)
    m["asymptotics.run_sweep_s"] = wall
    m["asymptotics.energy_split_s"] = S.total("asymptotics.energy_split")
    m["asymptotics.profile_distance_s"] = S.total("asymptotics.profile_distance")
    m["asymptotics.checks_s"] = S.total(*(f"asymptotics.{c}" for c in CHECKS))
    m["asymptotics.overlap"] = (
        sum(S.dur(c) for i in sweeps for c in S.kids.get(i, ())) / wall
        if wall else 0.0)

    m["fields.write_s"] = S.total("fields.write_field_text", "fields.write_pgm")
    m["fields.rearrange_s"] = S.total("fields.symmetric_decreasing_rearrangement",
                                      "fields.rescale_profile")
    m["cli.self_s"] = sum(self_time(spans, i, S.kids)
                          for i in S.outermost("cli.main"))
    m["grid.build_s"] = S.total("grid.build_grid", "grid.plane_grid")

    library = [(s["start"], s["end"]) for s in spans
               if not s["name"].startswith("cli.")]
    m["trace.coverage"] = covered(library, t_entry, t_return) / run_s
    return m
