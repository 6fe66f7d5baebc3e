"""Span arithmetic, the tracer's parent rules and the layer formulas."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from layers import UNITS, layer_metrics  # noqa: E402
from spans import SOLVE, Tracer, children_index, covered, self_time  # noqa: E402


def span(name, start, end, parent=None, info=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "thread": 1, "info": info or {}}


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1, 3), (2, 5)], 0, 10) == pytest.approx(4.0)
    assert covered([(1, 3), (4, 5)], 0, 10) == pytest.approx(3.0)
    assert covered([(2, 3), (1, 6)], 0, 10) == pytest.approx(5.0)
    assert covered([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3.0)
    assert covered([(11, 12)], 0, 10) == 0.0


def test_self_time_subtracts_union_of_children():
    spans = [span("p", 0, 10),
             span("a", 1, 3, 0), span("b", 2, 5, 0),   # overlap, as on threads
             span("c", 9, 12, 0),                       # runs past the parent
             span("grandchild", 6, 8, 1)]               # not a direct child
    kids = children_index(spans)
    assert kids == {0: [1, 2, 3], 1: [4]}
    assert self_time(spans, 0) == pytest.approx(10 - (4 + 1))
    assert self_time(spans, 0, exclude={"a"}) == pytest.approx(8.0)
    assert self_time(spans, 1) == pytest.approx(2.0)
    assert self_time(spans, 4) == pytest.approx(2.0)


def test_tracer_parents_follow_stack_and_main_thread():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 7

    traced_inner = tr.wrap("m.inner", inner)

    def outer():
        worker = threading.Thread(target=traced_inner)
        worker.start()
        worker.join()
        return traced_inner()

    assert tr.wrap("m.outer", outer)() == 7
    names = [(s["name"], s["parent"]) for s in tr.spans]
    assert names == [("m.outer", None), ("m.inner", 0), ("m.inner", 0)]
    assert all(s["end"] > s["start"] for s in tr.spans)


def test_tracer_closes_span_on_exception():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("m.boom", boom)()
    assert tr.spans[0]["end"] is not None
    assert tr.wrap("m.ok", lambda: 1)() == 1
    assert tr.spans[1]["parent"] is None


def test_layer_formulas_on_synthetic_spans():
    S = SOLVE
    spans = [
        span("cli.main", 0.0, 10.0),                                    # 0
        span("maximizer.maximize", 0.5, 9.0, 0, {"iterations": 4}),     # 1
        span("kirchhoff.kr_minimize", 1.0, 5.0, 1,
             {"scan_sites": 30, "iterations": 6}),                      # 2
        span(S, 1.0, 1.5, 2, {"first": True}),                          # 3
        span(S, 1.5, 1.7, 2),                                           # 4
        span("kirchhoff.kr_gradient", 3.0, 3.5, 2),                     # 5
        span(S, 3.1, 3.3, 5),                                           # 6
        span("maximizer.best_response", 5.5, 5.6, 1),                   # 7
        span("maximizer.steadiness_residual", 7.0, 8.0, 1),             # 8
        span("fields.write_pgm", 9.2, 9.6, 0),                          # 9
    ]
    m = layer_metrics(spans, 0.0, 10.0)
    assert set(m) == set(UNITS) - {"trace.overhead"}
    assert m["poisson.solves"] == 3
    assert m["poisson.first_solve_s"] == pytest.approx(0.5)
    assert m["poisson.solve_ms"] == pytest.approx(200.0)
    assert m["poisson.solve_busy_s"] == pytest.approx(0.9)
    assert m["kirchhoff.kr_minimize_s"] == pytest.approx(4.0)
    assert m["kirchhoff.scan_s"] == pytest.approx(2.0)
    assert m["kirchhoff.polish_s"] == pytest.approx(2.0)
    assert m["kirchhoff.kr_solves"] == 3
    assert m["kirchhoff.scan_sites"] == 30
    # maximize 8.5 s minus kr_minimize 4 s and the residual 1 s
    assert m["maximizer.ascent_s"] == pytest.approx(3.5)
    assert m["maximizer.ascent_iter_ms"] == pytest.approx(875.0)
    assert m["maximizer.residual_s"] == pytest.approx(1.0)
    assert m["fields.write_s"] == pytest.approx(0.4)
    assert m["cli.self_s"] == pytest.approx(10.0 - 8.5 - 0.4)
    assert m["trace.coverage"] == pytest.approx(0.89)
    assert m["euler.steps"] == 0 and m["asymptotics.overlap"] == 0.0


def test_install_rebinds_every_module_attribute():
    code = (
        "import spans, vortexpair as vp\n"
        "from vortexpair import asymptotics, cli, kirchhoff, maximizer\n"
        "spans.install(spans.Tracer())\n"
        "fns = [vp.kr_minimize, kirchhoff.kr_minimize, maximizer.kr_minimize,\n"
        "       asymptotics.kr_minimize, cli.kr_minimize]\n"
        "assert len(set(map(id, fns))) == 1, fns\n"
        "assert hasattr(fns[0], '__wrapped__')\n"
        "assert cli.pv_evolve is kirchhoff.pv_evolve is vp.pv_evolve\n"
        "assert hasattr(vp.PoissonSolver.solve, '__wrapped__')\n"
        "assert hasattr(maximizer.solve_poisson, '__wrapped__')\n")
    src = BENCH.parent / "src"
    env = dict(os.environ, PYTHONPATH=f"{BENCH}{os.pathsep}{src}")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
