"""Smoke runs of every workload (n=64): checks pass, spans land where expected."""

import importlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import LAYERS  # noqa: E402

# spans each workload must record, and layer metrics it must move
EXPECT = {
    "steady_kr": (
        {"cli.main", "grid.build_grid", "poisson.PoissonSolver.__init__",
         "poisson.PoissonSolver.solve", "poisson.green_function",
         "poisson.solve_poisson", "poisson.velocity",
         "kirchhoff.kr_minimize", "kirchhoff.kr_gradient",
         "maximizer.maximize", "maximizer.make_prototype",
         "maximizer.place_prototype", "maximizer.best_response",
         "maximizer.steadiness_residual", "maximizer.cone_test_function",
         "maximizer.monotone_map_check", "fields.write_field_text",
         "fields.write_pgm", "fields.center_of_mass", "fields.lp_norm"},
        ("kirchhoff.kr_minimize_s", "kirchhoff.scan_s", "kirchhoff.kr_solves",
         "kirchhoff.scan_sites", "kirchhoff.polish_iterations",
         "maximizer.residual_s", "fields.write_s", "cli.self_s")),
    "stability_pde": (
        {"euler.stability_experiment", "euler.step", "maximizer.maximize",
         "maximizer.bump_on_grid", "poisson.solve_poisson", "poisson.velocity",
         "fields.lp_norm"},
        ("euler.steps", "euler.step_ms", "euler.step_solve_share",
         "euler.probe_s", "maximizer.ascent_s", "maximizer.iterations")),
    "sweep_shared": (
        {"asymptotics.run_sweep", "asymptotics.energy_split",
         "asymptotics.profile_distance", "asymptotics.signature",
         "asymptotics.fit_energy_slope", "asymptotics.ascent_check",
         "asymptotics.center_convergence_check", "fields.rescale_profile",
         "kirchhoff.kr_minimize", "maximizer.maximize"},
        ("asymptotics.run_sweep_s", "asymptotics.energy_split_s",
         "asymptotics.checks_s", "asymptotics.overlap", "fields.rearrange_s",
         "poisson.first_solve_s")),
    "pv_orbit": (
        {"cli.main", "kirchhoff.pv_evolve", "poisson.PoissonSolver.solve"},
        ("kirchhoff.pv_table_s", "kirchhoff.pv_step_ms",
         "kirchhoff.pv_solves")),
}


# public functions that only `diagnose`, the tests or library users call
NO_WORKLOAD = {
    "asymptotics.gradient_measure_diagnostic", "fields.hardy_littlewood_suite",
    "fields.read_field_text", "fields.riesz_suite",
    "fields.symmetric_decreasing_rearrangement", "grid.measure",
    "kirchhoff.kr_value", "maximizer.energy", "maximizer.lagrange_multipliers",
    "poisson.divergence", "poisson.regular_part", "poisson.robin",
}


@pytest.fixture(scope="module")
def reference():
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced(reference, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {w: run.run_once(w, 5, 1, "smoke", tmp, 120, reference)
            for w in EXPECT}


@pytest.mark.parametrize("workload", sorted(EXPECT))
def test_smoke_run_passes_and_traces(workload, reference, traced, tmp_path):
    plain = run.run_once(workload, 5, 0, "smoke", tmp_path, 120, reference)
    assert plain["problems"] == []
    assert plain["run_s"] > 0 and plain["setup_s"] > 0
    traced = traced[workload]
    assert traced["problems"] == []
    names = {s["name"] for s in traced["spans"]}
    spans_needed, moved = EXPECT[workload]
    assert spans_needed <= names, spans_needed - names
    m = layer_metrics(traced["spans"], traced["t_entry"], traced["t_return"])
    assert all(m[k] > 0 for k in moved), {k: m[k] for k in moved}
    assert 0.9 < m["trace.coverage"] <= 1.0
    if workload == "pv_orbit":
        pv = [s for s in traced["spans"] if s["name"] == "kirchhoff.pv_evolve"]
        assert [s["info"]["steps"] for s in pv] == [1, 50]


def test_every_public_function_is_traced_on_some_workload(traced):
    sys.path.insert(0, str(BENCH.parent / "src"))
    public = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"vortexpair.{layer}")
        public |= {f"{layer}.{a}" for a in mod.__all__
                   if isinstance(getattr(mod, a), types.FunctionType)
                   and getattr(mod, a).__module__ == mod.__name__}
    seen = set().union(*({s["name"] for s in r["spans"]} for r in traced.values()))
    assert public - NO_WORKLOAD <= seen, (public - NO_WORKLOAD) - seen
    assert NO_WORKLOAD <= public


def test_reference_check_catches_a_changed_outcome(reference):
    import workloads

    ref = reference["steady_kr"]["full"]
    bad = dict(ref, energy=ref["energy"] * (1 + 1e-6), converged=False)
    problems = workloads.WORKLOADS["steady_kr"].check(bad, ref)
    assert len(problems) == 2
    assert workloads.WORKLOADS["steady_kr"].check(dict(ref), ref) == []


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady_kr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
