"""The four benchmark workloads: inputs from a seed, entry call, checks.

A workload is run by `child.py` in a fresh process:

1. `prepare(seed, outdir, size)` imports what it needs, writes the
   config or draws the inputs, and returns the entry callable;
2. the entry call is timed (it builds the grid, factors, solves and
   writes every output);
3. `collect(outdir, returned)` reads the outputs back into a dict of
   plain numbers, strings and lists ("outcome");
4. `check(outcome, reference)` lists what disagrees with the stored
   reference outcome, and `result_err(outcome)` is the workload's own
   accuracy figure.

`size` is "full" for timed runs and "smoke" for the self-tests (n=64).
The seed changes only where the pair sits or which random probes are
drawn, never how much work a run does.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

# Full sizes keep one run at 1-3 s, so one 25 s benchmark run collects
# 6-11 samples.  steady_kr draws 256 residual probes: the residual is a
# maximum over random cones and moves by +-40% between seeds with the
# CLI default of 12, by about +-10% with 128 and +-7% with 256.
PARAMS = {
    "steady_kr": {
        "full": {"n": 80, "eps": 0.12, "residual_tests": 256},
        "smoke": {"n": 64, "eps": 0.125, "residual_tests": 12},
    },
    "stability_pde": {
        "full": {"n": 80, "eps": 0.12, "turnovers": 1.0, "records": 15},
        "smoke": {"n": 64, "eps": 0.125, "turnovers": 0.3, "records": 4},
    },
    "sweep_shared": {
        "full": {"eps": "0.12 0.10 0.08", "n": "112 112 144", "kr_n": 64,
                 "jobs": 2},
        "smoke": {"eps": "0.15 0.13 0.125", "n": "64 64 64", "kr_n": 32,
                  "jobs": 2},
    },
    "pv_orbit": {
        "full": {"n": 64, "T": 0.5},
        "smoke": {"n": 64, "T": 0.05},
    },
}

DELTA_REL = 0.02     # stability perturbation, fraction of ||zeta||_2
D0_RTOL = 0.02       # d(0) is a rotation minimum, so it may sit just below
ENERGY_RTOL = 1e-9
PV_DRIFT_MAX = 1e-4


def _angle(seed: int) -> float:
    import numpy as np
    return float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))


def _grid_symmetric_angle(seed: int) -> float:
    """One of the 8 angles +-0.4 + k pi/2, which the disk grid maps onto
    each other: every seed then asks for the same work.  A free angle
    changes the ascent's iteration count (4 to 17 at n=80) and d(t) by
    about 10% through grid anisotropy."""
    import numpy as np
    k = int(np.random.default_rng(seed).integers(8))
    return (0.4 if k < 4 else -0.4) + (k % 4) * 0.5 * math.pi


def _write_config(outdir: str, text: str) -> str:
    path = os.path.join(outdir, "bench.ini")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _cli_entry(argv):
    from vortexpair import cli

    return lambda: cli.main(argv)  # looked up at call time: tracing rebinds it


def _csv_rows(path):
    with open(path) as fh:
        notes = []
        body = []
        for line in fh:
            (notes if line.startswith("#") else body).append(line)
    return notes, list(csv.DictReader(body))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- steady_kr ----------------------------------------------------------------

def _steady_prepare(seed, outdir, size):
    p = PARAMS["steady_kr"][size]
    cfg = _write_config(outdir, (
        f"[grid]\nn = {p['n']}\n"
        f"[steady]\neps1 = {p['eps']}\ninit = kr_seed\n"
        f"residual_tests = {p['residual_tests']}\n"))
    return _cli_entry(["steady", "--config", cfg, "--out", outdir,
                       "--seed", str(seed)])


def _steady_collect(outdir, code):
    with open(os.path.join(outdir, "steady.json")) as fh:
        j = json.load(fh)
    return {"exit": code, "energy": j["energy"], "residual": j["residual"],
            "converged": j["converged"], "iterations": j["iterations"],
            "monotone_violations": j["monotone_violations"]}


def _steady_check(out, ref):
    bad = []
    if out["exit"] != ref["exit"]:
        bad.append(f"exit {out['exit']} != {ref['exit']}")
    if not out["converged"]:
        bad.append("ascent did not converge")
    if out["monotone_violations"]:
        bad.append(f"{out['monotone_violations']} monotone violations")
    if _rel(out["energy"], ref["energy"]) > ENERGY_RTOL:
        bad.append(f"energy {out['energy']!r} != {ref['energy']!r}")
    if not out["residual"] > 0:
        bad.append(f"residual {out['residual']!r} not positive")
    return bad


# -- stability_pde --------------------------------------------------------------

def _pde_prepare(seed, outdir, size):
    import numpy as np
    import vortexpair as vp

    p = PARAMS["stability_pde"][size]
    th = _grid_symmetric_angle(seed)
    center = np.array([0.45 * math.cos(th), 0.45 * math.sin(th)])

    def entry():
        solver = vp.PoissonSolver(vp.build_grid(vp.DomainSpec.unit_disk(), p["n"]))
        spec = vp.RearrangementSpec(eps1=p["eps"], eps2=p["eps"],
                                    kappa1=1.0, kappa2=-1.0)
        proto = vp.make_prototype(spec, solver.grid)
        start = vp.place_prototype(solver.grid, proto, center, -center)
        state = vp.maximize(solver, spec, init=("given", start),
                            residual_tests=0)
        delta0 = DELTA_REL * vp.lp_norm(state.zeta, spec.p)
        res = vp.stability_experiment(solver, state, delta0,
                                      turnovers=p["turnovers"], seed=seed,
                                      records=p["records"])
        return state, res

    return entry


def _pde_collect(outdir, returned):
    state, res = returned
    return {"converged": bool(state.converged),
            "iterations": int(state.iterations),
            "energy": float(state.energy), "aborted": bool(res.aborted),
            "d0": float(res.d0), "max_d": float(res.distances.max()),
            "records": int(res.times.size), "note": res.note}


def _pde_check(out, ref):
    bad = []
    if out["aborted"]:
        bad.append(f"probe aborted: {out['note']}")
    if not out["converged"]:
        bad.append("ascent did not converge")
    if _rel(out["d0"], ref["d0"]) > D0_RTOL or out["d0"] > ref["d0"] * (1 + 1e-9):
        bad.append(f"d(0) {out['d0']!r} vs reference {ref['d0']!r}")
    if not math.isfinite(out["max_d"]):
        bad.append("distance not finite")
    return bad


# -- sweep_shared ---------------------------------------------------------------

def _sweep_prepare(seed, outdir, size):
    p = PARAMS["sweep_shared"][size]
    cfg = _write_config(outdir, (
        f"[sweep]\neps = {p['eps']}\nn = {p['n']}\nkr_n = {p['kr_n']}\n"))
    return _cli_entry(["sweep", "--config", cfg, "--out", outdir,
                       "--seed", str(seed), "--jobs", str(p["jobs"])])


def _sweep_collect(outdir, code):
    with open(os.path.join(outdir, "verdict.json")) as fh:
        v = json.load(fh)
    _, rows = _csv_rows(os.path.join(outdir, "records.csv"))
    return {"exit": code,
            "statuses": {c["name"]: c["status"] for c in v["checks"]},
            "center_convergence": next(c["measured"] for c in v["checks"]
                                       if c["name"] == "center_convergence"),
            "energies": [float(r["energy"]) for r in rows]}


def _sweep_check(out, ref):
    bad = []
    if out["exit"] != ref["exit"]:
        bad.append(f"exit {out['exit']} != {ref['exit']}")
    if out["statuses"] != ref["statuses"]:
        diff = {k: v for k, v in out["statuses"].items()
                if ref["statuses"].get(k) != v}
        bad.append(f"check statuses differ: {diff}")
    if len(out["energies"]) != len(ref["energies"]) or any(
            _rel(a, b) > ENERGY_RTOL for a, b in zip(out["energies"], ref["energies"])):
        bad.append(f"record energies {out['energies']} != {ref['energies']}")
    return bad


# -- pv_orbit -------------------------------------------------------------------

def _pv_prepare(seed, outdir, size):
    p = PARAMS["pv_orbit"][size]
    th = _angle(seed)
    x, y = 0.06 * math.cos(th), 0.06 * math.sin(th)
    cfg = _write_config(outdir, (
        f"[grid]\nn = {p['n']}\n"
        "[vortex]\nkappa1 = 1.0\nkappa2 = 1.0\n"
        f"[evolve]\nmode = pv\npositions = {x!r},{y!r}; {-x!r},{-y!r}\n"
        f"T = {p['T']}\ndt = 1e-3\nsave_stride = 50\n"))
    return _cli_entry(["evolve", "--config", cfg, "--out", outdir,
                       "--seed", str(seed)])


def _pv_collect(outdir, code):
    notes, rows = _csv_rows(os.path.join(outdir, "trajectory.csv"))
    w = [float(r["W"]) for r in rows]
    return {"exit": code, "completed": "# note=ok\n" in notes,
            "saved": len(rows), "drift": max(abs(v - w[0]) for v in w)}


def _pv_check(out, ref):
    bad = []
    if out["exit"] != ref["exit"]:
        bad.append(f"exit {out['exit']} != {ref['exit']}")
    if not out["completed"]:
        bad.append("trajectory truncated")
    if not out["drift"] <= PV_DRIFT_MAX:
        bad.append(f"W drift {out['drift']!r} > {PV_DRIFT_MAX}")
    return bad


@dataclass(frozen=True)
class Workload:
    prepare: Callable
    collect: Callable
    check: Callable
    result_err: Callable


WORKLOADS = {
    "steady_kr": Workload(_steady_prepare, _steady_collect, _steady_check,
                          lambda o: o["residual"]),
    "stability_pde": Workload(_pde_prepare, _pde_collect, _pde_check,
                              lambda o: o["max_d"]),
    "sweep_shared": Workload(_sweep_prepare, _sweep_collect, _sweep_check,
                             lambda o: o["center_convergence"]),
    "pv_orbit": Workload(_pv_prepare, _pv_collect, _pv_check,
                         lambda o: o["drift"]),
}
