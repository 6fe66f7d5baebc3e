import importlib.util
import json
import re
import sys
import textwrap
import threading
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest

from vortexpair import cli
from vortexpair.kirchhoff import KRMinimum
from vortexpair.poisson import PoissonSolver, SolveError

ROOT = Path(__file__).resolve().parents[1]


def write_cfg(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


STEADY_CFG = """
    [grid]
    n = 64
    [steady]
    eps1 = 0.15
    residual_tests = 2
"""


def run(args):
    return cli.main(args)


# -- error paths --------------------------------------------------------------

def test_usage_error_exits_1(capsys):
    assert run([]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run(["steady", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_malformed_config_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[steady]\neps1 = 0.15\n  dangling continuation\n=\n")
    assert run(["steady", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config parse error" in err
    assert "line" in err


def test_single_signed_kr_seed_without_scan_sites(tmp_path, capsys):
    # a 16 x 16-cell square has no lattice site 6h clear of its boundary
    cfg = write_cfg(tmp_path, """
        [domain]
        kind = rectangle
        width = 0.25
        height = 0.25
        [grid]
        n = 64
        [vortex]
        kappa2 = 0
        [steady]
        eps1 = 0.125
        eps2 = 0
    """)
    out = tmp_path / "o"
    assert run(["steady", "--config", cfg, "--out", str(out)]) == 1
    assert "domain too small for the scan lattice" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_solve_error_exits_2(tmp_path, capsys, monkeypatch):
    def stalled(self, rhs):
        raise SolveError("poisson solve stalled: test")

    monkeypatch.setattr(PoissonSolver, "solve", stalled)
    cfg = write_cfg(tmp_path, STEADY_CFG)
    assert run(["steady", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "poisson solve stalled" in capsys.readouterr().err


def test_jobs_only_on_sweep(tmp_path, capsys):
    cfg = write_cfg(tmp_path, STEADY_CFG)
    assert run(["steady", "--config", cfg, "--out", str(tmp_path),
                "--jobs", "2"]) == 1
    assert "--jobs" in capsys.readouterr().err


# -- configs rejected with exit 1 ---------------------------------------------

def _rejected(command, text, *words, at_load=True):
    """A config that `command` rejects with exit 1, naming `words` on stderr.

    One rejected while the file loads leaves no output directory; one
    rejected later leaves it empty."""
    return command, text, words, at_load


PV_CFG = """
    [grid]
    n = 64
    [evolve]
    mode = pv
    positions = 0.45,0 ; -0.45,0
    T = {T}
    dt = {dt}
    save_stride = {stride}
"""

PDE_CFG = """
    [grid]
    n = 64
    [steady]
    eps1 = 0.2
    [evolve]
    mode = pde
    {key} = {value}
"""

# test name -> {case id: case}, None the id of a test with one case
_REJECTED = {
    "test_config_rejected_by_name": {
        "key": _rejected(
            "krmin", "[grid]\nn = 32\n[kr]\nmargin = 9\n[vortx]\nkappa1 = 3\n",
            "[kr] margin: unknown key", "did you mean [kr] margin_h?"),
        "section": _rejected(
            "krmin", "[grid]\nn = 32\n[vortx]\nkappa1 = 3\n",
            "[vortx] kappa1: unknown section", "did you mean [vortex]?"),
        "empty_section": _rejected(
            "krmin", "[grid]\nn = 32\n[vortx]\n",
            "[vortx]: unknown section", "did you mean [vortex]?"),
        "section_case": _rejected(
            "krmin", "[Grid]\nn = 32\n",
            "[Grid] n: unknown section", "did you mean [grid]?"),
        "DEFAULT": _rejected(
            "diagnose", "[DEFAULT]\nn = 40\n[diagnose]\nn = 32\ninstances = 5\n",
            "[DEFAULT] n: unknown section"),
        "other_command": _rejected(
            "steady", STEADY_CFG + "[evolve]\ndelta0_rel = 0.5\n",
            "[evolve] delta0_rel: perturbation must satisfy"),
    },
    "test_missing_required_option": {None: _rejected(
        "steady", "[grid]\nn = 64\n", "missing [steady] eps1", at_load=False)},
    "test_unparseable_value": {None: _rejected(
        "steady", "[steady]\neps1 = tiny\n", "cannot parse")},
    "test_unknown_domain_kind": {None: _rejected(
        "steady", "[domain]\nkind = annulus\n[steady]\neps1 = 0.15\n", "unknown kind")},
    "test_resolution_rule_enforced": {None: _rejected(
        "steady", "[grid]\nn = 64\n[steady]\neps1 = 0.05\n",
        "resolution rule eps/h >= 8 violated", at_load=False)},
    "test_grid_too_coarse": {None: _rejected(
        "steady", "[grid]\nn = 8\n[steady]\neps1 = 0.5\n", "n >= 16")},
    "test_secondary_grid_too_coarse_names_key": {
        "sweep": _rejected("sweep", "[sweep]\neps = 0.15\nn = 64\nkr_n = 8\n",
                           "[sweep] kr_n: grid too coarse", "n >= 16"),
        "diagnose": _rejected("diagnose", "[diagnose]\nn = 8\ninstances = 5\n",
                              "[diagnose] n: grid too coarse", "n >= 16"),
    },
    "test_negative_residual_tests_exits_1": {
        "steady": _rejected(
            "steady", STEADY_CFG.replace("residual_tests = 2", "residual_tests = -3"),
            "[steady] residual_tests: must be >= 0"),
        "sweep": _rejected(
            "sweep", "[sweep]\neps = 0.15\nn = 64\nkr_n = 48\nresidual_tests = -3\n",
            "[sweep] residual_tests: must be >= 0"),
    },
    "test_krmin_sign_regime": {None: _rejected(
        "krmin", "[grid]\nn = 64\n[vortex]\nkappa1 = -1\nkappa2 = 1\n",
        "kappa1 > 0 > kappa2", at_load=False)},
    "test_krmin_rejects_zero_starts": {None: _rejected(
        "krmin", "[grid]\nn = 64\n[kr]\nstarts = 0\n", "starts")},
    "test_krmin_rejects_small_margin": {None: _rejected(
        "krmin", "[grid]\nn = 64\n[kr]\nmargin_h = 1\n", "margin_h")},
    "test_evolve_mode_validation": {None: _rejected(
        "evolve", "[evolve]\nmode = magic\n", "unknown mode")},
    "test_evolve_perturbation_range": {None: _rejected(
        "evolve", PDE_CFG.format(key="delta0_rel", value="0.5"), "delta0_rel")},
    "test_evolve_pv_bad_inputs": {
        "0.01-0-1e-3-save_stride": _rejected(
            "evolve", PV_CFG.format(T="0.01", stride="0", dt="1e-3"), "save_stride"),
        "0.01--5-1e-3-save_stride": _rejected(
            "evolve", PV_CFG.format(T="0.01", stride="-5", dt="1e-3"), "save_stride"),
        "inf-1-1e-3-finite": _rejected(
            "evolve", PV_CFG.format(T="inf", stride="1", dt="1e-3"), "finite"),
        "0.01-1-nan-finite": _rejected(
            "evolve", PV_CFG.format(T="0.01", stride="1", dt="nan"), "finite"),
        "4e-4-1-1e-3-half a step": _rejected(
            "evolve", PV_CFG.format(T="4e-4", stride="1", dt="1e-3"), "half a step",
            at_load=False),
    },
    "test_evolve_pde_bad_inputs": {
        f"{key}-{value}-{key}": _rejected(
            "evolve", PDE_CFG.format(key=key, value=value), key)
        for key, value in (("dt", "0"), ("dt", "-1e-3"), ("turnovers", "inf"),
                           ("records", "0"))
    },
    "test_steady_non_finite_strength_exits_1": {None: _rejected(
        "steady", "[grid]\nn = 32\n[vortex]\nkappa1 = inf\n[steady]\neps1 = 0.25\n"
        "init = random\nresidual_tests = 0\n", "kappa1 must be finite")},
    "test_non_finite_eps_exits_1": {
        "steady_eps1": _rejected("steady", "[grid]\nn = 64\n[steady]\neps1 = inf\n",
                                 "[steady] eps1: must be finite"),
        "steady_eps2": _rejected(
            "steady", "[grid]\nn = 64\n[steady]\neps1 = 0.15\neps2 = nan\n",
            "[steady] eps2: must be finite"),
        "evolve_eps1": _rejected(
            "evolve", "[grid]\nn = 64\n[steady]\neps1 = nan\n[evolve]\nmode = pde\n",
            "[steady] eps1: must be finite"),
        "sweep_eps": _rejected("sweep", "[sweep]\neps = 0.15 inf\nn = 64\n",
                               "[sweep] eps: must be finite"),
    },
    "test_point_vortex_non_finite_exits_1": {
        "krmin_kappa1": _rejected("krmin", "[grid]\nn = 48\n[vortex]\nkappa1 = inf\n",
                                  "finite"),
        "pv_kappa2": _rejected(
            "evolve", "[grid]\nn = 48\n[vortex]\nkappa2 = nan\n[evolve]\nmode = pv\n"
            "positions = 0.4,0 ; -0.4,0\nT = 0.01\n", "finite"),
        "pv_position": _rejected(
            "evolve", "[grid]\nn = 48\n[evolve]\nmode = pv\n"
            "positions = nan,0 ; -0.4,0\nT = 0.01\n", "finite"),
    },
    "test_solver_tol_rejected": {None: _rejected(
        "steady", STEADY_CFG + "[solver]\ntol = 1e-11\n", "[solver] tol")},
    "test_steady_max_iter_below_one": {None: _rejected(
        "steady", STEADY_CFG + "max_iter = 0\n", "max_iter")},
    "test_diagnose_rejects_zero_instances": {None: _rejected(
        "diagnose", "[diagnose]\nn = 48\ninstances = 0\n", "instances must be >= 1")},
}


def _check_rejected(tmp_path, capsys, case):
    command, text, words, at_load = case
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(w in err for w in words), err
    assert not out.exists() if at_load else not any(out.iterdir())


def _rejection_test(cases):
    """A new test function over `cases`, parametrized unless its one id is None."""
    if list(cases) == [None]:
        return lambda tmp_path, capsys: _check_rejected(tmp_path, capsys, cases[None])

    @pytest.mark.parametrize("case", list(cases.values()), ids=list(cases))
    def test(tmp_path, capsys, case):
        _check_rejected(tmp_path, capsys, case)
    return test


# one table, and each case keeps the test id it has always had
globals().update((name, _rejection_test(cases)) for name, cases in _REJECTED.items())


# -- the config table ---------------------------------------------------------

def test_config_keys_fold_case_and_every_section_loads(tmp_path):
    # one file may drive several commands, so any known key is accepted
    cfg = cli.load_config(write_cfg(tmp_path, """
        [grid]
        N = 48
        [steady]
        eps1 = 0.15
        [evolve]
        T = 0.5
        Mode = PDE
        [sweep]
        eps = 0.15
        [kr]
        starts = 2
        [diagnose]
        instances = 5
        [output]
        dir = runs/%(n)s
    """))
    assert cfg.get("output", "dir") == "runs/%(n)s"  # no interpolation
    assert cfg.get("evolve", "T") == 0.5 and cfg.get("evolve", "mode") == "pde"
    assert cfg.get("steady", "eps1") == 0.15 and cfg.get("kr", "starts") == 2
    assert cfg.get("steady", "eps2", 0.15) == 0.15  # unset: the fallback
    assert cfg.get("kr", "margin_h") == 6.0  # unset: the table default


def _module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    with mock.patch.dict(sys.modules, {path.stem: module}):
        spec.loader.exec_module(module)
    return module


def test_shipped_configs_load(tmp_path):
    for name, (_, _, text) in _module(ROOT / "tools/cli_digest.py").RUNS.items():
        cli.load_config(write_cfg(tmp_path, text, name=f"{name}.ini"))
    loaded = []
    workloads = _module(ROOT / "perfbench/workloads.py").WORKLOADS
    for name, workload in workloads.items():
        for size in ("full", "smoke"):
            out = tmp_path / f"{name}_{size}"
            out.mkdir()
            workload.prepare(0, str(out), size)
            if (out / "bench.ini").exists():
                cli.load_config(str(out / "bench.ini"))
                loaded.append(out.name)
    assert loaded


def test_readme_grammar_matches_the_table():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Config grammar")[1].split("```ini")[1]
    pairs, section = set(), None
    for line in block.split("```")[0].splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = m.group(1)
        elif m := re.match(r"(\w+)\s*=", line):
            pairs.add((section, m.group(1).lower()))
    assert pairs == {(s, k.lower()) for s, k in cli._TABLE}


# -- steady -------------------------------------------------------------------

def test_steady_outputs_and_rerun_identical(tmp_path):
    cfg = write_cfg(tmp_path, STEADY_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["steady", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["steady", "--config", cfg, "--out", str(out2)]) == 0

    payload = json.loads((out1 / "steady.json").read_text())
    assert payload["converged"] is True
    assert payload["mu1"] > 0 > payload["mu2"]
    assert payload["energy"] == payload["energy_log"][-1]
    assert payload["grid"]["n"] == 64
    assert payload["provenance"]["config_sha256"]
    assert payload["files"] == {"zeta": "zeta.txt", "zeta_pgm": "zeta.pgm",
                                "psi": "psi.txt", "psi_pgm": "psi.pgm"}
    for name in ("steady.json", "zeta.txt", "psi.txt", "zeta.pgm", "psi.pgm",
                 "zeta.pgm.json", "psi.pgm.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_steady_json_is_strict_without_residual(tmp_path):
    cfg = write_cfg(tmp_path, STEADY_CFG.replace("residual_tests = 2",
                                                 "residual_tests = 0"))
    assert run(["steady", "--config", cfg, "--out", str(tmp_path)]) == 0

    def reject(token):
        raise AssertionError(f"non-JSON constant {token} in steady.json")

    payload = json.loads((tmp_path / "steady.json").read_text(),
                         parse_constant=reject)
    assert payload["residual"] is None


def test_steady_out_env_override(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, STEADY_CFG)
    dest = tmp_path / "envdir"
    monkeypatch.setenv("VORTEXPAIR_OUT", str(dest))
    assert run(["steady", "--config", cfg]) == 0
    assert (dest / "steady.json").exists()


def test_steady_output_section_fallback(tmp_path, monkeypatch):
    monkeypatch.delenv("VORTEXPAIR_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, STEADY_CFG + "[output]\ndir = from_cfg\n")
    assert run(["steady", "--config", cfg]) == 0
    assert (tmp_path / "from_cfg" / "steady.json").exists()


# -- sweep --------------------------------------------------------------------

SWEEP_CFG = """
    [sweep]
    eps = 0.15 0.12
    n = 64 80
    kr_n = 48
    residual_tests = 2
"""


def test_sweep_outputs_and_rerun_identical(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = run(["sweep", "--config", cfg, "--out", str(out1)])
    rc2 = run(["sweep", "--config", cfg, "--out", str(out2), "--jobs", "2"])
    assert rc1 in (0, 2) and rc2 == rc1
    # the ignored --jobs must not change a byte of either artifact
    for name in ("records.csv", "verdict.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    verdict = json.loads((out1 / "verdict.json").read_text())
    names = {c["name"] for c in verdict["checks"]}
    assert {"energy_slope_pos", "energy_slope_neg", "interaction_positive",
            "interaction_slope", "core_size", "center_convergence",
            "center_trend", "multiplier_pos", "multiplier_neg",
            "profile_final", "profile_trend",
            "ascent_and_optimality"} <= names
    assert verdict["all_pass"] == (rc1 == 0)
    assert len(verdict["kr"]["points"]) == 2

    lines = (out1 / "records.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",")[:4] == ["eps1", "eps2", "n", "energy"]
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 2


def test_sweep_single_eps_insufficient(tmp_path):
    cfg = write_cfg(tmp_path, """
        [sweep]
        eps = 0.15
        n = 64
        kr_n = 48
        residual_tests = 2
    """)
    out = tmp_path / "o"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 2
    verdict = json.loads((out / "verdict.json").read_text())
    statuses = {c["name"]: c["status"] for c in verdict["checks"]}
    assert statuses["energy_slope_pos"] == "insufficient"
    assert verdict["all_pass"] is False


def test_verdict_kr_block_covers_krminimum(tmp_path):
    cfg = write_cfg(tmp_path, """
        [sweep]
        eps = 0.15
        n = 64
        kr_n = 48
        residual_tests = 2
    """)
    out = tmp_path / "o"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 2
    kr = json.loads((out / "verdict.json").read_text())["kr"]
    assert set(kr) == {f.name for f in fields(KRMinimum)} | {"signature"}
    assert kr["scan_sites"] > 0 and kr["starts"] >= 1


def test_sweep_starts_no_thread(tmp_path, monkeypatch):
    def refuse(self):
        raise RuntimeError("sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out = tmp_path / "o"
    assert run(["sweep", "--config", cfg, "--out", str(out),
                "--jobs", "2"]) in (0, 2)
    assert (out / "records.csv").exists() and (out / "verdict.json").exists()


def test_sweep_resolution_rule_fails_before_solving(tmp_path, capsys,
                                                    monkeypatch):
    solves = []
    monkeypatch.setattr(PoissonSolver, "solve",
                        lambda self, rhs: solves.append(1))
    cfg = write_cfg(tmp_path, "[sweep]\neps = 0.15 0.1\nn = 64\nkr_n = 48\n")
    out = tmp_path / "o"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert "resolution rule eps/h >= 8 violated" in capsys.readouterr().err
    assert solves == [] and not any(out.iterdir())


def test_sweep_eps_n_mismatch(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[sweep]\neps = 0.15 0.12 0.1\nn = 64 80\n")
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "one grid resolution per eps" in capsys.readouterr().err


# -- krmin --------------------------------------------------------------------

def test_krmin_output(tmp_path):
    cfg = write_cfg(tmp_path, "[grid]\nn = 64\n")
    out = tmp_path / "o"
    assert run(["krmin", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "krmin.json").read_text())
    assert set(payload) >= {"points", "value", "signature", "kappas",
                            "iterations", "degenerate_starts"}
    (x1, y1), (x2, y2) = payload["points"]
    # opposite-signed pair in the disk settles antipodally
    assert abs(x1 + x2) <= 0.05 and abs(y1 + y2) <= 0.05
    assert payload["kappas"] == [1.0, -1.0]


# -- evolve -------------------------------------------------------------------

def test_evolve_pv_trajectory(tmp_path):
    cfg = write_cfg(tmp_path, """
        [grid]
        n = 64
        [evolve]
        mode = pv
        positions = 0.45,0 ; -0.45,0
        T = 0.5
        dt = 1e-3
        save_stride = 50
    """)
    out = tmp_path / "o"
    assert run(["evolve", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "t,x1,y1,x2,y2,W"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 11  # t = 0 plus 500 steps saved every 50
    assert any(l.startswith("# note=ok") for l in lines)


def test_evolve_pde_stability(tmp_path):
    cfg = write_cfg(tmp_path, """
        [grid]
        n = 64
        [steady]
        eps1 = 0.2
        [evolve]
        mode = pde
        delta0_rel = 0.02
        turnovers = 0.5
        records = 10
    """)
    out = tmp_path / "o"
    assert run(["evolve", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "stability.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "t,distance,integral,max_abs"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) >= 2
    assert any(l.startswith("# d0=") for l in lines)


def test_evolve_pde_random_init(tmp_path):
    text = """
        [grid]
        n = 64
        [steady]
        eps1 = 0.2
        init = {}
        [evolve]
        mode = pde
        delta0_rel = 0.02
        turnovers = 0.5
        records = 10
    """
    outs = {}
    for name, init in (("a", "random"), ("b", "random"), ("kr", "kr_seed")):
        cfg = write_cfg(tmp_path, text.format(init), name=f"{name}.ini")
        assert run(["evolve", "--config", cfg, "--out",
                    str(tmp_path / name), "--seed", "3"]) == 0
        outs[name] = (tmp_path / name / "stability.csv").read_bytes()
    assert outs["a"] == outs["b"]
    # [steady] init acts: the runs differ beyond the config hash line
    rand, seeded = outs["a"].splitlines()[1:], outs["kr"].splitlines()[1:]
    assert rand != seeded


# -- diagnose -----------------------------------------------------------------

def test_diagnose_output(tmp_path):
    cfg = write_cfg(tmp_path, """
        [diagnose]
        n = 48
        instances = 5
    """)
    out = tmp_path / "o"
    assert run(["diagnose", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "diagnose.json").read_text())
    assert payload["all_pass"] is True
    assert payload["hardy_littlewood"]["violations"] == 0
    assert payload["riesz"]["violations"] == 0
    assert payload["gradient_measure"]["growth"] <= 2.0
    assert len(payload["gradient_measure"]["radii"]) == 3
