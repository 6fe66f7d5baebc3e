"""Command-line front end: config parsing, orchestration, file outputs.

Every command is a pure function of (config file, --seed): reruns write
byte-identical files.  Outputs carry a provenance header (config hash,
grid resolution, solver tolerance, package version) and no timestamps.

Exit codes: 0 success, 1 usage or configuration error, 2 run completed
but a convergence flag or scientific check failed.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .asymptotics import (SweepPlan, SweepRecord, ascent_check,
                          center_convergence_check, core_size_check,
                          fit_energy_slope,
                          gradient_measure_diagnostic,
                          interaction_boundedness, multiplier_check,
                          profile_convergence, run_sweep, signature)
from .euler import stability_experiment
from .fields import (hardy_littlewood_suite, lp_norm, riesz_suite,
                     write_field_text, write_json, write_pgm)
from .grid import DomainSpec, build_grid
from .kirchhoff import KRConfiguration, kr_minimize, pv_evolve
from .maximizer import RearrangementSpec, maximize
from .poisson import RESIDUAL_TOL, PoissonSolver, SolveError

__all__ = ["main", "ConfigError"]

_REQUIRED = object()


class ConfigError(Exception):
    pass


class _Cfg:
    """ConfigParser wrapper that turns lookup/convert errors into ConfigError."""

    def __init__(self, cp: configparser.ConfigParser, path: str, raw: bytes):
        self.cp = cp
        self.path = path
        self.sha256 = hashlib.sha256(raw).hexdigest()

    def get(self, section, option, conv=str, default=_REQUIRED):
        if not self.cp.has_option(section, option):
            if default is _REQUIRED:
                raise ConfigError(f"missing [{section}] {option}")
            return default
        text = self.cp.get(section, option)
        try:
            return conv(text)
        except (TypeError, ValueError):
            raise ConfigError(
                f"[{section}] {option}: cannot parse {text!r}") from None


def _parse_float_list(text: str):
    toks = [t for t in text.replace(",", " ").split() if t]
    return [float(t) for t in toks]


def _parse_int_list(text: str):
    return [int(t) for t in text.replace(",", " ").split() if t]


def _parse_points(text: str) -> np.ndarray:
    pts = []
    for tok in text.split(";"):
        tok = tok.strip()
        if not tok:
            continue
        comps = [c for c in tok.replace(",", " ").split() if c]
        if len(comps) != 2:
            raise ValueError(tok)
        pts.append((float(comps[0]), float(comps[1])))
    if not pts:
        raise ValueError("no points")
    return np.array(pts)


def load_config(path: str) -> _Cfg:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    # ';' separates coordinate pairs inside values, so only '#' may start
    # an inline comment; full-line ';' comments still parse
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(raw.decode("utf-8"), source=path)
    except (UnicodeDecodeError, configparser.Error) as exc:
        # configparser errors carry the offending line number
        raise ConfigError(f"config parse error: {exc}") from None
    if cp.has_option("solver", "tol"):
        # an old config must not silently change meaning
        raise ConfigError("[solver] tol: no longer a setting; every solve "
                          f"fails above a residual of {RESIDUAL_TOL!r} "
                          "relative to the right-hand side")
    return _Cfg(cp, path, raw)


def _domain(cfg: _Cfg) -> DomainSpec:
    kind = cfg.get("domain", "kind", str, "disk").strip().lower()
    try:
        if kind in ("disk", "unit_disk"):
            return DomainSpec.unit_disk()
        if kind == "rectangle":
            return DomainSpec.rectangle(cfg.get("domain", "width", float),
                                        cfg.get("domain", "height", float))
        if kind == "polygon":
            return DomainSpec.polygon(
                cfg.get("domain", "vertices", _parse_points))
    except ValueError as exc:
        raise ConfigError(f"[domain] invalid: {exc}") from None
    raise ConfigError(f"[domain] kind: unknown kind {kind!r} "
                      "(expected disk, rectangle, or polygon)")


def _grid_n(cfg: _Cfg, section: str = "grid", option: str = "n") -> int:
    n = cfg.get(section, option, int, 128)
    if n < 16:
        raise ConfigError(f"[{section}] {option}: grid too coarse, need "
                          "n >= 16 cells per unit length")
    return n


def _residual_tests(cfg: _Cfg, section: str) -> int:
    count = cfg.get(section, "residual_tests", int, 12)
    if count < 0:
        raise ConfigError(f"[{section}] residual_tests: must be >= 0 "
                          f"(0 = skip), got {count}")
    return count


def _check_resolution(eps: float, n: int, where: str) -> None:
    if not np.isfinite(eps):
        raise ConfigError(f"{where}: must be finite (got {eps!r})")
    if eps * n < 8.0 - 1e-12:
        raise ConfigError(
            f"{where}: resolution rule eps/h >= 8 violated "
            f"(eps={eps:g}, h=1/{n}, eps/h={eps * n:g}); refine the grid "
            "or enlarge eps")


def _spec_from(cfg: _Cfg, eps1: float, eps2: float) -> RearrangementSpec:
    try:
        return RearrangementSpec(
            eps1=eps1, eps2=eps2,
            kappa1=cfg.get("vortex", "kappa1", float, 1.0),
            kappa2=cfg.get("vortex", "kappa2", float, -1.0),
            p=cfg.get("vortex", "p", float, 2.0),
            profile=cfg.get("vortex", "profile", str, "patch").strip(),
            gamma=cfg.get("vortex", "gamma", float, 1.0))
    except ValueError as exc:
        raise ConfigError(f"[vortex] invalid: {exc}") from None


def _provenance(cfg: _Cfg, n: int) -> dict:
    return {"config_sha256": cfg.sha256, "grid_n": n,
            "solver_tol": RESIDUAL_TOL, "version": __version__}


def _solver(cfg: _Cfg, n: int):
    """Solver on the configured domain at n cells per unit length, and
    the provenance of every file the run writes."""
    return PoissonSolver(build_grid(_domain(cfg), n)), _provenance(cfg, n)


def _steady_state(cfg: _Cfg, solver: PoissonSolver, seed: int,
                  residual_tests: int):
    """Maximizer for the [steady] section on the solver's grid."""
    n = solver.grid.n
    eps1 = cfg.get("steady", "eps1", float)
    eps2 = cfg.get("steady", "eps2", float, eps1)
    _check_resolution(eps1, n, "[steady] eps1")
    if eps2 != 0:  # 0 selects the single-signed case
        _check_resolution(eps2, n, "[steady] eps2")
    spec = _spec_from(cfg, eps1, eps2)
    init_kind = cfg.get("steady", "init", str, "kr_seed").strip()
    if init_kind not in ("kr_seed", "random"):
        raise ConfigError(f"[steady] init: unknown init {init_kind!r}")
    init = "kr_seed" if init_kind == "kr_seed" else ("random", seed)
    return maximize(solver, spec, init=init,
                    max_iter=cfg.get("steady", "max_iter", int, 500),
                    residual_tests=residual_tests, residual_seed=seed)


def _prov_lines(prov: dict):
    return [f"config_sha256={prov['config_sha256']}",
            f"grid_n={prov['grid_n']} solver_tol={prov['solver_tol']!r} "
            f"version={prov['version']}"]


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: str, comments, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _domain_dict(dom: DomainSpec) -> dict:
    out = {"kind": dom.kind}
    if dom.kind == "rectangle":
        out["width"], out["height"] = dom.width, dom.height
    if dom.kind == "polygon":
        out["vertices"] = dom.vertices
    return out


# -- commands ----------------------------------------------------------------


def cmd_steady(cfg: _Cfg, outdir: str, seed: int) -> int:
    solver, prov = _solver(cfg, _grid_n(cfg))
    state = _steady_state(cfg, solver, seed,
                          residual_tests=_residual_tests(cfg, "steady"))
    lines = _prov_lines(prov)
    files = {}
    for name, field in (("zeta", state.zeta), ("psi", state.psi)):
        txt, pgm = f"{name}.txt", f"{name}.pgm"
        write_field_text(field, os.path.join(outdir, txt), comments=lines)
        write_pgm(field, os.path.join(outdir, pgm),
                  extra={"provenance": prov})
        files[name] = txt
        files[name + "_pgm"] = pgm
    payload = {f.name: getattr(state, f.name) for f in fields(state)
               if f.name not in ("zeta", "psi", "prototype")}
    payload.update(spec=asdict(state.spec), provenance=prov,
                   domain=_domain_dict(solver.grid.domain),
                   grid={"n": solver.grid.n, "h": solver.grid.h}, files=files)
    write_json(os.path.join(outdir, "steady.json"), payload)
    return 0 if state.converged else 2


def cmd_sweep(cfg: _Cfg, outdir: str, seed: int, jobs: int) -> int:
    if jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    dom = _domain(cfg)
    n_default = _grid_n(cfg)
    eps = cfg.get("sweep", "eps", _parse_float_list)
    if not eps:
        raise ConfigError("[sweep] eps: empty eps list")
    ns = cfg.get("sweep", "n", _parse_int_list, [n_default])
    if len(ns) == 1:
        ns = ns * len(eps)
    if len(ns) != len(eps):
        raise ConfigError("[sweep] n: need one grid resolution per eps "
                          f"({len(ns)} given for {len(eps)} eps values)")
    for e, n in zip(eps, ns):
        _check_resolution(e, n, "[sweep] eps")
        if n < 16:
            raise ConfigError("[sweep] n: grid too coarse, need n >= 16")
    spec = _spec_from(cfg, eps[0], eps[0])  # validates kappa/p/profile early
    plan = SweepPlan(
        domain=dom, eps=tuple(eps), n=tuple(ns),
        kappa1=spec.kappa1, kappa2=spec.kappa2, p=spec.p,
        profile=spec.profile, gamma=spec.gamma,
        kr_n=_grid_n(cfg, "sweep", "kr_n"),
        max_iter=cfg.get("sweep", "max_iter", int, 500),
        residual_tests=_residual_tests(cfg, "sweep"),
        seed=seed)
    result = run_sweep(plan, jobs=jobs)

    checks = []
    checks += fit_energy_slope(result)
    checks += interaction_boundedness(result)
    checks += core_size_check(result)
    checks += center_convergence_check(result)
    checks += multiplier_check(result)
    checks += profile_convergence(result)
    checks += ascent_check(result)

    prov = _provenance(cfg, max(ns))
    # one column per SweepRecord field; a 2-vector becomes <name>_x, <name>_y
    cols = [f.name for f in fields(SweepRecord)]
    vec = [np.ndim(getattr(result.records[0], c)) == 1 for c in cols]
    header = [h for c, v in zip(cols, vec)
              for h in ((c + "_x", c + "_y") if v else (c,))]
    rows = [[x for c, v in zip(cols, vec)
             for x in (getattr(r, c) if v else (getattr(r, c),))]
            for r in result.records]
    _write_csv(os.path.join(outdir, "records.csv"), _prov_lines(prov),
               header, rows)
    all_pass = all(c.status == "pass" for c in checks)
    verdict = {
        "provenance": prov,
        "kr": dict(asdict(result.krmin), signature=result.kr_signature),
        "checks": [c.to_dict() for c in checks],
        "all_pass": all_pass,
    }
    write_json(os.path.join(outdir, "verdict.json"), verdict)
    return 0 if all_pass else 2


def cmd_krmin(cfg: _Cfg, outdir: str, seed: int) -> int:
    solver, prov = _solver(cfg, _grid_n(cfg))
    dom = solver.grid.domain
    k1 = cfg.get("vortex", "kappa1", float, 1.0)
    k2 = cfg.get("vortex", "kappa2", float, -1.0)
    if not (k1 > 0 > k2):
        raise ConfigError("[vortex] kappa: minimization covers the "
                          "kappa1 > 0 > kappa2 regime only "
                          f"(got kappa1={k1:g}, kappa2={k2:g})")
    res = kr_minimize(solver, (k1, k2),
                      margin_h=cfg.get("kr", "margin_h", float, 6.0),
                      starts=cfg.get("kr", "starts", int, 3),
                      max_iter=cfg.get("kr", "max_iter", int, 100))
    payload = asdict(res)
    payload.update(provenance=prov, domain=_domain_dict(dom), kappas=[k1, k2],
                   signature=signature(res.points[0], res.points[1], dom))
    write_json(os.path.join(outdir, "krmin.json"), payload)
    return 0


def cmd_evolve(cfg: _Cfg, outdir: str, seed: int) -> int:
    mode = cfg.get("evolve", "mode", str, "pv").strip().lower()
    if mode not in ("pv", "pde"):
        raise ConfigError(f"[evolve] mode: unknown mode {mode!r} "
                          "(expected pv or pde)")
    solver, prov = _solver(cfg, _grid_n(cfg))

    if mode == "pv":
        k1 = cfg.get("vortex", "kappa1", float, 1.0)
        k2 = cfg.get("vortex", "kappa2", float, -1.0)
        pts = cfg.get("evolve", "positions", _parse_points, None)
        if pts is None:
            pts = kr_minimize(solver, (k1, k2)).points
        elif pts.shape[0] != 2:
            raise ConfigError("[evolve] positions: expected two x,y pairs "
                              "separated by ';'")
        kc = KRConfiguration(points=pts, kappas=np.array([k1, k2]))
        traj = pv_evolve(solver, kc,
                         T=cfg.get("evolve", "T", float, 10.0),
                         dt=cfg.get("evolve", "dt", float, 1e-3),
                         save_stride=cfg.get("evolve", "save_stride", int, 10))
        k = traj.points.shape[1]
        header = ["t"]
        for i in range(k):
            header += [f"x{i + 1}", f"y{i + 1}"]
        header.append("W")
        rows = [[traj.times[j]] + list(traj.points[j].ravel())
                + [traj.values[j]] for j in range(traj.times.size)]
        comments = _prov_lines(prov) + [f"note={traj.note or 'ok'}"]
        _write_csv(os.path.join(outdir, "trajectory.csv"), comments,
                   header, rows)
        return 0 if traj.completed else 2

    state = _steady_state(cfg, solver, seed, residual_tests=0)
    rel = cfg.get("evolve", "delta0_rel", float, 0.0)
    if not 0.0 <= rel <= 0.1:
        raise ConfigError("[evolve] delta0_rel: perturbation must satisfy "
                          "0 <= delta0_rel <= 0.1 (fraction of ||zeta||_p)")
    delta0 = rel * lp_norm(state.zeta, state.spec.p)
    dt = cfg.get("evolve", "dt", float, None)
    res = stability_experiment(
        solver, state, delta0,
        turnovers=cfg.get("evolve", "turnovers", float, 10.0),
        seed=seed, dt=dt,
        records=cfg.get("evolve", "records", int, 200))
    comments = _prov_lines(prov) + [
        f"d0={res.d0!r} dt={res.dt!r} turnover={res.turnover!r}",
        f"note={res.note or 'ok'}"]
    rows = [[res.times[j], res.distances[j], res.integrals[j], res.max_abs[j]]
            for j in range(res.times.size)]
    _write_csv(os.path.join(outdir, "stability.csv"), comments,
               ["t", "distance", "integral", "max_abs"], rows)
    return 0 if not res.aborted else 2


def cmd_diagnose(cfg: _Cfg, outdir: str, seed: int) -> int:
    solver, prov = _solver(cfg, _grid_n(cfg, "diagnose"))
    instances = cfg.get("diagnose", "instances", int, 100)
    p = cfg.get("vortex", "p", float, 2.0)

    hl = hardy_littlewood_suite(instances=instances, seed=seed)
    rz = riesz_suite(instances=instances, seed=seed)
    gm = gradient_measure_diagnostic(solver, p=p, seed=seed)
    growth_ok = gm.growth() <= 2.0
    payload = {
        "provenance": prov,
        "hardy_littlewood": hl.to_dict(),
        "riesz": rz.to_dict(),
        "gradient_measure": dict(asdict(gm), growth=gm.growth(),
                                 threshold=2.0),
        "all_pass": hl.passed and rz.passed and growth_ok,
    }
    write_json(os.path.join(outdir, "diagnose.json"), payload)
    return 0 if payload["all_pass"] else 2


_COMMANDS = {"steady": cmd_steady, "krmin": cmd_krmin, "evolve": cmd_evolve,
             "diagnose": cmd_diagnose}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vortexpair",
                     description="Steady vortex pairs in bounded planar "
                                 "domains: maximizers, point systems, "
                                 "evolution, diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("steady", "compute one maximizer and dump fields"),
            ("sweep", "run the shrinking-core family and its checks"),
            ("krmin", "minimize the point-vortex interaction function"),
            ("evolve", "integrate point vortices (pv) or the flow (pde)"),
            ("diagnose", "run rearrangement/gradient property suites")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="INI config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        if name == "sweep":
            sp.add_argument("--jobs", type=int, default=1,
                            help="threads for the eps points; outputs "
                                 "do not depend on it")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        outdir = (args.out or os.environ.get("VORTEXPAIR_OUT")
                  or cfg.get("output", "dir", str, "out"))
        os.makedirs(outdir, exist_ok=True)
        if args.command == "sweep":
            return cmd_sweep(cfg, outdir, args.seed, args.jobs)
        return _COMMANDS[args.command](cfg, outdir, args.seed)
    except (ConfigError, ValueError) as exc:
        print(f"vortexpair: error: {exc}", file=sys.stderr)
        return 1
    except SolveError as exc:
        print(f"vortexpair: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
