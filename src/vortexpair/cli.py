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
import difflib
import hashlib
import os
import sys
from dataclasses import asdict, dataclass, fields

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


def _parse_list(conv):
    return lambda text: [conv(t) for t in text.replace(",", " ").split()]


def _parse_points(text: str) -> np.ndarray:
    pts = [tok.replace(",", " ").split() for tok in text.split(";")]
    pts = [[float(c) for c in p] for p in pts if p]
    if not pts or any(len(p) != 2 for p in pts):
        raise ValueError(text)
    return np.array(pts)


def _between(lo, hi=sys.float_info.max):
    """Check that a value, or every value of a list, is finite in [lo, hi]."""
    return lambda v: all(lo <= x <= hi for x in np.ravel(v))


def _one_of(key, *names):
    return lambda v: v in names, f"unknown {key}, expected {' | '.join(names)}"


_finite = _between(-sys.float_info.max)
_FINITE = (_finite, "must be finite")
_POSITIVE = (_between(np.nextafter(0.0, 1.0)), "must be finite and > 0")
_COUNT = (_between(1), "must be >= 1")
_GRID = (_between(16), "grid too coarse, need n >= 16 cells per unit length")

# (section, key) -> (parse, default, check, rule): the config grammar.
# load_config parses and checks every key a file sets; a failed check
# reads "[section] key: rule".  Every command accepts every known key, as
# one file may drive several.  A None default depends on another key.
_TABLE = {
    ("domain", "kind"): (str.lower, "disk", *_one_of(
        "kind", "disk", "unit_disk", "rectangle", "polygon")),
    ("domain", "width"): (float, _REQUIRED, *_POSITIVE),
    ("domain", "height"): (float, _REQUIRED, *_POSITIVE),
    ("domain", "vertices"): (_parse_points, _REQUIRED, *_FINITE),
    ("grid", "n"): (int, 128, *_GRID),
    ("vortex", "kappa1"): (float, 1.0, _finite, "kappa1 must be finite"),
    ("vortex", "kappa2"): (float, -1.0, _finite, "kappa2 must be finite"),
    ("vortex", "p"): (float, 2.0, _between(1), "must be finite and >= 1"),
    ("vortex", "profile"): (str, "patch",
                            *_one_of("profile", "patch", "parabolic")),
    ("vortex", "gamma"): (float, 1.0, *_POSITIVE),
    ("steady", "eps1"): (float, _REQUIRED, *_FINITE),
    ("steady", "eps2"): (float, None, *_FINITE),  # default eps1
    ("steady", "init"): (str, "kr_seed",
                         *_one_of("init", "kr_seed", "random")),
    ("steady", "max_iter"): (int, 500, *_COUNT),
    ("steady", "residual_tests"): (int, 12, _between(0), "must be >= 0"),
    ("sweep", "eps"): (_parse_list(float), _REQUIRED,
                       lambda v: len(v) > 0 and _finite(v),
                       "must be finite, one value or more"),
    ("sweep", "n"): (_parse_list(int), None, *_GRID),  # default [grid] n
    ("sweep", "kr_n"): (int, 128, *_GRID),
    ("sweep", "max_iter"): (int, 500, *_COUNT),
    ("sweep", "residual_tests"): (int, 12, _between(0), "must be >= 0"),
    ("kr", "margin_h"): (float, 6.0, _between(6), "must be finite and >= 6"),
    ("kr", "starts"): (int, 3, *_COUNT),
    ("kr", "max_iter"): (int, 100, _between(0), "must be >= 0"),
    ("evolve", "mode"): (str.lower, "pv", *_one_of("mode", "pv", "pde")),
    ("evolve", "positions"): (_parse_points, None,
                              lambda v: v.shape == (2, 2) and _finite(v),
                              "need two finite x,y pairs split by ';'"),
    ("evolve", "T"): (float, 10.0, *_POSITIVE),
    ("evolve", "dt"): (float, None, *_POSITIVE),  # pv 1e-3, pde from v0
    ("evolve", "save_stride"): (int, 10, *_COUNT),
    ("evolve", "delta0_rel"): (float, 0.0, _between(0, 0.1), "perturbation "
                               "must satisfy 0 <= delta0_rel <= 0.1"),
    ("evolve", "turnovers"): (float, 10.0, *_POSITIVE),
    ("evolve", "records"): (int, 200, *_COUNT),
    ("diagnose", "n"): (int, 128, *_GRID),
    ("diagnose", "instances"): (int, 100, _between(1),
                                "instances must be >= 1"),
    ("output", "dir"): (str, "out", bool, "must not be empty"),
}
# configparser folds key names to lower case; section names keep theirs
_KEYS = {(s, k.lower()): (s, k) for s, k in _TABLE}
_SECTIONS = {s for s, _ in _TABLE}


def _unknown(where: str, what: str, word: str, known, form: str):
    near = difflib.get_close_matches(word, known, n=1, cutoff=0.7)
    hint = f"; did you mean {form.format(near[0])}?" if near else ""
    return ConfigError(f"{where}: unknown {what}{hint}")


@dataclass(frozen=True)
class _Cfg:
    """Checked values by (section, key), and the config file's hash."""
    values: dict
    sha256: str

    def get(self, section, key, fallback=None):
        """The key's value or table default; `fallback` for a None default."""
        value = self.values.get((section, key), _TABLE[section, key][1])
        if value is _REQUIRED:
            raise ConfigError(f"missing [{section}] {key}")
        return fallback if value is None else value


def load_config(path: str) -> _Cfg:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    # ';' separates coordinate pairs inside values, so only '#' may start
    # an inline comment.  No section is configparser's default one, so
    # [DEFAULT] is unknown like any other; '%' interpolates nothing.
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   default_section="", interpolation=None)
    try:
        cp.read_string(raw.decode("utf-8"), source=path)
    except (UnicodeDecodeError, configparser.Error) as exc:
        # configparser errors carry the offending line number
        raise ConfigError(f"config parse error: {exc}") from None
    values = {}
    for section in cp.sections():
        if section not in _SECTIONS:  # named with its first key, if any
            where = " ".join([f"[{section}]", *cp.options(section)[:1]])
            raise _unknown(where, "section", section, _SECTIONS, "[{}]")
        for key, text in cp.items(section):
            name = f"[{section}] {key}"
            if (section, key) not in _KEYS:
                keys = [k for s, k in _KEYS if s == section]
                raise _unknown(name, "key", key, keys, f"[{section}] {{}}")
            parse, _, check, rule = _TABLE[_KEYS[section, key]]
            try:
                values[_KEYS[section, key]] = value = parse(text)
            except (TypeError, ValueError):
                raise ConfigError(f"{name}: cannot parse {text!r}") from None
            if not check(value):
                raise ConfigError(f"{name}: {rule} (got {text})")
    return _Cfg(values, hashlib.sha256(raw).hexdigest())


def _domain(cfg: _Cfg) -> DomainSpec:
    kind = cfg.get("domain", "kind")
    try:
        if kind == "rectangle":
            return DomainSpec.rectangle(cfg.get("domain", "width"),
                                        cfg.get("domain", "height"))
        if kind == "polygon":
            return DomainSpec.polygon(cfg.get("domain", "vertices"))
    except ValueError as exc:
        raise ConfigError(f"[domain] invalid: {exc}") from None
    return DomainSpec.unit_disk()


# the [vortex] keys that define a rearrangement class, less its radii
_VORTEX = ("kappa1", "kappa2", "p", "profile", "gamma")


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
    eps1 = cfg.get("steady", "eps1")
    spec = RearrangementSpec(eps1=eps1, eps2=cfg.get("steady", "eps2", eps1),
                             **{k: cfg.get("vortex", k) for k in _VORTEX})
    init = cfg.get("steady", "init")
    init = "kr_seed" if init == "kr_seed" else ("random", seed)
    return maximize(solver, spec, init=init,
                    max_iter=cfg.get("steady", "max_iter"),
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
    return {k: v for k, v in asdict(dom).items() if v not in (0.0, ())}


# -- commands ----------------------------------------------------------------


def cmd_steady(cfg: _Cfg, outdir: str, seed: int) -> int:
    solver, prov = _solver(cfg, cfg.get("grid", "n"))
    state = _steady_state(cfg, solver, seed,
                          residual_tests=cfg.get("steady", "residual_tests"))
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


def cmd_sweep(cfg: _Cfg, outdir: str, seed: int) -> int:
    # SweepPlan checks one n per eps; run_sweep checks every point's
    # class and resolution before its first solve
    ns = cfg.get("sweep", "n", [cfg.get("grid", "n")])
    result = run_sweep(SweepPlan(
        domain=_domain(cfg), eps=cfg.get("sweep", "eps"),
        n=ns[0] if len(ns) == 1 else ns, seed=seed,
        **{k: cfg.get("vortex", k) for k in _VORTEX},
        **{k: cfg.get("sweep", k)
           for k in ("kr_n", "max_iter", "residual_tests")}))

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
    solver, prov = _solver(cfg, cfg.get("grid", "n"))
    dom = solver.grid.domain
    k1, k2 = cfg.get("vortex", "kappa1"), cfg.get("vortex", "kappa2")
    res = kr_minimize(solver, (k1, k2), **{
        k: cfg.get("kr", k) for k in ("margin_h", "starts", "max_iter")})
    payload = asdict(res)
    payload.update(provenance=prov, domain=_domain_dict(dom), kappas=[k1, k2],
                   signature=signature(res.points[0], res.points[1], dom))
    write_json(os.path.join(outdir, "krmin.json"), payload)
    return 0


def cmd_evolve(cfg: _Cfg, outdir: str, seed: int) -> int:
    solver, prov = _solver(cfg, cfg.get("grid", "n"))
    dt = cfg.get("evolve", "dt")

    if cfg.get("evolve", "mode") == "pv":
        k1, k2 = cfg.get("vortex", "kappa1"), cfg.get("vortex", "kappa2")
        pts = cfg.get("evolve", "positions")
        if pts is None:
            pts = kr_minimize(solver, (k1, k2)).points
        kc = KRConfiguration(points=pts, kappas=np.array([k1, k2]))
        traj = pv_evolve(solver, kc, T=cfg.get("evolve", "T"),
                         dt=1e-3 if dt is None else dt,
                         save_stride=cfg.get("evolve", "save_stride"))
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
    delta0 = (cfg.get("evolve", "delta0_rel")
              * lp_norm(state.zeta, state.spec.p))
    res = stability_experiment(
        solver, state, delta0, turnovers=cfg.get("evolve", "turnovers"),
        seed=seed, dt=dt, records=cfg.get("evolve", "records"))
    comments = _prov_lines(prov) + [
        f"d0={res.d0!r} dt={res.dt!r} turnover={res.turnover!r}",
        f"note={res.note or 'ok'}"]
    rows = [[res.times[j], res.distances[j], res.integrals[j], res.max_abs[j]]
            for j in range(res.times.size)]
    _write_csv(os.path.join(outdir, "stability.csv"), comments,
               ["t", "distance", "integral", "max_abs"], rows)
    return 0 if not res.aborted else 2


def cmd_diagnose(cfg: _Cfg, outdir: str, seed: int) -> int:
    solver, prov = _solver(cfg, cfg.get("diagnose", "n"))
    instances = cfg.get("diagnose", "instances")
    p = cfg.get("vortex", "p")

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


_COMMANDS = {"steady": cmd_steady, "sweep": cmd_sweep, "krmin": cmd_krmin,
             "evolve": cmd_evolve, "diagnose": cmd_diagnose}


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
                            help="ignored; kept so existing command "
                                 "lines still parse")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        outdir = (args.out or os.environ.get("VORTEXPAIR_OUT")
                  or cfg.get("output", "dir"))
        os.makedirs(outdir, exist_ok=True)
        return _COMMANDS[args.command](cfg, outdir, args.seed)
    except (ConfigError, ValueError) as exc:
        print(f"vortexpair: error: {exc}", file=sys.stderr)
        return 1
    except SolveError as exc:
        print(f"vortexpair: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
