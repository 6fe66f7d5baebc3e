"""Concentration asymptotics of maximizer families and related checks.

A sweep runs the rearrangement maximizer over a family of shrinking
core radii and extracts, per record, the quantities whose epsilon
scaling the theory pins down: the per-sign self-energies (slope
kappa_i^2/4pi against -ln eps), the cross interaction (bounded and
positive), core diameters (Theta(eps)), Lagrange multipliers (drift
(kappa_i/2pi) ln eps), core centers (converging to the Kirchhoff-Routh
minimum of the point system), and rescaled core profiles (converging to
the radial rearrangement of the prototype).

Center comparisons use the signature (|X+ - c|, |X- - c|, |X+ - X-|)
with c the domain centroid, which is invariant under the domain's
isometries; on the disk the minimizing pair is only defined up to
rotation, so raw positions cannot converge and the signature is the
honest observable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .fields import (ScalarField, _radial_order, lp_norm, negative_part,
                     positive_part, rescale_profile)
from .grid import DomainSpec, Grid, build_grid, measure
from .kirchhoff import KRMinimum, kr_minimize
from .maximizer import (RearrangementSpec, SteadyState, _check_ascent,
                        _check_resolution, make_prototype, maximize,
                        place_prototype)
from .poisson import PoissonSolver, velocity

__all__ = [
    "SweepPlan", "SweepRecord", "SweepResult", "CheckResult", "run_sweep",
    "energy_split", "profile_distance", "signature", "signature_distance",
    "fit_energy_slope", "interaction_boundedness", "core_size_check",
    "center_convergence_check", "multiplier_check", "profile_convergence",
    "ascent_check", "gradient_measure_diagnostic", "GradientMeasureResult",
]

TWO_PI = 2.0 * math.pi


@dataclass
class SweepPlan:
    domain: DomainSpec
    eps: tuple
    n: tuple  # one grid resolution per eps entry
    kappa1: float = 1.0
    kappa2: float = -1.0
    p: float = 2.0
    profile: str = "patch"
    gamma: float = 1.0
    kr_n: int = 128
    max_iter: int = 500
    residual_tests: int = 12
    seed: int = 0

    def __post_init__(self):
        self.eps = tuple(float(e) for e in self.eps)
        if not self.eps:  # else the KR scan runs, and two checks pass, on no record
            raise ValueError("need at least one eps value")
        n = self.n if hasattr(self.n, "__len__") else (self.n,) * len(self.eps)
        if len(n) != len(self.eps):
            raise ValueError(f"need one grid resolution per eps ({len(n)} "
                             f"given for {len(self.eps)} eps values)")
        self.n = tuple(int(v) for v in n)


@dataclass
class SweepRecord:
    eps1: float
    eps2: float
    n: int
    energy: float
    energy_pos: float
    energy_neg: float
    interaction: float
    mu1: float
    mu2: float
    diam_pos: float
    diam_neg: float
    center_pos: np.ndarray
    center_neg: np.ndarray
    delta_profile_pos: float
    delta_profile_neg: float
    energy_seed: float
    residual: float
    monotone_violations: int
    iterations: int
    converged: bool

    @property
    def delta_profile(self) -> float:
        return max(self.delta_profile_pos, self.delta_profile_neg)


@dataclass
class SweepResult:
    plan: SweepPlan
    records: list  # one per eps of the plan (never empty), eps-descending
    states: list
    krmin: KRMinimum
    kr_signature: np.ndarray


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "insufficient"
    measured: float | None
    threshold: float | None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self):
        return asdict(self)


def energy_split(solver: PoissonSolver, state: SteadyState):
    """(E_pos, E_neg, interaction) from one extra solve on zeta+.

    With A = zeta+ and psi = G zeta already known, G zeta- = G A - psi,
    so all three quadratic forms come from the same two fields and the
    identity E = E+ + E- - I holds to solver accuracy.
    """
    h2 = solver.grid.cell_area
    a = positive_part(state.zeta).values
    ga = solver.solve(a)
    psi = state.psi.values
    gneg = ga - psi
    zneg = a - state.zeta.values
    e_pos = 0.5 * float((a * ga).sum()) * h2
    e_neg = 0.5 * float((zneg * gneg).sum()) * h2
    inter = float((a * gneg).sum()) * h2
    return e_pos, e_neg, inter


def _radial_prototype_profile(plane: Grid, values: np.ndarray, eps: float) -> ScalarField:
    out = np.zeros(plane.ncells)
    order = _radial_order(plane)[: values.size]
    out[order] = values * eps * eps
    return ScalarField(plane, out)


def profile_distance(state: SteadyState, sign: str = "pos") -> float:
    """Relative Lp distance between the rescaled core (`sign` "pos" or
    "neg") and its ideal profile."""
    spec = state.spec
    if sign == "pos":
        part, eps, center, vals = (positive_part(state.zeta), spec.eps1,
                                   state.center_pos, state.prototype.pos)
    elif sign == "neg":
        part, eps, center, vals = (negative_part(state.zeta), spec.eps2,
                                   state.center_neg, state.prototype.neg)
    else:
        raise ValueError(f"sign must be 'pos' or 'neg' (got {sign!r})")
    xi = rescale_profile(part, eps, center)
    rho = _radial_prototype_profile(xi.grid, vals, eps)
    diff = ScalarField(xi.grid, xi.values - rho.values)
    return lp_norm(diff, spec.p) / lp_norm(rho, spec.p)


def signature(center_pos, center_neg, domain: DomainSpec) -> np.ndarray:
    c = np.asarray(domain.centroid())
    a = np.asarray(center_pos) - c
    b = np.asarray(center_neg) - c
    return np.array([np.hypot(*a), np.hypot(*b), np.hypot(*(a - b))])


def signature_distance(s1, s2) -> float:
    return float(np.abs(np.asarray(s1) - np.asarray(s2)).max())


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Maximize along the eps family, seeding every run at the KR minimum.

    The KR minimum is computed once on its own (coarser) grid: seeds do
    not need sub-cell accuracy, and the center check compares
    orbit-invariant signatures, so grids may differ between the point
    system and the field runs.  The eps points run one after another in
    eps-descending order, each reusing the solver of its grid.

    One LU factor is live at a time: the KR solver and its Green store go
    once the minimum is found, each grid's solver after its last point;
    a grid the plan comes back to keeps its solver, factored once.

    Every point's class, resolution and ascent settings are checked
    before the first solve, so a bad point fails before the KR scan.
    """
    specs = [RearrangementSpec(eps1=eps, eps2=eps, kappa1=plan.kappa1,
                               kappa2=plan.kappa2, p=plan.p,
                               profile=plan.profile, gamma=plan.gamma)
             for eps in plan.eps]
    for spec, n in zip(specs, plan.n):
        _check_resolution(spec, 1.0 / n)
    _check_ascent(plan.max_iter, plan.residual_tests)
    krmin = kr_minimize(PoissonSolver(build_grid(plan.domain, plan.kr_n)),
                        (plan.kappa1, plan.kappa2))
    kr_sig = signature(krmin.points[0], krmin.points[1], plan.domain)

    steady = {f.name for f in fields(SteadyState)}
    shared = [f.name for f in fields(SweepRecord) if f.name in steady]
    order = np.argsort(-np.asarray(plan.eps), kind="stable")
    last = {plan.n[idx]: at for at, idx in enumerate(order)}
    solvers: dict[int, PoissonSolver] = {}
    records, states = [], []
    for at, idx in enumerate(order):
        eps, n = plan.eps[idx], plan.n[idx]
        if n not in solvers:
            solvers[n] = PoissonSolver(build_grid(plan.domain, n))
        solver = solvers.pop(n) if last[n] == at else solvers[n]
        spec = specs[idx]
        proto = make_prototype(spec, solver.grid)
        seed_field = place_prototype(solver.grid, proto, krmin.points[0],
                                     krmin.points[1])
        state = maximize(solver, spec, init=("given", seed_field),
                         max_iter=plan.max_iter,
                         residual_tests=plan.residual_tests,
                         residual_seed=plan.seed)
        e_pos, e_neg, inter = energy_split(solver, state)
        records.append(SweepRecord(
            eps1=eps, eps2=eps, n=n, energy_pos=e_pos, energy_neg=e_neg,
            interaction=inter,
            delta_profile_pos=profile_distance(state, "pos"),
            delta_profile_neg=profile_distance(state, "neg"),
            energy_seed=float(state.energy_log[0]),
            **{name: getattr(state, name) for name in shared}))
        states.append(state)
        del solver  # freed here after its last point, by reference counting
    return SweepResult(plan=plan, records=records, states=states,
                       krmin=krmin, kr_signature=kr_sig)


# -- checks over sweep records ----------------------------------------------

def _fit(xs, ys) -> float:
    return float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])


def _trend(name: str, label: str, vals) -> CheckResult:
    """Each value at most 1.2 times the one before it (20% noise); the
    measured number is the largest such ratio (0.0 for a single value)."""
    noise = 0.20
    pairs = list(zip(vals, vals[1:]))
    ok = all(b <= a * (1.0 + noise) for a, b in pairs)
    return CheckResult(name, "pass" if ok else "fail",
                       max((b / a for a, b in pairs), default=0.0),
                       1.0 + noise, f"{label} {['%.4g' % v for v in vals]}")


def fit_energy_slope(result: SweepResult):
    """Slopes of E(zeta+-) against -ln eps vs kappa_i^2 / 4pi, to 10%."""
    rel_tol = 0.10
    recs = result.records
    out = []
    for name, kappa, get in (
            ("energy_slope_pos", result.plan.kappa1, lambda r: r.energy_pos),
            ("energy_slope_neg", result.plan.kappa2, lambda r: r.energy_neg)):
        target = kappa * kappa / (4.0 * math.pi)
        if len(recs) < 2:
            out.append(CheckResult(name, "insufficient", None, target,
                                   "insufficient points"))
            continue
        slope = _fit([-math.log(r.eps1) for r in recs], [get(r) for r in recs])
        ok = abs(slope - target) <= rel_tol * abs(target)
        out.append(CheckResult(name, "pass" if ok else "fail", slope, target,
                               f"rel_tol={rel_tol}"))
    return out


def interaction_boundedness(result: SweepResult):
    """Interaction positive, |slope| in -ln eps within 0.05 |kappa1 kappa2| / 4pi."""
    rel_tol = 0.05
    recs = result.records
    scale = abs(result.plan.kappa1 * result.plan.kappa2) / (4.0 * math.pi)
    out = []
    neg = [r for r in recs if r.interaction <= 0]
    out.append(CheckResult(
        "interaction_positive", "pass" if not neg else "fail",
        min(r.interaction for r in recs), 0.0,
        f"{len(neg)} nonpositive records"))
    if len(recs) < 2:
        out.append(CheckResult("interaction_slope", "insufficient", None,
                               rel_tol * scale, "insufficient points"))
        return out
    slope = _fit([-math.log(r.eps1) for r in recs],
                 [r.interaction for r in recs])
    ok = abs(slope) <= rel_tol * scale
    out.append(CheckResult("interaction_slope", "pass" if ok else "fail",
                           slope, rel_tol * scale, "|slope| vs bound"))
    return out


def core_size_check(result: SweepResult):
    """Every core diameter between 1.8 and 4.0 times its eps."""
    lo, hi = 1.8, 4.0
    ratios = []
    for r in result.records:
        ratios.append(r.diam_pos / r.eps1)
        ratios.append(r.diam_neg / r.eps2)
    ok = min(ratios) >= lo and max(ratios) <= hi
    return [CheckResult("core_size", "pass" if ok else "fail",
                        max(ratios), hi,
                        f"min={min(ratios):.3f} (floor {lo}), max vs cap {hi}")]


def center_convergence_check(result: SweepResult):
    """Signature distance to the KR minimum: within 3h at the end, shrinking."""
    recs = result.records
    dom = result.plan.domain
    dists = [signature_distance(signature(r.center_pos, r.center_neg, dom),
                                result.kr_signature) for r in recs]
    last = recs[-1]  # records are eps-descending
    thresh = 3.0 / last.n
    ok = dists[-1] <= thresh
    return [CheckResult("center_convergence", "pass" if ok else "fail",
                        dists[-1], thresh, "distance at smallest eps vs 3h"),
            _trend("center_trend", "distances", dists)]


def multiplier_check(result: SweepResult):
    """Drift-corrected multipliers d_i = mu_i + (kappa_i/2pi) ln eps_i,
    their spread within 0.5 |kappa_i| / 2pi.

    Both signs use the same formula; for the negative core kappa_2 < 0
    makes the correction positive, canceling the -|kappa_2|/2pi ln(1/eps)
    growth of mu_2 exactly as the positive side.
    """
    recs = result.records
    out = []
    for name, kappa, get_mu, get_eps in (
            ("multiplier_pos", result.plan.kappa1, lambda r: r.mu1, lambda r: r.eps1),
            ("multiplier_neg", result.plan.kappa2, lambda r: r.mu2, lambda r: r.eps2)):
        if len(recs) < 2:
            out.append(CheckResult(name, "insufficient", None, None,
                                   "insufficient points"))
            continue
        d = [get_mu(r) + kappa / TWO_PI * math.log(get_eps(r)) for r in recs]
        spread = max(d) - min(d)
        bound = 0.5 * abs(kappa) / TWO_PI
        out.append(CheckResult(name, "pass" if spread <= bound else "fail",
                               spread, bound,
                               f"d values {['%.4g' % v for v in d]}"))
    return out


def profile_convergence(result: SweepResult):
    """Profile distance within 0.2 at the smallest eps, shrinking."""
    final_tol = 0.2
    deltas = [r.delta_profile for r in result.records]
    ok = deltas[-1] <= final_tol
    return [CheckResult("profile_final", "pass" if ok else "fail", deltas[-1],
                        final_tol, "delta at smallest eps"),
            _trend("profile_trend", "deltas", deltas)]


def ascent_check(result: SweepResult):
    """Energy logs nondecreasing to 1e-12; converged flags; monotone-map zeros."""
    rel_tol = 1e-12
    worst = 0.0
    bad = []
    for rec, st in zip(result.records, result.states):
        log = st.energy_log
        if log.size > 1:
            dips = np.diff(log) / np.maximum(1.0, np.abs(log[:-1]))
            worst = min(float(dips.min()), worst)
        if not rec.converged:
            bad.append(f"eps={rec.eps1} non-converged")
        if rec.monotone_violations:
            bad.append(f"eps={rec.eps1} monotone violations")
        if rec.mu1 <= rec.mu2:
            bad.append(f"eps={rec.eps1} mu1 <= mu2")
        if rec.energy < rec.energy_seed - 1e-12 * max(1.0, abs(rec.energy)):
            bad.append(f"eps={rec.eps1} below seed energy")
    status = "pass" if worst >= -rel_tol and not bad else "fail"
    return [CheckResult("ascent_and_optimality", status, worst, -rel_tol,
                        "; ".join(bad) if bad else "all records clean")]


# -- gradient-measure diagnostic --------------------------------------------

@dataclass
class GradientMeasureResult:
    radii: np.ndarray
    max_ratio: np.ndarray
    samples: int

    def growth(self) -> float:
        return float(self.max_ratio.max() / self.max_ratio.min())


def gradient_measure_diagnostic(solver: PoissonSolver, p: float = 2.0,
                                seed: int = 0) -> GradientMeasureResult:
    """Ratio ||grad u||_2 / (||Lap u||_p m(u>0)^(1/p')) over truncations.

    u = (G f - c)+ for random nonnegative f supported at a given scale
    and random admissible cut levels c.  The Laplacian of u is taken as
    -f on {u > 0}: that is the Lp datum the estimate controls (the
    5-point Laplacian of the truncated field would pick up an O(1/h)
    layer on the free boundary and diverge under refinement).  Six
    samples at each support radius 0.4, 0.2 and 0.1 span a factor 16 in
    area.
    """
    if not p > 1:
        raise ValueError("need p > 1 so the conjugate exponent is finite")
    g = solver.grid
    rng = np.random.default_rng(seed)
    xy = g.cells_xy
    pconj = p / (p - 1.0)
    samples = 6
    radii = 0.4 / (2.0 ** np.arange(3))
    maxes = np.zeros(radii.size)
    for si, rs in enumerate(radii):
        best = 0.0
        for _ in range(samples):
            c, _ = g.domain.draw_disk(rng, rs + 2 * g.h,
                                      f"support disks of radius {rs:g}")
            sel = np.hypot(xy[:, 0] - c[0], xy[:, 1] - c[1]) < rs
            f = np.zeros(g.ncells)
            f[sel] = rng.uniform(0.1, 1.0, int(sel.sum()))
            psi = solver.solve(f)
            cut = rng.uniform(0.2, 0.8) * psi.max()
            u = np.maximum(psi - cut, 0.0)
            # psi = G f peaks on supp f (discrete maximum principle) above the
            # cut, so {u > 0} holds a cell where f > 0, and no divisor is 0
            pos = u > 0
            # |v| = |grad u|: the velocity is the gradient turned by 90 degrees
            v = velocity(solver, ScalarField(g, u))
            grad2 = math.sqrt(float((v.u1 * v.u1 + v.u2 * v.u2).sum())
                              * g.cell_area)
            lap_p = float((f[pos] ** p).sum() * g.cell_area) ** (1.0 / p)
            msr = measure(g, pos)
            best = max(best, grad2 / (lap_p * msr ** (1.0 / pconj)))
        maxes[si] = best
    return GradientMeasureResult(radii=radii, max_ratio=maxes, samples=samples)
