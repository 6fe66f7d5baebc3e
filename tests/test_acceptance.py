"""End-to-end acceptance gate.

Sixteen numbered criteria pin the package's scientific claims at the
reference configuration (unit disk, kappas (1, -1), patch profile,
p = 2, eps in {0.12, 0.10, 0.08, 0.06} on grids n = 256/384).  Each
test prints one `ACCEPTANCE k ...: PASS|FAIL` line with the measured
numbers, then asserts; tolerances are pinned inline.  Criterion 15's
zero-perturbation clause is known not to hold for the discontinuous
patch profile at n = 128 (transporting a jump smears it over at least
one cell, which already costs about 0.24 in relative L2); the test
states the bound as specified and reports the measured value honestly.
Two unnumbered oracles at the end check the expansion's constant terms
on the same sweep; they print no ACCEPTANCE line.
"""

import json
import math
import textwrap

import numpy as np
import pytest

import vortexpair as vp
from vortexpair import cli

EPS_FAMILY = (0.12, 0.10, 0.08, 0.06)
N_FAMILY = (256, 256, 256, 384)


def report(num, label, ok, detail):
    print(f"ACCEPTANCE {num:2d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def dom():
    return vp.DomainSpec.unit_disk()


@pytest.fixture(scope="module")
def ref_sweep(dom):
    plan = vp.SweepPlan(domain=dom, eps=EPS_FAMILY, n=N_FAMILY,
                        kr_n=128, seed=0)
    return vp.run_sweep(plan)


@pytest.fixture(scope="module")
def solver128(dom):
    return vp.PoissonSolver(vp.build_grid(dom, 128))


@pytest.fixture(scope="module")
def state128(solver128):
    spec = vp.RearrangementSpec(eps1=0.12, eps2=0.12, kappa1=1.0, kappa2=-1.0)
    st = vp.maximize(solver128, spec, residual_tests=0)
    assert st.converged
    return st


@pytest.fixture(scope="module")
def solver256(dom):
    return vp.PoissonSolver(vp.build_grid(dom, 256))


def test_acceptance_01_green_robin_oracles(solver256):
    g = solver256.grid
    xy = g.cells_xy
    rr = np.hypot(xy[:, 0], xy[:, 1])
    worst_rel = 0.0
    for y in ((0.0, 0.0), (0.3, 0.2), (-0.5, 0.1), (0.2, -0.55)):
        gf = vp.green_function(solver256, y)
        sep = np.hypot(xy[:, 0] - y[0], xy[:, 1] - y[1])
        keep = (rr <= 0.8) & (sep >= 4 * g.h)
        yn2 = y[0] * y[0] + y[1] * y[1]
        if yn2 == 0.0:
            exact = np.log(1.0 / sep[keep]) / (2 * math.pi)
        else:
            ys = (y[0] / yn2, y[1] / yn2)
            dxs = np.hypot(xy[keep, 0] - ys[0], xy[keep, 1] - ys[1])
            exact = np.log(dxs * math.sqrt(yn2) / sep[keep]) / (2 * math.pi)
        rel = np.abs(gf.values[keep] - exact) / np.abs(exact)
        worst_rel = max(worst_rel, float(rel.max()))
    worst_robin = 0.0
    for r in (0.0, 0.2, 0.4, 0.6, 0.8):
        for th in (0.0, 2.4):
            got = vp.robin(solver256, (r * math.cos(th), r * math.sin(th)))
            exact = -math.log(1.0 - r * r) / (2 * math.pi)
            worst_robin = max(worst_robin, abs(got - exact))
    ok = worst_rel <= 0.05 and worst_robin <= 0.01
    report(1, "Green/Robin disk oracles", ok,
           f"G rel err {worst_rel:.4f} <= 0.05 at separations >= 4h, "
           f"Robin abs err {worst_robin:.5f} <= 0.01 for |x| <= 0.8")
    assert worst_rel <= 0.05
    assert worst_robin <= 0.01


def test_acceptance_02_centered_patch_energy(solver256):
    g = solver256.grid
    eps = 0.1
    rr = np.hypot(g.cells_xy[:, 0], g.cells_xy[:, 1])
    zeta = np.where(rr <= eps, 1.0 / (math.pi * eps * eps), 0.0)
    psi = solver256.solve(zeta)
    e = 0.5 * float((zeta * psi).sum()) * g.cell_area
    exact = math.log(1.0 / eps) / (4 * math.pi) + 1.0 / (16 * math.pi)
    rel = abs(e - exact) / exact
    ok = rel <= 0.02
    report(2, "centered patch energy", ok,
           f"E={e:.6f} vs {exact:.6f}, rel {rel:.5f} <= 0.02")
    assert rel <= 0.02


def test_acceptance_03_energy_slopes(ref_sweep):
    checks = vp.fit_energy_slope(ref_sweep)
    ok = all(c.status == "pass" for c in checks)
    report(3, "energy slope vs -ln eps", ok,
           "; ".join(f"{c.name} {c.measured:.5f} vs {c.threshold:.5f}"
                     for c in checks) + ", rel tol 10%")
    assert all(c.detail == "rel_tol=0.1" for c in checks)
    assert ok, [c.to_dict() for c in checks]


def test_acceptance_04_interaction_bounded(ref_sweep):
    checks = vp.interaction_boundedness(ref_sweep)
    ok = all(c.status == "pass" for c in checks)
    report(4, "interaction positive and flat", ok,
           f"min I {checks[0].measured:.5f} > 0, "
           f"|slope| {abs(checks[1].measured):.6f} <= {checks[1].threshold:.6f}")
    assert checks[1].threshold == pytest.approx(0.05 / (4 * math.pi), rel=1e-15)
    assert ok, [c.to_dict() for c in checks]


def test_acceptance_05_core_size(ref_sweep):
    check = vp.core_size_check(ref_sweep)[0]
    ratios = [r.diam_pos / r.eps1 for r in ref_sweep.records] + \
             [r.diam_neg / r.eps2 for r in ref_sweep.records]
    ok = check.status == "pass"
    report(5, "core diameter vs eps", ok,
           f"diam/eps in [{min(ratios):.3f}, {max(ratios):.3f}], "
           f"required within [1.8, 4.0]")
    assert check.threshold == 4.0 and "(floor 1.8)" in check.detail
    assert ok, check.to_dict()


def test_acceptance_06_core_location(ref_sweep):
    checks = vp.center_convergence_check(ref_sweep)
    ok = all(c.status == "pass" for c in checks)
    report(6, "centers approach the point minimum", ok,
           f"signature distance {checks[0].measured:.2e} <= 3h = "
           f"{checks[0].threshold:.2e} at eps={ref_sweep.records[-1].eps1}, "
           f"trend factor {checks[1].measured:.3f} <= 1.2")
    assert checks[0].threshold == 3.0 / 384 and checks[1].threshold == 1.2
    assert ok, [c.to_dict() for c in checks]


def test_acceptance_07_multiplier_drift(ref_sweep):
    checks = vp.multiplier_check(ref_sweep)
    ok = all(c.status == "pass" for c in checks)
    report(7, "log-corrected multiplier spread", ok,
           "; ".join(f"{c.name} spread {c.measured:.2e} <= {c.threshold:.4f}"
                     for c in checks))
    assert all(c.threshold == 0.5 / (2 * math.pi) for c in checks)
    assert ok, [c.to_dict() for c in checks]


def test_acceptance_08_bathtub_optimality(ref_sweep):
    worst_gap = min(r.mu1 - r.mu2 for r in ref_sweep.records)
    violations = max(r.monotone_violations for r in ref_sweep.records)
    converged = all(r.converged for r in ref_sweep.records)
    ok = converged and violations == 0 and worst_gap > 0
    report(8, "monotone map and multiplier gap", ok,
           f"all converged={converged}, monotone violations={violations}, "
           f"min mu1-mu2 gap {worst_gap:.4f} > 0")
    assert ok


def test_acceptance_09_ascent_invariant(ref_sweep):
    worst = 0.0
    for st in ref_sweep.states:
        log = st.energy_log
        dips = np.diff(log) / np.maximum(1.0, np.abs(log[:-1]))
        if dips.size:
            worst = min(worst, float(dips.min()))
    ok = worst >= -1e-12
    report(9, "energy ascent per iteration", ok,
           f"worst relative dip {worst:.2e} >= -1e-12")
    assert ok


def test_acceptance_10_profile_convergence(ref_sweep):
    checks = vp.profile_convergence(ref_sweep)
    deltas = [r.delta_profile for r in ref_sweep.records]
    ok = all(c.status == "pass" for c in checks)
    report(10, "rescaled profile distance", ok,
           f"deltas {['%.4f' % d for d in deltas]}, final "
           f"{deltas[-1]:.4f} <= 0.2, trend within 20% noise")
    assert checks[0].threshold == 0.2 and checks[1].threshold == 1.2
    assert ok, [c.to_dict() for c in checks]


def test_acceptance_11_residual_refinement(ref_sweep, solver128, state128,
                                           solver256):
    st256 = ref_sweep.states[0]
    assert st256.spec.eps1 == 0.12
    # the sweep owns its grids; rewrap the fields on this module's solver
    z256 = vp.ScalarField(solver256.grid, st256.zeta.values)
    p256 = vp.ScalarField(solver256.grid, st256.psi.values)
    r128 = vp.steadiness_residual(solver128, state128.zeta, state128.psi,
                                  count=40, seed=1)
    r256 = vp.steadiness_residual(solver256, z256, p256, count=40, seed=1)
    ratio = r128 / r256
    ok = 1.0 / 0.65 <= ratio <= 1.0 / 0.35
    report(11, "steadiness residual halves under refinement", ok,
           f"residual {r128:.5f} (n=128) / {r256:.5f} (n=256) = "
           f"{ratio:.3f}, required in [1.54, 2.86]")
    assert ok


def test_acceptance_12_rearrangement_suites():
    hl = vp.hardy_littlewood_suite(instances=100, seed=0)
    rz = vp.riesz_suite(instances=100, seed=0)
    ok = hl.violations == 0 and rz.violations == 0 \
        and hl.tol <= 1e-8 and rz.tol <= 1e-8
    report(12, "rearrangement inequality suites", ok,
           f"100+100 instances, violations {hl.violations}/{rz.violations}, "
           f"worst excess {hl.worst_excess:.2e}/{rz.worst_excess:.2e} "
           f"at tol {hl.tol:g}/{rz.tol:g}")
    assert ok


def test_acceptance_13_gradient_measure_growth(solver128):
    gm = vp.gradient_measure_diagnostic(solver128, p=2.0, seed=0)
    growth = gm.growth()
    ok = growth <= 2.0
    report(13, "gradient-measure ratio across scales", ok,
           f"support radii {gm.radii.tolist()} (area factor 16), "
           f"max ratios {np.round(gm.max_ratio, 4).tolist()}, "
           f"growth {growth:.3f} <= 2")
    assert gm.radii.tolist() == [0.4, 0.2, 0.1]
    assert ok


def test_acceptance_14_point_vortex_conservation(solver128):
    km = vp.kr_minimize(solver128, (1.0, -1.0))
    cfg = vp.KRConfiguration(points=km.points, kappas=np.array([1.0, -1.0]))
    traj = vp.pv_evolve(solver128, cfg, T=10.0, dt=1e-3, save_stride=50)
    drift = float(np.abs(traj.values - traj.values[0]).max())

    co = vp.KRConfiguration(points=np.array([[0.06, 0.0], [-0.06, 0.0]]),
                            kappas=np.array([1.0, 1.0]))
    drifts = []
    for dt in (1e-3, 5e-4):
        t = vp.pv_evolve(solver128, co, T=10.0, dt=dt, save_stride=50)
        assert t.completed, t.note
        drifts.append(float(np.abs(t.values - t.values[0]).max()))
    ratio = drifts[0] / drifts[1]
    # RK4 halving nominally gains 16x; accept a factor 2.5 band around it
    ok = traj.completed and drift <= 1e-4 and 8.0 <= ratio <= 40.0
    # the reference pair's drift is a few ulps of W, so it is printed in
    # units of eps |W(0)|, rounded up to a power of ten: a rounding change
    # in the solves does not move the line
    unit = np.finfo(float).eps * abs(float(traj.values[0]))
    ulps = 10.0 ** max(0, math.ceil(math.log10(max(drift / unit, 1.0))))
    report(14, "point-vortex energy conservation", ok,
           f"reference pair drift <= {ulps:.0e} eps|W(0)| against the bound "
           f"1e-4 = {1e-4 / unit:.1e} eps|W(0)| over T=10, dt=1e-3; "
           f"dt halving improves drift {drifts[0]:.4e} -> {drifts[1]:.4e}, "
           f"ratio {ratio:.2f} in [8, 40]")
    assert traj.completed
    assert drift <= 1e-4
    assert 8.0 <= ratio <= 40.0


def test_acceptance_15_stability_probe(solver128, state128):
    base = vp.stability_experiment(solver128, state128, delta0=0.0,
                                   turnovers=10.0, seed=0)
    drift = float(base.distances.max())
    znorm = vp.lp_norm(state128.zeta, 2.0)
    pert = vp.stability_experiment(solver128, state128, delta0=0.02 * znorm,
                                   turnovers=10.0, seed=0)
    d0 = float(pert.distances[0])
    sup_d = float(pert.distances.max())
    bound = 3.0 * d0 + drift
    ok_drift = not base.aborted and drift <= 0.05
    ok_growth = not pert.aborted and sup_d <= bound
    report(15, "stability probe", ok_drift and ok_growth,
           f"delta0=0 drift {drift:.4f} vs 0.05 over 10 turnovers "
           f"(known red: one-cell edge smear of the patch jump costs ~0.24); "
           f"perturbed sup d {sup_d:.4f} <= 3*d(0)+drift = {bound:.4f}")
    assert not base.aborted and not pert.aborted
    assert sup_d <= bound
    assert drift <= 0.05  # stated bound; fails honestly for the patch profile


def test_acceptance_16_cli_determinism(tmp_path):
    cfg_steady = tmp_path / "steady.ini"
    cfg_steady.write_text(textwrap.dedent("""
        [grid]
        n = 64
        [steady]
        eps1 = 0.15
        residual_tests = 2
    """))
    cfg_sweep = tmp_path / "sweep.ini"
    cfg_sweep.write_text(textwrap.dedent("""
        [sweep]
        eps = 0.15 0.12
        n = 64 80
        kr_n = 48
        residual_tests = 2
    """))
    rc = [cli.main(["steady", "--config", str(cfg_steady), "--out",
                    str(tmp_path / f"st{i}")]) for i in (1, 2)]
    rs = [cli.main(["sweep", "--config", str(cfg_sweep), "--out",
                    str(tmp_path / f"sw{i}")]) for i in (1, 2)]
    assert rc == [0, 0]
    assert rs[0] == rs[1]
    same = True
    for name in ("steady.json", "zeta.txt", "psi.txt", "zeta.pgm", "psi.pgm"):
        same &= ((tmp_path / "st1" / name).read_bytes()
                 == (tmp_path / "st2" / name).read_bytes())
    for name in ("records.csv", "verdict.json"):
        same &= ((tmp_path / "sw1" / name).read_bytes()
                 == (tmp_path / "sw2" / name).read_bytes())
    report(16, "CLI reruns byte-identical", same,
           "steady and sweep outputs compared byte for byte")
    assert same


# -- the paper's expansions as oracles ----------------------------------------
#
# For a patch pair the energy and the multipliers expand as (Turkington 1983,
# "On steady vortex flow in two dimensions")
#     E = sum_i kappa_i^2/(4 pi) (ln(1/eps) + 1/4) - W(x*) + o(1),
#     d_i = mu_i + (kappa_i/2 pi) ln eps -> -dW/dkappa_i at x*.
# Both oracles are restricted to the reference sweep's symmetric patch pair,
# kappas (1, -1): there the constant 1/4 is the patch's own, and
# -dW/dkappa_i = -kappa_i W* (W = (H1 + H2)/2 + G12), so d_pos -> -W* and
# d_neg -> +W*.  W* is the sweep's own KR minimum, on its kr_n = 128 grid.
#
# Error inputs, measured by acceptance 1 and 2 at n = 256 (the sweep's
# coarsest field grid), not by these oracles:
ROBIN_ERR = 0.00211  # acceptance 1: worst Robin error for |x| <= 0.8
PATCH_REL_ERR = 0.0019  # acceptance 2: centered patch energy, relative


def _symmetric_patch_pair(result):
    plan = result.plan
    assert (plan.kappa1, plan.kappa2, plan.profile) == (1.0, -1.0, "patch")
    return result.krmin.value


def _w_err(n):
    """Bound on the error of W = (H1 + H2)/2 + G12 at the pair on grid n.

    Each H, and the regular part of G12, comes from the masked boundary, so
    each is off by at most acceptance 1's Robin error, taken first order in
    h below n = 256; the free-space part of G12 is the lattice kernel, off
    by O(h^2 / |x1 - x2|^2), negligible at the pair's separation (about 1).
    """
    return 2.0 * ROBIN_ERR * max(1.0, 256 / n)


def test_energy_constant_is_the_kr_minimum(ref_sweep):
    """E - (1/2pi)(ln(1/eps) + 1/4) + W* -> 0 at every point.

    The tolerance is the sum of the numerical errors.  The continuum
    remainder is far smaller: a uniform disk meets the harmonic parts of G
    as a point charge at its center, so only the cores' deformation and
    their offset from x* enter, both at second order.
    - The two self-energies, to acceptance 2's relative error:
      2 * 0.0019 * (ln(1/eps) + 1/4)/(4 pi) <= 9.3e-4 for eps >= 0.06.
    - W at the pair on the field grid (n >= 256): 0.0042.
    - W* on the kr_n = 128 grid: 0.0084.
    Together at most 0.0136.  Dropping the patch's 1/4 would move the
    quantity by 1/(8 pi) = 0.040.
    """
    w_star = _symmetric_patch_pair(ref_sweep)
    for rec in ref_sweep.records:
        self_energy = (math.log(1.0 / rec.eps1) + 0.25) / (2.0 * math.pi)
        tol = (PATCH_REL_ERR * self_energy + _w_err(rec.n)
               + _w_err(ref_sweep.plan.kr_n))
        assert abs(rec.energy - self_energy + w_star) <= tol, rec.eps1


def test_multiplier_constants_are_the_kr_minimum(ref_sweep):
    """d_pos -> -W* and d_neg -> +W* at every point.

    The tolerance is the sum of the numerical errors:
    - mu_i is psi at a cell center on the core's rim, within half a cell
      diagonal, h/sqrt(2), of the radius-eps circle where the expansion
      reads psi; psi falls off there as (1/2pi) ln(1/r), so this costs at
      most (1/2pi)(h/sqrt(2))/eps <= 0.0049 for eps/h >= 23;
    - the self part of psi on that circle, (1/2pi) ln(1/eps) <= 0.45, to
      acceptance 2's relative error: 8.5e-4;
    - H1 + G12 on the field grid: 0.0042, and W* on kr_n = 128: 0.0084.
    Together at most 0.0184.
    """
    w_star = _symmetric_patch_pair(ref_sweep)
    for rec in ref_sweep.records:
        for mu, eps, kappa in ((rec.mu1, rec.eps1, 1.0),
                               (rec.mu2, rec.eps2, -1.0)):
            edge = 1.0 / (math.sqrt(2.0) * eps * rec.n) / (2.0 * math.pi)
            self_psi = math.log(1.0 / eps) / (2.0 * math.pi)
            tol = (edge + PATCH_REL_ERR * self_psi + _w_err(rec.n)
                   + _w_err(ref_sweep.plan.kr_n))
            d = mu + kappa / (2.0 * math.pi) * math.log(eps)
            assert abs(d + kappa * w_star) <= tol, (eps, kappa, d)
