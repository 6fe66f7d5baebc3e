import math
import types
import weakref

import numpy as np
import pytest

import vortexpair as vp


# -- synthetic records for the check functions -------------------------------
#
# The check functions only read plain record fields, so hand-built records
# with controlled numbers exercise every pass/fail/insufficient branch
# without running a single maximization.

def mk_rec(eps, **kw):
    base = dict(
        eps1=eps, eps2=eps, n=64,
        energy=1.0, energy_pos=0.5, energy_neg=0.5, interaction=0.05,
        mu1=0.3, mu2=-0.3,
        diam_pos=2.5 * eps, diam_neg=2.5 * eps,
        center_pos=np.array([0.5, 0.0]), center_neg=np.array([-0.5, 0.0]),
        delta_profile_pos=0.1, delta_profile_neg=0.1,
        energy_seed=0.9, residual=0.01, monotone_violations=0,
        iterations=10, converged=True)
    base.update(kw)
    return vp.SweepRecord(**base)


def mk_result(dom, records, states=None, kr_points=((0.5, 0.0), (-0.5, 0.0))):
    plan = vp.SweepPlan(domain=dom, eps=tuple(r.eps1 for r in records),
                        n=tuple(r.n for r in records))
    sig = vp.signature(kr_points[0], kr_points[1], dom)
    return vp.SweepResult(plan=plan, records=records,
                          states=states or [None] * len(records),
                          krmin=None, kr_signature=sig)


@pytest.fixture(scope="module")
def dom():
    return vp.DomainSpec.unit_disk()


def test_energy_slope_pass_fail_insufficient(dom):
    target = 1.0 / (4.0 * math.pi)
    eps = (0.2, 0.1, 0.05)
    good = [mk_rec(e, energy_pos=target * -math.log(e) + 0.03,
                   energy_neg=target * -math.log(e) - 0.01) for e in eps]
    res = vp.fit_energy_slope(mk_result(dom, good))
    assert [c.status for c in res] == ["pass", "pass"]
    assert res[0].name == "energy_slope_pos"
    assert abs(res[0].measured - target) <= 1e-12

    bad = [mk_rec(e, energy_pos=1.2 * target * -math.log(e)) for e in eps]
    res = vp.fit_energy_slope(mk_result(dom, bad))
    assert res[0].status == "fail"

    res = vp.fit_energy_slope(mk_result(dom, good[:1]))
    assert all(c.status == "insufficient" for c in res)
    assert all(c.measured is None for c in res)
    assert not res[0].passed


def test_interaction_checks(dom):
    eps = (0.2, 0.1)
    flat = [mk_rec(e, interaction=0.04) for e in eps]
    res = vp.interaction_boundedness(mk_result(dom, flat))
    assert {c.name: c.status for c in res} == {
        "interaction_positive": "pass", "interaction_slope": "pass"}

    one_neg = [mk_rec(0.2, interaction=0.04), mk_rec(0.1, interaction=-0.01)]
    res = vp.interaction_boundedness(mk_result(dom, one_neg))
    assert res[0].status == "fail"
    assert res[0].measured == -0.01

    # slope 0.05 in -ln eps against bound 0.05 * 1/(4 pi) ~ 0.004
    steep = [mk_rec(e, interaction=0.05 * -math.log(e) + 0.1) for e in eps]
    res = vp.interaction_boundedness(mk_result(dom, steep))
    assert res[1].status == "fail"

    res = vp.interaction_boundedness(mk_result(dom, flat[:1]))
    assert res[1].status == "insufficient"


def test_core_size_check(dom):
    ok = [mk_rec(0.2), mk_rec(0.1, diam_pos=0.35, diam_neg=0.2)]
    assert vp.core_size_check(mk_result(dom, ok))[0].status == "pass"

    fat = [mk_rec(0.2, diam_pos=1.0)]  # ratio 5 > 4
    assert vp.core_size_check(mk_result(dom, fat))[0].status == "fail"

    thin = [mk_rec(0.2, diam_neg=0.2)]  # ratio 1 < 1.8
    assert vp.core_size_check(mk_result(dom, thin))[0].status == "fail"


def test_center_convergence_check(dom):
    kr = ((0.49, 0.0), (-0.49, 0.0))
    # distances to the kr signature shrink and end below 3/n
    recs = [mk_rec(0.2, n=64, center_pos=np.array([0.55, 0.0]),
                   center_neg=np.array([-0.55, 0.0])),
            mk_rec(0.1, n=96, center_pos=np.array([0.50, 0.0]),
                   center_neg=np.array([-0.50, 0.0]))]
    res = vp.center_convergence_check(mk_result(dom, recs, kr_points=kr))
    assert [c.status for c in res] == ["pass", "pass"]
    assert res[0].measured <= 3.0 / 96

    far = [mk_rec(0.2, n=64), mk_rec(0.1, n=96,
                                     center_pos=np.array([0.7, 0.0]),
                                     center_neg=np.array([-0.7, 0.0]))]
    res = vp.center_convergence_check(mk_result(dom, far, kr_points=kr))
    assert res[0].status == "fail"
    assert res[1].status == "fail"  # distance grew on the last step


def test_multiplier_check(dom):
    eps = (0.2, 0.1, 0.05)
    # mu_i = -(kappa_i/2pi) ln eps + d_i with constant d_i: zero spread
    good = [mk_rec(e, mu1=-math.log(e) / (2 * math.pi) + 0.2,
                   mu2=math.log(e) / (2 * math.pi) - 0.2) for e in eps]
    res = vp.multiplier_check(mk_result(dom, good))
    assert [c.status for c in res] == ["pass", "pass"]
    assert res[0].measured <= 1e-12

    # drift 0.2 between records exceeds the 0.5/(2 pi) ~ 0.08 budget
    drift = [mk_rec(e, mu1=-math.log(e) / (2 * math.pi) + 0.2 * i)
             for i, e in enumerate(eps)]
    res = vp.multiplier_check(mk_result(dom, drift))
    assert res[0].status == "fail"

    res = vp.multiplier_check(mk_result(dom, good[:1]))
    assert all(c.status == "insufficient" for c in res)


def test_profile_convergence(dom):
    good = [mk_rec(0.2, delta_profile_pos=0.3, delta_profile_neg=0.25),
            mk_rec(0.1, delta_profile_pos=0.15, delta_profile_neg=0.1)]
    res = vp.profile_convergence(mk_result(dom, good))
    assert [c.status for c in res] == ["pass", "pass"]

    stuck = [mk_rec(0.2, delta_profile_pos=0.3),
             mk_rec(0.1, delta_profile_pos=0.5)]
    res = vp.profile_convergence(mk_result(dom, stuck))
    assert res[0].status == "fail"   # final 0.5 > 0.2
    assert res[1].status == "fail"   # grew by more than 20%


def test_ascent_check(dom):
    clean_states = [types.SimpleNamespace(energy_log=np.array([0.9, 0.95, 1.0]))
                    for _ in range(2)]
    recs = [mk_rec(0.2), mk_rec(0.1)]
    res = vp.ascent_check(mk_result(dom, recs, states=clean_states))
    assert res[0].status == "pass"
    assert "clean" in res[0].detail

    dip = [types.SimpleNamespace(energy_log=np.array([0.9, 1.0, 0.7]))]
    res = vp.ascent_check(mk_result(dom, [mk_rec(0.2)], states=dip))
    assert res[0].status == "fail"

    swapped = [mk_rec(0.2, mu1=-0.3, mu2=0.3)]
    res = vp.ascent_check(mk_result(dom, swapped, states=clean_states[:1]))
    assert res[0].status == "fail"
    assert "mu1 <= mu2" in res[0].detail

    lazy = [mk_rec(0.2, converged=False)]
    res = vp.ascent_check(mk_result(dom, lazy, states=clean_states[:1]))
    assert res[0].status == "fail"


def test_check_result_to_dict(dom):
    c = vp.fit_energy_slope(mk_result(dom, [mk_rec(0.2)]))[0]
    d = c.to_dict()
    assert set(d) == {"name", "status", "measured", "threshold", "detail"}


def test_sweep_plan_validation(dom):
    with pytest.raises(ValueError, match="one grid resolution per eps"):
        vp.SweepPlan(domain=dom, eps=(0.2, 0.1), n=(64,))
    plan = vp.SweepPlan(domain=dom, eps=(0.2, 0.1), n=64)
    assert plan.n == (64, 64)


@pytest.mark.parametrize("kw, word", [
    (dict(residual_tests=-1), "residual_tests"),
    (dict(max_iter=0), "max_iter"),
    # the second point alone breaks its rule: 0.1 * 48 < 8
    (dict(eps=(0.2, 0.1)), "resolution rule eps/h >= 8 violated"),
    (dict(profile="gaussian"), "unknown profile"),
    (dict(profile="parabolic", gamma=0.0), "gamma > 0"),
    (dict(eps=()), "at least one eps"),
])
def test_sweep_plan_rejects_bad_ascent_settings_before_solving(
        dom, monkeypatch, kw, word):
    solves = []
    real = vp.PoissonSolver.solve
    monkeypatch.setattr(vp.PoissonSolver, "solve",
                        lambda self, rhs: solves.append(1) or real(self, rhs))
    with pytest.raises(ValueError, match=word):
        vp.run_sweep(vp.SweepPlan(**dict(domain=dom, eps=(0.2,), n=48,
                                         kr_n=48) | kw))
    assert len(solves) == 0


# -- identities on real states ----------------------------------------------

def test_energy_split_identity(pair_state_96, disk96):
    st = pair_state_96
    e_pos, e_neg, inter = vp.energy_split(disk96, st)
    assert e_pos > 0 and e_neg > 0 and inter > 0
    assert abs(st.energy - (e_pos + e_neg - inter)) <= 1e-9 * abs(st.energy)


def test_profile_distance_names_its_core(pair_state_96):
    assert vp.profile_distance(pair_state_96, "neg") > 0
    with pytest.raises(ValueError, match="'pos' or 'neg'"):
        vp.profile_distance(pair_state_96, "positive")


def test_signature_isometry_invariance():
    dom = vp.DomainSpec.unit_disk()
    a, b = np.array([0.5, 0.1]), np.array([-0.4, -0.2])
    s0 = vp.signature(a, b, dom)
    for th in (0.3, 1.7, -2.0):
        c, s = math.cos(th), math.sin(th)
        rot = np.array([[c, -s], [s, c]])
        s1 = vp.signature(rot @ a, rot @ b, dom)
        assert vp.signature_distance(s0, s1) <= 1e-12
    # reflection across the x axis
    s2 = vp.signature(a * [1, -1], b * [1, -1], dom)
    assert vp.signature_distance(s0, s2) <= 1e-12
    assert vp.signature_distance(s0, s0 + 0.25) == pytest.approx(0.25)


def test_signature_off_center_domain():
    dom = vp.DomainSpec.rectangle(1.0, 0.6)
    s = vp.signature((0.7, 0.3), (0.3, 0.3), dom)
    # measured from the centroid, not the origin, so a shifted copy of the
    # same pair in a shifted box gives the same signature
    assert np.allclose(s, [0.2, 0.2, 0.4])


# -- gradient-measure diagnostic ---------------------------------------------

def test_gradient_measure_rejects_p_one(disk64):
    with pytest.raises(ValueError, match="p > 1"):
        vp.gradient_measure_diagnostic(disk64, p=1.0)


def test_gradient_measure_shape_and_growth(disk64):
    out = vp.gradient_measure_diagnostic(disk64, seed=3)
    assert out.radii.tolist() == [0.4, 0.2, 0.1]
    assert out.samples == 6
    assert (out.max_ratio > 0).all()
    # scale invariance of the ratio: shrinking the support by 4x in area
    # must not let it blow up
    assert out.growth() <= 2.5


def test_gradient_measure_rejects_unplaceable_support():
    # a 0.4 disk cannot fit in a strip of height 0.5
    strip = vp.PoissonSolver(vp.build_grid(vp.DomainSpec.rectangle(2.0, 0.5), 32))
    with pytest.raises(ValueError, match="could not place"):
        vp.gradient_measure_diagnostic(strip)


def test_truncated_stream_gradient_oracle(disk96):
    # u = (psi - c)+ for the centered unit patch, cut at level psi(r_c):
    # the squared gradient norm is 1/(8 pi) + ln(r_c/eps)/(2 pi)
    g = disk96.grid
    eps, r_c = 0.15, 0.5
    xy = g.cells_xy
    r = np.hypot(xy[:, 0], xy[:, 1])
    f = np.where(r <= eps, 1.0 / (math.pi * eps * eps), 0.0)
    psi = disk96.solve(f)
    cut = math.log(1.0 / r_c) / (2.0 * math.pi)
    u = np.maximum(psi - cut, 0.0)
    box = g.box_image(u)
    gx = (np.roll(box, -1, axis=0) - np.roll(box, 1, axis=0)) / (2 * g.h)
    gy = (np.roll(box, -1, axis=1) - np.roll(box, 1, axis=1)) / (2 * g.h)
    norm2 = float((gx ** 2 + gy ** 2).sum()) * g.cell_area
    exact = 1.0 / (8.0 * math.pi) + math.log(r_c / eps) / (2.0 * math.pi)
    assert norm2 == pytest.approx(exact, rel=0.10)


# -- the sweep driver ---------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_plan():
    return vp.SweepPlan(domain=vp.DomainSpec.unit_disk(), eps=(0.15, 0.12), n=(64, 80),
                        kr_n=48, residual_tests=2)


@pytest.fixture(scope="module")
def tiny_sweep(tiny_plan):
    return vp.run_sweep(tiny_plan)


def test_run_sweep_records(tiny_sweep):
    res = tiny_sweep
    assert [r.eps1 for r in res.records] == [0.15, 0.12]  # eps descending
    for rec, st in zip(res.records, res.states):
        assert rec.converged
        assert rec.monotone_violations == 0
        assert rec.energy >= rec.energy_seed
        assert rec.mu1 > 0 > rec.mu2
        assert 0 < rec.delta_profile < 1.0
        assert 0 < rec.residual <= 0.05
        assert st.spec.eps1 == rec.eps1
    assert res.kr_signature.shape == (3,)
    # seeded at the kr minimum, the pair should stay near it
    checks = vp.center_convergence_check(res)
    assert checks[0].status == "pass"
    assert vp.core_size_check(res)[0].status == "pass"
    assert vp.ascent_check(res)[0].status == "pass"


def _track_solvers(monkeypatch):
    """For each solver built from now on, which solvers built before it were
    still alive when it was built."""
    built, alive = [], []
    init = vp.PoissonSolver.__init__

    def tracked(self, grid):
        alive.append([ref() is not None for ref in built])
        built.append(weakref.ref(self))
        init(self, grid)

    monkeypatch.setattr(vp.PoissonSolver, "__init__", tracked)
    return built, alive


def test_run_sweep_keeps_one_solver_alive(monkeypatch):
    built, alive = _track_solvers(monkeypatch)
    vp.run_sweep(vp.SweepPlan(domain=vp.DomainSpec.unit_disk(), eps=(0.2, 0.18),
                              n=(48, 56), kr_n=48, residual_tests=0))
    assert alive == [[], [False], [False, False]]  # the KR solver, then n=48, 56
    assert not any(ref() for ref in built)


def test_run_sweep_reuses_a_revisited_grid(monkeypatch):
    built, alive = _track_solvers(monkeypatch)
    res = vp.run_sweep(vp.SweepPlan(domain=vp.DomainSpec.unit_disk(),
                                    eps=(0.2, 0.19, 0.18), n=(48, 56, 48),
                                    kr_n=48, residual_tests=0))
    assert [r.n for r in res.records] == [48, 56, 48]
    assert alive == [[], [False], [False, True]]  # n=48 outlives the n=56 point
    assert not any(ref() for ref in built)
