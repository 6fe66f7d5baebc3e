import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

import vortexpair as vp
from vortexpair.maximizer import _in_class


def test_patch_prototype_mass_and_count(disk96):
    g = disk96.grid
    spec = vp.RearrangementSpec(eps1=0.15, eps2=0.1, kappa1=2.0, kappa2=-1.0)
    proto = vp.make_prototype(spec, g)
    # cell count matches the prescribed support area
    assert proto.n_pos == round(math.pi * 0.15 ** 2 / g.h ** 2)
    assert proto.n_neg == round(math.pi * 0.1 ** 2 / g.h ** 2)
    # values are uniform and integrate to the prescribed circulations
    assert np.allclose(proto.pos, proto.pos[0])
    assert proto.pos.sum() * g.h ** 2 == pytest.approx(2.0, rel=1e-12)
    assert proto.neg.sum() * g.h ** 2 == pytest.approx(1.0, rel=1e-12)


def test_parabolic_prototype_shape(disk96):
    g = disk96.grid
    spec = vp.RearrangementSpec(eps1=0.15, eps2=0.15, kappa1=1.0,
                                kappa2=-1.0, profile="parabolic", gamma=1.0)
    proto = vp.make_prototype(spec, g)
    assert np.all(np.diff(proto.pos) <= 1e-12)
    assert proto.pos[-1] <= proto.pos[0] * 0.05
    assert proto.pos.sum() * g.h ** 2 == pytest.approx(1.0, rel=1e-12)


def test_prototype_resolution_guard(disk64):
    spec = vp.RearrangementSpec(eps1=0.05, eps2=0.05, kappa1=1.0,
                                kappa2=-1.0)
    with pytest.raises(ValueError, match="refine grid or enlarge eps"):
        vp.make_prototype(spec, disk64.grid)


def test_place_prototype_nearest_cells(disk96):
    g = disk96.grid
    spec = vp.RearrangementSpec(eps1=0.12, eps2=0.12, kappa1=1.0,
                                kappa2=-1.0)
    proto = vp.make_prototype(spec, g)
    c1, c2 = (0.4, 0.0), (-0.4, 0.0)
    f = vp.place_prototype(g, proto, c1, c2)
    pos = f.values > 0
    neg = f.values < 0
    assert pos.sum() == proto.n_pos
    assert neg.sum() == proto.n_neg
    # positive support is a distance ball around c1: every support cell
    # is at most one cell farther than any non-support cell
    r_in = np.hypot(g.cells_xy[pos, 0] - c1[0],
                    g.cells_xy[pos, 1] - c1[1]).max()
    rest = ~pos
    r_out = np.hypot(g.cells_xy[rest, 0] - c1[0],
                     g.cells_xy[rest, 1] - c1[1]).min()
    assert r_in <= r_out + g.h
    # mass is exact after placement
    assert f.values.sum() * g.h ** 2 == pytest.approx(0.0, abs=1e-12)


def test_best_response_brute_force():
    # tiny rectangle so every disjoint placement can be enumerated
    g = vp.build_grid(vp.DomainSpec.rectangle(0.375, 0.25), 16)
    n = g.ncells
    assert n == 24
    spec = vp.RearrangementSpec(eps1=0.03, eps2=0.03, kappa1=1.0,
                                kappa2=-0.5)
    proto = vp.Prototype(spec=spec, pos=np.array([30.0, 20.0]),
                         neg=np.array([25.0, 10.0]))
    # every ordered pair of cells, scored once per sign; a placement is a
    # (positive pair, negative pair) entry of the table with no shared cell
    pairs = np.array(list(itertools.permutations(range(n), 2)))
    disjoint = (pairs[:, None, :, None] != pairs[None, :, None, :]).all(axis=(2, 3))
    rng = np.random.default_rng(0)
    for trial in range(5):
        psi = vp.ScalarField(g, rng.normal(size=n))
        got = vp.best_response(proto, psi)
        gain = float(np.sum(got.values * psi.values))
        pos = psi.values[pairs] @ proto.pos
        neg = -(psi.values[pairs] @ proto.neg)
        best = (pos[:, None] + neg[None, :])[disjoint].max()
        assert gain == pytest.approx(best, rel=1e-12)


def test_best_response_constant_psi():
    g = vp.build_grid(vp.DomainSpec.rectangle(0.375, 0.25), 16)
    spec = vp.RearrangementSpec(eps1=0.03, eps2=0.03, kappa1=1.0,
                                kappa2=-0.5)
    proto = vp.Prototype(spec=spec, pos=np.array([30.0, 20.0]),
                         neg=np.array([25.0, 10.0]))
    psi = vp.ScalarField(g, np.zeros(g.ncells))
    out = vp.best_response(proto, psi)
    assert (out.values > 0).sum() == 2
    assert (out.values < 0).sum() == 2


def test_ascent_identity(disk96):
    # E(v) - E(z) = <v - z, Gz> + 1/2 <v - z, G(v - z)> exactly
    g = disk96.grid
    spec = vp.RearrangementSpec(eps1=0.12, eps2=0.12, kappa1=1.0,
                                kappa2=-1.0)
    proto = vp.make_prototype(spec, g)
    z = vp.place_prototype(g, proto, (0.3, 0.1), (-0.3, -0.1))
    v = vp.place_prototype(g, proto, (0.45, -0.2), (-0.5, 0.2))
    h2 = g.cell_area
    ez = vp.energy(disk96, z)
    ev = vp.energy(disk96, v)
    gz = disk96.solve(z.values)
    gd = disk96.solve(v.values - z.values)
    rhs = (np.sum((v.values - z.values) * gz)
           + 0.5 * np.sum((v.values - z.values) * gd)) * h2
    assert ev - ez == pytest.approx(rhs, rel=1e-10, abs=1e-14)


def test_maximize_fixed_point(pair_state_96, disk96):
    st = pair_state_96
    assert st.converged
    assert st.monotone_violations == 0
    assert st.mu1 > st.mu2
    # the returned state is an exact best response to its own field
    again = vp.best_response(st.prototype, st.psi)
    assert np.array_equal(again.values, st.zeta.values)
    # restart from the fixed point: immediate convergence, same energy
    st2 = vp.maximize(disk96, st.spec, init=("given", st.zeta),
                      residual_tests=0)
    assert st2.iterations <= 1
    assert st2.energy == pytest.approx(st.energy, rel=1e-12)


def test_maximize_energy_log_monotone(pair_state_96):
    log = pair_state_96.energy_log
    assert log.size >= 2
    scale = max(abs(log[-1]), 1.0)
    assert np.all(np.diff(log) >= -1e-12 * scale)


def test_maximize_single_signed_multiplier(disk96):
    # one positive patch in a disk settles at the center; its boundary
    # stream value has the closed form ln(1/eps)/(2 pi)
    spec = vp.RearrangementSpec(eps1=0.15, eps2=0.0, kappa1=1.0, kappa2=0.0)
    st = vp.maximize(disk96, spec, residual_tests=0)
    assert st.converged
    # tie-breaking among near-equal stream values lets the discrete fixed
    # point lodge a few cells off the origin; it must stay well inside a
    # core radius of it
    assert np.hypot(*st.center_pos) <= 0.5 * spec.eps1
    exact = math.log(1.0 / 0.15) / (2.0 * math.pi)
    assert st.mu1 == pytest.approx(exact, rel=0.05)
    assert st.mu2 is None
    assert st.diam_pos / 0.15 == pytest.approx(2.0, abs=0.3)


def test_maximize_random_init_converges(disk96):
    spec = vp.RearrangementSpec(eps1=0.13, eps2=0.13, kappa1=1.0,
                                kappa2=-1.0)
    st = vp.maximize(disk96, spec, init=("random", 7), residual_tests=0)
    assert st.converged
    assert st.monotone_violations == 0


_TIGHT_RECT = vp.PoissonSolver(vp.build_grid(vp.DomainSpec.rectangle(1.4, 1.0), 40))


@pytest.mark.parametrize("seed", [121, 124])
def test_random_init_redraws_both_cores(seed, monkeypatch):
    # on this rectangle the admissible centers form [0.3, 1.1] x [0.3, 0.7];
    # a first center near the middle leaves no room for the second core,
    # so a rejected pair must be redrawn whole
    g = _TIGHT_RECT.grid
    spec = vp.RearrangementSpec(eps1=0.25, eps2=0.25, kappa1=1.0,
                                kappa2=-1.5)
    draws = []
    draw = vp.DomainSpec.draw_disk

    def spy(dom, rng, radius, what, accept=None):
        c, r = draw(dom, rng, radius, what, accept)
        draws.append((c, r))
        return c, r

    monkeypatch.setattr(vp.DomainSpec, "draw_disk", spy)
    st = vp.maximize(_TIGHT_RECT, spec, init=("random", seed),
                     residual_tests=0)
    assert st.converged and st.monotone_violations == 0
    # the last two draws are the accepted pair, positive first
    (pos, r1), (neg, r2) = draws[-2:]
    clear = 0.25 + 2.0 * g.h
    assert r1 == r2 == clear
    assert g.domain.boundary_distance(*pos) >= clear
    assert g.domain.boundary_distance(*neg) >= clear
    assert math.hypot(pos[0] - neg[0], pos[1] - neg[1]) >= 0.5 + 4 * g.h


def test_maximize_rejects_negative_residual_tests(disk64):
    spec = vp.RearrangementSpec(eps1=0.15, eps2=0.15, kappa1=1.0,
                                kappa2=-1.0)
    with pytest.raises(ValueError, match="residual_tests must be >= 0"):
        vp.maximize(disk64, spec, residual_tests=-3)


def test_maximize_rejects_max_iter_below_one(disk64):
    spec = vp.RearrangementSpec(eps1=0.15, eps2=0.15, kappa1=1.0,
                                kappa2=-1.0)
    with pytest.raises(ValueError, match="max_iter"):
        vp.maximize(disk64, spec, max_iter=0, residual_tests=0)


def test_lagrange_multipliers_values(pair_state_96):
    mu1, mu2 = vp.lagrange_multipliers(pair_state_96.zeta, pair_state_96.psi)
    on_pos = pair_state_96.zeta.values > 0
    on_neg = pair_state_96.zeta.values < 0
    assert mu1 == pytest.approx(pair_state_96.psi.values[on_pos].min())
    assert mu2 == pytest.approx(pair_state_96.psi.values[on_neg].max())


def test_monotone_map_check_hand_cases(disk64):
    g = disk64.grid
    n = g.ncells
    z = np.zeros(n)
    s = np.zeros(n)
    z[0], z[1] = 2.0, 1.0
    s[0], s[1] = 1.0, 2.0
    # higher psi carries lower zeta: one violating pair
    assert vp.monotone_map_check(vp.ScalarField(g, z),
                                 vp.ScalarField(g, s)) == 1
    s[0], s[1] = 2.0, 1.0
    assert vp.monotone_map_check(vp.ScalarField(g, z),
                                 vp.ScalarField(g, s)) == 0
    # constant psi can never witness a violation
    assert vp.monotone_map_check(vp.ScalarField(g, z),
                                 vp.ScalarField(g, np.ones(n))) == 0


def test_monotone_map_check_vs_bruteforce(disk64):
    g = disk64.grid
    rng = np.random.default_rng(21)
    n = 300
    z = np.zeros(g.ncells)
    s = np.zeros(g.ncells)
    z[:n] = rng.integers(0, 40, size=n).astype(float)
    s[:n] = rng.integers(0, 90, size=n).astype(float)
    got = vp.monotone_map_check(vp.ScalarField(g, z), vp.ScalarField(g, s))
    zi = z[:n][:, None]
    zj = z[:n][None, :]
    si = s[:n][:, None]
    sj = s[:n][None, :]
    # each violating unordered pair appears exactly once in this
    # ordered count, since the reversed direction fails both inequalities
    brute = int(np.sum((si > sj + 1e-10) & (zi < zj - 1e-10)))
    assert got == brute

    # continuous values: one level per cell
    z2 = np.zeros(g.ncells)
    s2 = np.zeros(g.ncells)
    z2[:n] = rng.uniform(0.5, 1.5, size=n)
    s2[:n] = rng.uniform(0.5, 1.5, size=n)
    got2 = vp.monotone_map_check(vp.ScalarField(g, z2), vp.ScalarField(g, s2))
    zi2, zj2 = z2[:n][:, None], z2[:n][None, :]
    si2, sj2 = s2[:n][:, None], s2[:n][None, :]
    brute2 = int(np.sum((si2 > sj2 + 1e-10) & (zi2 < zj2 - 1e-10)))
    assert got2 == brute2


SMALL_GRID = vp.build_grid(vp.DomainSpec.unit_disk(), 16)


@settings(max_examples=40, deadline=None)
@given(strategies.integers(min_value=0, max_value=2 ** 31 - 1),
       strategies.booleans(), strategies.integers(min_value=1, max_value=8))
def test_monotone_map_check_property(seed, integral, levels):
    g = SMALL_GRID
    rng = np.random.default_rng(seed)
    if integral:  # many ties in both fields
        z = rng.integers(-levels, levels + 1, size=g.ncells).astype(float)
        s = rng.integers(0, 2 * levels, size=g.ncells).astype(float)
    else:
        z = rng.uniform(-1.0, 1.0, size=g.ncells)
        s = rng.uniform(-1.0, 1.0, size=g.ncells)
    got = vp.monotone_map_check(vp.ScalarField(g, z), vp.ScalarField(g, s))
    brute = int(np.sum((s[:, None] > s[None, :] + 1e-10)
                       & (z[:, None] < z[None, :] - 1e-10)))
    assert got == brute


def test_cone_test_function_shape(disk96):
    g = disk96.grid
    phi, gx, gy = vp.cone_test_function(g, (0.2, -0.1), 0.25)
    r = np.hypot(g.cells_xy[:, 0] - 0.2, g.cells_xy[:, 1] + 0.1)
    out = r >= 0.25
    assert np.all(phi[out] == 0.0)
    assert np.all(gx[out] == 0.0) and np.all(gy[out] == 0.0)
    assert phi.max() <= 1.0 + 1e-12
    near_apex = r <= 0.02
    assert np.all(phi[near_apex] >= 0.9)
    # gradient points inward (toward the apex) on the ramp
    ramp = (r > 0.08) & (r < 0.17)
    dots = gx[ramp] * (g.cells_xy[ramp, 0] - 0.2) + gy[ramp] * (
        g.cells_xy[ramp, 1] + 0.1)
    assert np.all(dots < 0.0)
    # analytic gradient magnitude matches a finite difference of phi
    m = 1.0 / (1.0 - 0.25)
    assert np.abs(np.hypot(gx[ramp], gy[ramp]) - m / 0.25).max() <= 1e-9


def test_residual_vanishes_away_from_support(pair_state_96, disk96):
    # direct weak-form sum with a cone supported in quiescent fluid
    g = disk96.grid
    z = pair_state_96.zeta
    psi = pair_state_96.psi
    v = vp.velocity(disk96, psi)
    phi, gx, gy = vp.cone_test_function(g, (0.0, 0.0), 0.12)
    sup = z.values != 0.0
    assert not np.any(phi[sup] != 0.0)
    s = np.sum(z.values * (v.u1 * gx + v.u2 * gy)) * g.cell_area
    assert abs(s) <= 1e-12


def test_steadiness_residual_small_on_maximizer(pair_state_96, disk96):
    res = vp.steadiness_residual(disk96, pair_state_96.zeta,
                                 pair_state_96.psi, count=20, seed=2)
    assert 0.0 < res <= 0.05


def test_steadiness_residual_large_on_nonsteady(disk96):
    # an off-equilibrium placement is far from weak-form steady
    g = disk96.grid
    spec = vp.RearrangementSpec(eps1=0.12, eps2=0.12, kappa1=1.0,
                                kappa2=-1.0)
    proto = vp.make_prototype(spec, g)
    z = vp.place_prototype(g, proto, (0.15, 0.0), (-0.15, 0.0))
    res = vp.steadiness_residual(disk96, z, count=20, seed=2)
    assert res >= 0.02


def _residual_on_full_grid(solver, zeta, count, seed):
    # steadiness_residual with every cone built on all cells of the grid
    g = solver.grid
    v = vp.velocity(solver, vp.solve_poisson(solver, zeta))
    vmax = float(v.magnitude().max())
    z1 = vp.lp_norm(zeta, 1)
    support_xy = g.cells_xy[zeta.values != 0.0]
    rng = np.random.default_rng(seed)

    def overlaps(c, r):
        return np.hypot(support_xy[:, 0] - c[0], support_xy[:, 1] - c[1]).min() < r

    worst = 0.0
    for _ in range(count):
        c, r = g.domain.draw_disk(rng, (0.1, 0.3), "test bumps", accept=overlaps)
        phi, gx, gy = vp.cone_test_function(g, c, r)
        gmax = float(np.hypot(gx, gy).max())
        if gmax == 0.0:
            continue
        resid = abs(float((zeta.values * (v.u1 * gx + v.u2 * gy)).sum()) * g.cell_area)
        worst = max(worst, resid / (z1 * gmax * vmax))
    return worst


@pytest.mark.parametrize("domain", ["disk", "rectangle"])
def test_residual_matches_cones_on_full_grid(domain):
    spec = (vp.DomainSpec.unit_disk() if domain == "disk"
            else vp.DomainSpec.rectangle(1.3, 1.0))
    solver = vp.PoissonSolver(vp.build_grid(spec, 64))
    g = solver.grid
    rs = vp.RearrangementSpec(eps1=0.15, eps2=0.13, kappa1=1.0, kappa2=-1.0)
    c = g.domain.centroid()
    z = vp.place_prototype(g, vp.make_prototype(rs, g), (c[0] + 0.3, c[1] + 0.05),
                           (c[0] - 0.25, c[1] - 0.1))
    psi = vp.solve_poisson(solver, z)
    for seed, count in ((0, 1), (1, 7), (5, 30), (11, 64)):
        got = vp.steadiness_residual(solver, z, psi, count=count, seed=seed)
        assert got == _residual_on_full_grid(solver, z, count, seed) > 0.0


def test_square_cells_hold_every_cone_cell(disk96):
    g = disk96.grid
    rng = np.random.default_rng(3)
    for _ in range(50):
        c, r = rng.uniform(-0.6, 0.6, 2), rng.uniform(0.1, 0.3)
        cells = g.square_cells(c, r)
        assert np.all(np.diff(cells) > 0)
        phi, gx, gy = vp.cone_test_function(g, c, r, cells=cells)
        full = vp.cone_test_function(g, c, r)
        for part, whole in zip((phi, gx, gy), full):
            assert np.array_equal(part, whole[cells])
            rest = np.delete(whole, cells)
            assert not np.any(rest)


def test_h2_norm_identity(disk96):
    # uniform patch: ||z+||_p has the closed form
    # kappa * (pi eps^2)^(1/p - 1), up to cell quantization
    g = disk96.grid
    spec = vp.RearrangementSpec(eps1=0.12, eps2=0.12, kappa1=1.0,
                                kappa2=-1.0, p=2.0)
    proto = vp.make_prototype(spec, g)
    z = vp.place_prototype(g, proto, (0.3, 0.0), (-0.3, 0.0))
    zp = vp.positive_part(z)
    exact = 1.0 * (math.pi * 0.12 ** 2) ** (1.0 / 2.0 - 1.0)
    assert vp.lp_norm(zp, 2.0) == pytest.approx(exact, rel=0.01)


@pytest.mark.parametrize("init", [
    "random", ("random",), ("given",), ("random", 1.5), ("given", np.zeros(3)),
    ("random", 1, 2), "kr"])
def test_maximize_rejects_malformed_init(disk64, init):
    spec = vp.RearrangementSpec(eps1=0.15, eps2=0.15, kappa1=1.0,
                                kappa2=-1.0)
    with pytest.raises(ValueError, match=r"unknown init .*'kr_seed', "
                       r"\('random', int seed\) or \('given', ScalarField\)"):
        vp.maximize(disk64, spec, init=init, residual_tests=0)


def test_given_init_must_be_in_class(disk96):
    g = disk96.grid
    spec = vp.RearrangementSpec(eps1=0.12, eps2=0.12, kappa1=1.0,
                                kappa2=-1.0)
    bad = vp.ScalarField(g, np.ones(g.ncells))
    with pytest.raises(ValueError):
        vp.maximize(disk96, spec, init=("given", bad))


_SMALL = vp.build_grid(vp.DomainSpec.rectangle(0.5, 0.375), 16)  # 8 x 6 cells
_value = strategies.sampled_from([0.5, 1.0, 2.5, 7.0])  # few values: ties


@settings(max_examples=100, deadline=None)
@given(strategies.data())
def test_best_response_stays_in_class(data):
    n = _SMALL.ncells
    n_pos = data.draw(strategies.integers(1, n))
    n_neg = data.draw(strategies.integers(0, n - n_pos))
    pos = sorted(data.draw(strategies.lists(_value, min_size=n_pos, max_size=n_pos)),
                 reverse=True)
    neg = sorted(data.draw(strategies.lists(_value, min_size=n_neg, max_size=n_neg)),
                 reverse=True)
    psi = data.draw(strategies.lists(
        strategies.sampled_from([-1.0, -0.0, 0.0, 0.25, 3.0]), min_size=n, max_size=n))
    spec = vp.RearrangementSpec(eps1=0.1, eps2=0.1, kappa1=1.0, kappa2=-1.0)
    proto = vp.Prototype(spec=spec, pos=np.array(pos, dtype=float),
                         neg=np.array(neg, dtype=float))
    out = vp.best_response(proto, vp.ScalarField(_SMALL, np.array(psi)))
    assert _in_class(proto, out)


_ASCENT_SOLVERS = {
    "disk": vp.PoissonSolver(vp.build_grid(vp.DomainSpec.unit_disk(), 48)),
    "rect": vp.PoissonSolver(vp.build_grid(vp.DomainSpec.rectangle(2.0, 1.2), 40)),
}


@settings(max_examples=25, deadline=None)
@given(strategies.sampled_from(sorted(_ASCENT_SOLVERS)),
       strategies.integers(0, 2 ** 16),
       strategies.floats(0.2, 0.26),
       strategies.sampled_from([-1.5, -1.0, -0.4, 0.0]),
       strategies.sampled_from(["patch", "parabolic"]))
def test_maximize_energy_nondecreasing_from_random_placements(
        where, seed, eps, kappa2, profile):
    spec = vp.RearrangementSpec(eps1=eps, eps2=eps if kappa2 else 0.0,
                                kappa1=1.0, kappa2=kappa2, profile=profile)
    st = vp.maximize(_ASCENT_SOLVERS[where], spec, init=("random", seed),
                     max_iter=200, residual_tests=0)
    log = st.energy_log
    assert np.all(np.diff(log) >= -1e-12 * np.abs(log).max())


@pytest.mark.parametrize("name, value", [
    ("eps1", math.inf), ("eps2", math.inf), ("eps2", math.nan),
    ("kappa1", math.inf), ("kappa2", math.nan), ("kappa2", -math.inf),
    ("gamma", math.inf), ("gamma", math.nan)])
def test_spec_rejects_non_finite(name, value):
    kw = dict(eps1=0.15, eps2=0.15, kappa1=1.0, kappa2=-1.0,
              profile="parabolic")
    kw[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        vp.RearrangementSpec(**kw)


def test_maximize_reports_a_two_cycle(disk64, monkeypatch):
    spec = vp.RearrangementSpec(eps1=0.15, eps2=0.15, kappa1=1.0,
                                kappa2=-1.0)
    real = vp.maximizer.best_response
    members = []

    def alternating(proto, psi):
        # two members of the class, neither the seed: the true best
        # response with its values rolled over the cells by 7 and by 14
        if not members:
            v = real(proto, psi).values
            members.extend(vp.ScalarField(psi.grid, np.roll(v, k))
                           for k in (7, 14))
        members.append(members[-2])
        return members[-1]

    monkeypatch.setattr(vp.maximizer, "best_response", alternating)
    state = vp.maximize(disk64, spec, residual_tests=0)
    assert state.converged is False
    assert state.note == "cycle of length 2 detected"
    assert state.iterations == 3
