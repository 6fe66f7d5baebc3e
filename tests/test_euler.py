import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vortexpair as vp
from vortexpair import euler
from vortexpair.euler import EulerState
from conftest import BOX_GRIDS, centered_patch

_G48 = vp.build_grid(vp.DomainSpec.rectangle(1.2, 1.0), 48)


def test_step_rejects_large_dt(disk64):
    f = centered_patch(disk64.grid, 0.3)
    state = EulerState(f)
    with pytest.raises(ValueError, match="CFL"):
        vp.step(disk64, state, dt=1e3)


def test_step_preserves_zero(disk64):
    g = disk64.grid
    state = EulerState(vp.ScalarField(g, np.zeros(g.cells_xy.shape[0])))
    out = vp.step(disk64, state, dt=0.01)
    assert np.all(out.omega.values == 0.0)
    assert out.t == pytest.approx(0.01)


def test_step_max_principle(disk64):
    g = disk64.grid
    rng = np.random.default_rng(0)
    vals = np.clip(rng.normal(size=g.cells_xy.shape[0]), -1.5, 2.0)
    state = EulerState(vp.ScalarField(g, vals))
    m0 = np.abs(vals).max()
    for _ in range(5):
        state = vp.step(disk64, state, dt=2e-3)
        assert np.abs(state.omega.values).max() <= m0 * (1 + 1e-12)


def test_radial_patch_is_near_steady(disk96):
    # a radial patch induces a purely azimuthal flow, so transport
    # should leave it alone up to edge resampling
    f = centered_patch(disk96.grid, 0.3)
    state = EulerState(f)
    dt = 1.0 * disk96.grid.h  # peak speed is ~1/(2 pi r) < 1 here
    n = 40
    for _ in range(n):
        state = vp.step(disk96, state, dt=dt)
    g = disk96.grid
    num = np.sum(np.abs(state.omega.values - f.values)) * g.cell_area
    den = np.sum(np.abs(f.values)) * g.cell_area
    assert num / den <= 0.08
    # circulation is not exactly conserved, but close
    drift = abs(np.sum(state.omega.values) - np.sum(f.values)) * g.cell_area
    assert drift <= 5e-3


def _advance_full_grid(g, state, v, dt):
    """The step with every cell traced and sampled: the reference."""
    px, py = euler._trace_feet(g, (g.ring_image(v.u1), g.ring_image(v.u2)), dt,
                               np.arange(g.ncells))
    new = euler._cubic_box(g, g.ring_image(state.omega.values), px, py)
    return EulerState(vp.ScalarField(g, new), state.t + dt)


def _omega_draw(g, rng, kind, nonfinite):
    vals = np.zeros(g.ncells)
    if kind == "patches":
        for _ in range(rng.integers(1, 4)):
            c = g.cells_xy[rng.integers(g.ncells)]
            on = np.hypot(*(g.cells_xy - c).T) < rng.uniform(0.05, 0.4)
            vals[on] = rng.normal(size=on.sum())
        # holes, half of them -0.0
        holes = np.flatnonzero(rng.random(g.ncells) < 0.3)
        vals[holes] = np.where(rng.random(holes.size) < 0.5, 0.0, -0.0)
    elif kind == "single":
        vals[rng.integers(g.ncells)] = rng.normal()
    elif kind == "edge":
        edge = np.flatnonzero((g.neighbors < 0).any(axis=1))
        pick = edge[rng.random(edge.size) < 0.3]
        vals[pick] = rng.normal(size=pick.size)
    # With finite values the clamp zeroes every cell whose four nearest
    # nodes are zero, so only a NaN or inf on the outer ring of a stencil
    # shows a reach that misses the cubic's outer nodes.
    support = np.flatnonzero(vals)
    if nonfinite and support.size:
        vals[rng.choice(support)] = rng.choice([np.nan, np.inf, -np.inf])
    return vals


def _velocity_draw(g, rng, kind):
    if kind != "smooth":
        # unit drifts; "axis" ones move each foot along an axis
        th = rng.integers(4) * math.pi / 2 if kind == "axis" else rng.uniform(0, 2 * math.pi)
        return vp.VectorField(g, np.full(g.ncells, math.cos(th)),
                              np.full(g.ncells, math.sin(th)))
    x, y = g.cells_xy.T
    u = []
    for _ in range(2):
        k = rng.normal(scale=4.0, size=(3, 2))
        a, ph = rng.normal(size=3), rng.uniform(0, 2 * math.pi, 3)
        u.append(sum(a[m] * np.sin(k[m, 0] * x + k[m, 1] * y + ph[m]) for m in range(3)))
    return vp.VectorField(g, *u)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(range(len(BOX_GRIDS))), st.integers(0, 2**32 - 1),
       st.sampled_from(["patches", "single", "edge", "zero"]),
       st.sampled_from(["smooth", "drift", "axis"]),
       st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.floats(0.01, 1.0)),
       st.booleans())
def test_advance_matches_full_grid_step(which, seed, okind, vkind, cfl, nonfinite):
    g = BOX_GRIDS[which]
    rng = np.random.default_rng(seed)
    vals = _omega_draw(g, rng, okind, nonfinite)
    v = _velocity_draw(g, rng, vkind)
    # up to the CFL limit; 0.25 steps of it move an axis drift whole cells
    dt = cfl * 4.0 * g.h / float(v.magnitude().max())
    state = ref = EulerState(vp.ScalarField(g, vals))
    for _ in range(3):
        with np.errstate(invalid="ignore"):  # inf * 0 in a stencil is NaN
            state = euler._advance(g, state, v, dt)
            ref = _advance_full_grid(g, ref, v, dt)
        a, b = state.omega.values, ref.omega.values
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert state.t == ref.t
    assert state.cells_traced <= 3 * g.ncells
    assert okind != "zero" or state.cells_traced == 0


@pytest.mark.parametrize("which", range(len(BOX_GRIDS)))
def test_reach_covers_the_outer_stencil_node(which):
    # Axis drifts of a whole number of cells put each foot on a node, so
    # its stencil's outer node +2 sits reach - 1 cells off with weight
    # -0.0, and a NaN there makes the cell NaN: the reach has no slack
    # but its one spare cell.
    g = BOX_GRIDS[which]
    vals = np.zeros(g.ncells)
    vals[np.argmin(np.hypot(*(g.cells_xy - np.mean(g.cells_xy, axis=0)).T))] = np.nan
    state = EulerState(vp.ScalarField(g, vals))
    for th in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
        v = vp.VectorField(g, np.full(g.ncells, math.cos(th)),
                           np.full(g.ncells, math.sin(th)))
        for cells in (1, 2, 4):
            dt = cells * g.h
            with np.errstate(invalid="ignore"):
                got = euler._advance(g, state, v, dt).omega.values
                ref = _advance_full_grid(g, state, v, dt).omega.values
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_stability_traces_under_half_the_grid(pair_state_96, disk96):
    # a step that fell back to the full grid would trace every cell
    znorm = vp.lp_norm(pair_state_96.zeta, 2.0)
    r = vp.stability_experiment(disk96, pair_state_96, delta0=0.02 * znorm,
                                turnovers=0.2, records=3, seed=3)
    steps = round(r.times[-1] / r.dt)
    assert steps > 0 and not r.aborted
    assert 0 < r.cells_traced < 0.5 * steps * disk96.grid.ncells


def test_stability_rejects_bad_delta0(pair_state_96, disk96):
    znorm = vp.lp_norm(pair_state_96.zeta, 2.0)
    with pytest.raises(ValueError):
        vp.stability_experiment(disk96, pair_state_96, delta0=-1.0)
    with pytest.raises(ValueError):
        vp.stability_experiment(disk96, pair_state_96, delta0=0.2 * znorm)


def test_stability_zero_perturbation_short(pair_state_96, disk96):
    r = vp.stability_experiment(disk96, pair_state_96, delta0=0.0,
                                turnovers=0.5, records=20)
    assert not r.aborted
    assert r.d0 <= 1e-12
    assert r.distances[0] <= 1e-12
    assert r.turnover == pytest.approx(
        4.0 * math.pi / np.abs(pair_state_96.zeta.values).max())
    assert np.all(np.diff(r.times) > 0)
    assert r.times[-1] == pytest.approx(0.5 * r.turnover, rel=0.1)
    # short-run drift stays tiny compared to the 10-turnover floor
    assert np.max(r.distances) <= 0.2
    assert np.max(r.max_abs) <= r.max_abs[0] * (1 + 1e-12)


def test_stability_seeded_bump_reproducible(pair_state_96, disk96):
    znorm = vp.lp_norm(pair_state_96.zeta, 2.0)
    kw = dict(delta0=0.02 * znorm, turnovers=0.2, records=5, seed=3)
    a = vp.stability_experiment(disk96, pair_state_96, **kw)
    b = vp.stability_experiment(disk96, pair_state_96, **kw)
    assert np.array_equal(a.distances, b.distances)
    assert a.d0 == pytest.approx(0.02, rel=1e-6)


def test_stability_linear_response(pair_state_96, disk96):
    znorm = vp.lp_norm(pair_state_96.zeta, 2.0)
    small = vp.stability_experiment(disk96, pair_state_96,
                                    delta0=0.01 * znorm, turnovers=0.1,
                                    records=3, seed=5)
    big = vp.stability_experiment(disk96, pair_state_96,
                                  delta0=0.02 * znorm, turnovers=0.1,
                                  records=3, seed=5)
    assert big.d0 == pytest.approx(2.0 * small.d0, rel=1e-6)


def test_stability_abort_on_forced_cfl(pair_state_96, disk96):
    r = vp.stability_experiment(disk96, pair_state_96, delta0=0.0,
                                turnovers=1.0, dt=1e3, records=3)
    assert r.aborted
    assert "CFL" in r.note


@pytest.mark.parametrize("kw, word", [
    (dict(dt=0.0), "dt"), (dict(dt=-1e-3), "dt"), (dict(dt=math.nan), "dt"),
    (dict(turnovers=math.inf), "turnovers"), (dict(turnovers=0.0), "turnovers"),
    (dict(records=0), "records")])
def test_stability_rejects_bad_horizon(pair_state_96, disk96, kw, word):
    with pytest.raises(ValueError, match=word):
        vp.stability_experiment(disk96, pair_state_96, delta0=0.0, **kw)


def test_stability_rejects_zero_steady_state(pair_state_96, disk96):
    g = disk96.grid
    zero = dataclasses.replace(
        pair_state_96, zeta=vp.ScalarField(g, np.zeros(g.ncells)))
    before = disk96.solve_count
    with pytest.raises(ValueError, match="steady vorticity is zero"):
        vp.stability_experiment(disk96, zero, delta0=0.0, turnovers=0.1)
    assert disk96.solve_count == before


def test_stability_probe_solves_once_per_step(disk64, monkeypatch):
    # the solve that picks dt is the first step's solve, and each field
    # solve meets the backward-error target after its first LU solve
    spec = vp.RearrangementSpec(eps1=0.15, eps2=0.15, kappa1=1.0, kappa2=-1.0)
    steady = vp.maximize(disk64, spec, residual_tests=0)
    rhs = []
    solve = disk64.solve
    monkeypatch.setattr(disk64, "solve", lambda f: (rhs.append(f.copy()), solve(f))[1])
    lu_solves = []
    factor = disk64._factor()

    class CountingLU:
        def solve(self, b):
            lu_solves.append(b)
            return factor.solve(b)

    monkeypatch.setattr(disk64, "_lu", CountingLU())
    r = vp.stability_experiment(disk64, steady, delta0=0.0, turnovers=0.2,
                                records=50)
    assert len(r.times) - 1 == 7
    assert len(rhs) == 7
    assert all((a != b).any() for a, b in zip(rhs, rhs[1:]))
    assert len(lu_solves) == len(rhs)


_D48 = vp.build_grid(vp.DomainSpec.unit_disk(), 48)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-7.0, 7.0),
       st.floats(0.0, 0.9), st.floats(0.02, 0.6))
def test_rotations_vanish_off_the_support_annulus(seed, th, r0, width):
    g = _D48
    rng = np.random.default_rng(seed)
    r = np.hypot(g.cells_xy[:, 0], g.cells_xy[:, 1])
    # random values on a random annulus, with random holes in it
    on = (r >= r0) & (r <= r0 + width) & (rng.random(g.ncells) < 0.7)
    on[np.argmin(np.abs(r - r0))] = True
    vals = np.where(on, rng.normal(size=g.ncells), 0.0)
    ring = euler._support_annulus(g, vals)
    assert ring[vals != 0].all()
    rot = euler._rotate_once(g, g.ring_image(vals), g.cells_xy, th)
    assert np.all(rot[~ring] == 0.0)


def _orbit_distance_reference(grid, zeta_vals, angles, vals, p, znorm):
    """Coarse rotations on the whole grid, then the golden refine."""
    img = grid.ring_image(zeta_vals)
    xy = grid.cells_xy
    coarse = np.array([euler._rotate_once(grid, img, xy, 2.0 * math.pi * k / angles)
                       for k in range(angles)])
    sums = np.sum(np.abs(vals[None, :] - coarse) ** p, axis=1)
    k = int(np.argmin(sums))
    width = 2.0 * math.pi / angles

    def f(th):
        rot = euler._rotate_once(grid, img, xy, th)
        return float(np.sum(np.abs(vals - rot) ** p))

    a, b = k * width - width, k * width + width
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - gr * (b - a)
    x2 = a + gr * (b - a)
    f1, f2 = f(x1), f(x2)
    best = min(float(sums[k]), f1, f2)
    for _ in range(24):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - gr * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + gr * (b - a)
            f2 = f(x2)
        best = min(best, f1, f2)
    return (best * grid.cell_area) ** (1.0 / p) / znorm


@pytest.mark.parametrize("p", [2.0, 1.5])
@pytest.mark.parametrize("th, noise", [(0.0, 0.0), (0.3, 0.0), (-1.1, 0.05),
                                       (2.9, 0.2)])
def test_annulus_orbit_distance_matches_full_grid(pair_state_96, th, noise, p):
    g = pair_state_96.zeta.grid
    zeta = pair_state_96.zeta.values
    znorm = vp.lp_norm(pair_state_96.zeta, p)
    rng = np.random.default_rng(7)
    # a rotated copy of zeta plus noise spread over the whole disk, so
    # the part off the annulus is not zero
    vals = euler._rotate_once(g, g.ring_image(zeta), g.cells_xy, th)
    vals = vals + noise * np.abs(zeta).max() * rng.normal(size=g.ncells)
    got = euler._orbit_metric(g, zeta, 36, p, g.cell_area, znorm)(vals)
    ref = _orbit_distance_reference(g, zeta, 36, vals, p, znorm)
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)


def _bilinear_reference(grid, box, px, py):
    """One box, indices and weights computed in place: the reference."""
    gx = (px - grid.x0) / grid.h - 0.5
    gy = (py - grid.y0) / grid.h - 0.5
    i0 = np.floor(gx).astype(np.int64)
    j0 = np.floor(gy).astype(np.int64)
    tx, ty = gx - i0, gy - j0
    out = np.zeros(px.shape)
    for di, dj, w in ((0, 0, (1 - tx) * (1 - ty)), (1, 0, tx * (1 - ty)),
                      (0, 1, (1 - tx) * ty), (1, 1, tx * ty)):
        ii, jj = i0 + di, j0 + dj
        ok = (ii >= 0) & (ii < grid.nx) & (jj >= 0) & (jj < grid.ny)
        out += w * np.where(ok, box[jj.clip(0, grid.ny - 1), ii.clip(0, grid.nx - 1)], 0.0)
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_bilinear_gather_matches_one_call_per_box(seed, nboxes):
    g = _G48
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=g.ncells) for _ in range(nboxes)]
    images = tuple(g.ring_image(v) for v in values)
    # points inside, near and up to 12 cells beyond the box edge, well past
    # the ring image's fill ring, some exactly on cell centers
    px = rng.uniform(g.x0 - 12 * g.h, g.x0 + (g.nx + 12) * g.h, 400)
    py = rng.uniform(g.y0 - 12 * g.h, g.y0 + (g.ny + 12) * g.h, 400)
    px[:20], py[:20] = g.cells_xy[:20, 0], g.cells_xy[:20, 1]
    together = euler._bilinear_box(g, images, px, py)
    for v, img, out in zip(values, images, together):
        assert np.array_equal(out, euler._bilinear_box(g, (img,), px, py)[0])
        assert np.array_equal(out, _bilinear_reference(g, g.box_image(v), px, py))


def _cubic_padded_reference(grid, values, px, py):
    """Cubic sampler on a box padded with one zero ring: the old form."""
    pad = np.zeros((grid.ny + 2, grid.nx + 2))
    pad[1:-1, 1:-1] = grid.box_image(values)
    i0, j0, tx, ty = euler._cell_coords(grid, px, py)
    wx, wy = euler._cubic_weights(tx), euler._cubic_weights(ty)
    out = np.zeros(px.shape)
    lo = np.full(px.shape, np.inf)
    hi = np.full(px.shape, -np.inf)
    for a, di in enumerate((-1, 0, 1, 2)):
        ii = (i0 + di + 1).clip(0, grid.nx + 1)
        inside_x = (i0 + di >= -1) & (i0 + di <= grid.nx)
        for b, dj in enumerate((-1, 0, 1, 2)):
            jj = (j0 + dj + 1).clip(0, grid.ny + 1)
            inside = inside_x & (j0 + dj >= -1) & (j0 + dj <= grid.ny)
            vals = np.where(inside, pad[jj, ii], 0.0)
            out += wx[a] * wy[b] * vals
            if di in (0, 1) and dj in (0, 1):
                lo = np.minimum(lo, vals)
                hi = np.maximum(hi, vals)
    return np.clip(out, lo, hi)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cubic_sampler_matches_padded_reference(seed):
    g = _G48
    rng = np.random.default_rng(seed)
    values = rng.normal(size=g.ncells)
    # points inside, near and up to 12 cells beyond the box edge, well past
    # the ring image's fill ring
    px = rng.uniform(g.x0 - 12 * g.h, g.x0 + (g.nx + 12) * g.h, 400)
    py = rng.uniform(g.y0 - 12 * g.h, g.y0 + (g.ny + 12) * g.h, 400)
    px[:20], py[:20] = g.cells_xy[:20, 0], g.cells_xy[:20, 1]
    got = euler._cubic_box(g, g.ring_image(values), px, py)
    assert np.array_equal(got, _cubic_padded_reference(g, values, px, py))
