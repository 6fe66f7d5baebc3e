import functools
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import vortexpair as vp
from vortexpair import kirchhoff
from vortexpair.poisson import LOG_COEFF, robin_solve

from conftest import BOX_DOMAINS, counting_solver

D_STAR = np.sqrt(np.sqrt(5.0) - 2.0)  # root of d^4 + 4 d^2 - 1 = 0


def fresh_disk64():
    return vp.PoissonSolver(vp.build_grid(vp.DomainSpec.unit_disk(), 64))


# interior cells of the disk-64 grid with room for gradient stencils
_G64 = vp.build_grid(vp.DomainSpec.unit_disk(), 64)
_INTERIOR = [int(c) for c in range(_G64.ncells)
             if _G64.domain.boundary_distance(*_G64.cells_xy[c]) >= 7.0 * _G64.h]
cells64 = st.sampled_from(_INTERIOR)
pairs64 = st.tuples(cells64, cells64)


def _separated(cells):
    a, b = _G64.cells_xy[list(cells)]
    return np.hypot(*(a - b)) >= 5.0 * _G64.h


def cfg(points, kappas):
    return vp.KRConfiguration(points=np.asarray(points, dtype=float),
                              kappas=np.asarray(kappas, dtype=float))


def test_single_vortex_matches_robin(disk96):
    x = (0.25, -0.1)
    w = vp.kr_value(disk96, cfg([x], [2.0]))
    assert w == pytest.approx(0.5 * 4.0 * vp.robin(disk96, x), rel=1e-10)


def test_pair_value_manual_assembly(disk96):
    a, b = (0.3, 0.0), (-0.25, 0.15)
    k1, k2 = 1.0, -1.0
    w = vp.kr_value(disk96, cfg([a, b], [k1, k2]))
    manual = (-k1 * k2 * vp.regular_part(disk96, a, b)
              - k1 * k2 * (vp.green_function(disk96, b).values[
                  int(disk96.grid.locate(*a))]
                  - vp.regular_part(disk96, a, b))
              + 0.5 * k1 * k1 * vp.robin(disk96, a)
              + 0.5 * k2 * k2 * vp.robin(disk96, b))
    # manual collapses to -k1 k2 G(a,b) + self terms
    assert w == pytest.approx(manual, rel=1e-9, abs=1e-12)


def test_disk_pair_value_images(disk96):
    # opposite pair on a diameter: interaction and self terms in closed form
    d = 0.45
    a, b = (d, 0.0), (-d, 0.0)
    w = vp.kr_value(disk96, cfg([a, b], [1.0, -1.0]))
    gab = np.log((d + 1.0 / d) * d / (2.0 * d)) / (2.0 * np.pi)
    hh = -np.log(1.0 - d * d) / (2.0 * np.pi)
    exact = gab + hh
    assert w == pytest.approx(exact, abs=0.015)


def test_kr_margin_validation(disk64):
    with pytest.raises(ValueError):
        vp.kr_value(disk64, cfg([[0.99, 0.0]], [1.0]))
    with pytest.raises(ValueError):
        vp.kr_value(disk64, cfg([[0.0, 0.0], [0.01, 0.0]], [1.0, -1.0]))


def test_kr_config_validation():
    with pytest.raises(ValueError):
        cfg([[0.0, 0.0]], [0.0])


@pytest.mark.parametrize("points, kappas", [
    ([[0.1, 0.0]], [math.inf]), ([[0.1, 0.0], [-0.1, 0.0]], [1.0, math.nan]),
    ([[math.nan, 0.0]], [1.0])])
def test_kr_config_rejects_non_finite(points, kappas):
    with pytest.raises(ValueError, match="must be finite"):
        cfg(points, kappas)


@pytest.mark.parametrize("kappas", [(math.inf, -1.0), (1.0, -math.inf),
                                    (math.nan, -1.0)])
def test_kr_minimize_rejects_non_finite_strengths(disk64, kappas):
    with pytest.raises(ValueError, match="finite strengths"):
        vp.kr_minimize(disk64, kappas)


def test_kr_gradient_matches_analytic(disk96):
    # equilibrium of the analytic disk-pair functional sits at d*
    pts = [[D_STAR, 0.0], [-D_STAR, 0.0]]
    grad = vp.kr_gradient(disk96, cfg(pts, [1.0, -1.0]))
    # analytic gradient vanishes there; the discrete one is O(h) small
    assert np.max(np.abs(grad)) <= 0.2

    # off-equilibrium: compare against the closed-form radial derivative
    d = 0.3
    grad = vp.kr_gradient(disk96, cfg([[d, 0.0], [-d, 0.0]], [1.0, -1.0]))
    dW = (d / (1.0 + d * d) - 1.0 / (2.0 * d)
          + d / (1.0 - d * d)) / (2.0 * np.pi)
    assert grad[0, 0] == pytest.approx(dW, rel=0.08, abs=0.01)
    assert grad[1, 0] == pytest.approx(-dW, rel=0.08, abs=0.01)
    assert abs(grad[0, 1]) <= 0.05 * abs(dW)


def test_kr_minimize_disk_pair(disk96):
    out = vp.kr_minimize(disk96, [1.0, -1.0])
    h = disk96.grid.h
    p, q = out.points
    # antipodal, equal radius, at the analytic separation
    assert np.hypot(*(p + q)) <= 2.0 * h
    assert abs(np.hypot(*p) - D_STAR) <= 2.0 * h
    assert abs(np.hypot(*q) - D_STAR) <= 2.0 * h
    w_star = (np.log((D_STAR + 1.0 / D_STAR) * D_STAR / (2.0 * D_STAR))
              / (2.0 * np.pi)
              - np.log(1.0 - D_STAR ** 2) / (2.0 * np.pi))
    assert out.value == pytest.approx(w_star, abs=0.01)
    assert out.scan_sites > 0
    assert out.starts >= 1


def test_kr_minimize_sampling_oracle(rect48):
    out = vp.kr_minimize(rect48, [1.0, -1.0])
    rng = np.random.default_rng(12)
    g = rect48.grid
    margin = 4.5 * g.h
    bb = rect48.grid.cells_xy
    lo = bb.min(axis=0) + margin
    hi = bb.max(axis=0) - margin
    tried = 0
    for _ in range(200):
        pts = rng.uniform(lo, hi, size=(2, 2))
        if np.hypot(*(pts[0] - pts[1])) < 5.0 * g.h:
            continue
        try:
            w = vp.kr_value(rect48, cfg(pts, [1.0, -1.0]))
        except ValueError:
            continue
        tried += 1
        assert w >= out.value - 0.02
        if tried >= 60:
            break
    assert tried >= 30


def test_kr_minimize_grid_consistency():
    dom = vp.DomainSpec.rectangle(1.4, 1.0)
    outs = []
    for n in (48, 96):
        s = vp.PoissonSolver(vp.build_grid(dom, n))
        outs.append(vp.kr_minimize(s, [1.0, -1.0]))
    coarse_h = 1.0 / 48
    d = np.abs(outs[0].points - outs[1].points)
    # the pair may swap order between runs; compare as sets
    direct = np.max(d)
    swapped = np.max(np.abs(outs[0].points - outs[1].points[::-1]))
    assert min(direct, swapped) <= 3.0 * coarse_h


def test_pv_center_vortex_stationary(disk96):
    c = cfg([[0.0, 0.0]], [1.0])
    tr = vp.pv_evolve(disk96, c, T=1.0, dt=1e-3)
    assert tr.completed
    wander = np.max(np.hypot(tr.points[:, 0, 0], tr.points[:, 0, 1]))
    assert wander <= 1e-3


def test_pv_corotating_circular_orbit(disk96):
    c = cfg([[0.2, 0.0], [-0.2, 0.0]], [1.0, 1.0])
    tr = vp.pv_evolve(disk96, c, T=2.0, dt=1e-3)
    assert tr.completed
    r = np.hypot(tr.points[:, 0, 0], tr.points[:, 0, 1])
    assert np.max(np.abs(r - 0.2)) <= 0.01
    # second vortex stays antipodal by symmetry
    anti = tr.points[:, 0] + tr.points[:, 1]
    assert np.max(np.abs(anti)) <= 0.01


def test_pv_value_conservation(disk96):
    c = cfg([[0.1, 0.0], [-0.1, 0.05]], [1.0, 1.0])
    tr = vp.pv_evolve(disk96, c, T=2.0, dt=1e-3, save_stride=20)
    w = np.asarray(tr.values)
    assert tr.completed
    assert np.max(np.abs(w - w[0])) <= 1e-7


def test_pv_dt_refinement_order(disk96):
    c = cfg([[0.06, 0.0], [-0.06, 0.0]], [1.0, 1.0])
    drifts = []
    for dt in (2e-3, 1e-3):
        tr = vp.pv_evolve(disk96, c, T=1.0, dt=dt, save_stride=20)
        w = np.asarray(tr.values)
        drifts.append(np.max(np.abs(w - w[0])))
    # fourth-order integrator: halving dt cuts the drift by well over 4x
    assert drifts[0] / max(drifts[1], 1e-300) >= 4.0


@pytest.mark.parametrize("T, dt, stride", [
    (0.1, 1e-3, 0), (0.1, 1e-3, -2), (np.inf, 1e-3, 1), (np.nan, 1e-3, 1),
    (0.1, np.inf, 1), (0.1, np.nan, 1), (4e-4, 1e-3, 1)])
def test_pv_rejects_bad_horizon_and_stride(disk96, T, dt, stride):
    c = cfg([[0.2, 0.0], [-0.2, 0.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        vp.pv_evolve(disk96, c, T=T, dt=dt, save_stride=stride)


def test_pv_rejects_boundary_start(disk96):
    with pytest.raises(ValueError):
        vp.pv_evolve(disk96, cfg([[0.98, 0.0]], [1.0]), T=0.1, dt=1e-3)


def test_pv_truncates_on_margin_exit(disk96):
    # a tight dipole translates toward the wall and must stop early
    c = cfg([[0.02, 0.1], [0.02, -0.1]], [1.0, -1.0])
    tr = vp.pv_evolve(disk96, c, T=50.0, dt=1e-3, save_stride=10)
    assert not tr.completed
    assert tr.times[-1] < 50.0
    assert "margin" in tr.note


def test_pv_steps_check_clearance_without_locating(disk96, monkeypatch):
    # the trust check needs only clearances and separations: a point 12h
    # inside the boundary lies in a mask cell, so no cell id is read
    c = cfg([[0.2, 0.0], [-0.2, 0.0]], [1.0, 1.0])
    ref = vp.pv_evolve(disk96, c, T=0.05, dt=1e-3)

    def locate(self, x, y):
        raise AssertionError("pv_evolve located a cell")

    monkeypatch.setattr(vp.Grid, "locate", locate)
    tr = vp.pv_evolve(disk96, c, T=0.05, dt=1e-3)
    assert tr.completed and len(tr.times) == 51
    assert np.array_equal(tr.points, ref.points)
    assert np.array_equal(tr.values, ref.values)


# -- spline surrogate: one evaluator for W and its gradient -----------------

@functools.cache
def _interp64_solver():
    return fresh_disk64()


@functools.cache
def _interp64():
    solver = _interp64_solver()
    return kirchhoff._store(solver).interpolant(solver)


def _map_coordinates_value(tables, pts, kap, **kw):
    """W from `ndimage.map_coordinates(order=5, **kw)` on the disk-64 tables
    (H, h), and whether every point's spline stencil lies inside them."""
    H, h4 = tables
    g, stride = _G64, kirchhoff._STRIDE
    u = ((pts - [g.x0, g.y0]) / g.h - 0.5 - stride // 2) / stride
    spline = functools.partial(ndimage.map_coordinates, order=5, **kw)
    w = 0.5 * float((kap ** 2 * spline(H, u.T)).sum())
    for i in range(kap.size):
        for j in range(i + 1, kap.size):
            d = float(np.hypot(*(pts[i] - pts[j])))
            hr = float(spline(h4, np.concatenate([u[i], u[j]])[:, None])[0])
            w -= kap[i] * kap[j] * (-LOG_COEFF * math.log(d) - hr)
    return w, bool(((np.floor(u) >= 2) & (np.floor(u) + 3 <= np.array(H.shape) - 1)).all())


@functools.cache
def _raw_tables64():
    """The disk-64 interpolant's H and h tables before the prefilter, masked-out
    nodes filled from `distance_transform_edt`'s nearest valid node."""
    solver = _interp64_solver()
    g = solver.grid
    cid, clear = kirchhoff._lattice(g)
    valid = (cid >= 0) & (clear >= 4.0 * g.h)
    store = kirchhoff._store(solver)
    r = store.rows(solver, cid[valid])
    site = np.full(cid.shape, -1)
    site[valid] = np.arange(r.size)
    site = site[tuple(ndimage.distance_transform_edt(
        ~valid, return_distances=False, return_indices=True))]
    px, py = g.cells_xy[cid[valid]].T
    d = np.hypot(px[:, None] - px, py[:, None] - py)
    np.fill_diagonal(d, 1.0)
    h = -LOG_COEFF * np.log(d) - store.G[np.ix_(r, r)]  # h(x, y) = -log|x - y| / 2 pi - G
    np.fill_diagonal(h, store.H[r])
    return store.H[r][site], h[site[:, :, None, None], site]


# radii up to 0.8 reach the trust margin (12h on disk-64); a point with a
# coordinate beyond about +-0.69 has a spline stencil past the table's edge
_admissible = st.tuples(st.floats(0.0, 0.8), st.floats(0.0, 2.0 * np.pi))
_strength = st.tuples(st.floats(0.25, 2.0), st.booleans())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.lists(_admissible, min_size=k, max_size=k),
    st.lists(_strength, min_size=k, max_size=k))))
@example(([(0.78, np.pi), (0.3, 0.5)], [(1.0, False), (1.5, True)]))
@example(([(0.79, 0.0), (0.79, 0.5 * np.pi)], [(2.0, False), (0.5, False)]))
@example(([(0.3, 0.5), (0.45, 2.0), (0.2, 4.0)], [(1.0, False), (1.5, True), (0.5, False)]))
def test_surrogate_value_and_gradient(case):
    polar, strengths = case
    pts = np.array([[r * np.cos(t), r * np.sin(t)] for r, t in polar])
    kap = np.array([-s if neg else s for s, neg in strengths])
    interp = _interp64()
    k = kap.size
    assume(all(np.hypot(*(pts[i] - pts[j])) >= 4.0 * _G64.h
               for i in range(k) for j in range(i + 1, k)))
    w, grad = interp.value_and_gradient(pts, kap)
    ref, _ = _map_coordinates_value((interp._H, interp._h4), pts, kap,
                                    prefilter=False, mode="nearest")
    assert abs(w - ref) <= 1e-14 * max(1.0, abs(w))
    # the whole table build against ndimage's, from the raw tables; past the
    # table's edge the prefilter's mirror ends and the clamped nodes part ways
    ref, inside = _map_coordinates_value(_raw_tables64(), pts, kap,
                                         prefilter=True, mode="mirror")
    assert not inside or abs(w - ref) <= 1e-13 * max(1.0, abs(w))
    eps = 1e-5 * _G64.h * kirchhoff._STRIDE
    for i in range(k):
        for c in range(2):
            hi, lo = pts.copy(), pts.copy()
            hi[i, c] += eps
            lo[i, c] -= eps
            fd = (interp.value_and_gradient(hi, kap)[0]
                  - interp.value_and_gradient(lo, kap)[0]) / (2 * eps)
            assert abs(grad[i, c] - fd) <= 1e-8


# the evaluator as it was before the batched rewrite, kept as the reference:
# one `ravel_multi_index(..., mode="clip")` gather and one einsum per table axis
_STRIDE = kirchhoff._STRIDE
_QUINTIC = np.array([[1, -5, 10, -10, 5, -1], [26, -50, 20, 20, -20, 5],
                     [66, 0, -60, 0, 30, -10], [26, 50, 20, -20, -20, 10],
                     [1, 5, 10, 10, 5, -5], [0, 0, 0, 0, 0, 1]]) / 120.0
_WEIGHTS = np.vstack([_QUINTIC, np.pad(_QUINTIC[:, 1:] * range(1, 6), [(0, 0), (0, 1)])]).T


def _spline(C: np.ndarray, u: np.ndarray):
    """Value (n,) and u-gradient (n, d) at points u (n, d) of the quintic spline with
    coefficients C, node indices clamped to C's shape."""
    n, d = u.shape
    f = np.floor(u)
    wts = ((u - f)[..., None] ** np.arange(6) @ _WEIGHTS).reshape(n, d, 2, 6)
    nodes = f.astype(np.intp)[..., None] + np.arange(-2, 4)
    r = C.take(np.ravel_multi_index(tuple(
        nodes[:, a].reshape((n,) + (1,) * a + (6,) + (1,) * (d - 1 - a))
        for a in range(d)), C.shape, mode="clip"))
    for a in range(d):  # contract node axis a; its value/slope axis goes last
        r = np.einsum("nk...,njk->n...j", r, wts[:, a])
    r = r.reshape(n, 2 ** d)
    return r[:, 0], r[:, 1 << np.arange(d)[::-1]]


def _reference_value_and_gradient(self, pts: np.ndarray, kappas: np.ndarray):
    """W at the configuration `pts` (k, 2) and its exact gradient (k, 2)."""
    g = self.grid
    u = ((pts - [g.x0, g.y0]) / g.h - 0.5 - _STRIDE // 2) / _STRIDE  # in table steps
    du = 1.0 / (_STRIDE * g.h)  # d(table coordinate)/dx
    hs, dhs = _spline(self._H, u)
    w = 0.5 * (kappas ** 2 * hs).sum()
    grad = 0.5 * (kappas ** 2 * du)[:, None] * dhs
    i, j = np.nonzero(np.arange(kappas.size)[:, None] < np.arange(kappas.size))
    hr, dhr = _spline(self._h4, np.hstack([u[i], u[j]]))
    sep, kk = pts[i] - pts[j], kappas[i] * kappas[j]
    d = np.hypot(sep[:, 0], sep[:, 1])
    w += (kk * (LOG_COEFF * np.log(d) + hr)).sum()
    pull = LOG_COEFF * sep / (d * d)[:, None]
    np.add.at(grad, i, kk[:, None] * (pull + du * dhr[:, :2]))
    np.add.at(grad, j, kk[:, None] * (du * dhr[:, 2:] - pull))
    return w, grad


@functools.cache
def _shared_interp64():
    return _interp64()


# out to |x| = 1.3: past the table's last node (about 0.69) and off the grid's
# box, where RK stages land before the trust-margin check rejects a step
_anywhere = st.tuples(st.floats(0.0, 1.3), st.floats(0.0, 2.0 * np.pi))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(_anywhere, min_size=k, max_size=k),
    st.lists(_strength, min_size=k, max_size=k))))
@example(([(1.3, 0.25 * np.pi)], [(2.0, False)]))
@example(([(1.3, 0.0), (1.25, np.pi), (0.75, 0.5 * np.pi)],
          [(0.25, True), (1.0, False), (2.0, True)]))
@example(([(0.1, 0.0), (0.1, np.pi), (0.8, 1.0), (1.0, 4.0)],
          [(1.0, False), (1.0, False), (0.5, True), (1.5, True)]))
def test_value_and_gradient_matches_reference(case):
    polar, strengths = case
    pts = np.array([[r * np.cos(t), r * np.sin(t)] for r, t in polar])
    kap = np.array([-s if neg else s for s, neg in strengths])
    k = kap.size
    assume(all(np.hypot(*(pts[i] - pts[j])) >= _G64.h
               for i in range(k) for j in range(i + 1, k)))
    interp = _shared_interp64()
    w, grad = interp.value_and_gradient(pts, kap)
    w_ref, grad_ref = _reference_value_and_gradient(interp, pts, kap)
    assert abs(w - w_ref) <= 1e-12 * max(1.0, abs(w_ref))
    assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()


def test_value_and_gradient_reads_tables_in_place():
    """The tables keep the lattice's shapes and a call copies no table:
    one call's live arrays are the 4-D gather's index and block (3 x 1296
    entries each, 31 kB at k = 3) plus numpy's buffer for the broadcast index
    sum; one copy of the 16^4 table would be 512 kB."""
    interp = _shared_interp64()
    mx, my = kirchhoff._lattice(interp.grid)[0].shape
    assert interp._H.shape == (mx, my)
    assert interp._h4.shape == (mx, my, mx, my)
    pts = np.array([[0.3, 0.1], [-0.2, -0.4], [0.1, 0.5]])
    kap = np.array([1.0, -1.5, 0.5])
    interp.value_and_gradient(pts, kap)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(100):
            interp.value_and_gradient(pts, kap)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def test_interpolant_build_holds_one_4d_table():
    """The borrowed 4-D table is gathered straight from the site data and
    filtered in place: at n=128 (a 32^4 table, 8 MB) the build, its solves
    done before, peaks under two tables.  Zeros, a borrowed copy and the
    filter's output made it three."""
    solver = vp.PoissonSolver(vp.build_grid(vp.DomainSpec.unit_disk(), 128))
    kirchhoff._KRInterpolant(solver)  # solves every table site once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        interp = kirchhoff._KRInterpolant(solver)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert interp._h4.shape == (32,) * 4
    assert peak < 2 * interp._h4.nbytes


# -- the table build's numpy kernels against scipy.ndimage -----------------

_small = st.integers(6, 12)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.tuples(st.integers(6, 64), st.integers(6, 64)),
                 st.tuples(st.integers(6, 64), _small, _small, _small).flatmap(
                     lambda t: st.permutations(t).map(tuple))),
       st.integers(0, 2 ** 32 - 1))
@example((64, 64), 0)
@example((6, 64, 12, 12), 1)  # a slab spans part of a row of axis 1
def test_prefilter_matches_spline_filter(shape, seed):
    a = np.random.default_rng(seed).standard_normal(shape)
    ref = ndimage.spline_filter(a, order=5)
    out = kirchhoff._prefilter(a)
    assert out is a
    assert np.abs(a - ref).max() <= 1e-13 * np.abs(ref).max()


def test_prefilter_holds_one_4d_table():
    """The prefilter works in place with a transient under a quarter of the
    table: at m = 32 (8 MB) a whole-table temporary would fail this."""
    a = np.random.default_rng(0).standard_normal((32,) * 4)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kirchhoff._prefilter(a)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 4


@pytest.mark.parametrize("n", [32, 48, 64, 96, 128, 256, 384])
@pytest.mark.parametrize("dom", BOX_DOMAINS, ids=["disk", "rectangle", "pentagon"])
def test_nearest_valid_matches_edt_fill(dom, n):
    g = vp.build_grid(dom, n)
    cid, clear = kirchhoff._lattice(g)
    valid = (cid >= 0) & (clear >= 4.0 * g.h)
    assert valid.any() and not valid.all()
    ref = ndimage.distance_transform_edt(~valid, return_distances=False,
                                         return_indices=True)
    got = kirchhoff._nearest_valid(valid)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_package_import_loads_no_ndimage():
    """Importing the package and its CLI loads no scipy.ndimage module: its
    import cost about 0.1 s and 5 MB in every process."""
    code = ("import sys, vortexpair, vortexpair.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.ndimage')))")
    src = str(Path(vp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# -- Green store properties -------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(pairs64, st.booleans()), min_size=1, max_size=4))
def test_each_cell_solves_once(evals):
    solver = fresh_disk64()
    g = solver.grid
    seen = set()
    for pair, gradient in evals:
        assume(_separated(pair))
        c = cfg(g.cells_xy[list(pair)], [1.0, -1.0])
        cells = set(pair)
        if gradient:
            cells |= set(g.compass(np.array(pair), 2).ravel().tolist())
        before = solver.solve_count
        (vp.kr_gradient if gradient else vp.kr_value)(solver, c)
        assert solver.solve_count - before == len(cells - seen)
        seen |= cells


@settings(max_examples=20, deadline=None)
@given(pairs64, st.lists(pairs64, min_size=1, max_size=3))
def test_kr_value_independent_of_history(pair, others):
    assume(_separated(pair) and all(_separated(o) for o in others))
    c = cfg(_G64.cells_xy[list(pair)], [1.0, -2.0])
    first = vp.kr_value(fresh_disk64(), c)
    solver = fresh_disk64()
    for o in others:
        vp.kr_gradient(solver, cfg(_G64.cells_xy[list(o)], [1.0, -1.0]))
    assert vp.kr_value(solver, c) == pytest.approx(first, rel=1e-12, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(pairs64)
def test_green_symmetry(pair):
    a, b = pair
    assume(a != b)
    solver = fresh_disk64()
    ga = vp.green_function(solver, a).values
    gb = vp.green_function(solver, b).values
    scale = max(np.abs(ga).max(), np.abs(gb).max())
    assert abs(ga[b] - gb[a]) <= 1e-12 * scale


def test_store_keeps_no_solver_alive():
    solver = fresh_disk64()
    vp.kr_value(solver, cfg([[0.3, 0.0], [-0.3, 0.0]], [1.0, -1.0]))
    vp.pv_evolve(solver, cfg([[0.2, 0.0], [-0.2, 0.0]], [1.0, 1.0]),
                 T=1e-3, dt=1e-3)
    ref = weakref.ref(solver)
    del solver
    gc.collect()
    assert ref() is None


def test_store_solves_new_cells_in_blocks():
    # 20 new cells (one repeated, one already solved) are 3 block solves of
    # at most 8 unit charges; each row matches the cell's single solve
    solver, lu = counting_solver(_G64)
    store = kirchhoff._store(solver)
    first = _INTERIOR[0]
    store.rows(solver, [first])
    cells = [first] + _INTERIOR[100:120:2] + [_INTERIOR[100]] + _INTERIOR[200:220:2]
    before = len(lu.outs)
    rows = store.rows(solver, cells)
    assert len(lu.outs) - before == 3  # ceil(20 / 8)
    assert solver.solve_count == 21 and store.size == 21
    assert [lu.outs[-1].shape[1], lu.outs[-2].shape[1]] == [4, 8]
    assert list(store.cells[rows]) == cells
    ref = vp.PoissonSolver(_G64)
    for k in (0, 5, 12, 20):
        H, (gf,) = robin_solve(ref, np.array([store.cells[k]]))
        assert abs(store.H[k] - H[0]) <= 1e-15 * abs(H[0])
        got = store.G[k, :k]
        want = gf[store.cells[:k]]
        assert np.abs(got - want).max(initial=0.0) <= 1e-15 * np.abs(gf).max()


# -- one W evaluator on the Green store --------------------------------------

def _loop_store_value(store, rows, kappas):
    """W of one configuration, one term at a time: the reference evaluator."""
    w = 0.0
    k = len(rows)
    for i in range(k):
        w += 0.5 * kappas[i] ** 2 * store.H[rows[i]]
        for j in range(i + 1, k):
            w -= kappas[i] * kappas[j] * store.G[rows[i], rows[j]]
    return w


@functools.cache
def _filled_store():
    solver = fresh_disk64()
    store = kirchhoff._store(solver)
    store.rows(solver, _INTERIOR[::len(_INTERIOR) // 12][:12])
    return solver, store


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.integers(0, 11), min_size=k, max_size=k),
             min_size=1, max_size=6),
    st.lists(_strength, min_size=k, max_size=k))))
def test_store_values_matches_loop(case):
    configs, strengths = case
    kap = np.array([-s if neg else s for s, neg in strengths])
    _, store = _filled_store()
    R = np.array(configs)  # (Q, k): row of vortex j in configuration q
    stacked = store.values(tuple(R.T), kap)
    assert stacked.tolist() == [_loop_store_value(store, r, kap) for r in R]
    for r in R:
        assert store.values(r, kap) == _loop_store_value(store, r, kap)
    if kap.size == 2:  # the scan's broadcast table over all row pairs
        a = R[:, 0]
        table = store.values((a[:, None], a[None, :]), kap)
        assert table.tolist() == [[_loop_store_value(store, (x, y), kap)
                                   for y in a] for x in a]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.lists(cells64, min_size=k, max_size=k, unique=True),
    st.lists(_strength, min_size=k, max_size=k))))
def test_kr_gradient_is_central_difference_of_kr_value(case):
    cells, strengths = case
    kap = np.array([-s if neg else s for s, neg in strengths])
    pts = _G64.cells_xy[cells]
    k = kap.size
    assume(all(np.hypot(*(pts[i] - pts[j])) >= 7.0 * _G64.h
               for i in range(k) for j in range(i + 1, k)))
    solver, _ = _filled_store()
    grad = vp.kr_gradient(solver, cfg(pts, kap))
    probes = _G64.compass(np.array(cells), 2)  # left, right, down, up
    for i in range(k):
        for c in range(2):
            hi, lo = pts.copy(), pts.copy()
            hi[i], lo[i] = _G64.cells_xy[probes[i, 2 * c + 1]], _G64.cells_xy[probes[i, 2 * c]]
            fd = (vp.kr_value(solver, cfg(hi, kap))
                  - vp.kr_value(solver, cfg(lo, kap))) / (2.0 * (2.0 * _G64.h))
            assert grad[i, c] == fd


@pytest.mark.parametrize("kw", [dict(starts=0), dict(starts=-1), dict(max_iter=-1)])
def test_kr_minimize_rejects_bad_starts_and_iterations(disk64, kw):
    with pytest.raises(ValueError, match="starts|max_iter"):
        vp.kr_minimize(disk64, (1.0, -1.0), **kw)


def _start_pairs_full_sort(W, starts, symmetric):
    """Reference: walk the stable argsort of the whole table."""
    chosen = {}
    for f in np.argsort(W, axis=None, kind="stable"):
        a, b = divmod(int(f), W.shape[0])
        if len(chosen) == starts or not np.isfinite(W[a, b]):
            break
        chosen.setdefault((min(a, b), max(a, b)) if symmetric else (a, b), (a, b))
    return list(chosen.values())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda m: st.tuples(
           st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, np.inf]),
                    min_size=m * m, max_size=m * m),
           st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                    min_size=m * m, max_size=m * m))),
       st.integers(1, 6), st.booleans(), st.booleans(), st.integers(1, 10))
def test_start_pairs_match_full_sort(table, starts, mirror, symmetric, height):
    vals, ulps = table
    m = math.isqrt(len(vals))
    W = np.array(vals).reshape(m, m)
    if mirror:  # equal strengths give a symmetric table
        W = np.minimum(W, W.T)
    blocks = [(a0, W[a0:a0 + height]) for a0 in range(0, m, height)]
    assert (kirchhoff._start_pairs(blocks, m, starts, symmetric)
            == _start_pairs_full_sort(W, starts, symmetric))
    # ties broken by flat id, not by last bits: every finite entry moved by
    # 1 to 3 ulp gives the same pairs
    fin = np.isfinite(W)
    P = W.copy()
    P[fin] += np.array(ulps).reshape(m, m)[fin] * np.spacing(W[fin])
    blocks = [(a0, P[a0:a0 + height]) for a0 in range(0, m, height)]
    assert (kirchhoff._start_pairs(blocks, m, starts, symmetric)
            == _start_pairs_full_sort(W, starts, symmetric))


def _jitter(rng, w, step=2.0 ** -52):
    """w scaled by (1 + k step), k drawn from -2..2 per entry."""
    return w * (1.0 + rng.integers(-2, 3, size=np.shape(w)) * step)


def test_kr_minimize_image_ignores_last_bits(monkeypatch):
    """The disk's minimum has mirror images whose W agree to rounding; the
    returned one must not hang on the last bits of the evaluator."""
    ref = vp.kr_minimize(fresh_disk64(), (1.0, -1.0))
    values = kirchhoff._GreenStore.values
    for seed in range(4):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(kirchhoff._GreenStore, "values", lambda self, rows, kappas:
                            _jitter(rng, values(self, rows, kappas)))
        km = vp.kr_minimize(fresh_disk64(), (1.0, -1.0))
        assert np.abs(km.points - ref.points).max() <= 1e-12
        assert abs(km.value - ref.value) <= 1e-13 * abs(ref.value)


def test_robin_scan_center_ignores_rounding():
    """On the 49-cell square the four scan sites nearest the center tie in H
    to about 1e-14.  H moved by up to 2e-12 relative, the level of the
    solves' own error, leaves the seed at the first of them in scan order."""
    solver = vp.PoissonSolver(vp.build_grid(vp.DomainSpec.rectangle(1.0, 1.0), 49))
    ref = kirchhoff.robin_scan_center(solver)
    assert (ref < 0.5).all()
    store = kirchhoff._stores[solver]
    exact = store.H.copy()
    for seed in range(8):
        store.H = _jitter(np.random.default_rng(seed), exact, 1e-12)
        assert (kirchhoff.robin_scan_center(solver) == ref).all()


def test_kr_minimize_peak_is_the_final_store(monkeypatch):
    """The scan's table is built `_ROWS` rows at a time, and the scan's growth
    of the Green store leaves room for the descent, so the peak is the final
    store plus one row block and solve temporaries.  On stride 2 at n=40 (910
    sites) the whole table and both generations of G made it 2.3 stores."""
    monkeypatch.setattr(kirchhoff, "_STRIDE", 2)
    solver = vp.PoissonSolver(vp.build_grid(vp.DomainSpec.unit_disk(), 40))
    solver._factor()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        km = vp.kr_minimize(solver, (1.0, -1.0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    store = kirchhoff._stores[solver]
    assert km.scan_sites > 8 * kirchhoff._ROWS
    held = sum(a.nbytes for a in (store.G, store.H, store.cells, store.row))
    assert peak <= 1.1 * held + 2 * 2**20


@pytest.mark.parametrize("margin_h", [2.0, 1.0, 0.0, float("nan")])
def test_scan_margin_floor(disk64, margin_h):
    with pytest.raises(ValueError, match="margin_h"):
        vp.kr_minimize(disk64, (1.0, -1.0), margin_h=margin_h)


@pytest.mark.parametrize("margin_h", [2.5, 3.0, 5.99])
def test_kr_minimize_margin_covers_gradient_stencil(disk64, margin_h):
    # the descent's gradient needs 6h of clearance; below that every start
    # would stop on its first iteration, unpolished
    with pytest.raises(ValueError, match="margin_h must be >= 6"):
        vp.kr_minimize(disk64, (1.0, -1.0), margin_h=margin_h)


_SCAN_DOMAINS = [
    (vp.DomainSpec.unit_disk(), 48),
    (vp.DomainSpec.unit_disk(), 64),
    (vp.DomainSpec.rectangle(1.4, 1.0), 64),
    (vp.DomainSpec.polygon([(0, 0), (1.2, 0), (1.5, 0.8), (0.6, 1.3), (-0.2, 0.7)]), 64),
    (vp.DomainSpec.polygon([(0, 0), (1, 0), (0.5, 1.0)]), 80),
]


@functools.cache
def _scan_solver(which):
    dom, n = _SCAN_DOMAINS[which]
    return vp.PoissonSolver(vp.build_grid(dom, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(_SCAN_DOMAINS) - 1),
       st.sampled_from([2.5, 4.0, 4.5, 6.0, 8.0, 12.5])
       | st.floats(2.0, 16.0, exclude_min=True))
def test_scan_lattice_matches_per_site_filter(which, margin_h):
    solver = _scan_solver(which)
    g = solver.grid
    # reference: the row-major lattice filtered one site at a time
    lattice = g.index[kirchhoff._STRIDE // 2::kirchhoff._STRIDE,
                      kirchhoff._STRIDE // 2::kirchhoff._STRIDE].ravel()
    ref = [int(c) for c in lattice[lattice >= 0] if g.domain.boundary_distance(
        *map(float, g.cells_xy[c])) >= margin_h * g.h]
    assert kirchhoff._scan_lattice(solver, margin_h).tolist() == ref


@functools.cache
def _box_clearance(which):
    """Boundary clearance, in cells, of every box cell center (iy, ix) of a
    `_SCAN_DOMAINS` grid, on or off the mask."""
    g = _scan_solver(which).grid
    x = g.x0 + (np.arange(g.nx) + 0.5) * g.h
    y = g.y0 + (np.arange(g.ny) + 0.5) * g.h
    return g.domain.boundary_distance(x[None, :], y[:, None]) / g.h


def _draw_clear(draw, which, margin, cells):
    """(grid, x, y), (x, y) uniform in one of the box `cells` (iy, ix) of a
    `_SCAN_DOMAINS` grid and at least `margin` (a length) clear of the boundary."""
    g = _scan_solver(which).grid
    iy, ix = cells[draw(st.integers(0, len(cells) - 1))]
    x = g.x0 + (ix + draw(st.floats(0.0, 1.0, exclude_max=True))) * g.h
    y = g.y0 + (iy + draw(st.floats(0.0, 1.0, exclude_max=True))) * g.h
    assume(g.domain.boundary_distance(x, y) >= margin)
    return g, x, y


@st.composite
def _clear_point(draw, margin_h):
    """(grid, x, y) with (x, y) at least margin_h cells clear of the boundary,
    drawn from the cells near that clearance, where a miss would show."""
    which = draw(st.integers(0, len(_SCAN_DOMAINS) - 1))
    band = np.argwhere(np.abs(_box_clearance(which) - margin_h) <= 1.0)
    return _draw_clear(draw, which, margin_h * _scan_solver(which).grid.h, band)


@st.composite
def _clear_disk(draw):
    """(grid, center, r), r in [0.1, 0.3] and the center r clear of the boundary,
    drawn from every box cell that can hold such a center: clearance is
    1-Lipschitz, so its center is at most h/sqrt(2) less clear."""
    which = draw(st.integers(0, len(_SCAN_DOMAINS) - 1))
    r = draw(st.floats(0.1, 0.3))
    cells = np.argwhere(_box_clearance(which) >= r / _scan_solver(which).grid.h - 1.0)
    g, x, y = _draw_clear(draw, which, r, cells)
    return g, (x, y), r


@settings(max_examples=200, deadline=None)
@given(_clear_point(4.0))
def test_value_margin_locates_to_mask_cells(case):
    # `_snapped_cells` trusts this for every margin of 4h or more
    g, x, y = case
    assert g.locate(x, y) >= 0


@settings(max_examples=200, deadline=None)
@given(_clear_point(6.0))
def test_gradient_margin_keeps_compass_probes_on_the_mask(case):
    # `_compass_values` trusts this for the cells of points 6h clear
    g, x, y = case
    assert (g.compass(np.atleast_1d(g.locate(x, y)), 2) >= 0).all()


@settings(max_examples=200, deadline=None)
@given(_clear_disk())
def test_residual_cone_has_a_slope_on_its_square(case):
    # `steadiness_residual` divides by this max: its test bumps have radius
    # 0.1 to 0.3 and clear the boundary, as `draw_disk` draws them
    g, c, r = case
    cells = g.square_cells(c, r)
    _, gx, gy = vp.cone_test_function(g, c, r, cells=cells)
    assert np.hypot(gx, gy).max() > 0.0
