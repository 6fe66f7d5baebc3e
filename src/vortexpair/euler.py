"""Semi-Lagrangian transport of vorticity and a Lyapunov-style probe.

One step solves for the stream function, differentiates it to a
velocity, traces characteristic feet backward with four-stage
Runge-Kutta on the frozen velocity field, and samples the old
vorticity at the feet with cubic interpolation clamped to the local
bilinear bounds (zero extension outside the domain).  The clamp keeps
every sampled value inside the range of its four nearest neighbors, so
max |omega| never grows; there is no flux form, so the integral of
omega is only approximately conserved and its drift is part of what
the tests watch.  Freezing the velocity over one step is the only
first-order-in-time piece left; for the near-steady fields this module
probes, that term is negligible next to the interpolation error.

A step traces and samples only the cells a nonzero value can reach.  A
bilinear velocity sample is a convex combination of node values (zero
off the mask), so every RK4 stage, and with it the foot, lies within
dt max|u_i| of its cell center along axis i.  The foot's lower-left
node is then within ceil(dt max|u_i| / h) cells of the cell, and the
cubic stencil reaches 2 cells past it.  So the support of omega,
dilated by reach = ceil(dt max(|u1|max, |u2|max) / h) + 3 cells in the
max norm (one cell spare against rounding), holds every cell whose
stencil can read a nonzero value.  Every other cell samples an all-zero
stencil, which sums to +0.0 from the +0.0 start and is clamped to
[+0.0, +0.0]: exactly the +0.0 it is given untraced.  Traced cells go
through the same elementwise operations as on the full grid, so a step
is bit for bit the full-grid step.  (For finite omega the clamp already
zeroes a cell whose four nearest nodes are zero; the stencil's outer
ring matters only for a NaN or inf, and the reach covers it too.)

The stability probe evolves a perturbed steady state and reports the
relative Lp distance to the unperturbed one; on the disk the distance
is additionally minimized over a sampled set of rotations, since the
steady pair is only defined up to the domain's symmetry and a slow
orbit precession would otherwise read as instability.  The rotations
of zeta are computed only on the annulus of cells within 2h of the
radii of its support, the only cells where a rotated zeta can be
nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, lp_norm
from .maximizer import SteadyState, bump_on_grid
from .poisson import PoissonSolver, solve_poisson, velocity

__all__ = ["EulerState", "step", "stability_experiment", "StabilityResult"]


@dataclass
class EulerState:
    omega: ScalarField
    t: float = 0.0
    cells_traced: int = 0  # running total over the steps that led here


def _cell_coords(grid, px, py):
    """Lower-left box indices of the points and their offsets in [0, 1)."""
    gx = (px - grid.x0) / grid.h - 0.5
    gy = (py - grid.y0) / grid.h - 0.5
    i0 = np.floor(gx).astype(np.int64)
    j0 = np.floor(gy).astype(np.int64)
    return i0, j0, gx - i0, gy - j0


def _bilinear_box(grid, images, px, py):
    """Bilinear samples of every ring image in `images` at the points (0 outside)."""
    i0, j0, tx, ty = _cell_coords(grid, px, py)
    base = grid.ring_base(i0, j0)
    outs = [np.zeros(px.shape) for _ in images]
    for di, dj, w in ((0, 0, (1 - tx) * (1 - ty)), (1, 0, tx * (1 - ty)),
                      (0, 1, (1 - tx) * ty), (1, 1, tx * ty)):
        idx = base + (dj * grid.ring_stride + di)
        for out, img in zip(outs, images):
            out += w * np.take(img, idx)
    return outs


_CUBIC_OFFS = (-1, 0, 1, 2)


def _cubic_weights(t):
    # Lagrange weights on the four points -1, 0, 1, 2
    return (-t * (t - 1.0) * (t - 2.0) / 6.0,
            (t * t - 1.0) * (t - 2.0) / 2.0,
            -t * (t + 1.0) * (t - 2.0) / 2.0,
            t * (t * t - 1.0) / 6.0)


def _cubic_box(grid, img, px, py):
    """Cubic sampling of a ring image (0 outside), clamped to the bilinear bounds.

    The clamp keeps each value inside the min/max of the four nearest
    nodes, so the scheme cannot manufacture new extrema; without it the
    cubic overshoots at the patch edge and the blow-up guard becomes
    meaningless.
    """
    i0, j0, tx, ty = _cell_coords(grid, px, py)
    base = grid.ring_base(i0, j0)
    wx = _cubic_weights(tx)
    wy = _cubic_weights(ty)
    out = np.zeros(px.shape)
    lo = np.full(px.shape, np.inf)
    hi = np.full(px.shape, -np.inf)
    for a, di in enumerate(_CUBIC_OFFS):
        for b, dj in enumerate(_CUBIC_OFFS):
            vals = np.take(img, base + (dj * grid.ring_stride + di))
            out += wx[a] * wy[b] * vals
            if di in (0, 1) and dj in (0, 1):
                lo = np.minimum(lo, vals)
                hi = np.maximum(hi, vals)
    return np.clip(out, lo, hi)


def _trace_feet(grid, uimages, dt, cells):
    """RK4 backward feet of the centers of `cells` in the frozen field."""
    x0 = grid.cells_xy[cells, 0]
    y0 = grid.cells_xy[cells, 1]

    def vel(px, py):
        return _bilinear_box(grid, uimages, px, py)

    k1x, k1y = vel(x0, y0)
    k2x, k2y = vel(x0 - 0.5 * dt * k1x, y0 - 0.5 * dt * k1y)
    k3x, k3y = vel(x0 - 0.5 * dt * k2x, y0 - 0.5 * dt * k2y)
    k4x, k4y = vel(x0 - dt * k3x, y0 - dt * k3y)
    px = x0 - dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
    py = y0 - dt * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
    return px, py


def step(solver: PoissonSolver, state: EulerState, dt: float) -> EulerState:
    """One semi-Lagrangian step; rejects feet longer than four cells."""
    v = velocity(solver, solve_poisson(solver, state.omega))
    return _advance(solver.grid, state, v, dt)


def _advance(g, state, v, dt):
    """`step` along v, the velocity of the state's own vorticity."""
    vmax = float(v.magnitude().max())
    if vmax > 0 and dt > 4.0 * g.h / vmax:
        raise ValueError(
            f"dt violates the CFL bound: use dt <= {4.0 * g.h / vmax:.6g}")
    # Trace only the support dilated by the reach: a foot moves at most
    # dt max|u_i| along axis i, its cubic stencil 2 cells further, plus one
    # cell spare against rounding.  Every other cell reads an all-zero
    # stencil, whose clamped sum is the +0.0 it keeps untraced.  A -0.0
    # counts as support, since a clamp to it can return -0.0.
    w = state.omega.values
    umax = max(float(np.abs(v.u1).max()), float(np.abs(v.u2).max()))
    reach = math.ceil(dt * umax / g.h) + 3
    cells = g.dilate((w != 0) | np.signbit(w), reach)
    px, py = _trace_feet(g, (g.ring_image(v.u1), g.ring_image(v.u2)), dt, cells)
    new = np.zeros(g.ncells)
    new[cells] = _cubic_box(g, g.ring_image(w), px, py)
    return EulerState(ScalarField(g, new), state.t + dt,
                      state.cells_traced + cells.size)


@dataclass
class StabilityResult:
    times: np.ndarray
    distances: np.ndarray
    integrals: np.ndarray
    max_abs: np.ndarray
    d0: float
    dt: float
    turnover: float
    aborted: bool
    note: str = ""
    cells_traced: int = 0  # summed over steps; not written to stability.csv


def _support_annulus(grid, zeta_vals):
    """Cells where a bilinear rotation of zeta about the origin can be nonzero.

    Rotations keep radius and a bilinear read uses nodes within sqrt(2) h
    of its point, so the radii of supp zeta widened by 2h cover them.
    """
    r = np.hypot(grid.cells_xy[:, 0], grid.cells_xy[:, 1])
    rs = r[zeta_vals != 0]
    return (r >= rs.min() - 2.0 * grid.h) & (r <= rs.max() + 2.0 * grid.h)


def _rotate_once(grid, img, xy, th):
    c, s = math.cos(th), math.sin(th)
    px = c * xy[:, 0] + s * xy[:, 1]
    py = -s * xy[:, 0] + c * xy[:, 1]
    return _bilinear_box(grid, (img,), px, py)[0]


# coarse rotation samples of the disk's orbit distance
ORBIT_ANGLES = 36


def _orbit_metric(grid, zeta_vals, angles, p, h2p, znorm):
    """dist(vals): the relative Lp distance to the rotation orbit of zeta.

    A coarse scan over rotations by 2*pi*k/angles, tabulated once on the
    support annulus (off it every rotation is zero, so that part of each
    sum is |vals|^p, summed once per call), then a golden refine around
    the best angle.  The coarse bin width (10 degrees at the default 36)
    costs a large fraction of a core diameter at the pair radius, so a
    slow precession would read as instability without the refinement.
    """
    ring = _support_annulus(grid, zeta_vals)
    xy = grid.cells_xy[ring]
    img = grid.ring_image(zeta_vals)
    coarse = np.empty((angles, xy.shape[0]))
    for k in range(angles):
        coarse[k] = _rotate_once(grid, img, xy, 2.0 * math.pi * k / angles)
    width = 2.0 * math.pi / angles
    gr = (math.sqrt(5.0) - 1.0) / 2.0

    def dist(vals):
        inner = vals[ring]
        outside = float(np.sum(np.abs(vals[~ring]) ** p))
        sums = outside + np.sum(np.abs(inner[None, :] - coarse) ** p, axis=1)
        k = int(np.argmin(sums))

        def f(th):
            rot = _rotate_once(grid, img, xy, th)
            return outside + float(np.sum(np.abs(inner - rot) ** p))

        a, b = k * width - width, k * width + width
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
        return (best * h2p) ** (1.0 / p) / znorm

    return dist


def stability_experiment(solver: PoissonSolver, steady: SteadyState,
                         delta0: float, turnovers: float = 10.0,
                         seed: int = 0, dt: float | None = None,
                         records: int = 200) -> StabilityResult:
    """Evolve steady + seeded bump of Lp size delta0; track the distance.

    d(t) = min over rotations (disk only, ORBIT_ANGLES coarse samples then
    a golden refine; identity otherwise) of ||omega(t) - R zeta||_p /
    ||zeta||_p.  One turnover is 4*pi over the peak vorticity, the
    rotation period of a solid core.  Aborts, with the flag set, if
    max |omega| exceeds 10x its initial value or the CFL bound fails
    mid-run.
    """
    g = solver.grid
    zeta = steady.zeta
    p = steady.spec.p
    if not np.any(zeta.values):
        raise ValueError("steady vorticity is zero")
    znorm = lp_norm(zeta, p)
    if delta0 < 0 or delta0 > 0.1 * znorm:
        raise ValueError("perturbation must satisfy 0 <= delta0 <= 0.1 ||zeta||_p")
    if not (math.isfinite(turnovers) and turnovers > 0):
        raise ValueError("need finite positive turnovers")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ValueError("need finite positive dt")
    if records < 1:
        raise ValueError("records must be >= 1")

    omega = zeta.values.copy()
    if delta0 > 0:
        c, r = g.domain.draw_disk(np.random.default_rng(seed), (0.08, 0.2),
                                  "the perturbation bump")
        phi = bump_on_grid(g, c, r)
        pnorm = lp_norm(ScalarField(g, phi), p)
        omega = omega + phi * (delta0 / pnorm)
    state = EulerState(ScalarField(g, omega))

    h2p = g.cell_area
    if g.domain.kind == "unit_disk":
        dist = _orbit_metric(g, zeta.values, ORBIT_ANGLES, p, h2p, znorm)
    else:
        def dist(vals):
            s = float(np.sum(np.abs(vals - zeta.values) ** p))
            return (s * h2p) ** (1.0 / p) / znorm

    peak = float(np.abs(zeta.values).max())
    turnover = 4.0 * math.pi / peak
    T = turnovers * turnover
    v0 = velocity(solver, solve_poisson(solver, state.omega))  # picks dt, drives step 1
    if dt is None:
        # two cells per step: fewer resampling events than a classical
        # CFL choice, which is what limits accuracy here
        dt = 2.0 * g.h / float(v0.magnitude().max())
    steps = int(math.ceil(T / dt))
    stride = max(1, steps // records)

    times = [0.0]
    dists = [dist(state.omega.values)]
    integrals = [float(state.omega.values.sum() * g.cell_area)]
    maxabs = [float(np.abs(state.omega.values).max())]
    cap = 10.0 * maxabs[0]
    aborted, note = False, ""
    for s in range(1, steps + 1):
        try:
            state = step(solver, state, dt) if s > 1 else _advance(g, state, v0, dt)
        except ValueError as e:
            aborted, note = True, str(e)
            break
        m = float(np.abs(state.omega.values).max())
        if m > cap:
            aborted, note = True, f"blow-up guard tripped at t={state.t:.4g}"
            break
        if s % stride == 0 or s == steps:
            times.append(state.t)
            dists.append(dist(state.omega.values))
            integrals.append(float(state.omega.values.sum() * g.cell_area))
            maxabs.append(m)
    return StabilityResult(
        times=np.array(times), distances=np.array(dists),
        integrals=np.array(integrals), max_abs=np.array(maxabs),
        d0=dists[0], dt=dt, turnover=turnover, aborted=aborted, note=note,
        cells_traced=state.cells_traced)
