"""Kirchhoff-Routh function: evaluation, minimization, point-vortex flow.

For vortex strengths kappa_i at positions x_i the interaction energy is

    W = - sum_{i<j} kappa_i kappa_j G(x_i, x_j)
        + (1/2) sum_i kappa_i^2 H(x_i),

with G the Dirichlet Green function and H the Robin function.  Two
evaluation paths coexist on purpose:

* `kr_value` / `kr_gradient` / `kr_minimize` read G and H from Poisson
  solves, positions snapped to cell centers.  Each solver keeps one
  dense Green store: a cell is solved at most once, its Robin value and
  its solve read at every earlier solved cell fill one row and column,
  and G(a, b) is read from the column of whichever of a and b was
  solved later.  One evaluator, `_GreenStore.values`, serves every W
  computed from the store: single configurations, the gradient and
  refinement stencils, and the scan's table over all site pairs.  This
  is the reference path; the optimizer only ever compares such
  directly evaluated numbers.

* `pv_evolve` integrates the vortex ODE with a smooth surrogate: H and
  the regular part h(x, y) are tabulated on a coarse sub-lattice (read
  from the same store, one solve per lattice site) and interpolated
  with quintic splines.  A Runge-Kutta step needs a C^4 right-hand side
  for its order and for visible conservation of W; per-step finite
  differences of snapped solves would bury both in cell noise.  One
  evaluator returns W and its exact gradient, from the closed-form
  quintic weights and their derivatives: one weight array per point
  serves both tables, node indices are clamped per axis to the table
  (`mode="nearest"`), and each table is read with one gather.

Positions handed to the solve-backed functions are snapped to the
containing cell; margins (4h for values, 6h for gradients and descent)
are enforced against the exact domain geometry.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .poisson import LOG_COEFF, PoissonSolver, robin_solve

__all__ = [
    "KRConfiguration", "KRMinimum", "PVTrajectory",
    "kr_value", "kr_gradient", "kr_minimize", "pv_evolve",
]

_STRIDE = 8  # spacing of the scan and table lattices, in cells
# unit charges per LU call when the Green store solves new cells.  At n=80
# on a 2-vCPU VM a column took 2.7 ms one at a time, 1.6 ms in blocks of 8
# and 1.8 ms in blocks of 16; a block's right-hand side, the solver's copy
# of it and its work array are live at once, so peak memory grows with it
_BLOCK = 8
_ROWS = 64  # scan-table rows built at a time: 1.5 MB at n=256, not 75 MB whole
# values tie within this tolerance, relative to max(1, |value|); a tie is broken
# by order (flat id, start order, site order), not by last bits, so a symmetric
# domain's mirror-image minima come out the same whatever the solves' rounding
_TIE = 1e-9


@dataclass
class KRConfiguration:
    points: np.ndarray  # (k, 2)
    kappas: np.ndarray  # (k,)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.kappas = np.atleast_1d(np.asarray(self.kappas, dtype=float))
        if self.points.shape != (self.kappas.size, 2):
            raise ValueError("points and kappas disagree on vortex count")
        if not (np.isfinite(self.points).all() and np.isfinite(self.kappas).all()):
            raise ValueError("vortex positions and strengths must be finite")
        if (self.kappas == 0).any():
            raise ValueError("vortex strengths must be nonzero")


@dataclass
class KRMinimum:
    points: np.ndarray
    value: float
    starts: int
    iterations: int
    degenerate_starts: int
    scan_sites: int


@dataclass
class PVTrajectory:
    times: np.ndarray
    points: np.ndarray  # (nt, k, 2)
    values: np.ndarray  # W along the path
    completed: bool
    note: str = ""


# -- Green store -----------------------------------------------------------

class _GreenStore:
    """Dense Green data over the cells solved so far on one solver.

    Row k belongs to the k-th solved cell: `H[k]` is its Robin value and
    `G[k, :k]` = `G[:k, k]` is its solve read at every earlier solved
    cell, so G(a, b) comes from the column of whichever of a and b was
    solved later (the diagonal stays 0).  `row` maps a flat cell id to
    its row, -1 while unsolved.  Each growth reserves a quarter more than
    it needs, and at least a quarter more than before, so k cells hold
    O(k^2) floats and the scan's growth leaves room for the descent: the
    old and new G never coexist while it runs.  The store holds no
    reference to the solver: it is the value of a weak map keyed by the
    solver.  New cells are solved `_BLOCK` at a time, as the columns of
    one block solve, each column checked against the residual bound on
    its own.  A store is for one thread at a time: it takes no lock.
    """

    def __init__(self, ncells: int):
        self.row = np.full(ncells, -1, dtype=np.int64)
        self.size = 0
        self.cells = np.zeros(0, dtype=np.int64)
        self.H = np.zeros(0)
        self.G = np.zeros((0, 0))
        self._interp = None

    def interpolant(self, solver: PoissonSolver) -> "_KRInterpolant":
        """The spline surrogate, built from this store on first use."""
        if self._interp is None:
            self._interp = _KRInterpolant(solver)
        return self._interp

    def rows(self, solver: PoissonSolver, cells) -> np.ndarray:
        """Rows of `cells`; each cell not seen before is solved once, in order,
        in blocks of `_BLOCK`."""
        cells = np.asarray(cells, dtype=np.int64)
        new = np.array(list(dict.fromkeys(
            int(c) for c in cells.ravel() if self.row[c] < 0)), dtype=np.int64)
        if self.size + new.size > self.H.size:
            self._grow(self.size + new.size)
        for at in range(0, new.size, _BLOCK):
            block = new[at:at + _BLOCK]
            H, gfs = robin_solve(solver, block)
            for c, Hc, gf in zip(block, H, gfs):
                k = self.size
                self.H[k] = Hc
                self.G[k, :k] = self.G[:k, k] = gf[self.cells[:k]]
                self.cells[k] = c
                self.row[c] = k
                self.size = k + 1
        return self.row[cells]

    def _grow(self, need: int) -> None:
        k, cap = self.size, max(need + need // 4, self.H.size + self.H.size // 4)
        H, G, cells = np.zeros(cap), np.zeros((cap, cap)), np.zeros(cap, dtype=np.int64)
        H[:k], G[:k, :k], cells[:k] = self.H[:k], self.G[:k, :k], self.cells[:k]
        self.H, self.G, self.cells = H, G, cells

    def values(self, rows, kappas):
        """W at the cells of `rows`, one broadcastable row array per vortex.

        Sums the self term of vortex i, then its pairs (i, j > i), so each
        member of a stack of configurations gets the bits it gets alone.
        """
        w = 0.0
        k = len(rows)
        for i in range(k):
            w = w + 0.5 * kappas[i] ** 2 * self.H[rows[i]]
            for j in range(i + 1, k):
                w = w - kappas[i] * kappas[j] * self.G[rows[i], rows[j]]
        return w


_stores: "weakref.WeakKeyDictionary[PoissonSolver, _GreenStore]" = weakref.WeakKeyDictionary()


def _store(solver: PoissonSolver) -> _GreenStore:
    st = _stores.get(solver)
    if st is None:
        st = _stores[solver] = _GreenStore(solver.grid.ncells)
    return st


def _check_clearance(solver: PoissonSolver, pts: np.ndarray, margin: float) -> None:
    """ValueError unless `pts` clear the boundary by `margin` (a length) and
    each other by 4h, which also keeps their cells distinct."""
    g = solver.grid
    if (g.domain.boundary_distance(pts[:, 0], pts[:, 1]) < margin).any():
        raise ValueError(f"vortex too close to boundary (need {margin / g.h:g}h)")
    k = pts.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            if np.hypot(*(pts[i] - pts[j])) < 4.0 * g.h:
                raise ValueError("vortex positions closer than 4h")


def _snapped_cells(solver: PoissonSolver, pts: np.ndarray, margin: float) -> np.ndarray:
    """Cells containing `pts`, after `_check_clearance`."""
    _check_clearance(solver, pts, margin)
    ids = solver.grid.locate(pts[:, 0], pts[:, 1])
    if (np.asarray(ids) < 0).any():
        raise ValueError("vortex position outside the domain")
    return np.atleast_1d(ids).astype(int)


def _compass_values(solver: PoissonSolver, cells: np.ndarray, kappas) -> np.ndarray:
    """W with each vortex moved 2 cells left, right, down and up, shape (k, 4).

    One `rows` call (cells, then probes) and one `values` call on a (k, k, 4)
    row stack.  A coordinate with a probe off the mask solves neither of its
    probes, and both read NaN.
    """
    g = solver.grid
    k = cells.size
    probes = g.compass(cells, 2)
    ok = probes >= 0
    ok &= ok[:, [1, 0, 3, 2]]
    store = _store(solver)
    rows = store.rows(solver, np.concatenate([cells, probes[ok]]))
    moved = np.repeat(rows[:k, None], 4, axis=1)
    moved[ok] = rows[k:]
    stack = np.broadcast_to(rows[:k, None, None], (k, k, 4)).copy()
    stack[np.arange(k), np.arange(k)] = moved  # stack[j, i, d]: vortex j
    w = store.values(tuple(stack), kappas)
    w[~ok] = np.nan
    return w


def kr_value(solver: PoissonSolver, cfg: KRConfiguration) -> float:
    """W at the configuration, positions snapped to cell centers.

    Needs pairwise separations and boundary clearance of at least 4h.
    """
    store = _store(solver)
    cells = _snapped_cells(solver, cfg.points, 4.0 * solver.grid.h)
    return store.values(store.rows(solver, cells), cfg.kappas)


def kr_gradient(solver: PoissonSolver, cfg: KRConfiguration) -> np.ndarray:
    """Central differences of kr_value with step 2h; needs 6h margins."""
    h = solver.grid.h
    w = _compass_values(solver, _snapped_cells(solver, cfg.points, 6.0 * h),
                        cfg.kappas)
    if np.isnan(w).any():
        raise ValueError("gradient stencil leaves the domain")
    return (w[:, 1::2] - w[:, 0::2]) / (2.0 * (2.0 * h))


# -- minimization ----------------------------------------------------------

def _lattice(g):
    """Sites every `_STRIDE` cells of the box, x-index first: their (mx, my)
    flat ids (-1 off the mask) and clearances, from one `boundary_distance` call."""
    ix = np.arange(_STRIDE // 2, g.nx, _STRIDE)
    iy = np.arange(_STRIDE // 2, g.ny, _STRIDE)
    clear = g.domain.boundary_distance(g.x0 + (ix[:, None] + 0.5) * g.h,
                                       g.y0 + (iy[None, :] + 0.5) * g.h)
    return g.index[iy[None, :], ix[:, None]], clear


def _scan_lattice(solver: PoissonSolver, margin_h: float) -> np.ndarray:
    """Lattice sites with clearance >= margin_h cells, in row-major (y, x) order."""
    # boundary distance is 1-Lipschitz, so above 2h a site's 2-cell probes
    # are mask cells (descent iterates, snapped up to h/sqrt(2) nearer, may not)
    if not margin_h > 2:
        raise ValueError(f"margin_h must be > 2 cells (got {margin_h!r})")
    ids, clear = _lattice(solver.grid)
    keep = (ids >= 0) & (clear >= margin_h * solver.grid.h)
    return ids.T[keep.T]


def _first_least(w) -> int:
    """Index of the first entry within the `_TIE` tolerance of the least."""
    w0 = np.min(w)
    return int(np.flatnonzero(w <= w0 + _TIE * max(1.0, abs(w0)))[0])


def _start_pairs(blocks, m: int, starts: int, symmetric: bool) -> list:
    """The `starts` least finite entries (a, b) of an m x m table W in the
    order (key, flat id), one per unordered pair when `symmetric`.  The key
    is W quantized to steps of about `_TIE` max(1, |W|), so near-ties go by
    flat id.  W comes as `(first_row, rows)` blocks of whole rows.

    Each unordered pair fills at most 2 entries, so the order's prefix of
    entries whose key is <= the (2 starts)-th smallest key holds them all.
    Each of those keys is also <= its own block's (2 starts)-th smallest
    key, so walking the union of the blocks' such entries by (key, flat id)
    meets them first, in the same order.
    """
    ids, keys = [], []
    for a0, rows in blocks:
        key = np.round(np.arcsinh(rows.ravel()) / _TIE)  # asinh: monotone, ~log above 1
        k = min(2 * starts, key.size)
        keep = np.flatnonzero(key <= np.partition(key, k - 1)[k - 1])
        ids.append(keep + a0 * m)
        keys.append(key[keep])
    ids, keys = np.concatenate(ids), np.concatenate(keys)
    chosen = {}  # unordered pair if symmetric -> its first (a, b) by key
    for at in np.lexsort((ids, keys)):
        a, b = divmod(int(ids[at]), m)
        if len(chosen) == starts or not np.isfinite(keys[at]):
            break
        chosen.setdefault((min(a, b), max(a, b)) if symmetric else (a, b), (a, b))
    return list(chosen.values())


def kr_minimize(solver: PoissonSolver, kappas, margin_h: float = 6.0,
                starts: int = 3, max_iter: int = 100) -> KRMinimum:
    """Global-ish minimization of W for an opposite-signed pair.

    A stride-8h lattice scan over admissible ordered pairs supplies the
    starting configurations; its table of W is built `_ROWS` rows at a
    time, so one row block is live next to the Green store.  Gradient
    descent with backtracking (all evaluations snapped to cells)
    polishes the best `starts` of them, and a final per-coordinate
    parabolic fit interpolates the minimum below cell resolution.
    Deterministic for a fixed grid and stride, and independent of
    rounding: starts are ordered by W to `_TIE` relative, then by flat
    id, and the first of them to end within `_TIE` of the least W is
    returned, so which mirror image of a symmetric domain's minimum
    comes out does not hang on last bits.
    `margin_h` must be >= 6, the clearance of the descent's gradient
    stencil (`kr_gradient`); below it every start would stop unpolished.
    """
    if not margin_h >= 6:
        raise ValueError("margin_h must be >= 6 cells, the gradient stencil's "
                         f"clearance (got {margin_h!r})")
    kappas = np.asarray(kappas, dtype=float)
    if kappas.shape != (2,) or not (np.inf > kappas[0] > 0 > kappas[1] > -np.inf):
        raise ValueError("kr_minimize expects finite strengths with "
                         f"kappa1 > 0 > kappa2 (got {kappas.tolist()})")
    if starts < 1:
        raise ValueError("starts must be >= 1")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    g = solver.grid
    sites = _scan_lattice(solver, margin_h)
    if len(sites) < 2:
        raise ValueError("domain too small for the scan lattice")
    store = _store(solver)
    r = store.rows(solver, sites)
    pts = g.cells_xy[sites]

    def block(a0):
        W = store.values((r[a0:a0 + _ROWS, None], r[None, :]), kappas)
        # distinct sites are _STRIDE cells apart, so only the diagonal is too close
        W[np.arange(len(W)), np.arange(a0, a0 + len(W))] = np.inf
        return a0, W

    chosen = _start_pairs(map(block, range(0, len(sites), _ROWS)), len(sites),
                          starts, abs(kappas[0]) == abs(kappas[1]))

    def snapped_value(p):
        try:
            cells = _snapped_cells(solver, p, margin_h * g.h)
            return store.values(store.rows(solver, cells), kappas), cells
        except ValueError:
            return np.inf, None

    total_iters = 0
    finals = []
    for a, b in chosen:
        p = np.array([pts[a], pts[b]])
        w, cells = snapped_value(p)
        for _ in range(max_iter):
            total_iters += 1
            try:
                grad = kr_gradient(solver, KRConfiguration(p, kappas))
            except ValueError:
                break
            gmax = np.abs(grad).max()
            if gmax == 0.0:
                break
            t = 4.0 * g.h / gmax
            while t * gmax >= 0.45 * g.h:
                wt, ct = snapped_value(p - t * grad)
                if wt < w - 1e-14 * max(1.0, abs(w)):
                    p = g.cells_xy[ct].copy()  # keep iterates on cell centers
                    w, cells = wt, ct
                    break
                t *= 0.5
            else:
                break  # no step improved
        finals.append((w, p.copy(), cells))

    w0, p0, cells0 = finals[_first_least([f[0] for f in finals])]
    tie = sum(1 for w, _, _ in finals if w <= w0 + 1e-6 * max(1.0, abs(w0)))
    refined = _parabolic_refine(solver, p0, cells0, kappas, w0)
    return KRMinimum(points=refined, value=float(w0), starts=len(chosen),
                     iterations=total_iters, degenerate_starts=tie,
                     scan_sites=len(sites))


def _parabolic_refine(solver, p0, cells0, kappas, w0):
    """Sub-cell vertex estimate from W at +-2 cells along each coordinate."""
    h = solver.grid.h
    w = _compass_values(solver, cells0, kappas)
    lo, hi = w[:, 0::2], w[:, 1::2]
    refined = p0.astype(float).copy()
    for (i, c), curv in np.ndenumerate(hi - 2.0 * w0 + lo):
        if curv > 0:  # false for NaN too: a probe off the mask
            delta = 0.5 * (lo[i, c] - hi[i, c]) / curv * (2.0 * h)
            refined[i, c] += float(np.clip(delta, -h, h))
    return refined


def robin_scan_center(solver: PoissonSolver, margin_h: float = 6.0) -> np.ndarray:
    """Scan-lattice site of least Robin value: the single-signed KR seed,
    the first in scan order within `_TIE` of the least."""
    sites = _scan_lattice(solver, margin_h)
    if not len(sites):
        raise ValueError("domain too small for the scan lattice")
    store = _store(solver)
    r = store.rows(solver, sites)
    return solver.grid.cells_xy[sites[_first_least(store.H[r])]]


# -- smooth surrogate for the vortex ODE -----------------------------------

class _KRInterpolant:
    """Quintic-spline tables for H(x) and the regular part h(x, y).

    Built from the Green store over the admissible lattice sites (one
    solve per site not solved before); sites without clearance borrow
    the nearest valid site's data, which only matters outside the trust
    margin where trajectories abort anyway.

    H (mx, my) and h (mx, my, mx, my) sit on the same lattice, so one
    call computes each point's 36 tensor weights for the value and both
    slopes once and contracts both tables with them.  The tables are
    not padded: node indices are clamped per axis to [0, mx - 1] and
    [0, my - 1], as `mode="nearest"` does.
    """

    def __init__(self, solver: PoissonSolver):
        g = solver.grid
        self.grid = g
        cid, clear = _lattice(g)
        mx, my = cid.shape
        if mx < 6 or my < 6:
            raise ValueError("grid too coarse for the vortex-flow tables")
        valid = (cid >= 0) & (clear >= 4.0 * g.h)

        store = _store(solver)
        r = store.rows(solver, cid[valid])
        px, py = g.cells_xy[cid[valid]].T
        hv = np.hypot(px[:, None] - px[None, :], py[:, None] - py[None, :])
        np.fill_diagonal(hv, 1.0)  # the distances, until h replaces them
        hv = -LOG_COEFF * np.log(hv) - store.G[np.ix_(r, r)]
        np.fill_diagonal(hv, store.H[r])

        # each node reads its nearest valid site (itself if valid), so the
        # masked-out corners of the box borrow, and one 4-D table is built
        near = np.full((mx, my), -1)
        near[valid] = np.arange(r.size)
        if not valid.all():
            near = near[tuple(ndimage.distance_transform_edt(
                ~valid, return_distances=False, return_indices=True))]
        self._H = ndimage.spline_filter(store.H[r][near], order=5)
        t = hv[near[:, :, None, None], near[None, None, :, :]]
        self._h4 = ndimage.spline_filter(t, order=5, output=t)  # in place
        self.trust_margin = 1.5 * _STRIDE * g.h
        self._du = 1.0 / (_STRIDE * g.h)  # d(table coordinate)/dx
        self._origin = np.array([g.x0, g.y0]) + (0.5 + _STRIDE // 2) * g.h  # node 0
        self._top = np.array([[mx - 1], [my - 1]])  # last node per axis
        self._weights = _WEIGHTS * np.repeat([1.0, self._du], 6)  # slopes in d/dx
        self._pair_cache = {}

    def value_and_gradient(self, pts: np.ndarray, kappas: np.ndarray):
        """W at the configuration `pts` (k, 2) and its exact gradient (k, 2)."""
        u = (pts - self._origin) * self._du  # in table steps
        f = np.floor(u)
        wts = (u - f)[..., None] ** _POWERS @ self._weights  # (k, axis, 6 values + 6 slopes)
        rows = wts[:, 0].take(_ROW_X, axis=1) * wts[:, 1].take(_ROW_Y, axis=1)
        rows = rows.reshape(-1, 3, 36)  # value, d/dx, d/dy weights of a point's 6 x 6 nodes
        nodes = np.minimum(np.maximum(f.astype(np.intp)[..., None] + _NODES, 0), self._top)
        flat = (nodes[:, 0, :, None] * self._H.shape[1] + nodes[:, 1, None, :]).reshape(-1, 36)
        hs = (rows @ self._H.take(flat)[..., None])[..., 0]  # H, dH/dx, dH/dy
        i, j, to_i, to_j = self._pairs(kappas.size)
        block = self._h4.take(flat[i][:, :, None] * self._H.size + flat[j][:, None, :])
        hr = rows[i] @ block @ rows[j].transpose(0, 2, 1)  # h, [1:, 0] grad_i h, [0, 1:] grad_j h
        sep, kk, c = pts[i] - pts[j], kappas[i] * kappas[j], 0.5 * kappas ** 2
        d2 = (sep * sep).sum(1)
        w = c @ hs[:, 0] + kk @ (0.5 * LOG_COEFF * np.log(d2) + hr[:, 0, 0])
        pull = sep * (LOG_COEFF / d2)[:, None]
        grad = c[:, None] * hs[:, 1:] + to_i @ (kk[:, None] * (pull + hr[:, 1:, 0])) \
            + to_j @ (kk[:, None] * (hr[:, 0, 1:] - pull))
        return w, grad

    def _pairs(self, k: int):
        """Pairs i < j of k points, and the 0/1 (k, pairs) matrices that sum onto i and j."""
        if k not in self._pair_cache:
            i, j = np.triu_indices(k, 1)
            at = np.arange(k)[:, None]
            self._pair_cache[k] = i, j, (at == i).astype(float), (at == j).astype(float)
        return self._pair_cache[k]


# cardinal quintic B-spline weights of the nodes floor(u) - 2 .. floor(u) + 3 (rows)
# as coefficients of 1, t, ..., t^5 (columns), t = u - floor(u); then their d/dt.
# Each point's weights serve both tables: H and h sit on the same lattice.
_QUINTIC = np.array([[1, -5, 10, -10, 5, -1], [26, -50, 20, 20, -20, 5],
                     [66, 0, -60, 0, 30, -10], [26, 50, 20, -20, -20, 10],
                     [1, 5, 10, 10, 5, -5], [0, 0, 0, 0, 0, 1]]) / 120.0
_WEIGHTS = np.vstack([_QUINTIC, np.pad(_QUINTIC[:, 1:] * range(1, 6), [(0, 0), (0, 1)])]).T
_POWERS = np.arange(6)
_NODES = np.arange(-2, 4)
# columns of a point's 12 weights per axis whose outer products give the 36 tensor
# weights of W, dW/dx and dW/dy: axis 0 value, slope, value; axis 1 value, value, slope
_ROW_X = np.array([0, 6, 0])[:, None, None] + np.arange(6)[:, None]
_ROW_Y = np.array([0, 0, 6])[:, None, None] + np.arange(6)


def pv_evolve(solver: PoissonSolver, cfg: KRConfiguration, T: float, dt: float,
              save_stride: int = 1) -> PVTrajectory:
    """Classical RK4 for dx_i/dt = (1/kappa_i) grad^perp_{x_i} W.

    W is the spline surrogate (see module docstring), so the reported
    values measure conservation of the integrated Hamiltonian itself.
    Each RK stage reads the exact gradient of that surrogate, and each
    saved W its value, from one evaluator
    (`_KRInterpolant.value_and_gradient`).  T must span at least half a
    step.  The trajectory truncates with a note if any vortex leaves the
    trust margin or two vortices approach below 4h.

    For a pair closer than one table stride (8h) the regular part
    h(x, y) is a spline between the table's diagonal, the Robin values
    H, and h at 8-cell separations, so such a pair's flow hangs on the
    diagonal: shifting H by a near-constant 4.3e-3 moved a pair 3.8
    cells apart by 1.1e-2 over T = 0.5, and pairs 0.9 apart by 1.5e-4.
    Such pairs are run, not rejected.
    """
    if not (math.isfinite(T) and math.isfinite(dt) and T > 0 and dt > 0):
        raise ValueError("need finite positive T and dt")
    if save_stride < 1:
        raise ValueError("save_stride must be >= 1")
    interp = _store(solver).interpolant(solver)
    kap = cfg.kappas
    inv = (1.0 / kap)[:, None]

    def ok(pts):
        try:
            _check_clearance(solver, pts, interp.trust_margin)
        except ValueError:
            return False
        return True

    def rhs(pts):
        gr = interp.value_and_gradient(pts, kap)[1]
        return inv * np.column_stack([gr[:, 1], -gr[:, 0]])

    steps = int(round(T / dt))
    if steps < 1:
        raise ValueError(f"T = {T!r} is shorter than half a step dt = {dt!r}")
    pts = cfg.points.copy()
    if not ok(pts):
        raise ValueError("initial configuration violates the trust margin")
    times = [0.0]
    path = [pts.copy()]
    vals = [interp.value_and_gradient(pts, kap)[0]]
    completed, note = True, ""
    for s in range(1, steps + 1):
        k1 = rhs(pts)
        k2 = rhs(pts + 0.5 * dt * k1)
        k3 = rhs(pts + 0.5 * dt * k2)
        k4 = rhs(pts + dt * k3)
        pts = pts + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not ok(pts):
            completed, note = False, f"margin violation at step {s}"
            break
        if s % save_stride == 0 or s == steps:
            times.append(s * dt)
            path.append(pts.copy())
            vals.append(interp.value_and_gradient(pts, kap)[0])
    return PVTrajectory(times=np.array(times), points=np.array(path),
                        values=np.array(vals), completed=completed, note=note)
