"""Dirichlet Poisson solves, Green function samples, and velocities.

The operator is the standard 5-point Laplacian on the masked grid with
zero boundary data imposed through ghost values: a stencil leg that
leaves the mask simply contributes nothing.  A solve is one triangular
solve pair against the sparse LU factorization of the grid (cached on
the solver), checked against RESIDUAL_TOL; everything downstream (energy
monotonicity of the ascent iteration, Green-function symmetry) leans on
that accuracy.  The factorization does not pivot: the matrix is a
symmetric, diagonally dominant M-matrix, so each elimination step keeps
a positive diagonal pivot and multipliers in [-1, 0], and partial
pivoting would never move a row.  SuperLU runs one column per panel:
the default panel's workspace, not the factor, set the peak.  The CSC
matrix is written straight from the stencil.  A block of right-hand
sides, such as the unit charges of `green_function` on an array of
cells, is one LU call whose columns are each checked the same way.

Conventions: G(x, y) solves -Laplace G = delta_y with G = 0 on the
boundary; the regular part is h(x, y) = -(1/2pi) ln|x-y| - G(x, y) and
the Robin function is its diagonal H(x) = h(x, x), read from the
diagonal G_h(x, x) of the unit-charge solve at x plus the lattice
constant of the 5-point stencil (see `robin_solve`).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import ScalarField, VectorField
from .grid import Grid

__all__ = [
    "PoissonSolver", "SolveError", "solve_poisson", "green_function",
    "regular_part", "robin", "velocity", "divergence",
]

LOG_COEFF = 1.0 / (2.0 * math.pi)
# the square lattice's potential kernel is a(x) = (2/pi) ln|x| + (2 gamma
# + ln 8)/pi + O(|x|^-2) (Fukai & Uchiyama, Ann. Probab. 24, 1996; Lawler &
# Limic, Random Walk: A Modern Introduction, sec. 4.4), G_h(x, x) - G_h(x, y)
# = a((y - x)/h)/4 + O(|y - x|), so H = -G_h(x, x) - (1/2pi) ln h + this
LATTICE_ROBIN = (2.0 * np.euler_gamma + math.log(8.0)) / (4.0 * math.pi)
# a solve fails above this residual relative to the right-hand side.  The
# matrix is symmetric and diagonally dominant, so elimination has growth
# factor at most 2 and one LU solve is backward stable (Higham, Accuracy
# and Stability of Numerical Algorithms, ch. 9); refinement in working
# precision could not lower the forward error below cond(A) u (Skeel,
# Math. Comp. 35, 1980).  On the disk up to n = 384 patch-pair and unit-
# charge solves leave at most about 7e-12; a constant right-hand side leaves
# 1.6e-10 at n = 384, the rounding of the residual itself (about u |A| |x|).
RESIDUAL_TOL = 1e-10


class SolveError(RuntimeError):
    pass


class PoissonSolver:
    """Factorized inverse of the masked 5-point Dirichlet Laplacian.

    Each solve is one LU solve, of one right-hand side (ncells,) or of a
    block (ncells, m) at once.  It raises SolveError when the residual of
    some column exceeds RESIDUAL_TOL relative to that column in the
    infinity norm, or is NaN; a non-finite right-hand side is a
    ValueError.  `solve_count` counts columns.  A solver is for one
    thread at a time: nothing in it takes a lock.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._lu = None
        self.matrix = self._assemble()
        self.solve_count = 0

    def _assemble(self):
        # A is symmetric: column j holds rows (down, left, j, right, up), ascending ids
        g = self.grid
        n = g.ncells
        inv_h2 = 1.0 / g.cell_area
        rows = np.empty((n, 5), dtype=np.int32)
        rows[:, [0, 1, 3, 4]] = g.neighbors[:, [2, 0, 1, 3]]
        rows[:, 2] = np.arange(n)
        keep = rows >= 0
        vals = np.full((n, 5), -inv_h2)
        vals[:, 2] = 4.0 * inv_h2
        indptr = np.r_[0, keep.sum(axis=1).cumsum()].astype(np.int32)
        return sp.csc_matrix((vals[keep], rows[keep], indptr), shape=(n, n))

    def _factor(self):
        if self._lu is None:
            # MMD on A^T+A and no row pivoting: A is a symmetric M-matrix, so
            # the diagonal pivots stay positive and the multipliers lie in
            # [-1, 0].  SymmetricMode builds the elimination tree on A^T+A:
            # the same fill in less workspace.  The default panel of 20 columns
            # lifted the peak 14 MB above the factor at n = 144 on the disk;
            # one column keeps it within 3 MB.  Every solve is still checked.
            self._lu = spla.splu(self.matrix, permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.0, panel_size=1,
                                 options={"SymmetricMode": True})
        return self._lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.grid.ncells:
            raise ValueError("rhs length does not match grid")
        cols = rhs.reshape(rhs.shape[0], -1).T  # one row per right-hand side
        scale = np.abs(cols).max(axis=1)
        if not np.isfinite(scale).all():
            raise ValueError("rhs is not finite")
        if not scale.any():
            return np.zeros_like(rhs)
        x = self._factor().solve(rhs)
        self.solve_count += len(cols)
        # column by column: a block's residual needs no block-sized temporaries
        for b, y, s in zip(cols, x.reshape(x.shape[0], -1).T, scale):
            res = np.abs(b - self.matrix @ y).max()
            if not res <= RESIDUAL_TOL * s:  # NaN fails too
                raise SolveError(
                    f"poisson solve inaccurate: residual {res:.3e} vs rhs scale {s:.3e}"
                )
        return x


def solve_poisson(solver: PoissonSolver, f: ScalarField) -> ScalarField:
    """Stream function psi with -Laplace psi = f, psi = 0 on the boundary."""
    if f.grid is not solver.grid:
        raise ValueError("field lives on a different grid")
    return ScalarField(solver.grid, solver.solve(f.values))


def _source_cell(solver: PoissonSolver, y) -> int:
    if isinstance(y, (int, np.integer)):
        cid = int(y)
        if not 0 <= cid < solver.grid.ncells:
            raise ValueError("source cell outside domain")
        return cid
    cid = int(solver.grid.locate(y[0], y[1]))
    if cid < 0:
        raise ValueError("source cell outside domain")
    return cid


def green_function(solver: PoissonSolver, y):
    """Sampled Green function G(., y): solve against a unit cell charge.

    `y` may be a point or a flat cell id; the charge is 1/h^2 on that
    cell, so the field integrates to one.  A 1-D integer array of cell
    ids is solved as one block, one charge per column, and gives a list
    of fields, one per id.
    """
    g = solver.grid
    if isinstance(y, np.ndarray) and y.ndim == 1 and y.dtype.kind in "iu":
        if y.size and not (0 <= y.min() and y.max() < g.ncells):
            raise ValueError("source cell outside domain")
        rhs = np.zeros((g.ncells, y.size))
        rhs[y, np.arange(y.size)] = 1.0 / g.cell_area
        x = solver.solve(rhs)
        return [ScalarField(g, x[:, j]) for j in range(y.size)]
    cid = _source_cell(solver, y)
    rhs = np.zeros(g.ncells)
    rhs[cid] = 1.0 / g.cell_area
    return ScalarField(g, solver.solve(rhs))


def regular_part(solver: PoissonSolver, x, y) -> float:
    """h(x, y) = -(1/2pi) ln|x-y| - G(x, y) for distinct interior points."""
    g = solver.grid
    cx, cy = _source_cell(solver, x), _source_cell(solver, y)
    if cx == cy:
        raise ValueError("regular_part needs x != y; use robin for the diagonal")
    px, py = g.cells_xy[cx], g.cells_xy[cy]
    dist = float(np.hypot(*(px - py)))
    Gxy = float(green_function(solver, cy).values[cx])
    return -LOG_COEFF * math.log(dist) - Gxy


def robin_solve(solver: PoissonSolver, cells: np.ndarray):
    """One block of unit-charge solves at `cells` and the Robin values read from them.

    H is read at each charge's own cell, H(x) = -G_h(x, x) - (1/2pi) ln h
    + LATTICE_ROBIN, so any mask cell can be solved.  Returns (H array,
    list of G(., x) value arrays), one entry per cell.
    """
    gfs = [f.values for f in green_function(solver, cells)]
    diag = np.array([gf[c] for gf, c in zip(gfs, cells)])
    return -diag - LOG_COEFF * math.log(solver.grid.h) + LATTICE_ROBIN, gfs


def robin(solver: PoissonSolver, x) -> float:
    """Robin function H(x) from the diagonal of one solve (see `robin_solve`).

    The error is O(h), from the staircase boundary.  Within 4h of the
    boundary the lattice expansion's O((h/d)^2) remainder at clearance d
    is no longer small, so such points raise.
    """
    g = solver.grid
    cid = _source_cell(solver, x)
    if g.domain.boundary_distance(*g.cells_xy[cid]) < 4.0 * g.h:
        raise ValueError("robin near boundary unreliable")
    return float(robin_solve(solver, np.array([cid]))[0][0])


def velocity(solver: PoissonSolver, psi: ScalarField) -> VectorField:
    """v = (d2 psi, -d1 psi): central differences, one-sided at the closure."""
    g = solver.grid
    if psi.grid is not g:
        raise ValueError("field lives on a different grid")
    dx = _difference(g, psi.values, axis=0)
    dy = _difference(g, psi.values, axis=1)
    return VectorField(g, dy, -dx)


def _difference(g: Grid, vals: np.ndarray, axis: int) -> np.ndarray:
    lo = g.neighbors[:, 0 if axis == 0 else 2]
    hi = g.neighbors[:, 1 if axis == 0 else 3]
    have_lo, have_hi = lo >= 0, hi >= 0
    vlo = np.where(have_lo, vals[lo.clip(0)], 0.0)
    vhi = np.where(have_hi, vals[hi.clip(0)], 0.0)
    out = np.zeros_like(vals)
    both = have_lo & have_hi
    out[both] = (vhi[both] - vlo[both]) / (2.0 * g.h)
    only_hi = have_hi & ~have_lo
    out[only_hi] = (vhi[only_hi] - vals[only_hi]) / g.h
    only_lo = have_lo & ~have_hi
    out[only_lo] = (vals[only_lo] - vlo[only_lo]) / g.h
    return out


def divergence(grid: Grid, v: VectorField) -> np.ndarray:
    """Central/one-sided divergence; diagnostic for the velocity field."""
    return _difference(grid, v.u1, axis=0) + _difference(grid, v.u2, axis=1)
