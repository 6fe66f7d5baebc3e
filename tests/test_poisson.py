import functools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import vortexpair as vp
from conftest import BOX_DOMAINS, CountingLU, centered_patch, counting_solver


def test_zero_source(disk64):
    g = disk64.grid
    psi = disk64.solve(np.zeros(g.cells_xy.shape[0]))
    assert np.all(psi == 0.0)


def test_solve_residual_contract(disk64):
    g = disk64.grid
    rng = np.random.default_rng(0)
    f = rng.normal(size=g.cells_xy.shape[0])
    psi = disk64.solve(f)
    # -Delta psi recovers f at full-stencil cells to the solver's residual bound
    nb = g.neighbors
    full = np.all(nb >= 0, axis=1)
    lap = (psi[nb[full, 0]] + psi[nb[full, 1]] + psi[nb[full, 2]]
           + psi[nb[full, 3]] - 4.0 * psi[full]) / g.h ** 2
    res = np.max(np.abs(-lap - f[full]))
    assert res <= 1e-9 * max(1.0, np.max(np.abs(f)))


def test_solve_linearity(disk64):
    g = disk64.grid
    rng = np.random.default_rng(1)
    f1 = rng.normal(size=g.cells_xy.shape[0])
    f2 = rng.normal(size=g.cells_xy.shape[0])
    a, b = 2.5, -0.75
    lhs = disk64.solve(a * f1 + b * f2)
    rhs = a * disk64.solve(f1) + b * disk64.solve(f2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))


def test_solve_deterministic(disk64):
    g = disk64.grid
    rng = np.random.default_rng(2)
    f = rng.normal(size=g.cells_xy.shape[0])
    assert np.array_equal(disk64.solve(f), disk64.solve(f))


def test_positivity(disk64):
    f = centered_patch(disk64.grid, 0.3).values
    psi = disk64.solve(f)
    assert np.all(psi > 0.0)


def test_rectangle_eigenfunction():
    # cell centers sit half a spacing inside the wall, so the zero
    # extension shifts the effective boundary and the error is O(h)
    errs = []
    for n in (32, 64):
        g = vp.build_grid(vp.DomainSpec.rectangle(1.0, 1.0), n)
        s = vp.PoissonSolver(g)
        xy = g.cells_xy
        f = np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1])
        psi = s.solve(f)
        exact = f / (2.0 * np.pi ** 2)
        errs.append(np.max(np.abs(psi - exact)) / np.max(np.abs(exact)))
    assert errs[1] <= 2.0 / 64
    assert errs[1] <= 0.7 * errs[0]


def test_centered_patch_stream_profile():
    # radial patch in the unit disk has a closed-form stream function
    g = vp.build_grid(vp.DomainSpec.unit_disk(), 128)
    s = vp.PoissonSolver(g)
    eps = 0.25
    f = centered_patch(g, eps)
    psi = vp.solve_poisson(s, f)
    r = np.hypot(g.cells_xy[:, 0], g.cells_xy[:, 1])
    lam = 1.0 / (np.pi * eps * eps)
    inside = lam * (eps ** 2 - r ** 2) / 4.0 + np.log(1.0 / eps) / (2 * np.pi)
    outside = np.log(1.0 / np.maximum(r, 1e-300)) / (2.0 * np.pi)
    exact = np.where(r <= eps, inside, outside)
    err = np.max(np.abs(psi.values - exact)) / np.max(np.abs(exact))
    assert err <= 0.02


def test_green_function_disk_images(disk96):
    g = disk96.grid
    rng = np.random.default_rng(4)
    for _ in range(6):
        y = rng.uniform(-0.6, 0.6, size=2)
        if np.hypot(*y) > 0.7:
            continue
        gf = vp.green_function(disk96, y)
        x = rng.uniform(-0.7, 0.7, size=(40, 2))
        keep = (np.hypot(x[:, 0], x[:, 1]) < 0.8) & (
            np.hypot(x[:, 0] - y[0], x[:, 1] - y[1]) > 6 * g.h)
        x = x[keep]
        ids = g.locate(x[:, 0], x[:, 1])
        x = g.cells_xy[ids]
        ystar = y / np.dot(y, y) if np.dot(y, y) > 0 else None
        dxy = np.hypot(x[:, 0] - y[0], x[:, 1] - y[1])
        if ystar is None:
            exact = np.log(1.0 / dxy) / (2 * np.pi)
        else:
            dxs = np.hypot(x[:, 0] - ystar[0], x[:, 1] - ystar[1])
            exact = np.log(dxs * np.hypot(*y) / dxy) / (2 * np.pi)
        got = gf.values[ids]
        assert np.max(np.abs(got - exact)) <= 0.05 * np.max(np.abs(exact))


@functools.lru_cache(maxsize=None)
def _box_solver(domain):
    return vp.PoissonSolver(vp.build_grid(domain, 40))


@settings(max_examples=40, deadline=None)
@given(domain=st.sampled_from(BOX_DOMAINS), u=st.floats(0, 1), v=st.floats(0, 1))
def test_green_function_symmetry(domain, u, v):
    """G(a, b) = G(b, a) to the bound the residual check guarantees.

    The unit-charge solves x_a, x_b meet A x_a = e_a/h^2 + r_a with
    |r_a| <= RESIDUAL_TOL/h^2 in the max norm (and likewise for b), and A
    is symmetric, so x_a[b] - x_b[a] = h^2 (x_b . r_a - x_a . r_b), at
    most RESIDUAL_TOL (|x_a|_1 + |x_b|_1)."""
    solver = _box_solver(domain)
    last = solver.grid.ncells - 1
    a, b = int(u * last), int(v * last)
    ga, gb = (f.values for f in vp.green_function(solver, np.array([a, b])))
    bound = vp.poisson.RESIDUAL_TOL * (np.abs(ga).sum() + np.abs(gb).sum())
    assert abs(ga[b] - gb[a]) <= bound


def test_green_function_positive(disk64):
    gf = vp.green_function(disk64, (0.2, 0.1))
    assert np.all(gf.values > -1e-12)


def test_regular_part_disk_images(disk96):
    rng = np.random.default_rng(7)
    for _ in range(5):
        y = rng.uniform(-0.5, 0.5, size=2)
        x = y + rng.uniform(-0.3, 0.3, size=2)
        if np.hypot(*x) > 0.7 or np.hypot(x[0] - y[0], x[1] - y[1]) < 0.1:
            continue
        got = vp.regular_part(disk96, x, y)
        ystar = y / np.dot(y, y)
        dxs = np.hypot(x[0] - ystar[0], x[1] - ystar[1])
        exact = -np.log(dxs * np.hypot(*y)) / (2 * np.pi)
        assert got == pytest.approx(exact, abs=0.01, rel=0.05)


def test_regular_part_rejects_coincident(disk64):
    with pytest.raises(ValueError):
        vp.regular_part(disk64, (0.2, 0.2), (0.2, 0.2))


def test_robin_disk_formula(disk96):
    for r in (0.0, 0.3, 0.6):
        got = vp.robin(disk96, (r, 0.0))
        exact = -np.log(1.0 - r * r) / (2.0 * np.pi)
        assert got == pytest.approx(exact, abs=0.01)


def test_robin_disk_closed_form_converges(disk64):
    # the disk's H(x) = -(1/2pi) ln(1 - |x|^2): the error is O(h), from the
    # staircase boundary, with no lattice bias left over as h -> 0
    disk128 = vp.PoissonSolver(vp.build_grid(vp.DomainSpec.unit_disk(), 128))

    def err(solver, r, th):
        x = (r * np.cos(th), r * np.sin(th))
        return vp.robin(solver, x) + np.log(1.0 - r * r) / (2.0 * np.pi)

    assert abs(err(disk128, 0.0, 0.0)) <= 0.6 * abs(err(disk64, 0.0, 0.0))
    worst = max(abs(err(disk128, r, th))
                for r in (0.0, 0.4, 0.8) for th in (0.0, 0.3, 0.785))
    assert worst <= 4e-3


def test_robin_radial_monotone(disk96):
    h0 = vp.robin(disk96, (0.0, 0.0))
    h1 = vp.robin(disk96, (0.45, 0.0))
    h2 = vp.robin(disk96, (0.8, 0.0))
    assert h0 < h1 < h2


def test_robin_rejects_near_boundary(disk64):
    with pytest.raises(ValueError):
        vp.robin(disk64, (0.999, 0.0))


def test_robin_minimum_at_center():
    g = vp.build_grid(vp.DomainSpec.unit_disk(), 32)
    s = vp.PoissonSolver(g)
    best = None
    for x in np.linspace(-0.3, 0.3, 7):
        for y in np.linspace(-0.3, 0.3, 7):
            v = vp.robin(s, (x, y))
            if best is None or v < best[0]:
                best = (v, x, y)
    assert np.hypot(best[1], best[2]) <= 2.0 * g.h


def test_velocity_of_linear_stream(rect48):
    g = rect48.grid
    psi = vp.ScalarField(g, g.cells_xy[:, 0].copy())
    v = vp.velocity(rect48, psi)
    # grad-perp of psi = x is (0, -1); away from the closure the central
    # difference is exact for a linear function
    nb = g.neighbors
    full = np.all(nb >= 0, axis=1)
    assert np.allclose(v.u1[full], 0.0, atol=1e-10)
    assert np.allclose(v.u2[full], -1.0, atol=1e-10)


def test_velocity_radial_stream_is_tangential(disk96):
    f = centered_patch(disk96.grid, 0.3)
    psi = vp.solve_poisson(disk96, f)
    v = vp.velocity(disk96, psi)
    xy = disk96.grid.cells_xy
    r = np.hypot(xy[:, 0], xy[:, 1])
    sel = (r > 0.05) & (r < 0.8)
    radial = v.u1[sel] * xy[sel, 0] + v.u2[sel] * xy[sel, 1]
    speed = np.hypot(v.u1[sel], v.u2[sel])
    assert np.max(np.abs(radial) / np.maximum(r[sel] * speed, 1e-30)) <= 0.05


def test_velocity_divergence_free_interior(disk64):
    f = centered_patch(disk64.grid, 0.35)
    psi = vp.solve_poisson(disk64, f)
    v = vp.velocity(disk64, psi)
    div = vp.divergence(disk64.grid, v)
    g = disk64.grid
    nb = g.neighbors
    # cells whose 4 neighbors also carry full stencils see the exact
    # commutation of the two central differences
    deep = np.all(nb >= 0, axis=1)
    for k in range(4):
        deep &= np.where(nb[:, k] >= 0,
                         np.all(nb[np.clip(nb[:, k], 0, None)] >= 0, axis=1),
                         False)
    assert np.max(np.abs(div[deep])) <= 1e-10


def test_energy_symmetry(disk64):
    g = disk64.grid
    rng = np.random.default_rng(9)
    f1 = rng.normal(size=g.cells_xy.shape[0])
    f2 = rng.normal(size=g.cells_xy.shape[0])
    a = np.sum(f1 * disk64.solve(f2)) * g.h ** 2
    b = np.sum(f2 * disk64.solve(f1)) * g.h ** 2
    assert a == pytest.approx(b, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_rhs(disk64, bad):
    rhs = np.ones(disk64.grid.ncells)
    rhs[5] = bad
    with pytest.raises(ValueError, match="not finite"):
        disk64.solve(rhs)


def test_solve_nan_residual_raises():
    solver = vp.PoissonSolver(vp.build_grid(vp.DomainSpec.unit_disk(), 32))

    class NanLU:
        def solve(self, rhs):
            return np.full_like(rhs, np.nan)

    solver._lu = NanLU()
    with pytest.raises(vp.SolveError):
        solver.solve(np.ones(solver.grid.ncells))


def _counting_solver(n, scale=1.0):
    return counting_solver(vp.build_grid(vp.DomainSpec.unit_disk(), n), scale)


@functools.lru_cache(maxsize=4)
def _solver_and_factor(domain, n):
    spec = (vp.DomainSpec.unit_disk() if domain == "disk"
            else vp.DomainSpec.rectangle(1.3, 1.0))
    solver = vp.PoissonSolver(vp.build_grid(spec, n))
    return solver, solver._factor()


@pytest.mark.parametrize("domain", ["disk", "rectangle"])
def test_factor_is_pivot_free_m_matrix_elimination(domain):
    """The factor permutes rows as it permutes columns (no pivoting), and its
    factors carry the M-matrix signs that make that safe: L has a unit
    diagonal and multipliers in [-1, 0], U a positive diagonal."""
    _, lu = _solver_and_factor(domain, 48)
    assert (lu.perm_r == lu.perm_c).all()
    L, U = lu.L.tocsr(), lu.U.tocsr()
    assert (L.diagonal() == 1.0).all()
    off = sp.tril(L, -1).data
    assert off.size and (off >= -1.0).all() and (off <= 0.0).all()
    assert (U.diagonal() > 0).all()


def _rhs(g, kind, rng):
    xy = g.cells_xy
    if kind == "charge":
        rhs = np.zeros(g.ncells)
        rhs[rng.integers(g.ncells)] = 1.0 / g.cell_area
        return rhs
    if kind == "random":
        return rng.normal(size=g.ncells)
    # a wide patch pair, the kind of field right-hand side the ascent and
    # the Euler steps solve
    c = xy.mean(axis=0)
    half = 0.5 * (xy.max(axis=0) - xy.min(axis=0))
    a = 0.3 * half.min()
    pair = [np.hypot(xy[:, 0] - c[0] - s * 0.6 * half[0], xy[:, 1] - c[1]) < a
            for s in (1.0, -1.0)]
    return (pair[0].astype(float) - pair[1]) / (np.pi * a * a)


@settings(max_examples=30, deadline=None)
@given(domain=st.sampled_from(["disk", "rectangle"]),
       n=st.integers(32, 80),
       kind=st.sampled_from(["pair", "charge", "random"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_solve_makes_one_lu_solve(domain, n, kind, seed):
    solver, factor = _solver_and_factor(domain, n)
    lu = CountingLU(factor)
    solver._lu = lu
    rhs = _rhs(solver.grid, kind, np.random.default_rng(seed))
    x = solver.solve(rhs)
    assert len(lu.outs) == 1
    assert np.abs(rhs - solver.matrix @ x).max() <= 1e-10 * np.abs(rhs).max()


@pytest.mark.parametrize("n", [48, 80])
def test_field_solve_meeting_backward_error_makes_one_lu_solve(n):
    # the patch-pair field solve of the ascent and the Euler steps on the
    # disk: one LU solve, whose residual meets the 1e-10 relative bound
    solver, lu = _counting_solver(n)
    rhs = _rhs(solver.grid, "pair", None)
    x = solver.solve(rhs)
    assert len(lu.outs) == 1
    assert np.abs(rhs - solver.matrix @ x).max() <= 1e-10 * np.abs(rhs).max()


def test_unit_charge_makes_one_lu_solve():
    solver, lu = _counting_solver(48)
    vp.green_function(solver, solver.grid.ncells // 2)
    assert len(lu.outs) == 1


def test_corrupted_solve_raises_after_one_pass():
    # the factor returns 0.4 of the true solution, so the residual is 0.6
    # of the rhs: the one LU solve fails the bound and nothing retries it
    solver, lu = _counting_solver(32, scale=0.4)
    with pytest.raises(vp.SolveError, match="inaccurate"):
        solver.solve(np.ones(solver.grid.ncells))
    assert len(lu.outs) == 1


# -- block solves --------------------------------------------------------------

@pytest.mark.parametrize("domain", ["disk", "rectangle"])
@pytest.mark.parametrize("n", [48, 80])
def test_block_columns_match_single_solves(domain, n):
    # measured over 320 columns (disk and 1.3 x 1 rectangle, n = 32..128):
    # 316 bit-identical to the single solve, the rest within 1.1e-16 of it
    solver, _ = _solver_and_factor(domain, n)
    ids = np.random.default_rng(n).choice(solver.grid.ncells, 8, replace=False)
    block = vp.green_function(solver, ids)
    assert len(block) == ids.size
    for c, f in zip(ids, block):
        one = vp.green_function(solver, int(c)).values
        assert np.abs(f.values - one).max() <= 1e-15 * np.abs(one).max()


def _charges(g, ids):
    rhs = np.zeros((g.ncells, len(ids)))
    for j, c in enumerate(ids):
        if c is not None:
            rhs[c, j] = 1.0 / g.cell_area
    return rhs


def test_block_is_one_lu_call_and_counts_columns():
    solver, lu = _counting_solver(48)
    g = solver.grid
    rhs = _charges(g, [5, 900, 1500, 17])
    before = solver.solve_count
    x = solver.solve(rhs)
    assert len(lu.outs) == 1 and solver.solve_count - before == 4
    res = np.abs(rhs - solver.matrix @ x).max(axis=0)
    assert (res <= 1e-10 * np.abs(rhs).max(axis=0)).all()
    vp.green_function(solver, np.array([3, 4, 5]))
    assert len(lu.outs) == 2 and solver.solve_count - before == 7


@pytest.mark.parametrize("spoil", [0.4, np.nan])
def test_block_with_one_spoiled_column_raises(spoil):
    # the factor returns column 2 scaled by 0.4 (residual 0.6 of its rhs),
    # or NaN: that column alone fails the bound, and the block raises
    solver, lu = _counting_solver(32, scale=np.array([1.0, 1.0, spoil, 1.0]))
    with pytest.raises(vp.SolveError, match="inaccurate"):
        solver.solve(_charges(solver.grid, [10, 200, 300, 400]))
    assert len(lu.outs) == 1


def test_block_with_a_zero_column_passes():
    solver, lu = _counting_solver(32)
    g = solver.grid
    x = solver.solve(_charges(g, [10, None, 300]))
    assert len(lu.outs) == 1 and np.all(x[:, 1] == 0.0)
    for j, c in ((0, 10), (2, 300)):
        one = vp.green_function(solver, c).values
        assert np.abs(x[:, j] - one).max() <= 1e-15 * np.abs(one).max()
    assert np.all(solver.solve(np.zeros((g.ncells, 3))) == 0.0)


def test_block_rejects_bad_shapes_and_cells(disk64):
    g = disk64.grid
    with pytest.raises(ValueError, match="rhs length"):
        disk64.solve(np.ones((g.ncells, 2, 2)))
    with pytest.raises(ValueError, match="rhs length"):
        disk64.solve(np.ones((g.ncells - 1, 2)))
    bad = _charges(g, [1, 2])
    bad[7, 1] = np.inf
    with pytest.raises(ValueError, match="not finite"):
        disk64.solve(bad)
    with pytest.raises(ValueError, match="outside"):
        vp.green_function(disk64, np.array([0, g.ncells]))


# -- assembly and factor -------------------------------------------------------

def _coo_assemble(g):
    """The matrix as it was once assembled: COO triplets, then duplicates summed."""
    n = g.ncells
    inv_h2 = 1.0 / g.cell_area
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [np.full(n, 4.0 * inv_h2)]
    for k in range(4):
        nb = g.neighbors[:, k]
        ok = nb >= 0
        rows.append(np.nonzero(ok)[0])
        cols.append(nb[ok])
        vals.append(np.full(int(ok.sum()), -inv_h2))
    A = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    A.sum_duplicates()
    return A


@pytest.mark.parametrize("domain, n", [
    (vp.DomainSpec.unit_disk(), 16),
    (vp.DomainSpec.unit_disk(), 80),
    (vp.DomainSpec.rectangle(1.3, 1.0), 32),
    (BOX_DOMAINS[2], 40),
    # one row of cells, none with an up or down neighbour
    (vp.DomainSpec.rectangle(1.0, 0.05), 16),
    # a diagonal staircase two or three cells wide
    (vp.DomainSpec.polygon([(0, 0), (0.08, 0), (1, 0.92), (1, 1)]), 32),
], ids=["disk16", "disk80", "rectangle", "polygon", "row", "staircase"])
def test_direct_assembly_matches_coo(domain, n):
    g = vp.build_grid(domain, n)
    A, ref = vp.PoissonSolver(g).matrix, _coo_assemble(g)
    assert A.format == "csc" and A.shape == ref.shape
    assert A.indptr.dtype == A.indices.dtype == np.int32
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert A.data.dtype == ref.data.dtype and A.data.tobytes() == ref.data.tobytes()
    assert A.has_sorted_indices and A.has_canonical_format


_FACTOR_PEAK = textwrap.dedent("""
    import vortexpair as vp
    def status(key):
        with open("/proc/self/status") as fh:
            return next(int(ln.split()[1]) for ln in fh if ln.startswith(key))
    solver = vp.PoissonSolver(vp.build_grid(vp.DomainSpec.unit_disk(), 128))
    p0, r0 = status("VmHWM:"), status("VmRSS:")
    solver._factor()
    print(status("VmHWM:") - p0, status("VmRSS:") - r0)
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status for the resident sizes")
def test_factor_peak_is_its_resident_size():
    # SuperLU's default 20-column panel workspace lifted the peak about
    # 11 MB above what the factor keeps resident at this n.  The peak is
    # the child's VmHWM: its ru_maxrss starts at this process's size,
    # which a fork passes on across exec
    env = dict(os.environ, PYTHONPATH=str(Path(vp.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _FACTOR_PEAK], env=env,
                         capture_output=True, text=True, check=True).stdout
    peak_kb, resident_kb = map(int, out.split())
    assert peak_kb <= resident_kb + 4 * 1024
