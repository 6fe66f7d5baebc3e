"""Energy maximization over a sign-changing rearrangement class.

The admissible class is discrete and exact: a prototype fixes two value
multisets (N1 positive values integrating to kappa1, N2 negative values
integrating to kappa2 < 0, cell counts chosen so the supports measure
pi*eps_i^2 at cell granularity), and every admissible field is an
assignment of those exact values to distinct cells.  The kinetic energy

    E(zeta) = (1/2) sum zeta * (G zeta) * h^2

is maximized by best-response ascent: given the stream function psi of
the current iterate, the next iterate places the positive values on the
N1 cells where psi is largest (largest value on largest psi) and the
negative values on the N2 cells where psi is smallest (largest
magnitude on smallest psi).  That assignment maximizes the linear form
sum(v * psi) over the class, and since

    E(v) - E(zeta) = <v - zeta, G zeta> + (1/2) <v - zeta, G (v - zeta)>,

each step cannot lower the energy: the first term is nonnegative by
optimality of the assignment, the second is the energy of a field.
Iteration stops at an exact fixed point of the assignment map.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .fields import (ScalarField, center_of_mass, lp_norm, negative_part,
                     positive_part, support_diameter)
from .grid import DRAW_TRIES, Grid
from .kirchhoff import kr_minimize, robin_scan_center
from .poisson import PoissonSolver, solve_poisson, velocity

__all__ = [
    "RearrangementSpec", "Prototype", "SteadyState",
    "make_prototype", "place_prototype", "energy", "best_response",
    "maximize", "lagrange_multipliers", "monotone_map_check",
    "steadiness_residual", "bump_on_grid", "cone_test_function",
]


@dataclass(frozen=True)
class RearrangementSpec:
    """Parameters of the admissible class.

    kappa2 = 0 with eps2 = 0 selects the single-signed special case
    (no negative core).  p is the exponent of the class's Lp bound and
    of every profile/stability distance derived from a run.
    """

    eps1: float
    eps2: float
    kappa1: float
    kappa2: float
    p: float = 2.0
    profile: str = "patch"
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("eps1", "eps2", "kappa1", "kappa2", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.kappa1 > 0:
            raise ValueError("kappa1 must be positive")
        if self.kappa2 > 0:
            raise ValueError("kappa2 must be negative (or zero for single-signed)")
        if (self.kappa2 == 0) != (self.eps2 == 0):
            raise ValueError("single-signed runs need kappa2 = 0 and eps2 = 0 together")
        if self.eps1 <= 0 or self.eps2 < 0:
            raise ValueError("core radii must be positive")
        if not self.p >= 1:
            raise ValueError("p must be at least 1")
        if self.profile not in ("patch", "parabolic"):
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.profile == "parabolic" and not self.gamma > 0:
            raise ValueError("parabolic profile needs gamma > 0")


@dataclass
class Prototype:
    """Exact value multisets of the class on a specific grid."""

    spec: RearrangementSpec
    pos: np.ndarray  # descending, sums to kappa1 / h^2
    neg: np.ndarray  # magnitudes, descending, sums to -kappa2 / h^2

    @property
    def n_pos(self) -> int:
        return self.pos.size

    @property
    def n_neg(self) -> int:
        return self.neg.size


def _profile_weights(spec: RearrangementSpec, count: int) -> np.ndarray:
    if spec.profile == "patch":
        return np.ones(count)
    j = np.arange(count)
    return (1.0 - j / count) ** spec.gamma


def _check_resolution(spec: RearrangementSpec, h: float) -> None:
    """The class is admitted on a grid of width h only if eps/h >= 8 for
    each core (eps = 0 is no core)."""
    for eps in (spec.eps1, spec.eps2):
        if eps and eps / h < 8.0:
            raise ValueError(
                f"resolution rule eps/h >= 8 violated (eps={eps:g}, "
                f"h=1/{1.0 / h:g}, eps/h={eps / h:g}): refine grid or "
                "enlarge eps")


def _check_ascent(max_iter: int, residual_tests: int) -> None:
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1 (got {max_iter})")
    if residual_tests < 0:
        raise ValueError(f"residual_tests must be >= 0 (got {residual_tests})")


def make_prototype(spec: RearrangementSpec, grid: Grid) -> Prototype:
    h = grid.h
    _check_resolution(spec, h)
    n1, n2 = (int(round(math.pi * eps * eps / (h * h)))
              for eps in (spec.eps1, spec.eps2))
    if n1 + n2 > grid.ncells:
        raise ValueError("cores do not fit in the domain")
    w1 = _profile_weights(spec, n1)
    pos = w1 * (spec.kappa1 / (w1.sum() * h * h))
    if n2:
        w2 = _profile_weights(spec, n2)
        neg = w2 * (-spec.kappa2 / (w2.sum() * h * h))
    else:
        neg = np.zeros(0)
    return Prototype(spec=spec, pos=pos, neg=neg)


def place_prototype(grid: Grid, proto: Prototype, center_pos,
                    center_neg=None) -> ScalarField:
    """Symmetric-decreasing placement of the prototype at given centers.

    Positive values go to the cells nearest center_pos (largest value
    innermost); negative values to the nearest *remaining* cells around
    center_neg, so overlapping requests stay disjoint.
    """
    xy = grid.cells_xy
    vals = np.zeros(grid.ncells)
    d1 = np.hypot(xy[:, 0] - center_pos[0], xy[:, 1] - center_pos[1])
    order1 = np.argsort(d1, kind="stable")[: proto.n_pos]
    vals[order1] = proto.pos
    if proto.n_neg:
        if center_neg is None:
            raise ValueError("negative core needs a center")
        d2 = np.hypot(xy[:, 0] - center_neg[0], xy[:, 1] - center_neg[1])
        d2[order1] = np.inf
        order2 = np.argsort(d2, kind="stable")[: proto.n_neg]
        vals[order2] = -proto.neg
    return ScalarField(grid, vals)


def _in_class(proto: Prototype, f: ScalarField) -> bool:
    v = f.values
    pos = np.sort(v[v > 0])[::-1]
    neg = np.sort(-v[v < 0])[::-1]
    return (pos.size == proto.n_pos and neg.size == proto.n_neg
            and np.array_equal(pos, proto.pos) and np.array_equal(neg, proto.neg))


def _energy(f: ScalarField, psi: ScalarField) -> float:
    return 0.5 * float((f.values * psi.values).sum()) * f.grid.cell_area


def energy(solver: PoissonSolver, f: ScalarField) -> float:
    return _energy(f, solve_poisson(solver, f))


def best_response(proto: Prototype, psi: ScalarField) -> ScalarField:
    """Exact maximizer of sum(v * psi) over the class.

    One stable sort of psi (descending, ties by cell order) yields both
    placements; the top-N1 and bottom-N2 slices are disjoint whenever
    N1 + N2 <= ncells, so a constant psi still produces a valid field.
    """
    g = psi.grid
    n = g.ncells
    if proto.n_pos + proto.n_neg > n:
        raise ValueError("cores do not fit in the domain")
    order = np.argsort(-psi.values, kind="stable")
    vals = np.zeros(n)
    vals[order[: proto.n_pos]] = proto.pos
    if proto.n_neg:
        # slice ends at the global psi minimum: largest magnitude there
        vals[order[n - proto.n_neg:]] = -proto.neg[::-1]
    return ScalarField(g, vals)


@dataclass
class SteadyState:
    zeta: ScalarField
    psi: ScalarField
    spec: RearrangementSpec
    prototype: Prototype
    energy: float
    energy_log: np.ndarray
    mu1: float
    mu2: float | None
    center_pos: np.ndarray
    center_neg: np.ndarray | None
    diam_pos: float
    diam_neg: float
    iterations: int
    converged: bool
    residual: float
    monotone_violations: int
    note: str = ""


def _seed_field(solver: PoissonSolver, proto: Prototype, init):
    g = solver.grid
    spec = proto.spec
    if init == "kr_seed":
        if proto.n_neg:
            km = kr_minimize(solver, (spec.kappa1, spec.kappa2))
            return place_prototype(g, proto, km.points[0], km.points[1])
        return place_prototype(g, proto, robin_scan_center(solver))
    kind, arg = init if isinstance(init, tuple) and len(init) == 2 else (None, None)
    if kind == "random" and isinstance(arg, (int, np.integer)):
        # a pair closer than eps1 + eps2 + 4h is redrawn whole, positive first
        rng = np.random.default_rng(arg)
        clear1, clear2 = (max(6.0 * g.h, eps + 2.0 * g.h)
                          for eps in (spec.eps1, spec.eps2))
        gap = spec.eps1 + spec.eps2 + 4 * g.h
        for _ in range(DRAW_TRIES):
            c, _ = g.domain.draw_disk(rng, clear1, "random cores")
            if not proto.n_neg:
                return place_prototype(g, proto, c)
            d, _ = g.domain.draw_disk(rng, clear2, "random cores")
            if np.hypot(d[0] - c[0], d[1] - c[1]) >= gap:
                return place_prototype(g, proto, c, d)
        raise ValueError("could not place random cores inside the domain")
    if kind == "given" and isinstance(arg, ScalarField):
        if arg.grid is not g:
            raise ValueError("initial field lives on a different grid")
        if not _in_class(proto, arg):
            raise ValueError("initial field is not in the rearrangement class")
        return arg.copy()
    raise ValueError(f"unknown init {init!r}: use 'kr_seed', ('random', int seed) "
                     "or ('given', ScalarField)")


def maximize(solver: PoissonSolver, spec: RearrangementSpec, init="kr_seed",
             max_iter: int = 500, residual_tests: int = 12,
             residual_seed: int = 0) -> SteadyState:
    """Best-response ascent from a seeded placement to a fixed point.

    Stops when the assignment map reproduces the current field exactly;
    hitting max_iter (or entering a nontrivial cycle) returns a state
    flagged non-converged instead of raising.
    """
    _check_ascent(max_iter, residual_tests)
    proto = make_prototype(spec, solver.grid)
    zeta = _seed_field(solver, proto, init)
    log = []
    converged = False
    note = ""
    # iterates are keyed by a digest, not their bytes (3.5 MB each at n=384)
    seen: dict[bytes, int] = {}
    psi = solve_poisson(solver, zeta)
    for iterations in range(1, max_iter + 1):
        log.append(_energy(zeta, psi))
        nxt = best_response(proto, psi)
        if np.array_equal(nxt.values, zeta.values):
            converged = True
            break
        digest = hashlib.sha256(np.ascontiguousarray(nxt.values)).digest()
        if digest in seen:
            note = f"cycle of length {iterations - seen[digest]} detected"
            zeta = nxt
            psi = solve_poisson(solver, zeta)
            log.append(_energy(zeta, psi))
            break
        seen[digest] = iterations
        zeta = nxt
        psi = solve_poisson(solver, zeta)
    else:
        note = "non-converged"

    zp, zn = positive_part(zeta), negative_part(zeta)
    mu1 = float(psi.values[zeta.values > 0].min())
    mu2 = float(psi.values[zeta.values < 0].max()) if proto.n_neg else None
    res = (steadiness_residual(solver, zeta, psi, count=residual_tests,
                               seed=residual_seed)
           if residual_tests else math.nan)
    return SteadyState(
        zeta=zeta, psi=psi, spec=spec, prototype=proto,
        energy=log[-1], energy_log=np.array(log),
        mu1=mu1, mu2=mu2,
        center_pos=center_of_mass(zp),
        center_neg=center_of_mass(zn) if proto.n_neg else None,
        diam_pos=support_diameter(zp), diam_neg=support_diameter(zn),
        iterations=iterations, converged=converged,
        residual=res,
        monotone_violations=monotone_map_check(zeta, psi),
        note=note,
    )


def lagrange_multipliers(zeta: ScalarField, psi: ScalarField):
    """(mu1, mu2) = (min psi on the positive core, max psi on the negative)."""
    vp = zeta.values > 0
    vn = zeta.values < 0
    if not vp.any() or not vn.any():
        raise ValueError("empty core")
    return float(psi.values[vp].min()), float(psi.values[vn].max())


def monotone_map_check(zeta: ScalarField, psi: ScalarField) -> int:
    """Count cell pairs with psi_i > psi_j + 1e-10 but zeta_i < zeta_j - 1e-10.

    Zero means the field is a monotone function of its own stream
    function up to ties, the discrete sign of bathtub optimality.
    """
    tol = 1e-10
    levels, rank, counts = np.unique(zeta.values, return_inverse=True,
                                     return_counts=True)
    # psi per zeta level, each group sorted ascending
    s = psi.values[np.lexsort((psi.values, rank))]
    groups = np.split(s, np.cumsum(counts)[:-1])
    # ascending sweep over levels: `low` holds the sorted psi of every
    # level below levels[b] - tol, and cell j at level b pairs with each
    # entry above psi_j + tol
    low = np.zeros(0)
    merged = 0
    total = 0
    for b in range(levels.size):
        while levels[merged] < levels[b] - tol:
            g = groups[merged]
            low = np.insert(low, np.searchsorted(low, g), g)
            merged += 1
        above = low.size - np.searchsorted(low, groups[b] + tol, side="right")
        total += int(above.sum())
    return total


def bump_on_grid(grid: Grid, center, radius: float) -> np.ndarray:
    """Smooth compactly supported bump sampled on the grid.

    phi(x) = exp(1 - 1/(1 - s^2)) with s = |x - center|/radius, zero at
    s >= 1.
    """
    xy = grid.cells_xy
    dx = xy[:, 0] - center[0]
    dy = xy[:, 1] - center[1]
    s2 = (dx * dx + dy * dy) / (radius * radius)
    inside = s2 < 1.0
    phi = np.zeros(grid.ncells)
    phi[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return phi


def cone_test_function(grid: Grid, center, radius: float, cells=None):
    """Mollified cone: unit apex, radial ramp, C^1-smoothed ends.

    The radial slope is 0 at the apex and the rim, constant -m on the
    middle band, with linear transitions of relative width 0.25; m is
    set so the apex value is 1.  The gradient magnitude is exactly m/r
    on the plateau, so the normalization max|grad phi| is attained on a
    full annulus rather than a single ring.  Returns (phi, dphi_x,
    dphi_y) sampled on the grid, or only at the flat ids `cells` if
    given: a cell gets the same bits either way.
    """
    xy = grid.cells_xy if cells is None else grid.cells_xy[cells]
    dx = xy[:, 0] - center[0]
    dy = xy[:, 1] - center[1]
    dist = np.hypot(dx, dy)
    s = dist / radius
    a = 0.25
    m = 1.0 / (1.0 - a)
    # radial derivative q'(s) (nonpositive), then phi by exact integral
    slope = np.where(s < a, -m * s / a,
                     np.where(s <= 1.0 - a, -m,
                              np.where(s < 1.0, -m * (1.0 - s) / a, 0.0)))
    phi = np.where(
        s < a, m * (1.0 - 1.5 * a) + m * (a * a - s * s) / (2.0 * a),
        np.where(s <= 1.0 - a, m * (1.0 - 0.5 * a - s),
                 np.where(s < 1.0, m * (1.0 - s) ** 2 / (2.0 * a), 0.0)))
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(dist > 0, slope / (radius * dist), 0.0)
    return phi, coef * dx, coef * dy


def steadiness_residual(solver: PoissonSolver, zeta: ScalarField,
                        psi: ScalarField | None = None, count: int = 12,
                        seed: int = 0) -> float:
    """Weak-form transport residual against random mollified-cone tests.

    R(phi) = |sum zeta (v . grad phi) h^2| normalized by
    ||zeta||_1 * ||grad phi||_inf * ||v||_inf, maximized over `count`
    seeded bumps of radius 0.1 to 0.3 whose supports stay inside the
    domain.  Bumps whose support misses the vorticity contribute an exact
    zero and say nothing, so candidates are rejected until the bump disk
    overlaps the support of zeta.  Rejection happens in physical coordinates, so
    the accepted test functions match across grid refinements of the
    same state (up to O(h) wobble of the support outline).
    """
    if count < 1:
        raise ValueError("need at least one test function")
    g = solver.grid
    if psi is None:
        psi = solve_poisson(solver, zeta)
    v = velocity(solver, psi)
    vmax = float(v.magnitude().max())
    z1 = lp_norm(zeta, 1)
    if vmax == 0.0 or z1 == 0.0:
        return 0.0
    support_xy = g.cells_xy[zeta.values != 0.0]
    rng = np.random.default_rng(seed)

    def overlaps(c, r):
        return np.hypot(support_xy[:, 0] - c[0], support_xy[:, 1] - c[1]).min() < r

    worst = 0.0
    h2 = g.cell_area
    for _ in range(count):
        c, r = g.domain.draw_disk(rng, (0.1, 0.3), "test bumps", accept=overlaps)
        # the cone and its gradient vanish off its disk: read them only on
        # the disk's bounding square, where the max of |grad| is exact.  The
        # disk (r >= 0.1 > h) clears the boundary, so its square holds mask
        # cells with 0 < s < 1, where |grad| > 0
        cells = g.square_cells(c, r)
        phi, gx, gy = cone_test_function(g, c, r, cells=cells)
        gmax = float(np.hypot(gx, gy).max())
        # a full-length sum, zeros off the square: pairwise summation adds
        # the same operands in the same order as a cone read on every cell
        terms = np.zeros(g.ncells)
        terms[cells] = zeta.values[cells] * (v.u1[cells] * gx + v.u2[cells] * gy)
        resid = abs(float(terms.sum()) * h2)
        worst = max(worst, resid / (z1 * gmax * vmax))
    return worst
