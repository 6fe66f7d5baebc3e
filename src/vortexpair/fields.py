"""Scalar/vector fields on masked grids and rearrangement primitives.

Fields are flat arrays over interior cells; all norms and integrals are
plain cell sums times h^2, so identities that hold for the discrete
objects (multiset preservation under rearrangement, exact level-set
measures) hold to roundoff, not just asymptotically.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .grid import Grid, plane_grid

__all__ = [
    "ScalarField", "VectorField", "positive_part", "negative_part",
    "lp_norm", "center_of_mass", "support_diameter",
    "symmetric_decreasing_rearrangement", "rescale_profile",
    "write_field_text", "read_field_text", "write_pgm", "write_json",
    "SuiteOutcome", "hardy_littlewood_suite", "riesz_suite",
]


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.ncells,):
            raise ValueError("field length does not match grid")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    grid: Grid
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        self.u1 = np.asarray(self.u1, dtype=float)
        self.u2 = np.asarray(self.u2, dtype=float)
        if self.u1.shape != (self.grid.ncells,) or self.u2.shape != (self.grid.ncells,):
            raise ValueError("component length does not match grid")

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.u1, self.u2)


def positive_part(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, np.maximum(f.values, 0.0))


def negative_part(f: ScalarField) -> ScalarField:
    """Nonnegative magnitude of the negative piece, f = f+ - f-."""
    return ScalarField(f.grid, np.maximum(-f.values, 0.0))


def lp_norm(f: ScalarField, p: float) -> float:
    if not p >= 1:
        raise ValueError("lp_norm needs p >= 1")
    if math.isinf(p):
        raise ValueError("lp_norm is for finite p; use abs().max() directly")
    return float((np.abs(f.values) ** p).sum() * f.grid.cell_area) ** (1.0 / p)


def center_of_mass(f: ScalarField):
    w = f.values
    if (w < 0).any():
        raise ValueError("center_of_mass expects a nonnegative field")
    total = w.sum()
    if total <= 0.0:
        raise ValueError("empty vorticity")
    xy = f.grid.cells_xy
    return np.array([(xy[:, 0] * w).sum() / total, (xy[:, 1] * w).sum() / total])


def support_diameter(f: ScalarField) -> float:
    """Max pairwise distance between cells where f is nonzero.

    Exact: the farthest pair are convex-hull vertices of the support,
    and every hull vertex lacks a 4-neighbour in the support, so only
    such edge cells are paired (O(perimeter^2) memory, not O(k^2)).
    """
    sel = np.abs(f.values) > 0.0
    nb = f.grid.neighbors[sel]
    edge = ((nb < 0) | ~sel[nb]).any(axis=1)
    pts = f.grid.cells_xy[sel][edge]
    if pts.shape[0] < 2:
        return 0.0
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.max()))


def _radial_order(grid: Grid) -> np.ndarray:
    r2 = (grid.cells_xy ** 2).sum(axis=1)
    return np.argsort(r2, kind="stable")  # ties fall back to cell order


def symmetric_decreasing_rearrangement(f: ScalarField, plane: Grid | None = None) -> ScalarField:
    """Rearrange the positive values of f radially around the origin.

    Values are sorted descending and assigned, largest first, to plane
    cells sorted by distance from the origin (ties broken by cell
    order).  The plane grid has the same spacing as f's grid, so every
    superlevel-set measure m({. > s}), s > 0, is preserved exactly at
    cell granularity.
    """
    vals = f.values
    if (vals < 0).any():
        raise ValueError("rearrangement expects a nonnegative field")
    pos = vals[vals > 0]
    npos = pos.size
    if plane is None:
        half = int(math.ceil(math.sqrt(npos / math.pi))) + 2 if npos else 2
        plane = plane_grid(f.grid.h, half)
    if abs(plane.h - f.grid.h) > 1e-12 * f.grid.h:
        raise ValueError("plane grid spacing must match the field grid")
    if plane.ncells < npos:
        raise ValueError("plane grid too small for the support")
    out = np.zeros(plane.ncells)
    if npos:
        order = _radial_order(plane)
        out[order[:npos]] = np.sort(pos)[::-1]
    return ScalarField(plane, out)


def rescale_profile(f: ScalarField, eps: float, center) -> ScalarField:
    """Zoom into a core: xi(x) = eps^2 * f(eps*x + center), nearest cell.

    The plane grid has spacing h/eps and covers the square of half-width
    2, i.e. cores of diameter up to 4*eps around `center`.  Points that
    land outside the mask read zero.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = f.grid
    hp = g.h / eps
    plane = plane_grid(hp, int(math.ceil(2.0 / hp)))
    px = plane.cells_xy[:, 0] * eps + center[0]
    py = plane.cells_xy[:, 1] * eps + center[1]
    return ScalarField(plane, g.read_at(g.ring_image(f.values), px, py) * eps * eps)


# -- plain-text and image dumps ------------------------------------------


def write_field_text(f: ScalarField, path, comments=()) -> None:
    """Dump a field as 'nx ny h' then nx*ny row-major values (0 outside).

    Optional comment lines (written with a leading '#') may precede the
    header; readers skip them.
    """
    g = f.grid
    box = g.box_image(f.values)
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(f"{g.nx} {g.ny} {float(g.h)!r}\n")
        for row in box:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_field_text(path):
    """Inverse of write_field_text; returns (nx, ny, h, box_array)."""
    with open(path) as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
        nx, ny, h = line.split()
        box = np.loadtxt(fh).reshape(int(ny), int(nx))
    return int(nx), int(ny), float(h), box


def write_pgm(f: ScalarField, path, extra=None) -> None:
    """8-bit binary PGM of the bounding box plus a min/max sidecar JSON.

    Grayscale is round(254 t) with maxval 254, t linear from 0 at the box
    minimum to 1 at the maximum (flat fields render mid-gray, 127).  With
    an odd number of levels, t = 0, 1/2 and 1 (the ends, and the zero
    exterior of a field with min = -max) sit on levels, not on rounding
    boundaries, so a last-bit change of either end leaves the bytes alone.
    Rows are flipped so +y points up in the image.  `extra` entries are
    merged into the sidecar.
    """
    g = f.grid
    box = g.box_image(f.values)
    vmin, vmax = float(box.min()), float(box.max())
    if vmax > vmin:
        pix = np.round((box - vmin) / (vmax - vmin) * 254.0).astype(np.uint8)
    else:
        pix = np.full(box.shape, 127, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{g.nx} {g.ny}\n254\n".encode())
        fh.write(pix[::-1].tobytes())
    side = {"min": vmin, "max": vmax, "width": g.nx, "height": g.ny,
            "h": g.h, "exterior": 0.0}
    if extra:
        side.update(extra)
    write_json(str(path) + ".json", side)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None  # strict JSON: no NaN
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def write_json(path, payload: dict) -> None:
    """Strict JSON (non-finite floats as null), sorted keys, indent 2, LF line ends."""
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- rearrangement inequality suites ---------------------------------------


@dataclass
class SuiteOutcome:
    name: str
    instances: int
    violations: int
    worst_excess: float  # most positive lhs - rhs seen (<= tol when clean)
    tol: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self):
        return asdict(self)


def _suite(name: str, instances: int, seed: int, half_cells: int, tol: float,
           draw, form) -> SuiteOutcome:
    """Count pairs (u, w) = draw(plane, rng) with form(u, w) > form(u*, w*) + tol,
    u* and w* rearranged on a plane grid 2 half_cells cells a side."""
    if instances < 1:  # zero instances would pass without testing anything
        raise ValueError(f"instances must be >= 1 (got {instances})")
    plane = plane_grid(1.0 / (2 * half_cells), half_cells)
    rng = np.random.default_rng(seed)
    worst = -math.inf
    bad = 0
    for _ in range(instances):
        u, w = draw(plane, rng)
        us, ws = (symmetric_decreasing_rearrangement(ScalarField(plane, f), plane).values
                  for f in (u, w))
        lhs, rhs = form(plane, u, w), form(plane, us, ws)
        worst = max(worst, lhs - rhs)
        if lhs > rhs + tol:
            bad += 1
    return SuiteOutcome(name, instances, bad, worst, tol)


def _hardy_littlewood_pair(plane: Grid, rng):
    """Uniform values, each field zeroed on a random share of the cells."""
    u, v = (rng.uniform(0.0, 1.0, plane.ncells) for _ in range(2))
    for f in (u, v):
        f[rng.uniform(size=plane.ncells) > rng.uniform(0.2, 0.9)] = 0.0
    return u, v


def hardy_littlewood_suite(instances: int = 100, seed: int = 0) -> SuiteOutcome:
    """Sum(u v) <= Sum(u* v*) over random nonnegative field pairs."""
    return _suite("hardy_littlewood", instances, seed, 12, 1e-10,
                  _hardy_littlewood_pair,
                  lambda plane, u, v: float((u * v).sum()) * plane.cell_area)


def _log_kernel_sum(plane: Grid, u: np.ndarray, w: np.ndarray) -> float:
    """Double sum u(x) k(x-y) w(y) h^4 with k = ln(1/max(|x-y|, h))."""
    iu = np.nonzero(u)[0]
    iw = np.nonzero(w)[0]
    if iu.size == 0 or iw.size == 0:
        return 0.0
    xy = plane.cells_xy
    dx = xy[iu, 0][:, None] - xy[iw, 0][None, :]
    dy = xy[iu, 1][:, None] - xy[iw, 1][None, :]
    k = -np.log(np.maximum(np.hypot(dx, dy), plane.h))
    return float(u[iu] @ k @ w[iw]) * plane.cell_area ** 2


def _riesz_pair(plane: Grid, rng):
    """Random values on two disks of radius 2 to 6 cells centered in the middle half."""
    xy = plane.cells_xy
    extent = -plane.x0  # half the plane's side
    uw = []
    for _ in range(2):
        c = rng.uniform(-0.5 * extent, 0.5 * extent, 2)
        r = rng.uniform(2.0, 6.0) * plane.h
        sel = np.hypot(xy[:, 0] - c[0], xy[:, 1] - c[1]) < r
        f = np.zeros(plane.ncells)
        f[sel] = rng.uniform(0.1, 1.0, int(sel.sum()))
        uw.append(f)
    return uw


def riesz_suite(instances: int = 100, seed: int = 0) -> SuiteOutcome:
    """Riesz with the cell-truncated log kernel, random small supports.

    The kernel goes negative past |z| = 1, but adding a constant shifts
    both sides by the same amount (rearrangement preserves the sums of u
    and w exactly), so only its decreasing shape matters.
    """
    return _suite("riesz", instances, seed, 16, 1e-8, _riesz_pair,
                  _log_kernel_sum)
