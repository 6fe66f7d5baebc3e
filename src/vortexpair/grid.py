"""Masked uniform Cartesian grids on bounded planar domains.

The discretization is deliberately plain: a domain is embedded in its
bounding box, the box is cut into square cells of width h = 1/n, and a
cell belongs to the computational domain iff its *center* lies strictly
inside.  There are no cut cells and no boundary fitting; every consumer
of these grids (Poisson solves, rearrangement bookkeeping, quadrature)
works on the same flat arrays in row-major (y, x) order, so cell k of
one field always refers to the same physical cell in another.

Boundary closure is by the neighbor table: a 4-neighbor that leaves the
mask reads -1, and operators decide what to do there (the Dirichlet
Laplacian reads zero ghost values, gradients fall back to one-sided
differences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DomainSpec", "Grid", "build_grid", "plane_grid", "measure"]

DRAW_TRIES = 10000  # rejection draws per random disk before giving up


@dataclass(frozen=True)
class DomainSpec:
    """Geometry of the flow domain.

    kind is one of "unit_disk", "rectangle", "polygon".  Rectangles sit
    at [0, width] x [0, height]; the unit disk is centered at the
    origin; polygons carry their vertex list in order (either
    orientation, no self-intersections).
    """

    kind: str
    width: float = 0.0
    height: float = 0.0
    vertices: tuple = ()

    @staticmethod
    def unit_disk() -> "DomainSpec":
        return DomainSpec(kind="unit_disk")

    @staticmethod
    def rectangle(width: float, height: float) -> "DomainSpec":
        if not (width > 0 and height > 0):
            raise ValueError("rectangle sides must be positive")
        return DomainSpec(kind="rectangle", width=float(width), height=float(height))

    @staticmethod
    def polygon(vertices) -> "DomainSpec":
        verts = tuple((float(x), float(y)) for x, y in vertices)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if _polygon_area(verts) == 0.0:
            raise ValueError("empty domain")
        if _polygon_self_intersects(verts):
            raise ValueError("polygon is self-intersecting")
        return DomainSpec(kind="polygon", vertices=verts)

    # -- geometric queries ------------------------------------------------

    def bounding_box(self):
        if self.kind == "unit_disk":
            return (-1.0, -1.0, 1.0, 1.0)
        if self.kind == "rectangle":
            return (0.0, 0.0, self.width, self.height)
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def contains(self, x, y):
        """Strict interior test; scalars or arrays, elementwise."""
        if self.kind == "unit_disk":
            return x * x + y * y < 1.0
        if self.kind == "rectangle":
            return (0.0 < x) & (x < self.width) & (0.0 < y) & (y < self.height)
        return _point_in_polygon(self.vertices, x, y)

    def boundary_distance(self, x, y):
        """Distance to the boundary; positive inside, negative outside.

        Scalars or arrays, elementwise.
        """
        if self.kind == "unit_disk":
            return 1.0 - np.hypot(x, y)
        if self.kind == "rectangle":
            return np.minimum(np.minimum(x, self.width - x),
                              np.minimum(y, self.height - y))
        d = _polygon_edge_distance(self.vertices, x, y)
        return np.where(self.contains(x, y), d, -d)[()]

    def draw_disk(self, rng, radius, what: str, accept=None):
        """First random (center, radius) clearing the boundary that `accept` admits.

        Each try draws r uniformly when `radius` is a (lo, hi) range, then
        the center uniformly on the bounding box, x before y.
        """
        xlo, ylo, xhi, yhi = self.bounding_box()
        for _ in range(DRAW_TRIES):
            r = rng.uniform(*radius) if np.ndim(radius) else radius
            c = (rng.uniform(xlo, xhi), rng.uniform(ylo, yhi))
            if self.boundary_distance(*c) >= r and (accept is None or accept(c, r)):
                return c, r
        raise ValueError(f"could not place {what} inside the domain")

    def centroid(self):
        if self.kind == "unit_disk":
            return (0.0, 0.0)
        if self.kind == "rectangle":
            return (0.5 * self.width, 0.5 * self.height)
        return _polygon_centroid(self.vertices)


def _polygon_area(verts) -> float:
    a = 0.0
    k = len(verts)
    for i in range(k):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % k]
        a += x0 * y1 - x1 * y0
    return 0.5 * a


def _polygon_centroid(verts):
    a = _polygon_area(verts)
    cx = cy = 0.0
    k = len(verts)
    for i in range(k):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % k]
        w = x0 * y1 - x1 * y0
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    return (cx / (6.0 * a), cy / (6.0 * a))


def _point_in_polygon(verts, x, y):
    # even-odd ray crossing; boundary points count as outside
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
    k = len(verts)
    for i in range(k):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % k]
        if y0 == y1:
            continue  # a horizontal edge never crosses the ray
        xc = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= ((y0 > y) != (y1 > y)) & (x < xc)
    return inside[()]


def _segments_cross(p, q, r, s) -> bool:
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    o1, o2 = orient(p, q, r), orient(p, q, s)
    o3, o4 = orient(r, s, p), orient(r, s, q)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _polygon_self_intersects(verts) -> bool:
    k = len(verts)
    edges = [(verts[i], verts[(i + 1) % k]) for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if j == i or (j + 1) % k == i or (i + 1) % k == j:
                continue  # adjacent edges share a vertex
            if _segments_cross(*edges[i], *edges[j]):
                return True
    return False


def _polygon_edge_distance(verts, x, y):
    best = np.inf
    k = len(verts)
    for i in range(k):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % k]
        dx, dy = x1 - x0, y1 - y0
        L2 = dx * dx + dy * dy
        t = 0.0 if L2 == 0 else np.clip(((x - x0) * dx + (y - y0) * dy) / L2, 0.0, 1.0)
        best = np.minimum(best, np.hypot(x - (x0 + t * dx), y - (y0 + t * dy)))
    return best


# width of a ring image's fill ring.  A base index clipped into
# [1 - RING, n + RING - 3] keeps the four cubic nodes (-1..2) inside the
# image, and a base that was clipped reads only the ring; 4 is the
# narrowest width for which both hold.
RING = 4


class Grid:
    """Flat view of the interior cells of a masked box grid.

    Attributes
    ----------
    domain : the DomainSpec, or None on a plane grid
    h : cell width
    nx, ny : bounding-box cell counts
    x0, y0 : lower-left corner of the box
    index : (ny, nx) int array, -1 outside, else flat cell id; a view
        into the ring image of the ids
    ring_stride : row length of a ring image, nx + 2 RING
    cells_xy : (ncells, 2) cell-center coordinates, row-major (y, x) order
    neighbors : (ncells, 4) flat ids of (left, right, down, up), -1 missing
    """

    def __init__(self, domain, h, x0, y0, nx, ny, mask, n=None):
        self.domain = domain
        self.h = float(h)
        self.n = n
        self.x0, self.y0 = float(x0), float(y0)
        self.nx, self.ny = int(nx), int(ny)
        self.ring_stride = self.nx + 2 * RING

        iy, ix = np.nonzero(mask)  # nonzero is row-major, so ids follow (y, x)
        self.ncells = int(iy.size)
        self.cell_ix = ix
        self.cell_iy = iy
        self._ids = self.ring_image(np.arange(self.ncells), -1)
        self.index = self._ids.reshape(-1, self.ring_stride)[RING:-RING, RING:-RING]
        cx = x0 + (ix + 0.5) * self.h
        cy = y0 + (iy + 0.5) * self.h
        self.cells_xy = np.column_stack([cx, cy])
        self.neighbors = self.compass(np.arange(self.ncells), 1)

    def compass(self, cells, step: int = 2) -> np.ndarray:
        """Flat ids `step` cells (left, right, down, up) of `cells`; -1 off the mask.

        Shape `cells.shape + (4,)`; `step` is at most RING.
        """
        cells = np.asarray(cells)
        base = self.ring_base(self.cell_ix[cells], self.cell_iy[cells])
        w = self.ring_stride
        return np.take(self._ids, base[..., None] + [-step, step, -step * w, step * w])

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    def locate(self, x, y):
        """Flat cell ids containing the given points; -1 when outside."""
        return self.read_at(self._ids, x, y)

    def read_at(self, img, x, y):
        """Ring image `img` at the cells containing the points; off the box, its fill."""
        ix = np.floor((np.asarray(x, dtype=float) - self.x0) / self.h).astype(np.int64)
        iy = np.floor((np.asarray(y, dtype=float) - self.y0) / self.h).astype(np.int64)
        return np.take(img, self.ring_base(ix, iy))

    def square_cells(self, center, half: float) -> np.ndarray:
        """Flat ids, ascending, of the cells whose centers lie within `half`
        of `center` along both axes, and of a one-cell rim around them."""
        c = np.asarray(center, dtype=float)
        origin = np.array([self.x0, self.y0])
        lo = (np.floor((c - half - origin) / self.h).astype(np.int64) - 1).clip(0)
        hi = (np.floor((c + half - origin) / self.h).astype(np.int64) + 2).clip(0)
        ids = self.index[lo[1]:hi[1], lo[0]:hi[0]].ravel()
        return ids[ids >= 0]

    def box_image(self, values):
        """Scatter a flat cell array onto the (ny, nx) bounding box, 0 outside."""
        img = np.zeros((self.ny, self.nx))
        img[self.cell_iy, self.cell_ix] = values
        return img

    def ring_image(self, values, fill=0.0):
        """Flat box image of a cell array: `fill` off the mask and in a ring RING cells wide."""
        img = np.full((self.ny + 2 * RING, self.ring_stride), fill,
                      dtype=np.result_type(values, fill))
        img[self.cell_iy + RING, self.cell_ix + RING] = values
        return img.ravel()

    def ring_base(self, ix, iy):
        """Ring-image index of box indices (ix, iy), clipped into [1 - RING, n + RING - 3].

        A clipped index was off the box and stays off it: the node there,
        and every node -1..2 cells from it along either axis, lies in the
        fill ring, so a read past the ring gives the fill.
        """
        ix = np.clip(ix, 1 - RING, self.nx + RING - 3)
        iy = np.clip(iy, 1 - RING, self.ny + RING - 3)
        return (iy + RING) * self.ring_stride + ix + RING

    def dilate(self, mask, r: int) -> np.ndarray:
        """Flat ids, ascending, of the cells at most `r` box cells from a true
        entry of the flat boolean `mask` along both axes (the max norm).

        Two separable window counts over the bounding box: a cumulative sum
        padded by r + 1 zeros before and r after, differenced 2r + 1 apart.
        """
        hit = self.box_image(mask) != 0
        w = 2 * r + 1
        for _ in range(2):  # along x, then along y through the transpose
            c = np.cumsum(np.pad(hit, ((0, 0), (r + 1, r))), axis=1)
            hit = (c[:, w:] > c[:, :-w]).T
        ids = self.index[hit]  # row-major, so ascending
        return ids[ids >= 0]


def build_grid(domain: DomainSpec, n: int) -> Grid:
    """Mask the bounding box of `domain` with n cells per unit length.

    A cell is interior iff its center is strictly inside the domain.
    Raises on n < 16 (the masking error at coarser resolution makes
    every downstream tolerance meaningless) and on an empty mask.
    """
    if n < 16:
        raise ValueError("grid too coarse: need n >= 16 cells per unit length")
    h = 1.0 / n
    xlo, ylo, xhi, yhi = domain.bounding_box()
    nx = int(math.ceil((xhi - xlo) * n - 1e-12))
    ny = int(math.ceil((yhi - ylo) * n - 1e-12))
    xs = xlo + (np.arange(nx) + 0.5) * h
    ys = ylo + (np.arange(ny) + 0.5) * h
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    mask = domain.contains(X, Y)
    if not mask.any():
        raise ValueError("empty domain")
    return Grid(domain, h, xlo, ylo, nx, ny, mask, n=n)


def plane_grid(spacing: float, half_cells: int) -> Grid:
    """Fully unmasked square grid centered at the origin.

    Used as the reference plane for symmetric-decreasing rearrangements
    and rescaled core profiles: 2*half_cells cells per side, no domain
    mask, cell layout symmetric under the reflections x -> -x, y -> -y.
    Its `domain` is None: the plane has no boundary to measure against.
    """
    if half_cells < 1:
        raise ValueError("plane grid needs at least one cell ring")
    m = int(half_cells)
    mask = np.ones((2 * m, 2 * m), dtype=bool)
    return Grid(None, spacing, -m * spacing, -m * spacing, 2 * m, 2 * m, mask)


def measure(grid: Grid, mask) -> float:
    """Lebesgue measure of the cells of a boolean mask over flat ids: count times h^2."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (grid.ncells,):
        raise ValueError("measure needs a boolean mask with one entry per cell")
    return int(mask.sum()) * grid.cell_area
