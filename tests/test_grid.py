import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vortexpair as vp
from conftest import BOX_DOMAINS, BOX_GRIDS


def test_disk_grid_basic_geometry():
    g = vp.build_grid(vp.DomainSpec.unit_disk(), 32)
    assert g.h == pytest.approx(1.0 / 32)
    # every stored cell center lies strictly inside the disk
    r = np.hypot(g.cells_xy[:, 0], g.cells_xy[:, 1])
    assert np.all(r < 1.0)
    # cell count approximates the disk area
    assert vp.measure(g, np.ones(g.ncells, dtype=bool)) == pytest.approx(np.pi, rel=0.02)


def test_rectangle_grid_cell_count():
    g = vp.build_grid(vp.DomainSpec.rectangle(1.0, 0.5), 32)
    # interior cell centers tile the rectangle exactly
    assert vp.measure(g, np.ones(g.ncells, dtype=bool)) == pytest.approx(0.5, rel=0.05)
    assert np.all(g.cells_xy[:, 0] > 0.0) or np.all(g.cells_xy[:, 0] < 1.0)


def test_grid_rejects_coarse_resolution():
    with pytest.raises(ValueError):
        vp.build_grid(vp.DomainSpec.unit_disk(), 8)


def test_grid_rejects_empty_interior():
    # sliver thinner than one cell has no interior centers
    with pytest.raises(ValueError):
        vp.build_grid(vp.DomainSpec.rectangle(0.02, 1.0), 16)


def test_polygon_validation():
    with pytest.raises(ValueError):
        vp.DomainSpec.polygon([(0, 0), (1, 0)])
    # collinear vertices enclose zero area
    with pytest.raises(ValueError):
        vp.DomainSpec.polygon([(0, 0), (1, 1), (2, 2)])


def test_polygon_grid_triangle():
    dom = vp.DomainSpec.polygon([(0, 0), (1, 0), (0.5, 1.0)])
    g = vp.build_grid(dom, 32)
    assert vp.measure(g, np.ones(g.ncells, dtype=bool)) == pytest.approx(0.5, rel=0.1)
    inside = dom.contains(g.cells_xy[:, 0], g.cells_xy[:, 1])
    assert np.all(inside)


def test_locate_roundtrip():
    g = vp.build_grid(vp.DomainSpec.unit_disk(), 24)
    ids = g.locate(g.cells_xy[:, 0], g.cells_xy[:, 1])
    assert np.array_equal(ids, np.arange(g.cells_xy.shape[0]))


def test_locate_outside_returns_sentinel():
    g = vp.build_grid(vp.DomainSpec.unit_disk(), 24)
    # outside the box, and inside the box but off the mask
    ids = g.locate(np.array([2.0, 0.0, -0.98]), np.array([0.0, -3.0, -0.98]))
    assert np.all(ids == -1)


def test_neighbors_structure():
    g = vp.build_grid(vp.DomainSpec.rectangle(1.0, 1.0), 24)
    nb = g.neighbors
    m = g.cells_xy.shape[0]
    assert nb.shape == (m, 4)
    # a neighbor id, where present, points to a cell one spacing away
    for k in range(4):
        has = nb[:, k] >= 0
        d = np.linalg.norm(g.cells_xy[nb[has, k]] - g.cells_xy[has], axis=1)
        assert np.allclose(d, g.h, rtol=1e-12)


def test_interior_cell_has_full_stencil():
    g = vp.build_grid(vp.DomainSpec.unit_disk(), 32)
    c = int(g.locate(0.0, 0.0))
    assert c >= 0
    assert np.all(g.neighbors[c] >= 0)


def test_boundary_clearance_bounds():
    dom = vp.DomainSpec.unit_disk()
    g = vp.build_grid(dom, 48)
    for x, y in g.cells_xy[:: max(1, g.cells_xy.shape[0] // 40)]:
        clr = dom.boundary_distance(x, y)
        true = 1.0 - np.hypot(x, y)
        assert clr > 0.0
        assert clr <= true + 1e-12


def test_plane_grid_symmetry_and_area():
    g = vp.plane_grid(0.05, 10)
    assert g.cells_xy.shape[0] == 400
    assert vp.measure(g, np.ones(g.ncells, dtype=bool)) == pytest.approx(1.0, rel=1e-12)
    # centers come in +/- pairs
    s = {(round(x, 12), round(y, 12)) for x, y in g.cells_xy}
    assert all((-x, -y) in s for x, y in s)


def test_measure_takes_a_mask_and_plane_grids_have_no_domain():
    g = vp.plane_grid(0.05, 10)
    assert g.domain is None
    half = np.arange(g.ncells) < 200
    assert vp.measure(g, half) == pytest.approx(0.5, rel=1e-12)
    for cells in (np.arange(200), half[:-1], half.astype(float)):
        with pytest.raises(ValueError, match="boolean mask"):
            vp.measure(g, cells)


def test_box_image_shape():
    g = vp.build_grid(vp.DomainSpec.unit_disk(), 24)
    f = vp.ScalarField(g, np.arange(g.cells_xy.shape[0], dtype=float))
    img = g.box_image(f.values)
    assert img.shape == (g.ny, g.nx)
    # values recoverable at the index positions
    ok = g.index >= 0
    assert np.array_equal(img[ok], f.values[g.index[ok]])


# -- array geometry against the per-point reference ----------------------------

def _ref_contains(dom, x, y):
    if dom.kind == "unit_disk":
        return x * x + y * y < 1.0
    if dom.kind == "rectangle":
        return 0.0 < x < dom.width and 0.0 < y < dom.height
    inside = False
    k = len(dom.vertices)
    for i in range(k):
        x0, y0 = dom.vertices[i]
        x1, y1 = dom.vertices[(i + 1) % k]
        if (y0 > y) != (y1 > y):
            xc = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if x < xc:
                inside = not inside
    return inside


def _ref_distance(dom, x, y):
    """(distance, tolerance) by the scalar formulas, one point.

    math.hypot and np.hypot may differ in the last bit, so the tolerance
    is one ulp of the hypot term (or of 1 - r, whose rounding can follow).
    """
    if dom.kind == "unit_disk":
        r = math.hypot(x, y)
        return 1.0 - r, float(np.spacing(max(r, abs(1.0 - r))))
    if dom.kind == "rectangle":
        return min(x, dom.width - x, y, dom.height - y), 0.0
    best = math.inf
    k = len(dom.vertices)
    for i in range(k):
        x0, y0 = dom.vertices[i]
        x1, y1 = dom.vertices[(i + 1) % k]
        dx, dy = x1 - x0, y1 - y0
        L2 = dx * dx + dy * dy
        t = 0.0 if L2 == 0 else max(0.0, min(1.0, ((x - x0) * dx + (y - y0) * dy) / L2))
        best = min(best, math.hypot(x - (x0 + t * dx), y - (y0 + t * dy)))
    return (best if _ref_contains(dom, x, y) else -best), float(np.spacing(best))


_DOMAINS = [
    *BOX_DOMAINS,
    vp.DomainSpec.polygon([(0, 0), (1, 0), (0.5, 1.0)]),
    # non-convex, with a horizontal edge
    vp.DomainSpec.polygon([(0, 0), (2, 0), (2, 1), (1, 0.4), (0, 1)]),
]


def _edge_points(dom):
    if dom.kind == "unit_disk":
        return [(math.cos(t), math.sin(t)) for t in np.linspace(0, 2 * math.pi, 9)]
    if dom.kind == "rectangle":
        w, h = dom.width, dom.height
        return [(0.0, 0.5 * h), (w, 0.3 * h), (0.2 * w, 0.0), (0.7 * w, h),
                (0.0, 0.0), (w, h)]
    verts = dom.vertices
    pts = list(verts)
    for i, (x0, y0) in enumerate(verts):
        x1, y1 = verts[(i + 1) % len(verts)]
        pts += [(x0 + t * (x1 - x0), y0 + t * (y1 - y0)) for t in (0.25, 0.5)]
    return pts


_coord = st.floats(-1.6, 2.2, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(_DOMAINS))),
       st.lists(st.tuples(_coord, _coord), min_size=1, max_size=30),
       st.integers(0, 10))
def test_array_geometry_matches_per_point_reference(which, free, edge_count):
    dom = _DOMAINS[which]
    pts = free + _edge_points(dom)[:edge_count]
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    inside = dom.contains(x, y)
    dist = dom.boundary_distance(x, y)
    assert inside.shape == dist.shape == x.shape
    for i, (px, py) in enumerate(zip(x.tolist(), y.tolist())):
        assert bool(inside[i]) == _ref_contains(dom, px, py)
        assert bool(dom.contains(px, py)) == _ref_contains(dom, px, py)
        ref, tol = _ref_distance(dom, px, py)
        assert abs(dist[i] - ref) <= tol
        assert dom.boundary_distance(px, py) == dist[i]
    # a 2-d query keeps its shape and agrees with the flat one
    assert np.array_equal(dom.contains(x[:, None], y[:, None])[:, 0], inside)


# -- fill-ringed box reads and random-disk draw ----------------------------

@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(BOX_GRIDS))), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, -1.0, 2.5]))
def test_ring_read_matches_fill_padded_copy(which, seed, fill):
    g = BOX_GRIDS[which]
    rng = np.random.default_rng(seed)
    values = rng.normal(size=g.ncells)
    pad = np.full((g.ny + 28, g.nx + 28), fill)
    pad[g.cell_iy + 14, g.cell_ix + 14] = values
    # indices up to 12 cells outside the box on every side, past the ring
    ix = rng.integers(-12, g.nx + 12, size=(7, 5))
    iy = rng.integers(-12, g.ny + 12, size=(7, 5))
    ix[0, :4] = (-12, -1, g.nx - 1, g.nx + 11)
    iy[0, :4] = (g.ny + 11, 0, -1, g.ny - 1)
    img = g.ring_image(values, fill)
    base = g.ring_base(ix, iy)
    assert base.shape == ix.shape
    # every node of a cubic stencil reads what the padded copy holds there
    for di in (-1, 0, 1, 2):
        for dj in (-1, 0, 1, 2):
            out = np.take(img, base + dj * g.ring_stride + di)
            assert np.array_equal(out, pad[iy + dj + 14, ix + di + 14])


def _masked_read(g, ix, iy):
    """g.index at box indices (ix, iy), -1 outside the box: the masked reference."""
    ok = (ix >= 0) & (ix < g.nx) & (iy >= 0) & (iy < g.ny)
    return np.where(ok, g.index[iy.clip(0, g.ny - 1), ix.clip(0, g.nx - 1)], -1)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(range(len(BOX_GRIDS))), st.integers(0, 2**32 - 1))
def test_compass_and_locate_match_masked_reference(which, seed):
    g = BOX_GRIDS[which]
    rng = np.random.default_rng(seed)
    cells = np.arange(g.ncells)
    for step in (1, 2):
        ref = np.stack([_masked_read(g, g.cell_ix + step * dx, g.cell_iy + step * dy)
                        for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1))], axis=-1)
        assert np.array_equal(g.compass(cells, step), ref)
        assert step == 2 or np.array_equal(g.neighbors, ref)
        # a 2-d cell array keeps its shape
        some = rng.integers(0, g.ncells, size=(6, 7))
        assert np.array_equal(g.compass(some, step), ref[some])
    # points up to 50 cells outside the box, and every cell center
    x = rng.uniform(g.x0 - 50 * g.h, g.x0 + (g.nx + 50) * g.h, 2000)
    y = rng.uniform(g.y0 - 50 * g.h, g.y0 + (g.ny + 50) * g.h, 2000)
    x, y = np.r_[x, g.cells_xy[:, 0]], np.r_[y, g.cells_xy[:, 1]]
    jx = np.floor((x - g.x0) / g.h).astype(np.int64)
    jy = np.floor((y - g.y0) / g.h).astype(np.int64)
    assert np.array_equal(g.locate(x, y), _masked_read(g, jx, jy))
    # the index is a view of the ids' ring image, not a second copy
    assert np.shares_memory(g.index, g._ids)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(range(len(BOX_GRIDS))), st.integers(0, 2**32 - 1),
       st.integers(0, 8), st.sampled_from([0.0, 0.002, 0.02, 0.2]))
def test_dilate_matches_max_norm_distance(which, seed, r, density):
    g = BOX_GRIDS[which]
    rng = np.random.default_rng(seed)
    mask = rng.random(g.ncells) < density  # density 0: an empty mask
    got = g.dilate(mask, r)
    # brute force over box indices: every cell against every masked cell
    ix, iy = g.cell_ix, g.cell_iy
    dist = np.maximum(np.abs(ix[:, None] - ix[mask]), np.abs(iy[:, None] - iy[mask]))
    assert np.array_equal(got, np.flatnonzero((dist <= r).any(axis=1)))
    assert np.all(np.diff(got) > 0)


def _old_draw(dom, rng, radius, admit, tries):
    """The inline rejection loop the samplers used before draw_disk."""
    xlo, ylo, xhi, yhi = dom.bounding_box()
    for _ in range(tries):
        r = rng.uniform(*radius) if isinstance(radius, tuple) else radius
        c = (rng.uniform(xlo, xhi), rng.uniform(ylo, yhi))
        if dom.boundary_distance(*c) < r:
            continue
        if admit is not None and not admit(c, r):
            continue
        return c, r
    return None


@pytest.mark.parametrize("which", range(3))
@pytest.mark.parametrize("radius", [0.2, (0.08, 0.2), (0.1, 0.3)])
@pytest.mark.parametrize("with_accept", [False, True])
def test_draw_disk_reproduces_inline_loops(which, radius, with_accept):
    dom = _DOMAINS[which]
    cx, cy = dom.centroid()
    near = None
    if with_accept:
        def near(c, r):
            return math.hypot(c[0] - cx, c[1] - cy) < r + 0.25
    old_rng, new_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(8):
        expect = _old_draw(dom, old_rng, radius, near, vp.grid.DRAW_TRIES)
        got = dom.draw_disk(new_rng, radius, "test disks", accept=near)
        assert got == expect
        c, r = got
        assert dom.boundary_distance(*c) >= r
    # both streams stand at the same place afterwards
    assert old_rng.uniform() == new_rng.uniform()


def test_draw_disk_raises_with_what():
    strip = vp.DomainSpec.rectangle(2.0, 0.5)
    with pytest.raises(ValueError,
                       match="could not place wide disks inside the domain"):
        strip.draw_disk(np.random.default_rng(0), 0.3, "wide disks")
    with pytest.raises(ValueError, match="could not place picky disks"):
        strip.draw_disk(np.random.default_rng(0), (0.05, 0.1), "picky disks",
                        accept=lambda c, r: False)
