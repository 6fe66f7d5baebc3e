import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vortexpair as vp
from conftest import centered_patch


@pytest.fixture(scope="module")
def disk32():
    return vp.build_grid(vp.DomainSpec.unit_disk(), 32)


def test_lp_norm_uniform_patch(disk32):
    f = centered_patch(disk32, 0.4, kappa=1.0)
    lam = 1.0 / (np.pi * 0.4 ** 2)
    m = np.count_nonzero(f.values) * disk32.h ** 2
    for p in (1.0, 2.0, 3.5):
        expect = lam * m ** (1.0 / p)
        assert vp.lp_norm(f, p) == pytest.approx(expect, rel=1e-12)


def test_lp_norm_rejects_bad_exponent(disk32):
    f = centered_patch(disk32, 0.4)
    with pytest.raises(ValueError):
        vp.lp_norm(f, 0.5)


def test_signed_parts_reconstruct(disk32):
    rng = np.random.default_rng(3)
    f = vp.ScalarField(disk32, rng.normal(size=disk32.cells_xy.shape[0]))
    pos = vp.positive_part(f)
    neg = vp.negative_part(f)
    assert np.all(pos.values >= 0.0)
    assert np.all(neg.values >= 0.0)
    assert np.allclose(pos.values - neg.values, f.values)


def test_center_of_mass_symmetric_patch(disk32):
    f = centered_patch(disk32, 0.3, center=(0.2, -0.1))
    c = vp.center_of_mass(f)
    assert abs(c[0] - 0.2) <= disk32.h
    assert abs(c[1] + 0.1) <= disk32.h


def test_center_of_mass_requires_signed_mass(disk32):
    f = vp.ScalarField(disk32, np.zeros(disk32.cells_xy.shape[0]))
    with pytest.raises(ValueError):
        vp.center_of_mass(f)


def test_support_diameter_two_cells(disk32):
    vals = np.zeros(disk32.cells_xy.shape[0])
    a = int(disk32.locate(0.0, 0.0))
    b = int(disk32.locate(0.5, 0.0))
    vals[a] = 1.0
    vals[b] = 2.0
    f = vp.ScalarField(disk32, vals)
    d = np.linalg.norm(disk32.cells_xy[a] - disk32.cells_xy[b])
    assert vp.support_diameter(f) == pytest.approx(d)
    vals[b] = 0.0
    assert vp.support_diameter(vp.ScalarField(disk32, vals)) == 0.0


def _diameter_all_pairs(f):
    """Reference: the O(k^2) sweep over every support cell."""
    pts = f.grid.cells_xy[f.values != 0.0]
    if pts.shape[0] < 2:
        return 0.0
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.max()))


_DIAMETER_GRIDS = [vp.build_grid(vp.DomainSpec.unit_disk(), 24),
                   vp.build_grid(vp.DomainSpec.rectangle(1.3, 0.7), 20),
                   vp.plane_grid(0.1, 9), vp.plane_grid(1.0 / 7, 5)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_DIAMETER_GRIDS), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.floats(0.0, 0.99))
def test_support_diameter_matches_all_pairs(grid, seed, blobs, level):
    rng = np.random.default_rng(seed)
    if blobs:  # a few signed bumps: connected, possibly non-convex supports
        xy = grid.cells_xy
        vals = np.zeros(grid.ncells)
        for _ in range(rng.integers(1, 4)):
            c = rng.uniform(xy.min(axis=0), xy.max(axis=0))
            r = rng.uniform(0.05, 0.5)
            vals += rng.choice([-1.0, 1.0]) * np.exp(
                -((xy - c) ** 2).sum(axis=1) / (r * r))
    else:  # scattered cells
        vals = rng.uniform(-1.0, 1.0, grid.ncells)
    threshold = level * np.abs(vals).max()
    vals[np.abs(vals) <= threshold] = 0.0  # the support is where f is nonzero
    f = vp.ScalarField(grid, vals)
    assert vp.support_diameter(f) == _diameter_all_pairs(f)


def test_rearrangement_preserves_multiset(disk32):
    rng = np.random.default_rng(11)
    vals = rng.uniform(0.0, 2.0, size=disk32.cells_xy.shape[0])
    vals[vals < 1.2] = 0.0
    f = vp.ScalarField(disk32, vals)
    g = vp.symmetric_decreasing_rearrangement(f)
    assert np.allclose(np.sort(g.values[g.values > 0]),
                       np.sort(vals[vals > 0]))
    # norms of every order survive a rearrangement
    for p in (1.0, 2.0, 2.7):
        got = vp.lp_norm(g, p) * g.grid.h ** 0  # plane spacing may differ
        ref = (np.sum(vals ** p) * disk32.h ** 2) ** (1.0 / p)
        have = (np.sum(g.values ** p) * g.grid.h ** 2) ** (1.0 / p)
        assert have == pytest.approx(ref, rel=1e-12)
        assert got == pytest.approx(have, rel=1e-12)


def test_rearrangement_radially_monotone(disk32):
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.0, 1.0, size=disk32.cells_xy.shape[0])
    vals[rng.uniform(size=vals.shape) < 0.7] = 0.0
    g = vp.symmetric_decreasing_rearrangement(vp.ScalarField(disk32, vals))
    r = np.hypot(g.grid.cells_xy[:, 0], g.grid.cells_xy[:, 1])
    order = np.argsort(r, kind="stable")
    v = g.values[order]
    # nonincreasing along the radial order, up to exact ties at equal radius
    ru = np.round(r[order], 12)
    for k in range(1, len(v)):
        if ru[k] > ru[k - 1]:
            assert v[k] <= v[k - 1] + 1e-12


def test_rearrangement_rejects_negative(disk32):
    f = vp.ScalarField(disk32, np.full(disk32.cells_xy.shape[0], -1.0))
    with pytest.raises(ValueError):
        vp.symmetric_decreasing_rearrangement(f)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
                max_size=60))
def test_rearrangement_idempotent_property(vals):
    g = vp.plane_grid(0.125, 8)
    arr = np.zeros(g.cells_xy.shape[0])
    arr[: len(vals)] = vals
    f = vp.ScalarField(g, arr)
    once = vp.symmetric_decreasing_rearrangement(f, plane=g)
    twice = vp.symmetric_decreasing_rearrangement(once, plane=g)
    assert np.allclose(once.values, twice.values)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_hardy_littlewood_pair_property(seed):
    rng = np.random.default_rng(seed)
    g = vp.plane_grid(0.1, 6)
    m = g.cells_xy.shape[0]
    u = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.5)
    v = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.5)
    us = vp.symmetric_decreasing_rearrangement(vp.ScalarField(g, u), plane=g)
    vs = vp.symmetric_decreasing_rearrangement(vp.ScalarField(g, v), plane=g)
    lhs = float(np.sum(u * v))
    rhs = float(np.sum(us.values * vs.values))
    assert lhs <= rhs + 1e-10


def test_hardy_littlewood_suite_clean():
    out = vp.hardy_littlewood_suite(instances=30, seed=2)
    assert out.passed
    assert out.instances == 30
    assert out.violations == 0


def test_riesz_suite_clean():
    out = vp.riesz_suite(instances=15, seed=2)
    assert out.passed
    assert out.violations == 0
    d = out.to_dict()
    assert set(d) >= {"name", "instances", "violations", "worst_excess"}


def test_rescale_profile_patch(disk32):
    f = centered_patch(disk32, 0.25, kappa=1.0, center=(0.3, 0.1))
    xi = vp.rescale_profile(f, 0.25, (0.3, 0.1))
    r = np.hypot(xi.grid.cells_xy[:, 0], xi.grid.cells_xy[:, 1])
    inner = r < 1.0 - 3.0 * disk32.h / 0.25
    assert np.allclose(xi.values[inner], 1.0 / np.pi, rtol=1e-9)
    mass = np.sum(xi.values) * xi.grid.h ** 2
    assert mass == pytest.approx(1.0, rel=0.05)


def test_field_text_roundtrip(tmp_path, disk32):
    rng = np.random.default_rng(8)
    f = vp.ScalarField(disk32, rng.normal(size=disk32.cells_xy.shape[0]))
    path = tmp_path / "f.txt"
    vp.write_field_text(f, path, comments=("alpha=1", "run 3"))
    nx, ny, h, box = vp.read_field_text(path)
    assert (nx, ny) == (disk32.nx, disk32.ny)
    assert h == disk32.h
    assert np.array_equal(box, disk32.box_image(f.values))
    text = path.read_text()
    assert text.startswith("#")
    assert "alpha=1" in text


def test_pgm_output(tmp_path, disk32):
    f = centered_patch(disk32, 0.4)
    path = tmp_path / "f.pgm"
    vp.write_pgm(f, path, extra={"note": "patch"})
    raw = path.read_bytes()
    assert raw.startswith(b"P5")
    side = json.loads((tmp_path / "f.pgm.json").read_text())
    assert side["note"] == "patch"
    assert side["max"] >= side["min"]


def test_pgm_sidecar_is_strict_json(tmp_path, disk32):
    vp.write_pgm(centered_patch(disk32, 0.4), tmp_path / "f.pgm",
                 extra={"residual": float("nan"), "n": np.int64(32)})
    raw = (tmp_path / "f.pgm.json").read_bytes()
    assert raw.endswith(b"}\n") and b"\r" not in raw
    side = json.loads(raw, parse_constant=lambda c: pytest.fail(f"non-strict {c}"))
    assert side["residual"] is None and side["n"] == 32


def test_pgm_antisymmetric_bytes_survive_last_bit_moves(tmp_path, disk32):
    # an odd field: min = -max, so the zero exterior sits at t = 1/2
    x, y = disk32.cells_xy[:, 0], disk32.cells_xy[:, 1]
    vals = np.sin(3.0 * x) * np.cos(2.0 * y)
    assert vals.min() == -vals.max()

    def pgm(v, name):
        vp.write_pgm(vp.ScalarField(disk32, v), tmp_path / name)
        return (tmp_path / name).read_bytes()

    base = pgm(vals, "base.pgm")
    for cell in (int(vals.argmin()), int(vals.argmax())):
        for target in (-np.inf, np.inf):
            moved = vals.copy()
            for ulps in range(1, 5):
                moved[cell] = np.nextafter(moved[cell], target)
                assert pgm(moved, "moved.pgm") == base, (cell, target, ulps)


@pytest.mark.parametrize("suite", [vp.hardy_littlewood_suite, vp.riesz_suite])
@pytest.mark.parametrize("instances", [0, -3])
def test_suites_reject_no_instances(suite, instances):
    # zero instances would report a pass without testing anything
    with pytest.raises(ValueError, match="instances must be >= 1"):
        suite(instances=instances, seed=0)
