import numpy as np
import pytest

import vortexpair as vp


@pytest.fixture(scope="session")
def disk64():
    grid = vp.build_grid(vp.DomainSpec.unit_disk(), 64)
    return vp.PoissonSolver(grid)


@pytest.fixture(scope="session")
def disk96():
    grid = vp.build_grid(vp.DomainSpec.unit_disk(), 96)
    return vp.PoissonSolver(grid)


@pytest.fixture(scope="session")
def rect48():
    grid = vp.build_grid(vp.DomainSpec.rectangle(1.2, 1.0), 48)
    return vp.PoissonSolver(grid)


@pytest.fixture(scope="session")
def pair_state_96(disk96):
    spec = vp.RearrangementSpec(eps1=0.12, eps2=0.12, kappa1=1.0,
                                kappa2=-1.0)
    return vp.maximize(disk96, spec, residual_tests=4)


# the disk, a rectangle and a pentagon: the domains whose n = 16 box
# grids the property tests of grid reads and Euler steps sweep
BOX_DOMAINS = (
    vp.DomainSpec.unit_disk(),
    vp.DomainSpec.rectangle(1.4, 1.0),
    vp.DomainSpec.polygon([(0, 0), (1.2, 0), (1.5, 0.8), (0.6, 1.3), (-0.2, 0.7)]),
)
BOX_GRIDS = [vp.build_grid(dom, 16) for dom in BOX_DOMAINS]


def centered_patch(grid, eps, kappa=1.0, center=(0.0, 0.0)):
    xy = grid.cells_xy
    r = np.hypot(xy[:, 0] - center[0], xy[:, 1] - center[1])
    vals = np.where(r < eps, kappa / (np.pi * eps * eps), 0.0)
    return vp.ScalarField(grid, vals)


class CountingLU:
    """Wraps a factor and keeps every solution it returns, times `scale`
    (an array scales the columns of a block)."""

    def __init__(self, lu, scale=1.0):
        self.lu, self.scale, self.outs = lu, scale, []

    def solve(self, b):
        y = self.scale * self.lu.solve(b)
        self.outs.append(y)
        return y


def counting_solver(grid, scale=1.0):
    """A solver on `grid` whose factor is wrapped in a CountingLU."""
    solver = vp.PoissonSolver(grid)
    lu = CountingLU(solver._factor(), scale)
    solver._lu = lu
    return solver, lu
