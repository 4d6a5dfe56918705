from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from modelsets import pfsolve, refine, scheme
from modelsets.cyclotomic import CycInt
from modelsets.polygeom import rasterize

EXAMPLE2_NU = 0.25 * np.array([
    [2, 0, 0, 2],
    [1, 1, 1, 1],
    [1, 1, 1, 1],
    [2, 0, 0, 2],
], dtype=float)

TAU = (1 + np.sqrt(5)) / 2


class OracleCycInt(CycInt):
    """A CycInt with the ring operations as scalar loops over coefficients: the
    oracle for the program's matrix form of the product, and the arithmetic of
    the scalar closure and enumeration oracles.  The other operand of +, - and
    * may be any CycInt."""

    __slots__ = ()

    def __add__(self, other):
        return OracleCycInt(*(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return OracleCycInt(*(-a for a in self.coeffs))

    def __sub__(self, other):
        return OracleCycInt(*(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        c = [0] * 7
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                c[i + j] += a * b
        # xi^5 = 1, xi^6 = xi, then xi^4 = -(1 + xi + xi^2 + xi^3)
        c[0] += c[5]
        c[1] += c[6]
        return OracleCycInt(c[0] - c[4], c[1] - c[4], c[2] - c[4], c[3] - c[4])

    def __pow__(self, n):
        out = OracleCycInt(1)
        for _ in range(n):
            out = out * self
        return out

    def oracle_matrix(self):
        """The multiplication matrix as columns self * (unit vector), each one
        range-checked as it is formed."""
        cols = [(self * OracleCycInt(*unit)).coeffs for unit in np.eye(4, dtype=np.int64)]
        return np.array(cols, dtype=np.int64).T


def oracle(z):
    """z as an OracleCycInt, from a CycInt or a coefficient sequence."""
    return OracleCycInt(*getattr(z, "coeffs", z))


@pytest.fixture(scope="session")
def spec():
    return scheme.penrose_scheme()


@pytest.fixture(scope="session")
def transitions(spec):
    return scheme.transition_windows(spec)


@pytest.fixture(scope="session")
def nu_area(spec, transitions):
    return scheme.build_nu(spec, transitions)


@pytest.fixture(scope="session")
def nu_explicit(spec, transitions):
    return scheme.build_nu(spec, transitions, matrix=EXAMPLE2_NU)


@pytest.fixture(scope="session")
def pf_area(nu_area):
    return pfsolve.pf_eigen(nu_area)


@pytest.fixture(scope="session")
def pf_explicit(nu_explicit):
    return pfsolve.pf_eigen(nu_explicit)


def coverage(P, grid):
    """rasterize's coverage of P placed on the whole grid, which must hold P's box."""
    cov, (row, col) = rasterize(P, grid)
    assert 0 <= row <= grid.ny - len(cov) and 0 <= col <= grid.nx - cov.shape[1]
    out = np.zeros((grid.ny, grid.nx))
    out[row:row + len(cov), col:col + cov.shape[1]] = cov
    return out


def pack(kernel, values):
    """A packed density of the kernel: the inverse of kernel.unpack on the cells
    of its carried channels, in their output boxes, which end at the centre row
    under the row mirror."""
    boxes = [kernel.outputs[j][0] for j, _ in kernel.channels]
    return np.concatenate([values[j][box][kernel.masks[j][box]]
                           for (j, _), box in zip(kernel.channels, boxes)])


def step(f, kernel, conserve_mass=True):
    """refine.apply_refinement on a DensityGrid: its values packed over the kernel's
    masks, stepped and unpacked; with `conserve_mass`, the output is projected as
    the solve projects it, clamped at zero and rescaled to the masses nu m."""
    x = pack(kernel, f.values)
    out = refine.apply_refinement(x, kernel, refine._step_buffers(kernel))
    if conserve_mass:
        refine._rescale(out, kernel, kernel.problem.nu @ kernel.masses(x))
    return kernel.unpack(out)


def no_point_reflection():
    """The point-reflection decision patched off, so that a kernel built under
    it carries every channel with w_j > 0."""
    return mock.patch.object(refine, "point_symmetric", lambda problem: False)


@contextmanager
def general_path():
    """Both quotient decisions patched off: a kernel built under them carries
    every channel with w_j > 0 and steps every row of it."""
    with no_point_reflection(), mock.patch.object(refine, "mirror_symmetric",
                                                  lambda problem: False):
        yield


def scheme_problem(spec, transitions, nu):
    """The refinement problem of a scheme, for the Perron vector of nu."""
    windows = [spec.shifted_window(i) for i in range(1, spec.r + 1)]
    return refine.Problem(windows, transitions, nu, pfsolve.pf_eigen(nu).w, spec.a_matrix(),
                          spec.detq_abs)


@pytest.fixture(scope="session")
def problem_area(spec, transitions, nu_area):
    return scheme_problem(spec, transitions, nu_area)


@pytest.fixture(scope="session")
def problem_explicit(spec, transitions, nu_explicit):
    return scheme_problem(spec, transitions, nu_explicit)


@pytest.fixture(scope="session")
def solve1_128(problem_area):
    return refine.solve_fixed_point(refine.build_kernel(problem_area, 1.0 / 128))


@pytest.fixture(scope="session")
def solve2_128(problem_explicit):
    return refine.solve_fixed_point(refine.build_kernel(problem_explicit, 1.0 / 128))


@pytest.fixture(scope="session")
def points40(spec):
    return scheme.generate_all(spec, 40.0)


@pytest.fixture(scope="session")
def tsets40(spec, transitions):
    return scheme.translation_sets(spec, transitions, 40.0)
