from unittest import mock

import numpy as np
import pytest

from modelsets import pfsolve, refine, scheme

EXAMPLE2_NU = 0.25 * np.array([
    [2, 0, 0, 2],
    [1, 1, 1, 1],
    [1, 1, 1, 1],
    [2, 0, 0, 2],
], dtype=float)

TAU = (1 + np.sqrt(5)) / 2


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
    return scheme.build_nu(spec, transitions, policy="explicit", matrix=EXAMPLE2_NU)


@pytest.fixture(scope="session")
def pf_area(nu_area):
    return pfsolve.pf_eigen(nu_area)


@pytest.fixture(scope="session")
def pf_explicit(nu_explicit):
    return pfsolve.pf_eigen(nu_explicit)


def general_path():
    """The point-reflection decision patched off, so that a kernel built under
    it carries every channel with w_j > 0."""
    return mock.patch.object(refine, "point_symmetric", lambda windows, windows_ji, nu, w: False)


def preset_kernel(spec, transitions, nu, w, h):
    windows = [spec.shifted_window(i) for i in range(1, spec.r + 1)]
    return refine.build_kernel(windows, transitions, nu, spec.a_matrix(), spec.detq_abs,
                               w, h)


def _solve(spec, transitions, nu, w, h):
    return refine.solve_fixed_point(preset_kernel(spec, transitions, nu, w, h))


@pytest.fixture(scope="session")
def solve1_128(spec, transitions, nu_area, pf_area):
    return _solve(spec, transitions, nu_area, pf_area.w, 1.0 / 128)


@pytest.fixture(scope="session")
def solve2_128(spec, transitions, nu_explicit, pf_explicit):
    return _solve(spec, transitions, nu_explicit, pf_explicit.w, 1.0 / 128)


@pytest.fixture(scope="session")
def points40(spec):
    return scheme.generate_all(spec, 40.0)


@pytest.fixture(scope="session")
def tsets40(spec, transitions):
    return scheme.translation_sets(spec, transitions, 40.0)
