import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from modelsets.pfsolve import check_pf1, pf_eigen

# frozen from a dense-eigenvalue oracle (numpy.linalg.eigvals) ahead of the build
EXAMPLE1_GAP = 0.75
EXAMPLE2_GAP = 0.5


def test_example1_pair(nu_area, pf_area):
    assert abs(pf_area.lambda_max - 1.0) < 1e-10
    assert np.abs(pf_area.w - np.array([0.0, 0.5, 0.5, 0.0])).max() < 1e-10
    assert pf_area.w[0] == 0.0 and pf_area.w[3] == 0.0  # snapped exactly
    assert np.max(np.abs(nu_area @ pf_area.w - pf_area.lambda_max * pf_area.w)) <= 1e-10


def test_example1_gap_matches_dense_oracle(nu_area, pf_area):
    dense = np.sort(np.abs(np.linalg.eigvals(nu_area)))[::-1]
    assert abs(pf_area.gap - (dense[0] - dense[1])) < 1e-4
    assert abs(pf_area.gap - EXAMPLE1_GAP) < 1e-4
    assert pf_area.simple  # reducible matrix, still a simple leading eigenvalue


def test_example2_pair(nu_explicit, pf_explicit):
    assert abs(pf_explicit.lambda_max - 1.0) < 1e-10
    assert np.abs(pf_explicit.w - 0.25).max() < 1e-10
    assert abs(pf_explicit.gap - EXAMPLE2_GAP) < 1e-4


def test_identity_not_simple():
    result = pf_eigen(np.eye(2))
    assert abs(result.lambda_max - 1.0) < 1e-12
    assert not result.simple
    assert result.gap < 1e-6


def test_check_pf1(nu_area, pf_area):
    assert check_pf1(pf_area)
    halved = pf_eigen(nu_area / 2)
    assert not check_pf1(halved)
    assert abs(halved.lambda_max - 0.5) < 1e-10


def test_column_stochastic_matrices_have_unit_radius():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = rng.uniform(0.01, 1.0, size=(5, 5))
        m /= m.sum(axis=0)
        result = pf_eigen(m)
        assert abs(result.lambda_max - 1.0) < 1e-12
        assert np.max(np.abs(m @ result.w - result.lambda_max * result.w)) <= 1e-10
        assert abs(result.w.sum() - 1.0) < 1e-12
        assert np.all(result.w >= 0)


def test_rejects_bad_input():
    with pytest.raises(ValueError, match="non-negative"):
        pf_eigen(np.array([[1.0, -0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-zero"):
        pf_eigen(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="square"):
        pf_eigen(np.ones((2, 3)))


def test_nonconvergence_reported():
    # eigenvalues +-sqrt(2) tie in modulus: the iteration cannot settle
    flip = np.array([[0.0, 2.0], [1.0, 0.0]])
    with pytest.raises(RuntimeError, match="did not converge"):
        pf_eigen(flip)


@pytest.mark.parametrize("m", [
    np.roll(np.eye(3), 1, axis=0),  # 3-cycle: three cube roots of unity
    np.array([[0.0, 1.0], [0.0, 0.0]]),  # nilpotent: spectral radius 0
], ids=["three-cycle", "nilpotent"])
def test_peripheral_and_zero_radius_raise(m):
    with pytest.raises(RuntimeError, match="did not converge"):
        pf_eigen(m)


def test_jordan_block_not_simple():
    result = pf_eigen(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert result.lambda_max == 1.0 and result.gap == 0.0
    assert not result.simple
    assert np.array_equal(result.w, [1.0, 0.0])


@pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5], [0, 4, 1, 5, 2, 3]])
def test_two_equal_blocks(order):
    # lambda is double with a two-dimensional eigenspace; which eigenvector
    # LAPACK returns depends on the ordering, and a mixed-sign one must raise
    block = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 3.0]])
    m = np.kron(np.eye(2), block)[np.ix_(order, order)]
    try:
        result = pf_eigen(m)
    except RuntimeError as exc:
        assert "did not converge" in str(exc)
        return
    assert not result.simple and result.gap < 1e-12
    assert np.all(result.w >= 0) and abs(result.w.sum() - 1.0) < 1e-12
    assert np.max(np.abs(m @ result.w - result.lambda_max * result.w)) <= 1e-10


@st.composite
def sparse_nonnegative(draw):
    n = draw(st.integers(1, 6))
    values = draw(arrays(float, (n, n), elements=st.floats(0.01, 10.0),
                         fill=st.nothing()))
    keep = draw(arrays(bool, (n, n), elements=st.booleans(), fill=st.nothing()))
    return np.where(keep, values, 0.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sparse_nonnegative())
def test_matches_dense_eigenvalues(m):
    if not m.any():
        with pytest.raises(ValueError):
            pf_eigen(m)
        return
    moduli = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
    try:
        result = pf_eigen(m)
    except RuntimeError as exc:
        assert "did not converge" in str(exc)
        # raised only for radius 0 or for several eigenvalues of maximal modulus
        assert moduli[0] < 1e-9 or moduli[1] > moduli[0] * (1 - 1e-9)
        return
    gap = moduli[0] - moduli[1] if len(moduli) > 1 else moduli[0]
    assert abs(result.lambda_max - moduli[0]) <= 1e-12
    assert abs(result.gap - gap) <= 1e-12
    assert np.all(result.w >= 0) and abs(result.w.sum() - 1.0) < 1e-12
    assert np.max(np.abs(m @ result.w - result.lambda_max * result.w)) <= 1e-10
