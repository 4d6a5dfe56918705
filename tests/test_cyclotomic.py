import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modelsets.cyclotomic import (ONE, TAU, XI, ZERO, CoefficientOverflow,
                                  CycInt, embedding_matrix)

GOLDEN = (1 + math.sqrt(5)) / 2


def star(a):
    """Galois conjugate (xi -> xi^2) of a CycInt, reduced to the canonical basis."""
    m0, m1, m2, m3 = a.coeffs
    return CycInt(m0 - m2, m3 - m2, m1 - m2, -m2)


def test_addition():
    assert CycInt(1, 0, 0, 0) + CycInt(0, 1, 0, 0) == CycInt(1, 1, 0, 0)
    a = CycInt(3, -2, 7, 1)
    assert a + ZERO == a
    assert CycInt(-1, 2, 0, 3) + CycInt(1, -2, 0, -3) == ZERO


def test_multiplication_reduces_xi4():
    assert XI * XI**3 == CycInt(-1, -1, -1, -1)
    a = CycInt(4, -1, 2, 9)
    assert a * ONE == a
    assert TAU * TAU == TAU + ONE
    assert abs((TAU * TAU).physical() - GOLDEN**2) < 1e-12


def test_embeddings():
    assert CycInt(1).physical() == 1
    z = XI.physical()
    assert abs(z - complex(math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5))) < 1e-15
    assert abs(TAU.physical() - GOLDEN) < 1e-10


def test_star():
    assert star(XI) == XI * XI
    for k in (-3, 0, 7):
        assert star(CycInt(k)) == CycInt(k)
    assert abs(star(TAU).physical() - (-1 / GOLDEN)) < 1e-10
    assert abs(TAU.internal() - (-1 / GOLDEN)) < 1e-10


def test_rho():
    assert CycInt(1).rho() == 1
    assert TAU.rho() == 3
    # xi + xi^4 reduced to (-1, 0, -1, -1)
    assert (XI + XI**4) == CycInt(-1, 0, -1, -1)
    assert (XI + XI**4).rho() == 2


def test_embeddings_are_ring_homomorphisms():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = CycInt(*rng.integers(-100, 101, size=4))
        b = CycInt(*rng.integers(-100, 101, size=4))
        assert abs((a * b).physical() - a.physical() * b.physical()) < 1e-9
        assert abs((a * b).internal() - a.internal() * b.internal()) < 1e-9
        assert abs((a + b).physical() - (a.physical() + b.physical())) < 1e-9


def test_star_order_four():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = CycInt(*rng.integers(-50, 51, size=4))
        assert star(star(star(star(a)))) == a
        b = CycInt(*rng.integers(-50, 51, size=4))
        assert star(a * b) == star(a) * star(b)
    assert star(XI) != XI


def test_rho_is_a_homomorphism():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = CycInt(*rng.integers(-40, 41, size=4))
        b = CycInt(*rng.integers(-40, 41, size=4))
        assert (a + b).rho() == (a.rho() + b.rho()) % 5
        assert (a * b).rho() == (a.rho() * b.rho()) % 5


def test_internal_contracts_by_golden_conjugate():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = CycInt(*rng.integers(-100, 101, size=4))
        assert abs((TAU * a).internal() - (-1 / GOLDEN) * a.internal()) < 1e-9


def test_overflow_detection():
    with pytest.raises(CoefficientOverflow):
        CycInt(2**63)
    big = CycInt(2**62)
    with pytest.raises(CoefficientOverflow):
        big + big


def test_embedding_matrix_shape():
    B = embedding_matrix()
    a = CycInt(2, -3, 1, 4)
    vec = B @ np.array(a.coeffs)
    assert abs(complex(vec[0], vec[1]) - a.physical()) < 1e-12
    assert abs(complex(vec[2], vec[3]) - a.internal()) < 1e-12


elements = st.tuples(*[st.integers(min_value=-10**5, max_value=10**5)] * 4).map(
    lambda m: CycInt(*m))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=elements, b=elements, c=elements)
def test_ring_axioms(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    assert a + (-a) == ZERO and a - b == a + (-b)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=elements, b=elements)
def test_star_and_embeddings_are_ring_homomorphisms(a, b):
    assert star(a + b) == star(a) + star(b)
    assert star(a * b) == star(a) * star(b)
    assert star(ONE) == ONE
    scale = (1 + max(map(abs, a.coeffs))) * (1 + max(map(abs, b.coeffs)))
    for embed in (CycInt.physical, CycInt.internal):
        assert abs(embed(a + b) - (embed(a) + embed(b))) <= 1e-12 * scale
        assert abs(embed(a * b) - embed(a) * embed(b)) <= 1e-12 * scale
        assert embed(ONE) == 1
    assert abs(star(a).physical() - a.internal()) <= 1e-12 * scale


@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=elements, b=elements)
def test_mult_matrix(a, b):
    m = a.mult_matrix()
    assert m.dtype == np.int64 and m.shape == (4, 4)
    assert tuple((m @ np.array(b.coeffs)).tolist()) == (a * b).coeffs
