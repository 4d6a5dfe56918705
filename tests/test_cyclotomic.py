"""The program's Z[xi] arithmetic, the multiplication matrix, residue and
embeddings of a CycInt, against OracleCycInt's scalar ring operations."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from modelsets.cyclotomic import EMBEDDING, TAU, CoefficientOverflow, CycInt, embed
from tests.conftest import OracleCycInt, oracle

GOLDEN = (1 + math.sqrt(5)) / 2
ZERO, ONE, XI = OracleCycInt(0), OracleCycInt(1), OracleCycInt(0, 1)


def times(a, b):
    """a * b by the program's multiplication matrix of a."""
    return CycInt(*(a.mult_matrix() @ np.array(b.coeffs)))


def star(a):
    """Galois conjugate (xi -> xi^2) of a CycInt, reduced to the canonical basis."""
    m0, m1, m2, m3 = a.coeffs
    return OracleCycInt(m0 - m2, m3 - m2, m1 - m2, -m2)


def test_addition():
    assert OracleCycInt(1, 0, 0, 0) + OracleCycInt(0, 1, 0, 0) == CycInt(1, 1, 0, 0)
    a = OracleCycInt(3, -2, 7, 1)
    assert a + ZERO == a
    assert OracleCycInt(-1, 2, 0, 3) + OracleCycInt(1, -2, 0, -3) == ZERO
    # the matrix is additive in its element
    b = CycInt(-5, 0, 4, 2)
    assert np.array_equal((a + b).mult_matrix(), a.mult_matrix() + b.mult_matrix())


def test_multiplication_reduces_xi4():
    assert times(XI, XI**3) == CycInt(-1, -1, -1, -1)
    assert np.array_equal(XI.mult_matrix(), [[0, 0, 0, -1], [1, 0, 0, -1],
                                             [0, 1, 0, -1], [0, 0, 1, -1]])
    a = CycInt(4, -1, 2, 9)
    assert times(a, ONE) == a and times(ONE, a) == a
    assert times(TAU, TAU) == oracle(TAU) + ONE
    assert abs(times(TAU, TAU).physical() - GOLDEN**2) < 1e-12


def test_embeddings():
    assert CycInt(1).physical() == 1
    z = XI.physical()
    assert abs(z - complex(math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5))) < 1e-15
    assert abs(TAU.physical() - GOLDEN) < 1e-10


def test_star():
    assert star(XI) == times(XI, XI)
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
        a = OracleCycInt(*rng.integers(-100, 101, size=4))
        b = OracleCycInt(*rng.integers(-100, 101, size=4))
        assert abs(times(a, b).physical() - a.physical() * b.physical()) < 1e-9
        assert abs(times(a, b).internal() - a.internal() * b.internal()) < 1e-9
        assert abs((a + b).physical() - (a.physical() + b.physical())) < 1e-9


def test_star_order_four():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = CycInt(*rng.integers(-50, 51, size=4))
        assert star(star(star(star(a)))) == a
        b = CycInt(*rng.integers(-50, 51, size=4))
        assert star(times(a, b)) == times(star(a), star(b))
    assert star(XI) != XI


def test_rho_is_a_homomorphism():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = OracleCycInt(*rng.integers(-40, 41, size=4))
        b = OracleCycInt(*rng.integers(-40, 41, size=4))
        assert (a + b).rho() == (a.rho() + b.rho()) % 5
        assert times(a, b).rho() == (a.rho() * b.rho()) % 5


def test_internal_contracts_by_golden_conjugate():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = CycInt(*rng.integers(-100, 101, size=4))
        assert abs(times(TAU, a).internal() - (-1 / GOLDEN) * a.internal()) < 1e-9


def test_overflow_detection():
    with pytest.raises(CoefficientOverflow):
        CycInt(2**63)
    big = OracleCycInt(2**62)
    with pytest.raises(CoefficientOverflow):
        big + big
    # at the edge the matrix raises where the oracle's columns do, with its message
    edge = (2**62, 0, 0, -2**62)
    with pytest.raises(CoefficientOverflow) as expected:
        oracle(edge).oracle_matrix()
    with pytest.raises(CoefficientOverflow) as got:
        CycInt(*edge).mult_matrix()
    assert str(got.value) == str(expected.value) == \
        "coefficient 9223372036854775808 exceeds the 64-bit range"


def test_embedding_matrix_shape():
    assert EMBEDDING.shape == (4, 4)
    a = CycInt(2, -3, 1, 4)
    vec = EMBEDDING @ np.array(a.coeffs)
    assert abs(complex(vec[0], vec[1]) - a.physical()) < 1e-12
    assert abs(complex(vec[2], vec[3]) - a.internal()) < 1e-12


def scalar_images(m):
    """x and x* as the complex sums, term by term in the order m0..m3, by which
    CycInt formed them before embed: the record that embed moved no bit."""
    return (sum(c * cmath.exp(2j * cmath.pi * k / 5) for k, c in enumerate(m)),
            sum(c * cmath.exp(4j * cmath.pi * k / 5) for k, c in enumerate(m)))


def bits(values):
    return [float(v).hex() for v in values]


int64 = st.integers(-2**63, 2**63 - 1)
# a batch long enough for numpy's vector loops, with coefficients at both ends of int64
FAR = [(2**63 - 1, -2**63, 12345, -1), (-7, 2**62 + 1, -2**53 - 1, 3)] * 5


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=st.tuples(*[int64] * 4), others=st.lists(st.tuples(*[int64] * 4), max_size=40))
@example(m=(1, 0, 0, 0), others=FAR)
@example(m=(0, 1, 0, 0), others=FAR)
@example(m=(0, 0, 1, 0), others=FAR)
@example(m=(0, 0, 0, 1), others=FAR)
@example(m=(-1, -1, -1, -1), others=FAR)
@example(m=TAU.coeffs, others=FAR)
def test_embed_of_one_vector_is_its_row_of_a_batch(m, others):
    # CycInt's images and penrose_scheme's vertices and tau embed one vector,
    # the enumeration and the closure check whole batches: the same bits
    alone = bits(embed(m))
    assert bits(row[len(others)] for row in embed([*others, m, *others])) == alone
    x, u = scalar_images(m)
    assert bits([x.real, x.imag, u.real, u.imag]) == alone
    if -2**63 not in m:  # CycInt's range
        x, u = CycInt(*m).physical(), CycInt(*m).internal()
        assert bits([x.real, x.imag, u.real, u.imag]) == alone


elements = st.tuples(*[st.integers(min_value=-10**5, max_value=10**5)] * 4).map(
    lambda m: OracleCycInt(*m))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=elements, b=elements, c=elements)
def test_ring_axioms(a, b, c):
    # in matrix form: commutative, associative and distributive, with unit I
    A, B, C = a.mult_matrix(), b.mult_matrix(), c.mult_matrix()
    assert np.array_equal(A @ B, B @ A)
    assert np.array_equal((A @ B) @ C, A @ (B @ C))
    assert np.array_equal(A @ (B + C), A @ B + A @ C)
    assert np.array_equal(ONE.mult_matrix(), np.eye(4, dtype=np.int64))
    assert not ZERO.mult_matrix().any()
    assert np.array_equal((-a).mult_matrix(), -A)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=elements, b=elements)
def test_star_and_embeddings_are_ring_homomorphisms(a, b):
    ab = times(a, b)
    assert star(a + b) == star(a) + star(b)
    assert star(ab) == times(star(a), star(b))
    assert star(ONE) == ONE
    scale = (1 + max(map(abs, a.coeffs))) * (1 + max(map(abs, b.coeffs)))
    for embed in (CycInt.physical, CycInt.internal):
        assert abs(embed(a + b) - (embed(a) + embed(b))) <= 1e-12 * scale
        assert abs(embed(ab) - embed(a) * embed(b)) <= 1e-12 * scale
        assert embed(ONE) == 1
    assert abs(star(a).physical() - a.internal()) <= 1e-12 * scale


@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=elements, b=elements)
def test_mult_matrix(a, b):
    m = a.mult_matrix()
    assert m.dtype == np.int64 and m.shape == (4, 4)
    assert np.array_equal(m, a.oracle_matrix())
    assert tuple((m @ np.array(b.coeffs)).tolist()) == (a * b).coeffs
    assert np.array_equal(m @ b.mult_matrix(), (a * b).mult_matrix())
    assert np.array_equal(m @ np.array(b.coeffs), b.mult_matrix() @ np.array(a.coeffs))


# coefficients around the 2^62 scale at which some matrix entry leaves int64
large = st.tuples(*[st.integers(-2**62, 2**62) | st.integers(2**62 - 9, 2**62 + 9)
                    | st.integers(-2**62 - 9, -2**62 + 9)] * 4)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=large)
def test_mult_matrix_overflow_matches_oracle(m):
    try:
        expected = oracle(m).oracle_matrix()
    except CoefficientOverflow as exc:
        with pytest.raises(CoefficientOverflow) as got:
            CycInt(*m).mult_matrix()
        assert str(got.value) == str(exc)
    else:
        assert np.array_equal(CycInt(*m).mult_matrix(), expected)

