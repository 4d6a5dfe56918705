"""Elements of the ring of integers of the fifth cyclotomic field.

Elements are integer combinations of the basis {1, xi, xi^2, xi^3} with
xi = exp(2*pi*i/5), reduced via 1 + xi + xi^2 + xi^3 + xi^4 = 0, so two
elements are equal iff their coefficient tuples are equal.  Products go
through the integer matrix of multiplication (the regular representation,
Cohen, GTM 138, 4.2), and the coset residue is a ring map onto Z/5.  Two
complex embeddings matter here: the identity one ("physical") and its
composition with the Galois map xi -> xi^2 ("internal").
"""

from __future__ import annotations

import cmath

import numpy as np

# coefficients kept in signed-64-bit range; enumeration never needs more
_COEFF_LIMIT = 2**63

_PHYS_BASIS = tuple(cmath.exp(2j * cmath.pi * j / 5) for j in range(4))
_STAR_BASIS = tuple(cmath.exp(4j * cmath.pi * j / 5) for j in range(4))

# multiplication by xi: xi^k -> xi^(k+1), and xi^3 -> xi^4 = -1 - xi - xi^2 - xi^3
_XI = np.array([[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])
_XI_POWERS = [np.linalg.matrix_power(_XI, k).tolist() for k in range(4)]  # Python ints


class CoefficientOverflow(OverflowError):
    """A coefficient left the signed 64-bit range."""


def _checked(coeffs):
    for m in coeffs:
        if not -_COEFF_LIMIT < m < _COEFF_LIMIT:
            raise CoefficientOverflow(f"coefficient {m} exceeds the 64-bit range")
    return coeffs


class CycInt:
    """m0 + m1*xi + m2*xi^2 + m3*xi^3 with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, m0, m1=0, m2=0, m3=0):
        self.coeffs = _checked((int(m0), int(m1), int(m2), int(m3)))

    def __repr__(self):
        return f"CycInt{self.coeffs}"

    def __eq__(self, other):
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def rho(self):
        """Coset residue: sum of coefficients mod 5, in [0, 5)."""
        return sum(self.coeffs) % 5

    def physical(self):
        """Complex value of the element under the identity embedding."""
        return sum(m * b for m, b in zip(self.coeffs, _PHYS_BASIS))

    def internal(self):
        """Complex value of the Galois conjugate (the star image)."""
        return sum(m * b for m, b in zip(self.coeffs, _STAR_BASIS))

    def mult_matrix(self):
        """4x4 int64 matrix M = sum_k m_k X^k, X that of multiplication by xi, so that
        M @ b are the coefficients of self times b; formed in Python ints and
        range-checked column by column."""
        cols = [_checked([sum(m * p[row][col] for m, p in zip(self.coeffs, _XI_POWERS))
                          for row in range(4)]) for col in range(4)]
        return np.array(cols, dtype=np.int64).T


# golden ratio: tau = -xi^2 - xi^3 = 2*cos(36 deg)
TAU = CycInt(0, 0, -1, -1)


def embedding_matrix():
    """4x4 real matrix sending coefficients to (Re x, Im x, Re x*, Im x*)."""
    return np.array([[p.real, p.imag, s.real, s.imag] for p, s in zip(_PHYS_BASIS, _STAR_BASIS)]).T
