"""Exact arithmetic in the ring of integers of the fifth cyclotomic field.

Elements are integer combinations of the basis {1, xi, xi^2, xi^3} with
xi = exp(2*pi*i/5); every product is reduced back to that basis via
1 + xi + xi^2 + xi^3 + xi^4 = 0, so two elements are equal iff their
coefficient tuples are equal.  Two complex embeddings matter here: the
identity one ("physical") and its composition with the Galois map
xi -> xi^2 ("internal").
"""

from __future__ import annotations

import cmath

import numpy as np

# coefficients kept in signed-64-bit range; enumeration never needs more
_COEFF_LIMIT = 2**63

_PHYS_BASIS = tuple(cmath.exp(2j * cmath.pi * j / 5) for j in range(4))
_STAR_BASIS = tuple(cmath.exp(4j * cmath.pi * j / 5) for j in range(4))


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
        if isinstance(other, int):
            other = CycInt(other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt(other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return CycInt(*(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(*(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt(other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return CycInt(*(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(*(other * a for a in self.coeffs))
        if not isinstance(other, CycInt):
            return NotImplemented
        c = [0] * 7
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                c[i + j] += a * b
        # xi^5 = 1, xi^6 = xi, then xi^4 = -(1 + xi + xi^2 + xi^3)
        c[0] += c[5]
        c[1] += c[6]
        return CycInt(c[0] - c[4], c[1] - c[4], c[2] - c[4], c[3] - c[4])

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = CycInt(1)
        for _ in range(n):
            out = out * self
        return out

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
        """4x4 int64 matrix M of multiplication by self: M @ b.coeffs == (self * b).coeffs."""
        cols = [(self * CycInt(*unit)).coeffs for unit in np.eye(4, dtype=np.int64)]
        return np.array(cols, dtype=np.int64).T


ZERO = CycInt(0)
ONE = CycInt(1)
XI = CycInt(0, 1)
# golden ratio: tau = -xi^2 - xi^3 = 2*cos(36 deg)
TAU = CycInt(0, 0, -1, -1)


def embedding_matrix():
    """4x4 real matrix sending coefficients to (Re x, Im x, Re x*, Im x*)."""
    cols = []
    for j in range(4):
        cols.append([_PHYS_BASIS[j].real, _PHYS_BASIS[j].imag,
                     _STAR_BASIS[j].real, _STAR_BASIS[j].imag])
    return np.array(cols).T
