"""Elements of the ring of integers of the fifth cyclotomic field.

Elements are integer combinations of the basis {1, xi, xi^2, xi^3} with
xi = exp(2*pi*i/5), reduced via 1 + xi + xi^2 + xi^3 + xi^4 = 0, so two
elements are equal iff their coefficient tuples are equal.  Products go
through the integer matrix of multiplication (the regular representation,
Cohen, GTM 138, 4.2), and the coset residue is a ring map onto Z/5.  Two
complex embeddings matter here: the identity one ("physical") and its
composition with the Galois map xi -> xi^2 ("internal"); `embed` is the one
map from coefficients to both.
"""

from __future__ import annotations

import cmath

import numpy as np

# coefficients kept in signed-64-bit range; enumeration never needs more
_COEFF_LIMIT = 2**63

# rows Re x, Im x, Re x*, Im x* of the basis element xi^k in column k
EMBEDDING = np.array([[f(cmath.exp(2j * cmath.pi * g * k / 5)) for k in range(4)]
                      for g in (1, 2) for f in (lambda z: z.real, lambda z: z.imag)])
EMBEDDING.flags.writeable = False  # shared by every caller, as embed's default rows

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
        return complex(*embed(self.coeffs, EMBEDDING[:2]))

    def internal(self):
        """Complex value of the Galois conjugate (the star image)."""
        return complex(*embed(self.coeffs, EMBEDDING[2:]))

    def mult_matrix(self):
        """4x4 int64 matrix M = sum_k m_k X^k, X that of multiplication by xi, so that
        M @ b are the coefficients of self times b; formed in Python ints and
        range-checked column by column."""
        cols = [_checked([sum(m * p[row][col] for m, p in zip(self.coeffs, _XI_POWERS))
                          for row in range(4)]) for col in range(4)]
        return np.array(cols, dtype=np.int64).T


# golden ratio: tau = -xi^2 - xi^3 = 2*cos(36 deg)
TAU = CycInt(0, 0, -1, -1)


def embed(coeffs, rows=EMBEDDING):
    """Each row's image of the (n, 4) integer coefficients, or of one 4-vector, summed
    term by term in the order m0..m3; the coefficients go to float once, one contiguous
    column per term, so a vector's image has the same bits alone as in any batch."""
    cols = np.asarray(coeffs).T.astype(float, order="C")
    return [sum(cols[k] * row[k] for k in range(4)) for row in rows]
