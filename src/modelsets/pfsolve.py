"""Dominant eigenpair of the non-negative transition weight matrix.

The matrix is r x r with r the number of components, so one dense
eigendecomposition gives the Perron root, its eigenvector and the gap to
the next eigenvalue modulus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TOL = 1e-12  # entries of w below 10 * _TOL snap to zero; gap > _TOL means simple


@dataclass
class PfResult:
    lambda_max: float
    w: np.ndarray
    simple: bool
    gap: float


def pf_eigen(nu):
    """Dominant eigenvalue and statistically normalized eigenvector.

    Raises ValueError on bad input and RuntimeError when the spectral radius
    is zero, when another eigenvalue of maximal modulus is not the Perron
    root (a periodic peripheral spectrum), or when a repeated Perron root
    comes back with a mixed-sign eigenvector.  Entries of w below the
    snapping threshold are set to exact zero before the final
    normalization, so structurally vanishing components print as 0.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 2 or nu.shape[0] != nu.shape[1]:
        raise ValueError("nu must be a square matrix")
    if np.any(nu < 0):
        raise ValueError("nu must be entrywise non-negative")
    if not np.any(nu > 0):
        raise ValueError("nu must be non-zero")
    vals, vecs = np.linalg.eig(nu)
    mods = np.abs(vals)
    order = np.argsort(-mods, kind="stable")
    lam = mods[order[0]]
    if lam <= _TOL * nu.max():
        raise RuntimeError("eigenpair did not converge: spectral radius 0 (nilpotent nu)")
    # peripheral eigenvalues other than lam are lam times a root of unity, far
    # from lam; only a defective lam splits into values this close to itself
    peripheral = vals[mods >= lam * (1 - 1e-9)]
    if np.any(np.abs(peripheral - lam) > 1e-4 * lam):
        raise RuntimeError("eigenpair did not converge: several eigenvalues share "
                           "the maximal modulus (periodic nu)")
    v = vecs[:, order[0]].real
    v = v / v[np.argmax(np.abs(v))]
    if v.min() < -10 * _TOL:
        raise RuntimeError("eigenpair did not converge: the repeated dominant "
                           "eigenvalue has a mixed-sign eigenvector")
    w = v / v.sum()
    w[w < 10 * _TOL] = 0.0
    w = w / w.sum()
    gap = float(lam - mods[order[1]]) if len(vals) > 1 else float(lam)
    return PfResult(lambda_max=float(lam), w=w, simple=gap > _TOL, gap=gap)


def check_pf1(result, tol=1e-10):
    """Spectral radius equal to one, within tol."""
    return abs(result.lambda_max - 1.0) <= tol
