"""Exact-shape 3x3 tensor algebra.

Every tensor, symmetric or not, is a plain 3x3 numpy array; ``drive``
takes its initial B_p as one. The one exception is ``SymTensor3``, the
element type of ``Trajectory.b_p`` (kept because the benchmark reads the
recorded states through ``as_matrix``): six components in the canonical
order (xx, yy, zz, xy, yz, xz), immutable, with no algebra of its own. This
module owns that layout (``_SYM_INDEX`` gathers the 3x3 matrix from the
components, ``_ROWS``/``_COLS`` pick the components out of a matrix).

The spectral routines are the workhorses of the natural-configuration
evolution equation: the flow rule solves A*X + X*A = M with A symmetric
positive definite at every right-hand-side evaluation. ``eig_sym`` is
LAPACK ``eigh`` behind a finiteness check, and ``_sylvester_from_decomp``
solves the equation in A's eigenbasis, where it is a componentwise divide.
Every SPD test is ``_require_spd`` on the eigenvalues, against the floor
``SPD_EIG_FLOOR``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """An input tensor violates a domain requirement (e.g. not SPD)."""


# Smallest admissible eigenvalue relative to the largest one; guards the
# square root and the Sylvester solve against near-singular input.
SPD_EIG_FLOOR = 1e-12

# Canonical components (xx, yy, zz, xy, yz, xz) <-> 3x3 matrix.
_SYM_INDEX = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2]])
_ROWS = np.array([0, 1, 2, 0, 1, 0])
_COLS = np.array([0, 1, 2, 1, 2, 2])


@dataclass(frozen=True)
class SymTensor3:
    """Symmetric second-order tensor with components (xx, yy, zz, xy, yz, xz)."""

    xx: float
    yy: float
    zz: float
    xy: float
    yz: float
    xz: float

    def as_matrix(self) -> np.ndarray:
        return np.array([self.xx, self.yy, self.zz, self.xy, self.yz, self.xz])[_SYM_INDEX]


def eig_sym(a):
    """numpy's ``eigh`` pair (eigenvalues ascending, eigenvectors as columns).

    ``a`` is a 3x3 matrix taken as symmetric (LAPACK reads its lower
    triangle). Eigenvector signs are LAPACK's: every consumer forms
    Q f(Lambda) Q^T, which does not depend on them. Non-finite input raises
    DomainError.
    """
    if not np.isfinite(a).all():
        raise DomainError("eig_sym requires a finite tensor")
    return np.linalg.eigh(a)


def _require_spd(eigenvalues, what: str) -> None:
    """The SPD test on ascending eigenvalues: the smallest clears the floor."""
    if not eigenvalues[0] > SPD_EIG_FLOOR * max(eigenvalues[-1], 0.0):
        raise DomainError(f"{what} requires an SPD tensor (eigenvalues {eigenvalues.tolist()})")


def _sylvester_from_decomp(eigenvalues: np.ndarray, mt: np.ndarray) -> np.ndarray:
    """Sylvester solve A*X + X*A = M in the eigenbasis of A (matrix in/out).

    With ``mt`` = Q^T M Q for A = Q diag(eigenvalues) Q^T, the solution in
    that basis is componentwise ``X_ij = M_ij / (a_i + a_j)``; for an SPD A
    the denominators are positive and the solution is unique.
    """
    return mt / (eigenvalues[:, None] + eigenvalues)
