"""Exact-shape 3x3 tensor algebra.

Every tensor, symmetric or not, is a plain 3x3 numpy array. The one
exception is ``SymTensor3``, the public record of a B_p state (``drive``'s
initial state and ``Trajectory.b_p``): six components in the canonical
order (xx, yy, zz, xy, yz, xz), immutable, with no algebra of its own. This
module owns that layout (``_SYM_INDEX`` gathers the 3x3 matrix from the
components, ``_ROWS``/``_COLS`` pick the components out of a matrix).

The spectral routines (LAPACK ``eigh`` under a deterministic frame
convention, and the Sylvester-type solve on a decomposition) are the
workhorses of the natural-configuration evolution equation: the flow rule
requires solving A*X + X*A = M with A symmetric positive definite at every
right-hand-side evaluation. Functions of an SPD tensor (square root,
inverse) are ``SpectralDecomp.spectral_map`` of its eigenvalues. Every SPD
test is ``_spd_eigenvalues``, on the eigenvalue floor ``SPD_EIG_FLOOR``.
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

    @staticmethod
    def identity() -> "SymTensor3":
        return SymTensor3(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def diag(a: float, b: float, c: float) -> "SymTensor3":
        return SymTensor3(float(a), float(b), float(c), 0.0, 0.0, 0.0)

    @staticmethod
    def from_matrix(m: np.ndarray) -> "SymTensor3":
        """Build from a 3x3 matrix, averaging away floating-point asymmetry.

        Raises DomainError if the asymmetric part exceeds 1e-8 of the matrix
        norm (the input was not actually symmetric).
        """
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise DomainError(f"expected a 3x3 matrix, got shape {m.shape}")
        scale = np.linalg.norm(m)
        if scale > 0.0 and np.linalg.norm(m - m.T) > 1e-8 * scale:
            raise DomainError("matrix is not symmetric within tolerance")
        s = 0.5 * (m + m.T)
        return SymTensor3(*s[_ROWS, _COLS].tolist())

    def as_matrix(self) -> np.ndarray:
        return self.as_components()[_SYM_INDEX]

    def as_components(self) -> np.ndarray:
        """Canonical (xx, yy, zz, xy, yz, xz) vector."""
        return np.array([self.xx, self.yy, self.zz, self.xy, self.yz, self.xz])


@dataclass(frozen=True, eq=False)
class SpectralDecomp:
    """Eigenvalues (descending) and an orthonormal right-handed eigenframe.

    ``frame[:, i]`` is the eigenvector of ``eigenvalues[i]``; the frame has
    determinant +1 and a deterministic sign convention so that repeated
    decompositions of the same tensor are bitwise identical.
    """

    eigenvalues: tuple
    frame: np.ndarray

    def spectral_map(self, values) -> np.ndarray:
        """Q diag(values) Q^T for the frame Q: a function of the tensor, as a matrix."""
        q = self.frame
        return (q * values) @ q.T


def eig_sym(a) -> SpectralDecomp:
    """Spectral decomposition of a symmetric tensor by LAPACK ``eigh``.

    ``a`` is a 3x3 matrix, taken as symmetric: only the lower triangle is
    read. Eigenvalues are sorted descending. Each
    eigenvector's sign is fixed so its largest-magnitude component is
    positive; the last column is then flipped if needed to keep
    det(frame) = +1. Non-finite input raises DomainError.
    """
    if not np.isfinite(a).all():
        raise DomainError("eig_sym requires a finite tensor")
    vals, vecs = np.linalg.eigh(a)
    # eigh sorts ascending; the sign convention runs on plain lists, which
    # costs less than numpy calls at this size
    cols = vecs.T.tolist()[::-1]
    for i, col in enumerate(cols):
        if max(col, key=abs) < 0.0:
            cols[i] = [-v for v in col]
    e1, e2, e3 = cols
    det = (
        e3[0] * (e1[1] * e2[2] - e1[2] * e2[1])
        + e3[1] * (e1[2] * e2[0] - e1[0] * e2[2])
        + e3[2] * (e1[0] * e2[1] - e1[1] * e2[0])
    )
    if det < 0.0:
        cols[2] = [-v for v in e3]
    return SpectralDecomp(tuple(vals[::-1].tolist()), np.array(cols).T)


def _spd_eigenvalues(eigenvalues) -> bool:
    """The SPD test on descending eigenvalues: the smallest clears the floor."""
    return eigenvalues[2] > SPD_EIG_FLOOR * max(eigenvalues[0], 0.0)


def _require_spd(decomp: SpectralDecomp, what: str) -> None:
    if not _spd_eigenvalues(decomp.eigenvalues):
        raise DomainError(
            f"{what} requires an SPD tensor (eigenvalues {decomp.eigenvalues})"
        )


def _sylvester_from_decomp(d: SpectralDecomp, m: np.ndarray) -> np.ndarray:
    """Sylvester solve A*X + X*A = M in A's eigenbasis (matrix in/out).

    There the solution is componentwise ``X_ij = M_ij / (a_i + a_j)``; for
    an SPD A the denominators are positive and the solution is unique.
    """
    q = d.frame
    mt = q.T @ m @ q
    lam = np.array(d.eigenvalues)
    xt = mt / (lam[:, None] + lam[None, :])
    x = q @ xt @ q.T
    return 0.5 * (x + x.T)

