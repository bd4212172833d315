"""Material parameters, stored energy, Cauchy stress and dissipation.

The model is purely mechanical and is controlled by three parameters: the
two shear moduli ``mu_p_bar`` and ``mu_g_bar`` (Pa) and the viscosity
``eta`` (Pa*s). ``mu_g_bar = 0`` degenerates to a fluid-like
(non-recovering) response.

``stress``, ``pressure``, ``dissipation_rate`` and
``check_dissipation_identity`` take one 3x3 state or a stack of them along
a leading axis (with ``p`` and ``xi_m`` of the stack's length); a stacked
call gives each state the single call's result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensors import DomainError, _require_spd, eig_sym

_I3 = np.eye(3)


class ConfigError(ValueError):
    """Non-physical or inconsistent material configuration."""


@dataclass(frozen=True)
class MaterialParams:
    """The two shear moduli and the viscosity."""

    mu_p_bar: float  # Pa
    mu_g_bar: float  # Pa
    eta: float  # Pa*s

    def __post_init__(self):
        if not (self.mu_p_bar > 0.0):
            raise ConfigError(f"mu_p_bar must be positive, got {self.mu_p_bar}")
        if self.mu_g_bar < 0.0:
            raise ConfigError(f"mu_g_bar must be non-negative, got {self.mu_g_bar}")
        if not (self.eta > 0.0):
            raise ConfigError(f"eta must be positive, got {self.eta}")

    def retardation_time(self) -> float:
        """Creep time constant eta/(2 mu_g_bar); inf in the Maxwell limit."""
        if self.mu_g_bar == 0.0:
            return math.inf
        return self.eta / (2.0 * self.mu_g_bar)


def helmholtz(b_p: np.ndarray, b_g: np.ndarray, mp: MaterialParams) -> float:
    """Stored energy per unit volume (J/m^3).

    Neo-Hookean terms in the traces of B_p and B_G:
    ``mu_p_bar/2 (tr B_p - 3) + mu_g_bar/2 (tr B_G - 3)``.
    """
    _require_spd(eig_sym(b_p)[0], "helmholtz (B_p)")  # (eigenvalues, eigenvectors)
    _require_spd(eig_sym(b_g)[0], "helmholtz (B_G)")
    return 0.5 * mp.mu_p_bar * (np.trace(b_p) - 3.0) + 0.5 * mp.mu_g_bar * (np.trace(b_g) - 3.0)


def stress(b_p: np.ndarray, p, mp: MaterialParams) -> np.ndarray:
    """Cauchy stress T = p*I + mu_p_bar * B_p (Pa)."""
    return np.multiply.outer(p, _I3) + mp.mu_p_bar * b_p


def pressure(b_p: np.ndarray, mp: MaterialParams, normal=None):
    """The pressure p of ``stress`` fixed by a boundary condition (Pa).

    With a unit ``normal`` n, the traction-free one (n . T n = 0); without,
    the one that makes T traceless.
    """
    if normal is None:
        return -mp.mu_p_bar * np.trace(b_p, axis1=-2, axis2=-1) / 3.0
    return -mp.mu_p_bar * np.einsum("...ij,i,j->...", b_p, normal, normal)


def _ddot(a: np.ndarray, b: np.ndarray):
    """A : B over the last two axes, as one (1, 9) @ (9, 1) BLAS dot per state.

    That is the dot ``np.vdot`` takes on one state, so a stack of states
    gets each state's single result.
    """
    lead = a.shape[:-2]
    return (a.reshape(*lead, 1, 9) @ b.reshape(*lead, 9, 1))[..., 0, 0]


def dissipation_rate(b_p: np.ndarray, d_g: np.ndarray, mp: MaterialParams):
    """Mechanical dissipation rate ``xi_m = eta * (D_G : B_p D_G)`` (W/m^3).

    Evaluated as ``eta * ||C^T D_G||_F^2`` with the Cholesky factor
    B_p = C C^T, a sum of squares, so it is non-negative in floating point
    too. Raises DomainError if B_p, or a state of a stack, is not SPD (it
    has no Cholesky factor).
    """
    try:
        c = np.linalg.cholesky(b_p)
    except np.linalg.LinAlgError:
        for i, m in enumerate(np.reshape(b_p, (-1, 3, 3))):
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                where = f" (state {i})" if np.ndim(b_p) > 2 else ""
                raise DomainError(
                    f"dissipation_rate requires an SPD B_p{where}, got {m.tolist()}") from None
        raise
    cd = np.swapaxes(c, -1, -2) @ d_g
    return mp.eta * _ddot(cd, cd)


# Relative residuals are reported against max(xi_m, this floor, W/m^3) so
# equilibrium states (xi_m = 0) do not divide by zero.
DISSIPATION_FLOOR = 1e-30


def _deviator(a: np.ndarray) -> np.ndarray:
    return a - np.multiply.outer(np.trace(a, axis1=-2, axis2=-1) / 3.0, _I3)


def check_dissipation_identity(
    t_stress: np.ndarray,
    b_g: np.ndarray,
    d_g: np.ndarray,
    xi_m,
    mp: MaterialParams,
):
    """Residual of the working identity (T - mu_g_bar*B_G) : D_G = xi_m.

    ``xi_m`` is the dissipation rate reported for the same state (the
    identity's two sides are computed independently). Diagnostic only:
    states produced by a consistent evolution step satisfy it to integrator
    precision; inconsistent states do not. The pressure part of T drops out
    because D_G is traceless.
    """
    lhs = t_stress - mp.mu_g_bar * b_g
    # Contract deviatoric parts: the spherical terms vanish analytically
    # (D_G is traceless), and dropping them keeps machine-level trace noise
    # from swamping the residual near equilibrium.
    work = _ddot(_deviator(lhs), _deviator(d_g))
    return np.abs(work - xi_m) / np.maximum(xi_m, DISSIPATION_FLOOR)
