"""General 3-D evolution of the natural configuration under prescribed motion.

The state is the six-component natural-configuration tensor B_p. At every
instant the flow rule determines the stretching D_G of the natural
configuration: an incompressibility multiplier makes D_G exactly traceless,
and a Sylvester-type solve inverts the symmetrized viscous term. The rate
of B_p then follows from the frame-indifferent kinematic identity
(``_convected_rate``). Unimodularity of B_p is a consequence, not an input:
the integrator monitors det(B_p) and aborts on drift rather than
renormalizing. Every tensor here is a plain 3x3 matrix (F and L come from
the protocol as arrays), and ``_flow_terms`` is the one place that splits
the total stretch. ``SymTensor3`` appears only as the record of a B_p
state: ``drive``'s initial state and ``Trajectory.b_p``.

Stress and dissipation on the trajectory come from ``material``; this
module only fixes the pressure, by lateral traction-freeness for uniaxial
motions and by tr(T) = 0 for shear, and records the convention used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from . import uniaxial as _uniaxial
from .kinematics import MotionProtocol, constant_stretch, uniaxial_protocol
from .material import (
    MaterialParams,
    check_dissipation_identity,
    dissipation_rate,
    pressure,
    stress,
)
from .odesolve import DEFAULT_ATOL, DEFAULT_RTOL, IntegrationError, OdeProblem, integrate
from .tensors import (
    _COLS,
    _ROWS,
    _SYM_INDEX,
    DomainError,
    SymTensor3,
    _require_spd,
    _sylvester_from_decomp,
    eig_sym,
)
from .uniaxial import CreepCurve

# Abort threshold for unimodularity drift of B_p along a trajectory.
DET_DRIFT_LIMIT = 1e-6

_I3 = np.eye(3)


def _spd_decomp(bpm: np.ndarray, what: str):
    d = eig_sym(bpm)
    _require_spd(d, what)
    return d


def _flow_direction(d, bpm: np.ndarray, b_g: np.ndarray, mp: MaterialParams) -> np.ndarray:
    """D_G (matrix) from the flow rule, given B_p's spectral decomposition.

    The multiplier c = (mu_g*tr(B_p^-1 B_G) - 3*mu_p) / tr(B_p^-1) enforces
    tr(D_G) = 0; the cancellation (c*I + mu_p*B_p - mu_g*B_G) runs before
    the 2/eta scaling so exact equilibria map to an exactly zero rate.
    """
    bp_inv = d.spectral_map(1.0 / np.array(d.eigenvalues))
    mu_p, mu_g = mp.mu_p_bar, mp.mu_g_bar
    c = (mu_g * float(np.vdot(bp_inv, b_g)) - 3.0 * mu_p) / float(bp_inv.trace())
    m = (2.0 / mp.eta) * (c * _I3 + mu_p * bpm - mu_g * b_g)
    return _sylvester_from_decomp(d, m)


def _flow_terms(bpm: np.ndarray, b: np.ndarray, mp: MaterialParams):
    """Shared kernel: decompose B_p once, return (V, B_G, D_G) as matrices.

    The total stretch B splits into the natural-configuration part
    B_p = V^2 and the elastic part B_G = V^-1 B V^-1, under the symmetric
    factor convention: the elastic map is taken as its own stretch tensor,
    so the intermediate rotation is absorbed. det(B_G) = det(B)/det(B_p).
    """
    d = _spd_decomp(bpm, "evolution")
    sq = np.sqrt(d.eigenvalues)
    v = d.spectral_map(sq)
    v_inv = d.spectral_map(1.0 / sq)
    b_g = v_inv @ b @ v_inv
    b_g = 0.5 * (b_g + b_g.T)
    return v, b_g, _flow_direction(d, bpm, b_g, mp)


def _convected_rate(v: np.ndarray, bpm: np.ndarray, lmat: np.ndarray, d_g: np.ndarray) -> np.ndarray:
    """L*B_p + B_p*L^T - 2*V*D_G*V (matrix)."""
    lb = lmat @ bpm
    return lb + lb.T - 2.0 * (v @ d_g @ v)


def _rate_kernel(y: np.ndarray, b: np.ndarray, lmat: np.ndarray, mp: MaterialParams) -> np.ndarray:
    """Rate of B_p's components ``y`` under total stretch B and velocity gradient L."""
    bpm = y[_SYM_INDEX]
    v, _, d_g = _flow_terms(bpm, b, mp)
    return _convected_rate(v, bpm, lmat, d_g)[_ROWS, _COLS]


def dG_rate(b_p: np.ndarray, b_g: np.ndarray, mp: MaterialParams) -> np.ndarray:
    """Natural-configuration stretching from the flow rule."""
    return _flow_direction(_spd_decomp(b_p, "dG_rate"), b_p, b_g, mp)


@dataclass
class Trajectory:
    """Time-sampled record of a driven material point."""

    t: np.ndarray
    F: np.ndarray = field(repr=False)  # (n, 3, 3)
    b_p: List[SymTensor3] = field(repr=False)
    stress: np.ndarray = field(repr=False)  # (n, 3, 3), Pa
    eps_axial: np.ndarray = field(repr=False)
    t_axial: np.ndarray = field(repr=False)  # Pa
    det_bp: np.ndarray = field(repr=False)
    xi_m: np.ndarray = field(repr=False)  # W/m^3
    identity_residual: np.ndarray = field(repr=False)
    pressure_convention: str = "lateral traction-free"

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        if np.any(self.xi_m < 0.0):
            raise ValueError("negative dissipation rate recorded on trajectory")

    def __len__(self) -> int:
        return self.t.size


def _sample(protocol: MotionProtocol, mp: MaterialParams, t: float, y: np.ndarray):
    """Stress and diagnostics for one mesh state."""
    b_p = y[_SYM_INDEX]
    f = protocol.F(t)
    _, b_g, d_g = _flow_terms(b_p, f @ f.T, mp)

    axial = np.array([1.0, 0.0, 0.0])
    if protocol.kind == "shear":
        p = pressure(b_p, mp)
        convention = "tr T = 0"
    else:
        lateral = np.array([0.0, 1.0, 0.0])
        if protocol.rotation is not None:
            lateral = protocol.rotation @ lateral
            axial = protocol.rotation @ axial
        p = pressure(b_p, mp, lateral)
        convention = "lateral traction-free"

    t_sym = stress(b_p, p, mp)
    t_ax = float(axial @ t_sym @ axial)
    xi_m = dissipation_rate(b_p, d_g, mp)
    residual = check_dissipation_identity(t_sym, b_g, d_g, xi_m, mp)
    eps_ax = math.log(protocol.drive(t)) if protocol.kind != "shear" else 0.0
    return f, SymTensor3(*y.tolist()), t_sym, eps_ax, t_ax, xi_m, residual, convention


def drive(
    protocol: MotionProtocol,
    mp: MaterialParams,
    b_p0: SymTensor3,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> Trajectory:
    """Integrate B_p from ``b_p0`` under the protocol and record the trajectory.

    Raises IntegrationError if det(B_p) drifts beyond DET_DRIFT_LIMIT.
    """

    def rhs(t, y):
        f = protocol.F(t)
        return _rate_kernel(y, f @ f.T, protocol.L(t), mp)

    def step_hook(t, y):
        det = np.linalg.det(y[_SYM_INDEX])
        if abs(det - 1.0) > DET_DRIFT_LIMIT:
            raise IntegrationError(
                f"det(B_p) drifted to {det} at t = {t}; aborting instead of renormalizing",
                t,
                y,
            )

    problem = OdeProblem(
        rhs=rhs, span=protocol.span, y0=b_p0.as_components(), rtol=rtol, atol=atol
    )
    return _build_trajectory(protocol, mp, integrate(problem, step_hook=step_hook))


def _build_trajectory(protocol: MotionProtocol, mp: MaterialParams, sol) -> Trajectory:
    n = sol.ts.size
    fs = np.empty((n, 3, 3))
    bps: List[SymTensor3] = []
    stresses = np.empty((n, 3, 3))
    eps_ax = np.empty(n)
    t_ax = np.empty(n)
    xi = np.empty(n)
    res = np.empty(n)
    convention = "lateral traction-free"
    for i, (t, y) in enumerate(zip(sol.ts, sol.ys)):
        f, b_p, t_sym, e, ta, x, r, convention = _sample(protocol, mp, t, y)
        fs[i] = f
        bps.append(b_p)
        stresses[i] = t_sym
        eps_ax[i] = e
        t_ax[i] = ta
        xi[i] = x
        res[i] = r
    return Trajectory(
        t=sol.ts.copy(),
        F=fs,
        b_p=bps,
        stress=stresses,
        eps_axial=eps_ax,
        t_axial=t_ax,
        det_bp=np.linalg.det(sol.ys[:, _SYM_INDEX]),
        xi_m=xi,
        identity_residual=res,
        pressure_convention=convention,
    )


def relax(
    lambda_hold: float,
    mp: MaterialParams,
    hold_time: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> Trajectory:
    """Stress relaxation: instantaneous stretch to lambda_hold, then hold.

    The loading step is elastic, so B_p jumps to the total stretch
    diag(lambda^2, 1/lambda, 1/lambda) and relaxes from there.
    """
    if not (lambda_hold > 0.0):
        raise DomainError(f"hold stretch must be positive, got {lambda_hold}")
    protocol = constant_stretch(lambda_hold, (0.0, hold_time))
    b_p0 = SymTensor3.diag(lambda_hold**2, 1.0 / lambda_hold, 1.0 / lambda_hold)
    return drive(protocol, mp, b_p0, rtol=rtol, atol=atol)


def replay_uniaxial(
    curve: CreepCurve,
    mp: MaterialParams,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> List[Trajectory]:
    """Re-drive a solved scalar creep history through the tensor integrator.

    Each constant-stress segment becomes a uniaxial protocol whose stretch
    comes from the scalar closed-form solution, with the scalar flow
    rule (resolved through the module, so test fixtures can intercept it)
    supplying the rate at that stretch. B_p starts at the scalar prediction
    diag(B, B^-1/2, B^-1/2) of the first segment and jumps elastically at
    segment boundaries. The tensor side derives its own flow direction from
    the full 3-D rule, so staying on the scalar manifold (and carrying the
    applied stress) is a genuine cross-check of the two reductions.
    """
    trajectories: List[Trajectory] = []
    b_p = None
    for k, seg in enumerate(curve.segments):
        if k == 0:
            b_p = SymTensor3.diag(seg.b, seg.b**-0.5, seg.b**-0.5)
        else:
            prev = curve.segments[k - 1]
            j = math.sqrt(seg.b / prev.b)  # axial jump of the elastic loading
            jump = np.diag([j, 1.0 / math.sqrt(j), 1.0 / math.sqrt(j)])
            b_p = SymTensor3.from_matrix(jump @ b_p.as_matrix() @ jump.T)

        protocol = uniaxial_protocol(
            lam=seg.lam_at,
            lam_dot=lambda t, _s=seg: _uniaxial.lambda_rate(_s.lam_at(t), _s.b, mp),
            span=(seg.t_start, seg.t_end),
        )
        traj = drive(protocol, mp, b_p, rtol=rtol, atol=atol)
        trajectories.append(traj)
        b_p = traj.b_p[-1]
    return trajectories
