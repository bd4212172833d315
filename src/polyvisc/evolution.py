"""General 3-D evolution of the natural configuration under prescribed motion.

The state is the six-component natural-configuration tensor B_p. At every
instant the flow rule determines the stretching D_G of the natural
configuration: an incompressibility multiplier makes D_G exactly traceless,
and a Sylvester-type solve inverts the symmetrized viscous term. The rate
of B_p then follows from the frame-indifferent kinematic identity
L*B_p + B_p*L^T - 2*V*D_G*V, V = B_p^1/2. One ``eigh`` of B_p carries all
of it (``_elastic_split``): in B_p's eigenbasis V is diagonal and the solve
is a componentwise divide (``_flow``). Unimodularity of B_p is a
consequence, not an input: the integrator monitors det(B_p) and aborts on
drift rather than renormalizing. Every tensor here is a plain 3x3 matrix:
F and L come from the protocol as arrays, and ``drive`` starts from a 3x3
B_p. ``SymTensor3`` appears only as the element type of ``Trajectory.b_p``.

The right-hand side runs once per state. The trajectory is built in one
pass over the stacked accepted states: per state only F, B_G and D_G come
from the kernel (``_sample``); stress, dissipation, the identity residual
and det(B_p) are array expressions over the stack. Stress and dissipation
come from ``material``; this module only fixes the pressure, by lateral
traction-freeness for uniaxial motions and by tr(T) = 0 for shear, and
records the convention used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

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
from .odesolve import (
    _MIN_STEP_FRACTION,
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    IntegrationError,
    OdeProblem,
    integrate,
)
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
# First step of a replay segment, as a fraction of its span: the exact solution
# is constant, so the automatic start's tiny step would only be grown back.
_REPLAY_FIRST_STEP = 0.05

_I3 = np.eye(3)


def _elastic_split(bpm: np.ndarray, b: np.ndarray):
    """(lam, Q, s s^T, B_G) from one decomposition B_p = Q diag(lam) Q^T = V^2.

    With s = sqrt(lam), B_G = V^-1 B V^-1 = Q ((Q^T B Q) / s s^T) Q^T: the
    elastic map is taken as its own stretch tensor (symmetric factor
    convention), so the intermediate rotation is absorbed.
    """
    lam, q = eig_sym(bpm)
    _require_spd(lam, "evolution")
    s = np.sqrt(lam)
    ss = s[:, None] * s
    b_g = q @ ((q.T @ b @ q) / ss) @ q.T
    return lam, q, ss, 0.5 * (b_g + b_g.T)


def _flow(bpm: np.ndarray, b_g: np.ndarray, lam, q, mp: MaterialParams) -> np.ndarray:
    """D_G from the flow rule, in B_p's eigenbasis (B_p = Q diag(lam) Q^T).

    The multiplier c = (mu_g*tr(B_p^-1 B_G) - 3*mu_p) / tr(B_p^-1), from
    that basis's diagonals, enforces tr(D_G) = 0. M = (2/eta)(c*I + mu_p*B_p
    - mu_g*B_G) is formed in the lab frame from the arrays the stress and
    the identity check see, so its large terms cancel in one frame (exact
    equilibria give an exactly zero rate), and is rotated once for the solve.
    """
    inv = 1.0 / lam
    mu_p, mu_g = mp.mu_p_bar, mp.mu_g_bar
    c = (mu_g * float(np.vdot(q * inv, b_g @ q)) - 3.0 * mu_p) / float(inv.sum())
    m = (2.0 / mp.eta) * (c * _I3 + mu_p * bpm - mu_g * b_g)
    return _sylvester_from_decomp(lam, q.T @ m @ q)


def _rate_kernel(y: np.ndarray, b: np.ndarray, lmat: np.ndarray, mp: MaterialParams) -> np.ndarray:
    """Rate of B_p's components ``y`` under total stretch B and velocity gradient L."""
    bpm = y[_SYM_INDEX]
    lam, q, ss, b_g = _elastic_split(bpm, b)
    lb = lmat @ bpm
    # V D_G V is (D_G * s s^T) in the eigenbasis
    return (lb + lb.T - 2.0 * (q @ (_flow(bpm, b_g, lam, q, mp) * ss) @ q.T))[_ROWS, _COLS]


def dG_rate(b_p: np.ndarray, b_g: np.ndarray, mp: MaterialParams) -> np.ndarray:
    """Natural-configuration stretching from the flow rule."""
    lam, q = eig_sym(b_p)
    _require_spd(lam, "dG_rate")
    return q @ _flow(b_p, b_g, lam, q, mp) @ q.T


@dataclass
class Trajectory:
    """Time-sampled record of a driven material point."""

    t: np.ndarray
    F: np.ndarray = field(repr=False)  # (n, 3, 3)
    b_p: List[SymTensor3] = field(repr=False)  # one record per sample; the benchmark reads it
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


def _sample(piece: MotionProtocol, mp: MaterialParams, t: float, y: np.ndarray):
    """F, B_G and D_G at one accepted state, from the right-hand side's own kernel."""
    b_p = y[_SYM_INDEX]
    f = piece.F(t)
    lam, q, _, b_g = _elastic_split(b_p, f @ f.T)
    return f, b_g, q @ _flow(b_p, b_g, lam, q, mp) @ q.T


def _frame(piece: MotionProtocol) -> np.ndarray:
    """The piece's rotation; its columns are the axial and the lateral directions."""
    return _I3 if piece.rotation is None else piece.rotation


def drive(
    protocol: Union[MotionProtocol, Sequence[MotionProtocol]],
    mp: MaterialParams,
    b_p0: np.ndarray,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    first_step: Optional[float] = None,
) -> Trajectory:
    """Integrate B_p from the 3x3 array ``b_p0`` under the protocol and record the trajectory.

    ``protocol`` is one protocol or a sequence of smooth pieces with
    abutting spans and one kind and rotation (``kinematics.ramp_hold``).
    Each piece is one integration, so no step straddles a jump in the rate:
    it starts from the previous piece's end state, with the previous piece's
    last accepted step as its first step, and the breakpoint is recorded
    once. ``first_step`` starts the first piece (None: the automatic
    start). The step-size floor is taken from the whole drive's span.

    Raises DomainError unless ``b_p0`` is a finite 3x3 matrix, symmetric
    within 1e-8 of its norm, and IntegrationError if det(B_p) drifts beyond
    DET_DRIFT_LIMIT.
    """
    pieces = (protocol,) if isinstance(protocol, MotionProtocol) else tuple(protocol)
    for prev, piece in zip(pieces, pieces[1:]):
        if piece.span[0] != prev.span[1]:
            raise ValueError(f"protocol pieces must abut, got spans {prev.span} and {piece.span}")
        # the trajectory records one pressure convention and one axial direction
        if piece.kind != prev.kind or not np.array_equal(_frame(piece), _frame(prev)):
            raise ValueError("protocol pieces must share their kind and rotation")
    b_p0 = np.asarray(b_p0, dtype=float)
    if b_p0.shape != (3, 3) or not np.isfinite(b_p0).all():
        raise DomainError(f"b_p0 must be a finite 3x3 matrix, got {b_p0.tolist()}")
    if np.linalg.norm(b_p0 - b_p0.T) > 1e-8 * np.linalg.norm(b_p0):
        raise DomainError(f"b_p0 is not symmetric within tolerance, got {b_p0.tolist()}")
    min_step = _MIN_STEP_FRACTION * (pieces[-1].span[1] - pieces[0].span[0])

    def rhs_of(piece):
        def rhs(t, y):
            f = piece.F(t)
            return _rate_kernel(y, f @ f.T, piece.L(t), mp)

        return rhs

    def step_hook(t, y):
        det = np.linalg.det(y[_SYM_INDEX])
        if abs(det - 1.0) > DET_DRIFT_LIMIT:
            raise IntegrationError(
                f"det(B_p) drifted to {det} at t = {t}; aborting instead of renormalizing",
                t,
                y,
            )

    # averaging removes the rounding asymmetry of a product such as J B_p J
    y = (0.5 * (b_p0 + b_p0.T))[_ROWS, _COLS]
    sols = []
    for piece in pieces:
        problem = OdeProblem(
            rhs=rhs_of(piece), span=piece.span, y0=y, rtol=rtol, atol=atol,
            first_step=first_step, min_step=min_step,
        )
        sol = integrate(problem, step_hook=step_hook)
        sols.append(sol)
        y = sol.ys[-1]
        first_step = sol.ts[-1] - sol.ts[-2]
    return _build_trajectory(pieces, sols, mp)


def _build_trajectory(pieces, sols, mp: MaterialParams) -> Trajectory:
    # a later piece's first time is the previous piece's last: it is sampled once, on
    # the earlier piece (F and the stretch are continuous there, so either gives the same)
    rows = [(piece, t, y) for k, (piece, sol) in enumerate(zip(pieces, sols))
            for t, y in zip(sol.ts[k > 0:], sol.ys[k > 0:])]
    ys = np.array([y for _, _, y in rows])
    b_p = ys[:, _SYM_INDEX]
    samples = [_sample(piece, mp, t, y) for piece, t, y in rows]
    fs, b_g, d_g = (np.array(part) for part in zip(*samples))

    if pieces[0].kind == "shear":
        axial = _I3[0]  # a shear's T11 is the lab frame's, rotated or not
        p = pressure(b_p, mp)
        convention = "tr T = 0"
        eps_ax = np.zeros(len(rows))
    else:
        axial, lateral = _frame(pieces[0])[:, :2].T
        p = pressure(b_p, mp, lateral)
        convention = "lateral traction-free"
        eps_ax = np.array([math.log(piece.drive(t)) for piece, t, _ in rows])
    t_sym = stress(b_p, p, mp)
    xi = dissipation_rate(b_p, d_g, mp)
    return Trajectory(
        t=np.array([t for _, t, _ in rows]),
        F=fs,
        b_p=[SymTensor3(*row) for row in ys.tolist()],
        stress=t_sym,
        eps_axial=eps_ax,
        t_axial=np.einsum("nij,i,j->n", t_sym, axial, axial),
        det_bp=np.linalg.det(b_p),
        xi_m=xi,
        identity_residual=check_dissipation_identity(t_sym, b_g, d_g, xi, mp),
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
    b_p0 = np.diag([lambda_hold**2, 1.0 / lambda_hold, 1.0 / lambda_hold])
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
    b = curve.segments[0].b
    b_p = np.diag([b, b**-0.5, b**-0.5])
    for k, seg in enumerate(curve.segments):
        if k > 0:
            j = math.sqrt(seg.b / curve.segments[k - 1].b)  # axial jump of the elastic loading
            jump = np.diag([j, 1.0 / math.sqrt(j), 1.0 / math.sqrt(j)])
            b_p = jump @ b_p @ jump

        # F, L and the samples all ask for the stretch: solve it once per time
        lam = functools.lru_cache(maxsize=None)(seg.lam_at)
        protocol = uniaxial_protocol(
            lam=lam,
            lam_dot=lambda t, _lam=lam, _b=seg.b: _uniaxial.lambda_rate(_lam(t), _b, mp),
            span=(seg.t_start, seg.t_end),
        )
        span = seg.t_end - seg.t_start
        traj = drive(protocol, mp, b_p, rtol=rtol, atol=atol,
                     first_step=_REPLAY_FIRST_STEP * span)
        trajectories.append(traj)
        b_p = traj.b_p[-1].as_matrix()
    return trajectories
