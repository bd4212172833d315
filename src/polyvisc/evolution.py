"""General 3-D evolution of the natural configuration under prescribed motion.

The state is the six-component natural-configuration tensor B_p. At every
instant the flow rule determines the stretching D_G of the natural
configuration: an incompressibility multiplier makes D_G exactly traceless,
and a Sylvester-type solve inverts the symmetrized viscous term. The rate
of B_p then follows from the frame-indifferent kinematic identity
L*B_p + B_p*L^T - 2*V*D_G*V, V = B_p^1/2. One ``eigh`` of B_p carries all
of it (``_elastic_split``): in B_p's eigenbasis V is diagonal, the
multiplier's traces are sums over diagonals and the solve is a componentwise
divide (``_flow``). Unimodularity of B_p is a
consequence, not an input: once a drive is integrated, det(B_p) of its
accepted states is checked, and drift raises rather than renormalizing.
Every tensor here is a plain 3x3 matrix: F and L come from the protocol as
arrays, and ``drive`` starts from a 3x3 B_p. ``SymTensor3`` appears only as
the element type of ``Trajectory.b_p``. The kernel forms its 3x3 products
with ``ndarray.dot``: the same BLAS call as ``@`` with less dispatch, which
is most of the cost at this size.

The kernel runs once per accepted state, as the right-hand side. A drive
keeps one record per accepted state, (t, B_p, F, B_G, Q, D_G): what the
right-hand side kept of its call at ``odesolve``'s FSAL stage, made at
exactly that state, appended by the step hook; the start state's comes
from the drive's first call, and a piece join is recorded once, on the
earlier piece. The trajectory is built in one pass over that list:
stress, dissipation, the identity residual and det(B_p) are array
expressions over the stacked records, and a state whose stress,
dissipation or identity residual is not finite raises. Stress and dissipation
come from ``material``; this module only fixes the pressure, by
traction-freeness of the lateral face e_y for uniaxial motions and by
tr(T) = 0 for shear, and records the convention used. Motions are posed in
the lab frame (``kinematics``), so the axial stress is T_11.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Sequence, Union

import numpy as np

from . import uniaxial as _uniaxial
from .kinematics import MotionProtocol
from .material import (
    MaterialParams,
    check_dissipation_identity,
    dissipation_rate,
    pressure,
    stress,
)
from .odesolve import (
    DEFAULT_RTOL,
    IntegrationError,
    OdeProblem,
    integrate,
)
from .tensors import (
    _FLAT,
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


def _elastic_split(bpm: np.ndarray, b: np.ndarray):
    """(lam, Q, s s^T, B_G, Q^T B_G Q) from one decomposition B_p = Q diag(lam) Q^T = V^2.

    With s = sqrt(lam), B_G = V^-1 B V^-1 = Q ((Q^T B Q) / s s^T) Q^T: the
    elastic map is taken as its own stretch tensor (symmetric factor
    convention), so the intermediate rotation is absorbed. The last item is
    B_G in B_p's eigenbasis, (Q^T B Q) / s s^T, before the lab-frame B_G is
    symmetrised.
    """
    lam, q = eig_sym(bpm)
    _require_spd(lam, "evolution")
    s = np.sqrt(lam)
    ss = s[:, None] * s
    b_gt = q.T.dot(b).dot(q) / ss
    b_g = q.dot(b_gt).dot(q.T)
    b_g += b_g.T
    b_g *= 0.5
    return lam, q, ss, b_g, b_gt


def _flow(bpm: np.ndarray, b_g: np.ndarray, b_gt: np.ndarray, lam, q,
          mp: MaterialParams) -> np.ndarray:
    """D_G from the flow rule, in B_p's eigenbasis (B_p = Q diag(lam) Q^T).

    ``b_gt`` is B_G in that basis, Q^T B_G Q. The multiplier
    c = (mu_g*tr(B_p^-1 B_G) - 3*mu_p) / tr(B_p^-1) enforces tr(D_G) = 0;
    both traces are read off the eigenbasis, tr(B_p^-1 B_G) as the dot
    product of diag(b_gt) with 1/lam, with no lab-frame product.
    M = (2/eta)(c*I + mu_p*B_p - mu_g*B_G) is still formed in the lab frame
    from the arrays the stress and the identity check see, so its large
    terms cancel in the frame the check contracts in (exact equilibria give
    an exactly zero rate), and is rotated once for the solve. Formed in the
    eigenbasis instead, M rounds in another frame than the check's: the
    identity residual of the preset shear ramp-holds reached 4.9e-9
    (pmr15_288) to 1.5e-8, against about 1e-12 here.
    """
    inv = 1.0 / lam
    mu_p, mu_g = mp.mu_p_bar, mp.mu_g_bar
    c = (mu_g * float(b_gt.diagonal().dot(inv)) - 3.0 * mu_p) / float(inv.sum())
    m = mu_p * bpm
    m.flat[::4] += c  # the diagonal: + c I
    m -= mu_g * b_g
    m *= 2.0 / mp.eta
    return _sylvester_from_decomp(lam, q.T.dot(m).dot(q))


def _rate_kernel(y: np.ndarray, b: np.ndarray, lmat: np.ndarray, mp: MaterialParams):
    """Rate of B_p's components ``y`` under total stretch B and velocity gradient L.

    Returns ``(rate, B_G, Q, D_G)``: the state's B_G, B_p's eigenvectors Q
    and D_G in that eigenbasis are what a trajectory records of the state.
    """
    bpm = y[_SYM_INDEX]
    lam, q, ss, b_g, b_gt = _elastic_split(bpm, b)
    d_g = _flow(bpm, b_g, b_gt, lam, q, mp)
    lb = lmat.dot(bpm)
    rate = lb + lb.T
    # V D_G V is (D_G * s s^T) in the eigenbasis
    rate -= 2.0 * q.dot(d_g * ss).dot(q.T)
    return rate.take(_FLAT), b_g, q, d_g


def dG_rate(b_p: np.ndarray, b_g: np.ndarray, mp: MaterialParams) -> np.ndarray:
    """Natural-configuration stretching from the flow rule."""
    lam, q = eig_sym(b_p)
    _require_spd(lam, "dG_rate")
    return q.dot(_flow(b_p, b_g, q.T.dot(b_g).dot(q), lam, q, mp)).dot(q.T)


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


def drive(
    protocol: Union[MotionProtocol, Sequence[MotionProtocol]],
    mp: MaterialParams,
    b_p0: np.ndarray,
    rtol: float = DEFAULT_RTOL,
) -> Trajectory:
    """Integrate B_p from the 3x3 array ``b_p0`` under the protocol and record the trajectory.

    ``protocol`` is one protocol or a sequence of smooth pieces with
    abutting spans and one kind (``kinematics.ramp_hold``).
    Each piece is one integration, so no step straddles a jump in the rate:
    it starts from the previous piece's end state, with the previous piece's
    last accepted step as its first step, and the breakpoint is recorded
    once. The first piece takes ``odesolve``'s automatic start. Each piece's
    step-size floor is ``odesolve``'s: 1e-12 of that piece's span, or the
    carried first step where that is shorter, so a short ramp in a long
    drive can take steps shorter than the ramp.

    Raises DomainError unless ``b_p0`` is a finite 3x3 matrix, symmetric
    within 1e-8 of its largest entry, and unless the viscous rates
    2*mu_p_bar/eta and 2*mu_g_bar/eta are finite; IntegrationError, after
    integrating, if det(B_p) of an accepted state is more than
    DET_DRIFT_LIMIT from 1, naming the first such state; and then
    DomainError if a state's stress, dissipation rate or identity residual
    is not finite, naming the first such state.
    """
    pieces = (protocol,) if isinstance(protocol, MotionProtocol) else tuple(protocol)
    for prev, piece in zip(pieces, pieces[1:]):
        if piece.span[0] != prev.span[1]:
            raise ValueError(f"protocol pieces must abut, got spans {prev.span} and {piece.span}")
        # the trajectory records one pressure convention
        if piece.kind != prev.kind:
            raise ValueError("protocol pieces must share their kind")
    b_p0 = np.asarray(b_p0, dtype=float)
    if b_p0.shape != (3, 3) or not np.isfinite(b_p0).all():
        raise DomainError(f"b_p0 must be a finite 3x3 matrix, got {b_p0.tolist()}")
    if np.max(np.abs(b_p0 - b_p0.T)) > 1e-8 * np.max(np.abs(b_p0)):  # no norm: squares overflow
        raise DomainError(f"b_p0 is not symmetric within tolerance, got {b_p0.tolist()}")
    for name, mu in (("mu_p_bar", mp.mu_p_bar), ("mu_g_bar", mp.mu_g_bar)):
        if not math.isfinite(2.0 * mu / mp.eta):  # the flow rule's (2/eta)*mu terms
            raise DomainError(f"viscous rate 2*{name}/eta = {2.0 * mu / mp.eta} is not finite")

    # (t, y, F, B_G, Q, D_G in Q's basis) of the start state and of each accepted state
    samples = []
    latest = None

    def rhs_of(piece):
        def rhs(t, y):
            nonlocal latest
            f = piece.F(t)
            rate, b_g, q, d_g = _rate_kernel(y, f.dot(f.T), piece.L(t), mp)
            latest = (t, y, f, b_g, q, d_g)
            if not samples:  # the drive's first call is at its start state
                samples.append(latest)
            return rate

        return rhs

    def record(t, y):  # the latest call was at exactly (t, y): odesolve's FSAL stage
        samples.append(latest)

    # averaging removes the rounding asymmetry of a product such as J B_p J
    y = (0.5 * (b_p0 + b_p0.T)).take(_FLAT)
    first_step = None
    for piece in pieces:
        problem = OdeProblem(rhs=rhs_of(piece), span=piece.span, y0=y, rtol=rtol,
                             first_step=first_step)
        sol = integrate(problem, record)
        y = sol.ys[-1]
        first_step = sol.ts[-1] - sol.ts[-2]
    return _build_trajectory(pieces[0].kind, samples, mp)


def _build_trajectory(kind: str, samples, mp: MaterialParams) -> Trajectory:
    ts, ys, fs, b_g, q, d_g = (np.array(part) for part in zip(*samples))
    b_p = ys[:, _SYM_INDEX]
    det_bp = np.linalg.det(b_p)
    drifted = np.flatnonzero(np.abs(det_bp - 1.0) > DET_DRIFT_LIMIT)
    if drifted.size:
        i = drifted[0]
        raise IntegrationError(f"det(B_p) drifted to {det_bp[i]} at t = {ts[i]}; "
                               "aborting instead of renormalizing")
    d_g = q @ d_g @ q.transpose(0, 2, 1)  # to the lab frame

    if kind == "shear":
        p = pressure(b_p, mp)
        convention = "tr T = 0"
        eps_ax = np.zeros(ts.size)
    else:
        p = pressure(b_p, mp, _I3[1])  # the lateral face e_y is traction-free
        convention = "lateral traction-free"
        # uniaxial_F puts the stretch at [0, 0]; math.log, not np.log, which can differ by 1 ulp
        eps_ax = np.array([math.log(lam) for lam in fs[:, 0, 0].tolist()])
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, naming the state
        t_sym = stress(b_p, p, mp)
        xi = dissipation_rate(b_p, d_g, mp)
        residual = check_dissipation_identity(t_sym, b_g, d_g, xi, mp)
    finite = np.array([np.isfinite(t_sym).all(axis=(1, 2)), np.isfinite(xi),
                       np.isfinite(residual)])
    if not finite.all():
        i = int(np.argmin(finite.all(axis=0)))
        names = [name for name, ok in zip(("stress", "xi_m", "identity residual"), finite[:, i])
                 if not ok]
        raise DomainError(f"{', '.join(names)} not finite at t = {ts[i]}, the first such state")
    return Trajectory(
        t=ts,
        F=fs,
        b_p=[SymTensor3(*row) for row in ys.tolist()],
        stress=t_sym,
        eps_axial=eps_ax,
        t_axial=t_sym[:, 0, 0],
        det_bp=det_bp,
        xi_m=xi,
        identity_residual=residual,
        pressure_convention=convention,
    )


def relax(
    lambda_hold: float,
    mp: MaterialParams,
    hold_time: float,
    rtol: float = DEFAULT_RTOL,
) -> Trajectory:
    """Stress relaxation: instantaneous stretch to lambda_hold, then hold.

    The loading step is elastic, so B_p jumps to the total stretch
    diag(lambda^2, 1/lambda, 1/lambda) and relaxes from there. A stretch
    that is not positive, or whose square is not a finite double, raises
    DomainError.
    """
    if not (lambda_hold > 0.0):
        raise DomainError(f"hold stretch must be positive, got {lambda_hold}")
    try:
        stretch_sq = float(lambda_hold) ** 2
    except OverflowError:
        raise DomainError(f"hold stretch {lambda_hold} has no finite square") from None
    protocol = MotionProtocol("uniaxial", (0.0, float(hold_time)),
                              lambda t: lambda_hold, lambda t: 0.0)
    b_p0 = np.diag([stretch_sq, 1.0 / lambda_hold, 1.0 / lambda_hold])
    return drive(protocol, mp, b_p0, rtol=rtol)


def replay_uniaxial(curve: CreepCurve, mp: MaterialParams) -> List[Trajectory]:
    """Re-drive a solved scalar creep history through the tensor integrator.

    Each constant-stress segment becomes a uniaxial protocol whose stretch
    comes from the scalar closed-form solution, with the scalar flow
    rule (resolved through the module, so test fixtures can intercept it)
    supplying the rate at that stretch. B_p starts at the scalar prediction
    diag(B, B^-1/2, B^-1/2) of the first segment and jumps elastically at
    segment boundaries. The tensor side derives its own flow direction from
    the full 3-D rule, so staying on the scalar manifold (and carrying the
    applied stress) is a genuine cross-check of the two reductions. Each
    segment is integrated at ``DEFAULT_RTOL``; its exact solution is
    constant, so it starts stationary and takes its span in one step.
    """
    trajectories: List[Trajectory] = []
    b = curve.segments[0].b
    b_p = np.diag([b, b**-0.5, b**-0.5])
    for k, seg in enumerate(curve.segments):
        if k > 0:
            j = math.sqrt(seg.b / curve.segments[k - 1].b)  # axial jump of the elastic loading
            jump = np.diag([j, 1.0 / math.sqrt(j), 1.0 / math.sqrt(j)])
            b_p = jump @ b_p @ jump

        # F, L and the axial strain all ask for the stretch: solve it once per time
        lam = functools.lru_cache(maxsize=None)(seg.lam_at)
        protocol = MotionProtocol(
            "uniaxial", (float(seg.t_start), float(seg.t_end)), lam,
            lambda t, _lam=lam, _b=seg.b: _uniaxial.lambda_rate(_lam(t), _b, mp),
        )
        traj = drive(protocol, mp, b_p)
        trajectories.append(traj)
        b_p = traj.b_p[-1].as_matrix()
    return trajectories
