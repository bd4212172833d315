"""Adaptive embedded Runge-Kutta integration.

Implements the Dormand-Prince 5(4) pair with PI step-size control and
returns the states on the accepted mesh. It integrates the six-component
tensor evolution (the scalar creep equation is solved in closed form in
``uniaxial``). The pair is first same as last (FSAL): a step's seventh
stage is evaluated at exactly its new state, and once accepted it is the
next step's first. An optional ``step_hook`` sees every accepted state
right after that evaluation and may abort the run. The module owns how a
run starts, by one unit-free rule (``_initial_step``), and where it stops:
a step below ``_MIN_STEP_FRACTION`` of the span fails, unless the caller's
own ``first_step`` was shorter still. A trial stage that
leaves the right-hand side's domain (it raises ``DomainError``) rejects the
step like a non-finite error estimate, as CVODE treats a recoverable
right-hand-side failure; a start state outside the domain still raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .tensors import DomainError

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])  # stage 7 is at (t_new, y_new)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),  # the fifth-order weights too
]
# fifth-order minus embedded fourth-order weights (local error estimate)
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_BETA = 0.04  # PI controller damping exponent
_EXPO = 0.2 - 0.75 * _PI_BETA
_MIN_STEP_FRACTION = 1e-12  # of the span; below this the problem is stiff/singular
_MAX_STEPS = 1_000_000

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10


class IntegrationError(RuntimeError):
    """Integration failed; ``partial`` is the solution up to the failure, if available."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class OdeProblem:
    """An initial-value problem dy/dt = f(t, y) over a time span.

    ``first_step`` replaces the automatic start (``_initial_step``); ``drive``
    continues each piece with the previous piece's last step.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    span: tuple
    y0: np.ndarray
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    first_step: Optional[float] = None

    def __post_init__(self):
        t0, t1 = self.span
        if not (t1 > t0):
            raise ValueError(f"span must be increasing, got {self.span}")
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.first_step is not None and not (self.first_step > 0.0):
            raise ValueError(f"first_step must be positive, got {self.first_step}")


@dataclass
class OdeSolution:
    """Accepted mesh, the states on it, and the solver's counters."""

    ts: np.ndarray
    ys: np.ndarray
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs: int = 0


def _rms(x: np.ndarray) -> float:
    """Root mean square: np.mean's reduction and division, without its Python wrapper."""
    sq = x * x
    return math.sqrt(np.add.reduce(sq) / sq.size)


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, rtol: float, atol: float) -> float:
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return _rms(err / scale)


def _initial_step(rhs, t0, y0, f0, t1, rtol, atol):
    """The first step, and the number of RHS evaluations spent on it.

    A start is stationary when its rate would move y by at most one tolerance
    unit over the span (d1*span <= 1; never for a nan or inf rate): it tries
    the whole span, unprobed (a rejection cuts it). Any other start takes
    the probed Hairer-Norsett-Wanner step (Solving ODEs I, sec. II.4),
    h1 = (0.01 / max(d1, d2))**(1/5), taken in the problem's own time unit.
    d1 = rms(f0/scale) is a rate (tolerance units per time) and the Euler
    probe's d2 = rms((f1 - f0)/scale)/h0 a second derivative (per time
    squared), so max(d1, d2) compares numbers of different units. In the
    unit 1/w, w = d2/d1, both read d1**2/d2; the rule there, taken back to
    the problem's unit, is h1 = 0.01**(1/5) * d1**(-1/5) * (d1/d2)**(4/5),
    the h with h**5 * d1*w**4 = 0.01. It equals HNW's step wherever d1 = d2,
    and scaling time by a scales it by a. Neither power can overflow (the
    form d1**3 / d2**4 inside one fifth root can). d2 = 0 (or nan) gives no
    time scale: h1 = inf, and the cap 100*h0 bounds the step. The fallback
    h0 = 1e-6 for a state below 1e-5 tolerance units (it stays above the
    floor) still carries the problem's time unit; no drive of B_p (about
    1e8 tolerance units near I) takes it. An infinite or nan rate takes no
    fallback: h0 = 0.01*d0/d1 is 0 or nan, and the start fails unprobed.
    """
    span = t1 - t0
    scale = atol + rtol * np.abs(y0)
    with np.errstate(over="ignore"):  # an overflowing norm is inf: h0 = 0 below
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
    if d1 * span <= 1.0:
        return span, 0
    fallback = d0 < 1e-5 and d1 < math.inf
    h0 = max(1e-6, 10 * _MIN_STEP_FRACTION * span) if fallback else 0.01 * d0 / d1
    h0 = min(h0, span)
    if not (h0 > 0.0):
        raise IntegrationError(
            f"step size underflow at t = {t0} (initial h = {h0}); problem too stiff or singular")
    f1 = rhs(t0 + h0, y0 + h0 * f0)
    with np.errstate(over="ignore"):
        d2 = _rms((f1 - f0) / scale) / h0
    h1 = 0.01 ** 0.2 * d1 ** -0.2 * (d1 / d2) ** 0.8 if d2 > 0.0 else math.inf
    return min(100.0 * h0, h1, span), 1


def integrate(
    problem: OdeProblem,
    step_hook: Optional[Callable[[float, np.ndarray], None]] = None,
) -> OdeSolution:
    """Integrate the problem over its span.

    ``step_hook(t, y)`` runs after every accepted step, and the last
    right-hand-side call before it was made at exactly that ``(t, y)`` (the
    FSAL stage; ``t`` is the span's end on the landing step), so the hook
    can read what that call left behind. It may raise to abort, and its
    return value is ignored. A state handed to the right-hand side or to the
    hook is never written into afterwards, so both may keep it (``drive``
    records each accepted state that way). A step shorter than
    ``_MIN_STEP_FRACTION`` of the span, or than ``first_step`` where that is
    smaller, fails as "step size underflow". The step loop, right-hand-side
    calls included, runs with numpy's overflow and invalid-value warnings
    off: a non-finite stage rejects the step. Every IntegrationError raised
    here, the hook's too, carries the accepted states as ``partial``.
    ``n_rhs`` counts the right-hand-side evaluations made, a failed one
    included.
    """
    rhs = problem.rhs
    t0, t1 = float(problem.span[0]), float(problem.span[1])
    rtol, atol = problem.rtol, problem.atol
    y = np.array(problem.y0, dtype=float).ravel()
    dim = y.size

    t = t0
    f = np.asarray(rhs(t, y), dtype=float)
    ts = [t0]
    ys = [y.copy()]
    n_accepted = 0
    n_rejected = 0
    n_rhs = 1
    err_prev = 1e-4  # PI controller memory

    k = np.empty((7, dim))
    min_step = _MIN_STEP_FRACTION * (t1 - t0)

    def solution():
        return OdeSolution(
            ts=np.array(ts), ys=np.array(ys),
            n_accepted=n_accepted, n_rejected=n_rejected, n_rhs=n_rhs,
        )

    try:
        if problem.first_step is None:
            h, n_probe = _initial_step(rhs, t0, y, f, t1, rtol, atol)
            n_rhs += n_probe
        else:
            h = problem.first_step
            min_step = min(min_step, h)  # a start the caller chose is admissible

        # one errstate for the whole loop: a stage that overflows or meets inf - inf
        # gives a non-finite error estimate, which rejects the step without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            while t < t1:
                if n_accepted + n_rejected > _MAX_STEPS:
                    raise IntegrationError(f"step budget exhausted at t = {t}")
                if h < min_step:
                    raise IntegrationError(f"step size underflow at t = {t} (h = {h}); problem too "
                                           "stiff or singular")
                last = h >= t1 - t
                if last:  # land on t1 exactly, so a following span starts where this one ends
                    h = t1 - t

                k[0] = f
                t_new = t1 if last else t + h
                try:
                    for i in range(1, 6):
                        n_rhs += 1
                        k[i] = rhs(t + _C[i] * h, y + h * _A[i].dot(k[:i]))
                    # stage 7 is evaluated at exactly (t_new, y_new): first same as last (FSAL)
                    y_new = y + h * _A[6].dot(k[:6])
                    n_rhs += 1
                    k[6] = rhs(t_new, y_new)
                except DomainError:  # a trial stage left the domain: as a non-finite estimate
                    err = math.inf
                else:
                    err = _error_norm(h * _E.dot(k), y, y_new, rtol, atol)

                if not math.isfinite(err):
                    # overshot into a bad region; retry with a much smaller step
                    n_rejected += 1
                    h *= _MIN_FACTOR
                    continue

                if err <= 1.0:
                    if step_hook is not None:
                        step_hook(t_new, y_new)
                    t, y, f = t_new, y_new, k[6].copy()
                    ts.append(t)
                    ys.append(y.copy())
                    n_accepted += 1

                    factor = _SAFETY * err ** (-_EXPO) * err_prev ** _PI_BETA if err > 0.0 else _MAX_FACTOR
                    h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                    err_prev = max(err, 1e-4)
                else:
                    n_rejected += 1
                    factor = _SAFETY * err ** (-0.2)
                    h *= min(1.0, max(_MIN_FACTOR, factor))
    except IntegrationError as exc:
        exc.partial = solution()
        raise

    return solution()
