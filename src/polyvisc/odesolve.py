"""Adaptive embedded Runge-Kutta integration.

Implements the Dormand-Prince 5(4) pair with PI step-size control and
returns the states on the accepted mesh. It integrates the six-component
tensor evolution (the scalar creep equation is solved in closed form in
``uniaxial``); an optional ``step_hook`` monitors every accepted step (used
to police determinant drift during natural-configuration evolution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
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
_STATIONARY_STEP_FRACTION = 10 * _MIN_STEP_FRACTION  # least initial step of a stationary start
_MAX_STEPS = 1_000_000

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10


class IntegrationError(RuntimeError):
    """Integration failed; carries the last valid state and partial solution."""

    def __init__(self, message: str, t: float, y: np.ndarray, partial=None):
        super().__init__(message)
        self.t = t
        self.y = y
        self.partial = partial  # OdeSolution up to the failure, if available


@dataclass(frozen=True)
class OdeProblem:
    """An initial-value problem dy/dt = f(t, y) over a time span.

    ``first_step`` replaces the automatic start (``_initial_step``) when the
    caller knows the problem's time scale, e.g. from the piece before a
    breakpoint. ``min_step`` is the step size below which integration fails
    as stiff or singular; it defaults to ``_MIN_STEP_FRACTION`` of the span.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    span: tuple
    y0: np.ndarray
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    first_step: Optional[float] = None
    min_step: Optional[float] = None

    def __post_init__(self):
        t0, t1 = self.span
        if not (t1 > t0):
            raise ValueError(f"span must be increasing, got {self.span}")
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise ValueError("tolerances must be positive")
        for name in ("first_step", "min_step"):
            value = getattr(self, name)
            if value is not None and not (value > 0.0):
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass
class OdeSolution:
    """Accepted mesh, the states on it, and the solver's counters."""

    ts: np.ndarray
    ys: np.ndarray
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs: int = 0


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, rtol: float, atol: float) -> float:
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(rhs, t0, y0, f0, t1, rtol, atol) -> float:
    """Automatic initial step selection (Hairer-Norsett-Wanner heuristic).

    A (near-)stationary start gives the heuristic no time scale. Its
    fallback step, 1e-6, is raised to ``_STATIONARY_STEP_FRACTION`` of the
    span on spans over 1e5, so it stays above the ``_MIN_STEP_FRACTION``
    floor however long the span is.
    """
    scale = atol + rtol * np.abs(y0)
    with np.errstate(over="ignore"):  # an overflowing norm is inf: h0 = 0 below
        d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    stationary_step = max(1e-6, _STATIONARY_STEP_FRACTION * (t1 - t0))
    h0 = stationary_step if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t1 - t0)
    if not (h0 > 0.0):
        raise IntegrationError(
            f"step size underflow at t = {t0} (initial h = {h0}); problem too stiff or singular",
            t0,
            y0,
        )
    f1 = rhs(t0 + h0, y0 + h0 * f0)
    with np.errstate(over="ignore"):
        d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(stationary_step, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t1 - t0)


def integrate(
    problem: OdeProblem,
    step_hook: Optional[Callable[[float, np.ndarray], None]] = None,
) -> OdeSolution:
    """Integrate the problem over its span.

    ``step_hook(t, y)`` runs after every accepted step as a monitor; it may
    raise to abort, and its return value is ignored.
    """
    rhs = problem.rhs
    t0, t1 = float(problem.span[0]), float(problem.span[1])
    rtol, atol = problem.rtol, problem.atol
    y = np.array(problem.y0, dtype=float).ravel()
    dim = y.size

    t = t0
    f = np.asarray(rhs(t, y), dtype=float)
    n_rhs = 1
    if problem.first_step is None:
        h = _initial_step(rhs, t0, y, f, t1, rtol, atol)
        n_rhs += 1
    else:
        h = problem.first_step

    ts = [t0]
    ys = [y.copy()]
    n_accepted = 0
    n_rejected = 0
    err_prev = 1e-4  # PI controller memory

    k = np.empty((7, dim))
    min_step = problem.min_step
    if min_step is None:
        min_step = _MIN_STEP_FRACTION * (t1 - t0)

    def _partial():
        return OdeSolution(
            ts=np.array(ts), ys=np.array(ys),
            n_accepted=n_accepted, n_rejected=n_rejected, n_rhs=n_rhs,
        )

    while t < t1:
        if n_accepted + n_rejected > _MAX_STEPS:
            raise IntegrationError("step budget exhausted", t, y, _partial())
        if h < min_step:
            raise IntegrationError(
                f"step size underflow at t = {t} (h = {h}); problem too stiff or singular",
                t,
                y,
                _partial(),
            )
        last = h >= t1 - t
        if last:  # land on t1 exactly, so a following span starts where this one ends
            h = t1 - t

        k[0] = f
        for i in range(1, 7):
            yi = y + h * (_A[i] @ k[:i])
            k[i] = rhs(t + _C[i] * h, yi)
        n_rhs += 6

        y_new = y + h * (_B5 @ k)
        # stage 7 is evaluated at (t+h, y_new): FSAL
        err_vec = h * (_E @ k)
        err = _error_norm(err_vec, y, y_new, rtol, atol)

        if not math.isfinite(err):
            # overshot into a bad region; retry with a much smaller step
            n_rejected += 1
            h *= _MIN_FACTOR
            continue

        if err <= 1.0:
            t_new = t1 if last else t + h
            if step_hook is not None:
                try:
                    step_hook(t_new, y_new)
                except IntegrationError as exc:
                    if exc.partial is None:
                        exc.partial = _partial()
                    raise
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

    return OdeSolution(
        ts=np.array(ts),
        ys=np.array(ys),
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_rhs=n_rhs,
    )
