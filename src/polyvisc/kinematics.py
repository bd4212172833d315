"""Deformation protocols and configuration maps.

A motion protocol prescribes the deformation gradient F(t) and velocity
gradient L(t) of a strain-controlled experiment, each a plain 3x3 array in
the lab frame: isochoric uniaxial extension along e_x or simple shear in
the x-y plane, each driven by a scalar history and its rate.
``MotionProtocol(kind, span, drive, drive_rate)`` is the one way to build
a motion. A history whose rate jumps, such as ramp-and-hold, is a tuple of
protocols, one per smooth piece; ``ramp_hold`` builds that one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensors import DomainError


def uniaxial_F(lam: float) -> np.ndarray:
    """Deformation gradient diag(lam, lam^-1/2, lam^-1/2) of isochoric uniaxial extension."""
    if not (lam > 0.0):
        raise DomainError(f"uniaxial stretch must be positive, got {lam}")
    lat = 1.0 / math.sqrt(lam)
    return np.array([[lam, 0.0, 0.0], [0.0, lat, 0.0], [0.0, 0.0, lat]])


def uniaxial_L(lam: float, lam_dot: float) -> np.ndarray:
    """Velocity gradient of uniaxial extension; traceless by construction."""
    if not (lam > 0.0):
        raise DomainError(f"uniaxial stretch must be positive, got {lam}")
    r = lam_dot / lam
    return np.array([[r, 0.0, 0.0], [0.0, -0.5 * r, 0.0], [0.0, 0.0, -0.5 * r]])


def shear_F(gamma: float) -> np.ndarray:
    """Simple-shear deformation gradient (unit determinant)."""
    return np.array([[1.0, gamma, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def shear_L(gamma_dot: float) -> np.ndarray:
    return np.array([[0.0, gamma_dot, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class MotionProtocol:
    """Strain-controlled motion over a time span.

    ``kind`` is "uniaxial" or "shear" (any other raises ValueError); the
    driving callables return the scalar stretch/shear and its rate at a time
    inside ``span``.
    """

    kind: str
    span: tuple
    drive: Callable[[float], float]
    drive_rate: Callable[[float], float]

    def __post_init__(self):
        if self.kind not in ("uniaxial", "shear"):
            raise ValueError(f"unknown protocol kind {self.kind!r}")

    def F(self, t: float) -> np.ndarray:
        if self.kind == "shear":
            return shear_F(self.drive(t))
        return uniaxial_F(self.drive(t))

    def L(self, t: float) -> np.ndarray:
        if self.kind == "shear":
            return shear_L(self.drive_rate(t))
        return uniaxial_L(self.drive(t), self.drive_rate(t))


def ramp_hold(kind: str, amplitude: float, ramp: float, duration: float) -> tuple:
    """Ramp from rest to ``amplitude`` at a constant rate over (0, ramp), then hold to ``duration``.

    ``amplitude`` is the end stretch of a "uniaxial" ramp or the end shear of
    a "shear" ramp. The rate jumps to 0 at t = ramp, so the motion is
    returned as its smooth pieces: the ramp, then the hold (omitted when
    ramp == duration), with abutting spans. Both pieces give the same
    stretch at t = ramp. Unless 0 < ramp <= duration < inf it raises
    ValueError; a rate that is not finite raises DomainError.
    """
    if not (0.0 < ramp <= duration < math.inf):
        raise ValueError(f"ramp_hold needs 0 < ramp <= duration < inf, got ramp = {ramp}, "
                         f"duration = {duration}")
    start = 0.0 if kind == "shear" else 1.0
    delta = amplitude - start
    rate = delta / ramp
    if not math.isfinite(rate):
        raise DomainError(f"ramp rate {delta}/{ramp} = {rate} is not finite")
    pieces = [MotionProtocol(kind, (0.0, float(ramp)),
                             lambda t: start + delta * min(t / ramp, 1.0), lambda t: rate)]
    if ramp < duration:
        end = start + delta
        pieces.append(MotionProtocol(kind, (float(ramp), float(duration)),
                                     lambda t: end, lambda t: 0.0))
    return tuple(pieces)
