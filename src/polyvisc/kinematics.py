"""Deformation protocols and configuration maps.

A motion protocol prescribes the deformation gradient F(t) and velocity
gradient L(t) of a strain-controlled experiment, each a plain 3x3 array:
isochoric uniaxial extension or simple shear, each driven by a scalar
history and its rate. A history whose rate jumps, such as ramp-and-hold,
is a tuple of protocols, one per smooth piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

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

    ``kind`` is "uniaxial" or "shear"; the driving callables return the
    scalar stretch/shear and its rate at a time inside ``span``.
    """

    kind: str
    span: tuple
    drive: Callable[[float], float]
    drive_rate: Callable[[float], float]
    # optional constant rotation applied to the motion (F -> Q F)
    rotation: Optional[np.ndarray] = field(default=None, repr=False)

    def F(self, t: float) -> np.ndarray:
        if self.kind == "shear":
            f = shear_F(self.drive(t))
        else:
            f = uniaxial_F(self.drive(t))
        if self.rotation is not None:
            f = self.rotation @ f
        return f

    def L(self, t: float) -> np.ndarray:
        if self.kind == "shear":
            l = shear_L(self.drive_rate(t))
        else:
            l = uniaxial_L(self.drive(t), self.drive_rate(t))
        if self.rotation is not None:
            # constant Q contributes no spin: L -> Q L Q^T exactly
            q = self.rotation
            l = q @ l @ q.T
        return l


def uniaxial_protocol(
    lam: Callable[[float], float],
    lam_dot: Callable[[float], float],
    span: tuple,
) -> MotionProtocol:
    return MotionProtocol("uniaxial", (float(span[0]), float(span[1])), lam, lam_dot)


def constant_stretch(lam0: float, span: tuple) -> MotionProtocol:
    if not (lam0 > 0.0):
        raise DomainError(f"uniaxial stretch must be positive, got {lam0}")
    return uniaxial_protocol(lambda t: lam0, lambda t: 0.0, span)


def shear_protocol(
    gamma: Callable[[float], float],
    gamma_dot: Callable[[float], float],
    span: tuple,
) -> MotionProtocol:
    return MotionProtocol("shear", (float(span[0]), float(span[1])), gamma, gamma_dot)


def ramp_hold(kind: str, amplitude: float, ramp: float, duration: float) -> tuple:
    """Ramp from rest to ``amplitude`` at a constant rate over (0, ramp), then hold to ``duration``.

    ``amplitude`` is the end stretch of a "uniaxial" ramp or the end shear of
    a "shear" ramp. The rate jumps to 0 at t = ramp, so the motion is
    returned as its smooth pieces: the ramp, then the hold (omitted when
    ramp == duration), with abutting spans. Both pieces give the same
    stretch at t = ramp.
    """
    if kind not in ("uniaxial", "shear"):
        raise ValueError(f"unknown protocol kind {kind!r}")
    start = 0.0 if kind == "shear" else 1.0
    delta = amplitude - start
    rate = delta / ramp
    pieces = [MotionProtocol(kind, (0.0, float(ramp)),
                             lambda t: start + delta * min(t / ramp, 1.0), lambda t: rate)]
    if ramp < duration:
        end = start + delta
        pieces.append(MotionProtocol(kind, (float(ramp), float(duration)),
                                     lambda t: end, lambda t: 0.0))
    return tuple(pieces)
