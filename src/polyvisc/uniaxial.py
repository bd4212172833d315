"""Uniaxial creep and recovery under piecewise-constant axial stress.

Within a constant-stress segment the traction-free condition pins the
natural-configuration stretch B, so only the total stretch lambda evolves,
and its scalar flow rule integrates in closed form (``SegmentTrace``).
Instantaneous load changes enter as multiplicative jumps of lambda between
segments; the initial condition of a virgin load is lambda(0) = sqrt(B).
Strain is logarithmic by default (engineering strain is available for data
reported that way).

``sls_creep_analytic`` is the small-strain limit: a standard-linear-solid
creep curve with instantaneous compliance 1/(3*mu_p_bar), retardation
strength 1/(3*mu_g_bar) and time constant eta/(2*mu_g_bar). The factor 3
is the incompressible uniaxial modulus factor; the strictly one-dimensional
reduction of the same model carries a factor 2 instead. All oracles here
use the three-dimensional value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import List

import numpy as np

from .material import MaterialParams
from .odesolve import integrate  # noqa: F401  (unused here; perfbench/spans.py wraps this name)
from .tensors import DomainError

STRAIN_MEASURES = ("log", "engineering")

# Samples per segment, both ends included, of CreepCurve.t/epsilon and save_curve.
SEGMENT_SAMPLES = 17


@dataclass(frozen=True)
class CreepSegment:
    """One piece of a stress program: constant axial stress held for a duration."""

    stress: float  # Pa
    duration: float  # s

    def __post_init__(self):
        if not (self.duration > 0.0):
            raise ValueError(f"segment duration must be positive, got {self.duration}")
        if not math.isfinite(self.stress):
            raise ValueError("segment stress must be finite")


def solve_B(t11: float, mu_p_bar: float) -> float:
    """Natural-configuration stretch B under axial stress t11, lateral faces free.

    B solves mu_p_bar*(B - B^-1/2) = t11; in s = sqrt(B) this is the cubic
    s^3 - (t11/mu_p_bar)*s - 1 = 0, which has exactly one positive root.
    Newton from s = 1 + a/3 with a bisection safeguard.
    """
    if not (mu_p_bar > 0.0):
        raise DomainError(f"mu_p_bar must be positive, got {mu_p_bar}")
    a = float(t11) / float(mu_p_bar)

    def g(s):
        return s * s * s - a * s - 1.0

    lo, hi = 0.0, 2.0 + abs(a)  # g(0) = -1 < 0 < g(2 + |a|) for every finite a
    s = 1.0 + a / 3.0
    if not (lo < s < hi):
        s = 0.5 * (lo + hi)
    for _ in range(100):
        gs = g(s)
        if gs == 0.0:
            break
        if gs > 0.0:
            hi = s
        else:
            lo = s
        dg = 3.0 * s * s - a
        s_new = s - gs / dg if dg != 0.0 else 0.5 * (lo + hi)
        if not (lo < s_new < hi):
            s_new = 0.5 * (lo + hi)
        if abs(s_new - s) <= 1e-14:
            s = s_new
            break
        s = s_new
    return s * s


def lambda_rate(lam: float, b: float, mp: MaterialParams) -> float:
    """Stretch rate of uniaxial extension at natural-configuration stretch b, held fixed."""
    if not (lam > 0.0 and b > 0.0):
        raise DomainError(f"lambda and B must be positive, got {lam}, {b}")
    mu_p, mu_g, eta = mp.mu_p_bar, mp.mu_g_bar, mp.eta
    frac = (mu_g * (lam**3 + 2.0 * b**3) - 3.0 * mu_p * b * b * lam) / (
        b * lam * (1.0 + 2.0 * b**1.5)
    )
    return -lam * ((mu_g * lam * lam / b - mu_p * b - frac) / (eta * b))


def _flow_constants(b: float, mp: MaterialParams):
    """(lam_inf, rate) of the scalar flow rule at natural-configuration stretch b.

    With B = b held, ``lambda_rate`` is exactly dlam/dt = -kappa*P(lam) with
    kappa = 2/(eta b^2 (1 + 2 b^1.5)) and the cubic
    P(lam) = c3 lam^3 + c1 lam + c0, c3 = mu_g b^1.5, c1 = mu_p b^2 (1 - b^1.5),
    c0 = -mu_g b^3. For mu_g > 0, P is convex on lam > 0 with P(0) < 0, so it
    has exactly one positive root r, the creep asymptote; rate = kappa*P'(r).
    In the Maxwell limit (mu_g = 0) P = c1 lam: lam_inf = 0, rate = kappa*c1.
    """
    mu_p, mu_g, eta = float(mp.mu_p_bar), float(mp.mu_g_bar), float(mp.eta)
    b15 = b * math.sqrt(b)
    kappa = 2.0 / (eta * b * b * (1.0 + 2.0 * b15))
    c1 = mu_p * b * b * (1.0 - b15)
    if mu_g == 0.0:
        return 0.0, kappa * c1
    c3 = mu_g * b15
    # P/c3 = r^3 + p r - b^1.5; sqrt(b) is its root at p = 0 and
    # sqrt(b) + sqrt(-p) bounds it from above otherwise, so Newton on the
    # convex cubic decreases monotonically onto r.
    p = c1 / c3
    r = math.sqrt(b) + math.sqrt(max(-p, 0.0))
    for _ in range(100):
        g = (r * r + p) * r - b15
        if not (g > 0.0):
            break
        step = g / (3.0 * r * r + p)
        r -= step
        if step <= 1e-15 * r:
            break
    rate = kappa * c3 * (2.0 * r * r + b15 / r)
    if not (math.isfinite(r) and math.isfinite(rate)):
        raise DomainError(f"no finite creep solution at B = {b}: asymptote {r}, rate {rate}")
    return r, rate


# lam_at runs one Newton body on math for scalar times and on numpy for arrays.
_SCALAR = SimpleNamespace(
    exp=math.exp, expm1=math.expm1, log1p=math.log1p, atan=math.atan,
    where=lambda c, x, y: x if c else y,
    all_within=lambda x, tol: abs(x) <= tol,
    all_positive=lambda x: 0.0 < x < math.inf,
)
_ARRAY = SimpleNamespace(
    exp=np.exp, expm1=np.expm1, log1p=np.log1p, atan=np.arctan, where=np.where,
    all_within=lambda x, tol: bool((np.abs(x) <= tol).all()),
    all_positive=lambda x: bool(((x > 0.0) & (x < np.inf)).all()),
)
_NEWTON_MAX_ITER = 200


@dataclass
class SegmentTrace:
    """Exact lambda history of one constant-stress segment (absolute time).

    With r = lam_inf, P = c3 (lam - r) Q(lam), Q = lam^2 + r lam + q and
    q = b^1.5 / r (see ``_flow_constants``). Partial fractions integrate the
    flow rule to

        v + k = H(lam) - H(lam_start),  v = ln((lam - r)/(lam_start - r)),
        k = rate * (t - t_start),       H = ln(Q)/2 + (3r/2) * int dlam/Q,

    where the integral is an atan or a log term by the sign of r^2 - 4q.
    ``lam_at`` solves this for v by Newton: dF/dv = Q(r)/Q(lam) > 0 for
    F = v + k - H(lam) + H(lam_start), and v lies in [-k max(1, rho),
    -k min(1, rho)] with rho = Q(lam_start)/Q(r). It starts at v = -k rho,
    the end from which Newton approaches the root of the convex (lam < r) or
    concave (lam > r) F monotonically, and bisects the shrinking bracket
    instead of any step that would leave it or fails to halve the previous
    one, so lam stays between lam_start and r. In the Maxwell limit
    lam = lam_start * exp(-rate (t - t_start)).
    """

    index: int
    stress: float  # Pa
    b: float  # natural-configuration stretch, constant in the segment
    t_start: float
    t_end: float
    lam_start: float  # post-jump stretch at t_start
    lam_inf: float  # creep asymptote r; 0 in the Maxwell limit
    rate: float  # 1/s, kappa*P'(r) (Maxwell: kappa*c1)

    def __post_init__(self):
        r, lam0 = self.lam_inf, self.lam_start
        if r == 0.0:
            return
        q = self.b * math.sqrt(self.b) / r
        disc = r * r - 4.0 * q
        self._d0 = lam0 - r
        self._q0 = lam0 * (lam0 + r) + q  # Q(lam_start)
        self._qr = 2.0 * r * r + q  # Q(r)
        self._rho = self._q0 / self._qr
        self._a0 = 2.0 * lam0 + r
        self._w = math.sqrt(abs(disc))
        self._disc = disc

    def _delta_h(self, dl, lam, dq, ops):
        """H(lam) - H(lam_start), with dl = lam - lam_start and dq = Q(lam) - Q(lam_start)."""
        r, w, a0 = self.lam_inf, self._w, self._a0
        a = 2.0 * lam + r  # a - a0 = 2 dl
        if self._disc < 0.0:
            g = 2.0 / w * ops.atan(2.0 * w * dl / (w * w + a * a0))
        elif self._disc > 0.0:
            g = ops.log1p(4.0 * w * dl / ((a + w) * (a0 - w))) / w
        else:
            g = 4.0 * dl / (a * a0)
        return 0.5 * ops.log1p(dq / self._q0) + 1.5 * r * g

    def _solve(self, dt, ops):
        if self.lam_inf == 0.0:
            lam = self.lam_start * ops.exp(-self.rate * dt)
        else:
            lam0, r, d0 = self.lam_start, self.lam_inf, self._d0
            k = self.rate * dt
            lo, hi = -k * max(1.0, self._rho), -k * min(1.0, self._rho)
            tol = 1e-12 * (1.0 + k)
            v = -k * self._rho
            dv = 2.0 * (hi - lo)
            for _ in range(_NEWTON_MAX_ITER):
                dl = d0 * ops.expm1(v)
                lam = lam0 + dl
                dq = dl * (lam + lam0 + r)
                f = v + k - self._delta_h(dl, lam, dq, ops)
                lo, hi = ops.where(f < 0.0, v, lo), ops.where(f > 0.0, v, hi)
                newton = f * (self._q0 + dq) / self._qr
                # bisect where an unconverged Newton step would leave the bracket
                # or does not halve the last step
                bisect = (abs(newton) > tol) & (
                    (abs(newton) > 0.5 * abs(dv)) | (v - newton < lo) | (v - newton > hi)
                )
                dv = ops.where(bisect, v - 0.5 * (lo + hi), newton)
                v = v - dv
                if ops.all_within(dv, tol):
                    break
            else:
                raise DomainError(f"creep solution did not converge in segment {self.index}")
            lam = lam0 + d0 * ops.expm1(v)
        if not ops.all_positive(lam):
            raise DomainError(f"creep solution left lambda > 0 in segment {self.index}")
        return lam

    def lam_at(self, t):
        """Stretch at time(s) t in [t_start, t_end]: a float for a scalar t."""
        slack = 1e-12 * max(1.0, abs(self.t_end))
        if np.ndim(t) == 0:
            t = float(t)
            if not (self.t_start - slack <= t <= self.t_end + slack):
                raise ValueError(f"time {t} lies outside segment {self.index}")
            return self._solve(max(t - self.t_start, 0.0), _SCALAR)
        ts = np.asarray(t, dtype=float)
        if ts.size and (ts.min() < self.t_start - slack or ts.max() > self.t_end + slack):
            raise ValueError(f"times outside segment {self.index} requested")
        return self._solve(np.maximum(ts - self.t_start, 0.0), _ARRAY)

    def sample_times(self) -> np.ndarray:
        """The fixed output grid: SEGMENT_SAMPLES even steps ending exactly at t_end."""
        return np.linspace(self.t_start, self.t_end, SEGMENT_SAMPLES)


@dataclass
class CreepCurve:
    """Strain history of a piecewise-constant stress program.

    ``t``/``epsilon`` sample every segment on its ``sample_times`` grid,
    flattened over segments; the post-jump sample at each interior boundary
    is omitted there so times stay strictly increasing (``strain_in_segment``
    evaluates either side at any time).
    """

    segments: List[SegmentTrace]
    strain_measure: str = "log"

    def _to_strain(self, lam: np.ndarray) -> np.ndarray:
        if self.strain_measure == "engineering":
            return lam - 1.0
        return np.log(lam)

    def strain_in_segment(self, index: int, times) -> np.ndarray:
        """Strain at arbitrary times inside one segment (closed form)."""
        lam = self.segments[index].lam_at(np.atleast_1d(times))
        return self._to_strain(lam)

    def _grid(self, index: int) -> np.ndarray:
        ts = self.segments[index].sample_times()
        return ts[1:] if index > 0 else ts

    @cached_property
    def t(self) -> np.ndarray:
        return np.concatenate([self._grid(k) for k in range(len(self.segments))])

    @cached_property
    def epsilon(self) -> np.ndarray:
        return np.concatenate(
            [self.strain_in_segment(k, self._grid(k)) for k in range(len(self.segments))]
        )


def simulate_creep(segments, mp: MaterialParams, strain_measure: str = "log") -> CreepCurve:
    """Solve the stress program exactly and return the resulting strain curve.

    Per segment, B is pinned by the traction-free relation; lambda starts
    from sqrt(B) at t = 0 and jumps by sqrt(B_new/B_old) across segment
    boundaries (instantaneous elastic accommodation), then follows the flow
    rule with B held constant. Raises DomainError if a parameter set drives
    the solution out of lambda > 0 or to non-finite values.
    """
    segments = [
        s if isinstance(s, CreepSegment) else CreepSegment(*s) for s in segments
    ]
    if not segments:
        raise ValueError("at least one segment is required")
    if strain_measure not in STRAIN_MEASURES:
        raise ValueError(f"unknown strain measure {strain_measure!r}")

    traces: List[SegmentTrace] = []
    t0 = 0.0
    lam = None
    b_prev = None
    for k, seg in enumerate(segments):
        b = solve_B(seg.stress, mp.mu_p_bar)
        lam = math.sqrt(b) if k == 0 else lam * math.sqrt(b / b_prev)
        trace = SegmentTrace(k, seg.stress, b, t0, t0 + seg.duration, lam,
                             *_flow_constants(b, mp))
        traces.append(trace)
        lam = trace.lam_at(trace.t_end)
        t0 = trace.t_end
        b_prev = b
    return CreepCurve(segments=traces, strain_measure=strain_measure)


# Loads above this fraction of mu_p_bar are outside the small-strain regime
# the analytic curve was derived for.
SLS_SMALL_STRAIN_FRACTION = 0.05


def sls_creep_analytic(t11: float, mp: MaterialParams, t) -> np.ndarray:
    """Small-strain creep strain at time(s) t under constant stress t11.

    epsilon(t) = t11/(3 mu_p) + t11/(3 mu_g) * (1 - exp(-2 mu_g t / eta));
    in the fluid limit (mu_g = 0) the retardation term degenerates to
    steady flow, epsilon(t) = t11/(3 mu_p) + 2 t11 t / (3 eta).
    """
    if abs(t11) > SLS_SMALL_STRAIN_FRACTION * mp.mu_p_bar:
        warnings.warn(
            f"stress {t11:g} Pa exceeds {SLS_SMALL_STRAIN_FRACTION:g}*mu_p_bar; "
            "the linearized creep curve is unreliable at this load",
            stacklevel=2,
        )
    t = np.asarray(t, dtype=float)
    instant = t11 / (3.0 * mp.mu_p_bar)
    if mp.mu_g_bar == 0.0:
        return instant + 2.0 * t11 * t / (3.0 * mp.eta)
    tau = mp.eta / (2.0 * mp.mu_g_bar)
    return instant + t11 / (3.0 * mp.mu_g_bar) * (1.0 - np.exp(-t / tau))
