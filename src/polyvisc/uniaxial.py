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
import sys
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

# Samples per segment, both ends included, of CreepCurve.samples (t/epsilon, save_curve).
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


def _cubic_root(p: float, q: float) -> float:
    """The one positive root r of r^3 + p*r - q = 0, for q > 0.

    min(cbrt(q), q/p) for p > 0 and cbrt(q) + sqrt(-p) for p <= 0 bound r
    from above (q/p is the root's limit for p >> r^2, where a start at
    cbrt(q) would cancel to 0). The cubic is convex on r > 0, so Newton from
    there decreases monotonically onto r. Callers check the result: a
    non-finite p gives 0, inf or nan.
    """
    cbrt_q = float(np.cbrt(q))
    r = min(cbrt_q, q / p) if p > 0.0 else cbrt_q + math.sqrt(-p)
    for _ in range(100):
        g = (r * r + p) * r - q
        if not (g > 0.0):
            break
        step = g / (3.0 * r * r + p)
        r -= step
        if step <= 1e-15 * r:
            break
    return r


def solve_B(t11: float, mu_p_bar: float) -> float:
    """Natural-configuration stretch B under axial stress t11, lateral faces free.

    B solves mu_p_bar*(B - B^-1/2) = t11; in s = sqrt(B) this is the cubic
    s^3 - (t11/mu_p_bar)*s - 1 = 0, which has exactly one positive root
    (``_cubic_root``). Raises DomainError where B is not a normal positive
    finite double (|t11/mu_p_bar| beyond about 1e154 in compression).
    """
    if not (mu_p_bar > 0.0):
        raise DomainError(f"mu_p_bar must be positive, got {mu_p_bar}")
    a = float(t11) / float(mu_p_bar)
    b = _cubic_root(-a, 1.0) ** 2
    if not (sys.float_info.min <= b < math.inf):
        raise DomainError(f"stretch B = {b} at t11/mu_p_bar = {a:g} is not a normal double")
    return b


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
    kappa and the c's are not formed: below b ~ 1e-154 kappa overflows and
    c1 underflows, while c1/c3 and kappa*c3 (b's powers cancelled) are finite.
    """
    mu_p, mu_g, eta = float(mp.mu_p_bar), float(mp.mu_g_bar), float(mp.eta)
    sqrt_b = math.sqrt(b)
    b15 = b * sqrt_b
    if mu_g == 0.0:
        return 0.0, 2.0 * mu_p * (1.0 - b15) / (eta * (1.0 + 2.0 * b15))
    r = _cubic_root(mu_p * sqrt_b * (1.0 - b15) / mu_g, b15)  # P/c3 = r^3 + (c1/c3) r - b^1.5
    if not (r > 0.0):
        raise DomainError(f"no positive creep asymptote at B = {b}: got {r}")
    rate = 2.0 * mu_g * (2.0 * r * r + b15 / r) / (eta * sqrt_b * (1.0 + 2.0 * b15))
    if not (math.isfinite(r) and math.isfinite(rate)):
        raise DomainError(f"no finite creep solution at B = {b}: asymptote {r}, rate {rate}")
    return r, rate


# int_{lam_start}^{lam} dlam/Q(lam) = g(dl, a) with dl = lam - lam_start and
# a = 2 lam + r, by the sign of the discriminant r^2 - 4q of Q.
def _atan_term(dl, a, c, ops):
    return 2.0 / c.w * ops.atan(2.0 * c.w * dl / (c.w * c.w + a * c.a0))


def _log_term(dl, a, c, ops):
    return ops.log1p(4.0 * c.w * dl / ((a + c.w) * c.a0_w)) / c.w


def _rational_term(dl, a, c, ops):
    return 4.0 * dl / (a * c.a0)


def _mixed_term(dl, a, c, ops):
    """Each element through its own segment's term (``c.cases``: term, mask, constants)."""
    g = np.empty_like(dl)
    for term, mask, sub in c.cases:
        g[mask] = term(dl[mask], a[mask], sub, ops)
    return g


def _h_term(disc: float):
    return _atan_term if disc < 0.0 else _log_term if disc > 0.0 else _rational_term


_NEWTON_MAX_ITER = 200


def _newton(c, dt, ops):
    """Stretch at dt >= 0 after the segment start: Newton on v (see ``SegmentTrace``).

    ``c`` holds the segment constants: floats for one time on ``_SCALAR``,
    floats or arrays gathered per element (``CreepCurve._lam``) for an array
    of times on ``_NUMPY``. An element stops updating once its own step is
    within tolerance, so each takes exactly the steps it takes when solved
    alone. At extreme parameters an intermediate value can overflow: Python
    floats do so silently, numpy warns, so the array callers run this with
    numpy's warnings off. Both paths bisect past a non-finite Newton step,
    and their callers reject a non-finite stretch as DomainError.
    """
    if c.maxwell:
        return c.lam_start * ops.exp(-c.rate * dt)
    lam0, r, d0, rho, q0, qr = c.lam_start, c.lam_inf, c.d0, c.rho, c.q0, c.qr
    k = c.rate * dt
    lo, hi = -k * ops.maximum(1.0, rho), -k * ops.minimum(1.0, rho)
    tol = 1e-12 * (1.0 + k)
    v = -k * rho
    dv = 2.0 * (hi - lo)
    done = False
    for _ in range(_NEWTON_MAX_ITER):
        dl = d0 * ops.expm1(v)
        lam = lam0 + dl
        dq = dl * (lam + lam0 + r)  # Q(lam) - Q(lam_start)
        f = v + k - (0.5 * ops.log1p(dq / q0) + 1.5 * r * c.term(dl, 2.0 * lam + r, c, ops))
        lo, hi = ops.where(f < 0.0, v, lo), ops.where(f > 0.0, v, hi)
        newton = f * (q0 + dq) / qr
        step, v_newton = abs(newton), v - newton
        # bisect where an unconverged Newton step would leave the bracket
        # or does not halve the last step
        bisect = (step > tol) & ((step > 0.5 * abs(dv)) | (v_newton < lo) | (v_newton > hi))
        dv = ops.where(done, 0.0, ops.where(bisect, v - 0.5 * (lo + hi), newton))
        v = v - dv
        done = abs(dv) <= tol
        if ops.all(done):
            break
    else:
        raise DomainError("creep solution did not converge")
    return lam0 + d0 * ops.expm1(v)


_SCALAR = SimpleNamespace(
    exp=math.exp, expm1=math.expm1, log1p=math.log1p, atan=math.atan,
    maximum=max, minimum=min, where=lambda cond, x, y: x if cond else y, all=bool,
)
_NUMPY = SimpleNamespace(
    exp=np.exp, expm1=np.expm1, log1p=np.log1p, atan=np.arctan,
    maximum=np.maximum, minimum=np.minimum, where=np.where, all=np.all,
)


@dataclass
class SegmentTrace:
    """Exact lambda history of one constant-stress segment (absolute time).

    With r = lam_inf, P = c3 (lam - r) Q(lam), Q = lam^2 + r lam + q and
    q = b^1.5 / r (see ``_flow_constants``). Partial fractions integrate the
    flow rule to

        v + k = H(lam) - H(lam_start),  v = ln((lam - r)/(lam_start - r)),
        k = rate * (t - t_start),       H = ln(Q)/2 + (3r/2) * int dlam/Q,

    where the integral is an atan, a log or a rational term by the sign of
    the discriminant disc = r^2 - 4q (``term``). ``_newton`` solves this for
    v: dF/dv = Q(r)/Q(lam) > 0 for F = v + k - H(lam) + H(lam_start), and v
    lies in [-k max(1, rho), -k min(1, rho)] with rho = Q(lam_start)/Q(r).
    It starts at v = -k rho, the end from which Newton approaches the root
    of the convex (lam < r) or concave (lam > r) F monotonically, and
    bisects the shrinking bracket instead of any step that would leave it or
    fails to halve the previous one, so lam stays between lam_start and r.
    In the Maxwell limit lam = lam_start * exp(-rate (t - t_start)).

    The constants ``_newton`` reads are set here: d0 = lam_start - r,
    q0 = Q(lam_start), qr = Q(r), rho, a0 = 2 lam_start + r,
    w = sqrt(|disc|) and a0_w = a0 - w = 2 lam_start + 4q/(r + w), the log
    term's factor formed without cancellation.
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
        self.maxwell = r == 0.0
        if self.maxwell:
            return
        q = self.b * math.sqrt(self.b) / r
        self.disc = r * r - 4.0 * q
        self.d0 = lam0 - r
        self.q0 = lam0 * (lam0 + r) + q
        self.qr = 2.0 * r * r + q
        self.rho = self.q0 / self.qr
        self.a0 = 2.0 * lam0 + r
        self.w = math.sqrt(abs(self.disc))
        self.a0_w = 2.0 * lam0 + 4.0 * q / (r + self.w)
        self.term = _h_term(self.disc)
        if not all(map(math.isfinite, (self.q0, self.qr, self.rho, self.w, self.a0_w))):
            raise DomainError(f"no finite creep solution in segment {self.index}")

    def _check_times(self, t_min: float, t_max: float) -> None:
        slack = 1e-12 * max(1.0, abs(self.t_end))
        if t_min < self.t_start - slack or t_max > self.t_end + slack:
            raise ValueError(f"times outside segment {self.index} requested")

    def lam_at(self, t):
        """Stretch at time(s) t in [t_start, t_end]: a float for a scalar t."""
        if np.ndim(t) == 0:
            t = float(t)
            self._check_times(t, t)
            try:
                lam = _newton(self, max(t - self.t_start, 0.0), _SCALAR)
            except DomainError:
                raise
            except (ArithmeticError, ValueError):  # math's range and domain errors
                lam = math.nan
            ok = 0.0 < lam < math.inf
        else:
            ts = np.asarray(t, dtype=float)
            if not ts.size:
                return ts.copy()
            self._check_times(ts.min(), ts.max())
            with np.errstate(all="ignore"):
                lam = _newton(self, np.maximum(ts - self.t_start, 0.0), _NUMPY)
            ok = 0.0 < lam.min() and lam.max() < math.inf
        if not ok:
            raise DomainError(f"creep solution left lambda > 0 in segment {self.index}")
        return lam


# What a batch gathers per element from its segment: the span, then the constants.
_BATCH_FIELDS = ("t_start", "t_end", "lam_start", "lam_inf", "rate",
                 "d0", "q0", "qr", "rho", "a0", "w", "a0_w")
_MAXWELL_FIELDS = _BATCH_FIELDS[:5]


@dataclass
class CreepCurve:
    """Strain history of a piecewise-constant stress program.

    ``samples`` solves every segment on its output grid, SEGMENT_SAMPLES
    even steps from t_start to t_end, in one batch. ``t``/``epsilon``
    flatten it over segments; the post-jump sample at each interior boundary
    is omitted there so times stay strictly increasing (``strain_in_segment``
    and ``strains_in_segments`` evaluate either side at any time). The
    segments share one material, so either all or none of them are in the
    Maxwell limit.
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

    @cached_property
    def _fields(self) -> SimpleNamespace:
        """Each segment's ``_BATCH_FIELDS`` as a column of ``table`` (the
        Maxwell limit has no Newton constants), and its discriminant's sign."""
        segs = self.segments
        maxwell = segs[0].maxwell
        names = _MAXWELL_FIELDS if maxwell else _BATCH_FIELDS
        return SimpleNamespace(
            maxwell=maxwell, names=names,
            table=np.array([[getattr(s, name) for s in segs] for name in names]),
            branch=None if maxwell else np.sign([s.disc for s in segs]),
        )

    def _lam(self, counts, times: np.ndarray) -> np.ndarray:
        """Stretch at ``times``, the first counts[0] in segment 0, the next
        counts[1] in segment 1 and so on: one Newton call."""
        fields = self._fields
        seg = np.repeat(np.arange(len(counts)), counts)
        c = SimpleNamespace(maxwell=fields.maxwell, **dict(zip(fields.names, fields.table[:, seg])))
        if not fields.maxwell:
            kinds = {fields.branch[k] for k, n in enumerate(counts) if n}
            if len(kinds) == 1:
                c.term = _h_term(kinds.pop())
            else:  # rare: a log-branch load next to an atan-branch unload, say
                branch = fields.branch[seg]
                c.term, c.cases = _mixed_term, []
                for kind in kinds:
                    mask = branch == kind
                    sub = SimpleNamespace(w=c.w[mask], a0=c.a0[mask], a0_w=c.a0_w[mask])
                    c.cases.append((_h_term(kind), mask, sub))
        with np.errstate(all="ignore"):
            lam = _newton(c, np.maximum(times - c.t_start, 0.0), _NUMPY)
        if not (0.0 < lam.min() and lam.max() < math.inf):
            bad = seg[~((lam > 0.0) & (lam < math.inf))][0]
            raise DomainError(f"creep solution left lambda > 0 in segment {bad}")
        return lam

    def strains_in_segments(self, times) -> List[np.ndarray]:
        """Strain at times[k] inside segment k, for each k < len(times): one
        batched solve."""
        times = [np.asarray(t, dtype=float) for t in times]
        if len(times) > len(self.segments):
            raise ValueError(f"times for {len(times)} segments, the curve has {len(self.segments)}")
        counts = [t.size for t in times]
        for seg, t in zip(self.segments, times):
            if t.size:
                seg._check_times(t.min(), t.max())
        if not any(counts):
            return [t.copy() for t in times]
        eps = self._to_strain(self._lam(counts, np.concatenate(times)))
        return np.split(eps, np.cumsum(counts[:-1]))

    @cached_property
    def samples(self):
        """(times, strains), each (n_segments, SEGMENT_SAMPLES): every segment's
        output grid, np.linspace(t_start, t_end, SEGMENT_SAMPLES) row by row."""
        t_start, t_end = self._fields.table[:2]
        ts = np.linspace(t_start, t_end, SEGMENT_SAMPLES, axis=1)
        lam = self._lam([SEGMENT_SAMPLES] * len(self.segments), ts.ravel())
        return ts, self._to_strain(lam.reshape(ts.shape))

    @cached_property
    def t(self) -> np.ndarray:
        ts = self.samples[0]
        return np.concatenate([ts[0], ts[1:, 1:].ravel()])

    @cached_property
    def epsilon(self) -> np.ndarray:
        eps = self.samples[1]
        return np.concatenate([eps[0], eps[1:, 1:].ravel()])


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
    for k, seg in enumerate(segments):
        b = solve_B(seg.stress, mp.mu_p_bar)
        if traces:
            prev = traces[-1]
            lam = prev.lam_at(t0) * math.sqrt(b / prev.b)
        else:
            lam = math.sqrt(b)
        try:
            trace = SegmentTrace(k, seg.stress, b, t0, t0 + seg.duration, lam,
                                 *_flow_constants(b, mp))
        except ZeroDivisionError:  # a denominator underflowed
            raise DomainError(f"no finite creep solution in segment {k}") from None
        traces.append(trace)
        t0 = trace.t_end
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
