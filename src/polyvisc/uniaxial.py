"""Uniaxial creep and recovery under piecewise-constant axial stress.

Within a constant-stress segment the traction-free condition pins the
natural-configuration stretch B, so only the total stretch lambda evolves,
and its scalar flow rule integrates in closed form (``SegmentTrace``).
Newton inverts it: a bracketed loop on ``math`` for one float time
(``SegmentTrace.lam_at``), and for every array of times, read as one
``CreepCurve`` batch, one numpy pass whose uncertified elements the loop
re-solves.
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

import itertools
import math
import operator
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
        if not (0.0 < self.duration < math.inf):
            raise ValueError(f"segment duration must be positive and finite, got {self.duration}")
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
# a = 2 lam + r, by the sign of the discriminant r^2 - 4q of Q. The products
# of constants (w2 = 2w, w_sq = w^2, w2_inv = 2/w, w4 = 4w) are formed once
# per segment (``SegmentTrace``). The caller passes atan and log1p: math's
# for one time, numpy's for an array.
def _atan_term(dl, a, c, atan, log1p):
    return c.w2_inv * atan(c.w2 * dl / (c.w_sq + a * c.a0))


def _log_term(dl, a, c, atan, log1p):
    return log1p(c.w4 * dl / ((a + c.w) * c.a0_w)) / c.w


def _rational_term(dl, a, c, atan, log1p):
    return 4.0 * dl / (a * c.a0)


def _mixed_term(dl, a, c, atan, log1p):
    """Each element through its own segment's term (``c.cases``: term, mask, constants)."""
    g = np.empty_like(dl)
    for term, mask, sub in c.cases:
        g[mask] = term(dl[mask], a[mask], sub, atan, log1p)
    return g


def _h_term(disc: float):
    return _atan_term if disc < 0.0 else _log_term if disc > 0.0 else _rational_term


_NEWTON_MAX_ITER = 200
# Iterations of the array pass before an unconverged element is re-solved
# by the bracketed loop. Passes over two-segment programs with moduli and
# eta within 10^+-3 of a preset stop after 1 to 6.
_PLAIN_MAX_ITER = 8


def _bracketed_newton(c, dt: float) -> float:
    """Stretch dt >= 0 after the start of segment ``c``: Newton on v (see
    ``SegmentTrace``) with a bisection fallback, as ``rtsafe``.

    It stops after a Newton step no longer than ``stop``, which leaves v
    within tol = 1e-12 (1 + k) of the root (``SegmentTrace``, the stop), or
    after a bisection no longer than tol: the bound rests on a Newton step,
    so a bisection never takes the wider stop.

    This loop on Python floats and ``math`` defines the solution. At
    extreme parameters an intermediate value can overflow: an infinite
    Newton step is bisected, and where a ``math`` function overflows or
    leaves its domain it raises, which ``SegmentTrace._lam_one`` turns into
    a nan stretch that its caller rejects as DomainError.
    """
    if c.maxwell:
        return c.lam_start * math.exp(-c.rate * dt)
    lam0, r, d0, rho, q0, qr = c.lam_start, c.lam_inf, c.d0, c.rho, c.q0, c.qr
    r15, term = c.r15, c.term
    k = c.rate * dt
    lo, hi = -k * max(1.0, rho), -k * min(1.0, rho)
    tol = 1e-12 * (1.0 + k)
    stop = max(tol, min(math.sqrt(tol * c.inv_2k), 0.25 * c.inv_2k))
    v = -k * rho
    abs_dv = abs(2.0 * (hi - lo))
    for _ in range(_NEWTON_MAX_ITER):
        dl = d0 * math.expm1(v)
        lam = lam0 + dl
        dq = dl * (lam + lam0 + r)  # Q(lam) - Q(lam_start)
        f = v + k - (0.5 * math.log1p(dq / q0)
                     + r15 * term(dl, 2.0 * lam + r, c, math.atan, math.log1p))
        if f < 0.0:
            lo = v
        elif f > 0.0:
            hi = v
        dv = f * (q0 + dq) / qr  # the Newton step
        step, v_newton = abs(dv), v - dv
        # bisect where an unconverged Newton step would leave the bracket
        # or does not halve the last step
        if step > tol and (step > 0.5 * abs_dv or v_newton < lo or v_newton > hi):
            dv = v - 0.5 * (lo + hi)
        elif step <= stop:  # v_newton is within tol of the root
            return lam0 + d0 * math.expm1(v_newton)
        v -= dv
        abs_dv = abs(dv)
        if abs_dv <= tol:  # a bisection (a Newton step this short has returned)
            break
    else:
        raise DomainError("creep solution did not converge")
    return lam0 + d0 * math.expm1(v)


def _plain_newton(c, dt):
    """(lam, redo): ``_bracketed_newton``'s iteration on an array, and the
    flat indices of the elements it cannot certify.

    ``c`` holds the segment constants, floats or arrays gathered per element
    (``CreepCurve._lam``). The pass takes the loop's start, residual, Newton
    step and per-element stop, without its bracket updates and bisection
    test, for at most _PLAIN_MAX_ITER iterations. An element's iterates are
    the loop's until the loop bisects it. It is certified when

    - none of its steps fails the loop's own halving test: above tolerance
      and more than half the last step (the first against 2 (hi - lo));
    - it stopped within the cap, on a step no longer than its stop;
    - its final v is finite and inside the analytic bracket
      [-k max(1, rho), -k min(1, rho)]. Rounding puts it outside where the
      bracket is a few ulps wide: a segment that starts within rounding of
      its asymptote.

    Under the first check each step is at most half the one before, so the
    steps after an iterate sum to less than the step from it, and no step
    reaches back to an earlier iterate that the iteration turned at. Those
    iterates and the analytic ends are the loop's bracket, and the last
    check covers the ends, so the loop's bracket test fails as well: a
    certified element takes the loop's Newton steps and stops on the loop's
    rule. It differs from the loop's result only by numpy's roundings of
    expm1, log1p and atan against ``math``'s; where those put a step within
    rounding of its stop, the pass and the loop stop one step apart, and
    both results lie within tol of the root. Each element is certified on
    its own, whatever its batch. The caller re-solves the others (``redo``)
    by their segments' loops.
    An element that stops or fails is frozen and takes no further step, so
    the halving test reads only steps the loop takes: the step a stopped
    element would take next is no step of the loop's, and testing it could
    only add a needless re-solve. Failures are tracked from the first one
    on, so a batch without one pays no numpy call for them. Maxwell: the
    exponential.
    """
    if c.maxwell:
        return c.lam_start * np.exp(-c.rate * dt), ()
    lam0, r, d0, rho, q0, qr = c.lam_start, c.lam_inf, c.d0, c.rho, c.q0, c.qr
    r15, term = c.r15, c.term
    k = c.rate * dt
    nk = -k
    lo, hi = nk * np.maximum(1.0, rho), nk * np.minimum(1.0, rho)
    tol = 1e-12 * (1.0 + k)
    stop = np.maximum(tol, np.minimum(np.sqrt(tol * c.inv_2k), 0.25 * c.inv_2k))
    v = nk * rho
    # the loop bisects where step > tol and step > abs_dv / 2
    limit = np.maximum(tol, 0.5 * abs(2.0 * (hi - lo)))
    done = False
    failed = None  # the elements that failed the halving test, from the first failure on
    for _ in range(_PLAIN_MAX_ITER):
        dl = d0 * np.expm1(v)
        lam = lam0 + dl
        dq = dl * (lam + lam0 + r)
        f = v + k - (0.5 * np.log1p(dq / q0)
                     + r15 * term(dl, 2.0 * lam + r, c, np.arctan, np.log1p))
        dv = f * (q0 + dq) / qr
        np.copyto(dv, 0.0, where=done)  # a frozen element takes no step
        abs_dv = abs(dv)
        fails = abs_dv > limit
        if np.count_nonzero(fails):
            failed = fails if failed is None else failed | fails
        v = v - dv
        done = abs_dv <= stop
        if failed is not None:
            done |= failed
        if np.count_nonzero(done) == done.size:
            break
        limit = np.maximum(tol, 0.5 * abs_dv)
    else:
        failed = ~done if failed is None else failed | ~done
    ok = (lo <= v) & (v <= hi)  # nan is outside
    if failed is not None:
        ok &= ~failed
    lam = lam0 + d0 * np.expm1(v)
    if np.count_nonzero(ok) == ok.size:
        return lam, ()
    return lam, np.flatnonzero(~ok)


@dataclass
class SegmentTrace:
    """Exact lambda history of one constant-stress segment (absolute time).

    With r = lam_inf, P = c3 (lam - r) Q(lam), Q = lam^2 + r lam + q and
    q = b^1.5 / r (see ``_flow_constants``). Partial fractions integrate the
    flow rule to

        v + k = H(lam) - H(lam_start),  v = ln((lam - r)/(lam_start - r)),
        k = rate * (t - t_start),       H = ln(Q)/2 + (3r/2) * int dlam/Q,

    where the integral is an atan, a log or a rational term by the sign of
    the discriminant disc = r^2 - 4q (``term``). Newton solves this for
    v: dF/dv = Q(r)/Q(lam) > 0 for F = v + k - H(lam) + H(lam_start), and v
    lies in [-k max(1, rho), -k min(1, rho)] with rho = Q(lam_start)/Q(r).
    It starts at v = -k rho, the end from which Newton approaches the root
    of the convex (lam < r) or concave (lam > r) F monotonically. The
    bracketed loop (``_bracketed_newton``) bisects the shrinking bracket
    instead of any step that would leave it or fails to halve the previous
    one, so lam stays between lam_start and r. ``lam_at`` runs it for one
    float time. An array of times is read through the curve, in one batch
    (``CreepCurve._lam``): it takes the same Newton steps without the
    bracket (``_plain_newton``), and each element the pass cannot certify as
    the loop's result is re-solved by the loop. In the Maxwell limit
    lam = lam_start * exp(-rate (t - t_start)).

    The stop. Between lam_start and r, Q lies between q0 and qr, so
    F' = Q(r)/Q(lam) lies between 1 and 1/rho, and
    F'' = -F' (2 lam + r)(lam - r)/Q(lam). So for any two points of the
    bracket, |F''| at one over 2F' at the other is at most
    K = (q_hi/q_lo) (2 max(lam_start, r) + r) |d0| / (2 q_lo), with q_lo and
    q_hi the smaller and the larger of q0 and qr. Let e = |v - v*| be the
    error of an iterate v in the bracket (the loop's iterates stay in it),
    and e' that of v - dv after its Newton step. Newton's error recursion
    (Suli & Mayers, An Introduction to Numerical Analysis, 2003, 1.4)
    gives e' <= K e^2. The mean value theorem gives
    e = |dv| F'(v)/F'(z) <= |dv| (1 + 2K e) for some z between v and v*,
    so e <= |dv| / (1 - 2K |dv|). A step with 2K dv^2 <= tol and
    K |dv| <= 1/8 therefore leaves e' <= (16/9) K dv^2 <= (8/9) tol. Both
    loops stop on a Newton step with |dv| <= stop, where
    stop = max(tol, min(sqrt(tol/(2K)), 1/(8K))) per time, and
    tol = 1e-12 (1 + k). Where K > 1/(8 tol) the stop is the rule it
    replaces, |dv| <= tol: below tol, rounding can stall the iteration. The
    bound holds for F as computed, whose rounding is about 1e-16 of
    1 + k + |v| + q0/Q(lam) and so fixes the root to well within tol
    unless the segment unloads from many times its asymptote (rho ~ 1e4):
    there rounding, not the stop, limits v, as it did under the old rule.
    ``inv_2k`` = 1/(2K) is inf for d0 = 0, where F = v + k is linear and
    the start v = -k is its root, and 0 where K overflows, which leaves the
    tol stop.

    The constants the Newton solves read are set here: d0 = lam_start - r,
    q0 = Q(lam_start), qr = Q(r), rho, r15 = 1.5 r, a0 = 2 lam_start + r,
    w = sqrt(|disc|), a0_w = a0 - w = 2 lam_start + 4q/(r + w) (the log
    term's factor formed without cancellation), and the products of w the
    H term reads: w2 = 2w, w_sq = w^2 and w2_inv = 2/w (atan), w4 = 4w (log).
    Each is rounded as the loop would round it, so hoisting them changes no
    bit of the solution. The stop's ``inv_2k`` is formed here too.
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
        slack = 1e-12 * max(1.0, abs(self.t_end))  # the times lam_at and a batch accept
        self.t_lo, self.t_hi = self.t_start - slack, self.t_end + slack
        self.maxwell = r == 0.0
        if self.maxwell:
            self.term = None
            return
        q = self.b * math.sqrt(self.b) / r
        self.disc = r * r - 4.0 * q
        self.d0 = lam0 - r
        self.q0 = lam0 * (lam0 + r) + q
        self.qr = 2.0 * r * r + q
        self.rho = self.q0 / self.qr
        self.r15 = 1.5 * r
        self.a0 = 2.0 * lam0 + r
        w = self.w = math.sqrt(abs(self.disc))
        self.a0_w = 2.0 * lam0 + 4.0 * q / (r + w)
        self.w2, self.w_sq, self.w4 = 2.0 * w, w * w, 4.0 * w
        self.w2_inv = 2.0 / w if w else math.inf  # read by the atan term only, where w > 0
        self.term = _h_term(self.disc)
        q_lo, q_hi = min(self.q0, self.qr), max(self.q0, self.qr)
        self.inv_2k = (q_lo / q_hi * q_lo / (2.0 * max(lam0, r) + r) / abs(self.d0)
                       if self.d0 else math.inf)
        if not all(map(math.isfinite, (self.q0, self.qr, self.rho, self.w, self.a0_w))):
            raise DomainError(f"no finite creep solution in segment {self.index}")

    def _lam_one(self, dt: float) -> float:
        """The bracketed loop at dt >= 0; nan for ``math``'s range and domain errors."""
        try:
            return _bracketed_newton(self, dt)
        except DomainError:
            raise
        except (ArithmeticError, ValueError):
            return math.nan

    def lam_at(self, t: float) -> float:
        """Stretch at one time t in [t_start, t_end]; an array is a TypeError
        (``CreepCurve.strain_in_segment`` reads many times in one batch)."""
        t = float(t)
        if not (self.t_lo <= t <= self.t_hi):  # nan is outside
            raise ValueError(f"times outside segment {self.index} requested")
        lam = self._lam_one(max(t - self.t_start, 0.0))
        if not (0.0 < lam < math.inf):
            raise DomainError(f"creep solution left lambda > 0 in segment {self.index}")
        return lam


# What a batch gathers per element from its segment: the span start and
# the accepted time bounds, the constants of the Maxwell limit, then those
# of the Newton solve, and last those its H term reads (all H terms' for a
# curve of mixed terms).
_MAXWELL_FIELDS = ("t_start", "t_lo", "t_hi", "lam_start", "rate")
_NEWTON_FIELDS = _MAXWELL_FIELDS + ("lam_inf", "d0", "q0", "qr", "rho", "r15", "inv_2k")
_TERM_FIELDS = {_atan_term: ("a0", "w2", "w_sq", "w2_inv"), _log_term: ("w", "w4", "a0_w"),
                _rational_term: ("a0",)}
_H_FIELDS = ("a0", "w", "a0_w", "w2", "w_sq", "w2_inv", "w4")


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

    def __post_init__(self):
        # the H term when all segments share one (else None), and the
        # constants a batch gathers, one column per segment, with a last
        # row t_end that ``samples`` reads
        segs = self.segments
        self._maxwell = segs[0].maxwell
        terms = {s.term for s in segs}
        self._term = terms.pop() if len(terms) == 1 else None
        self._names = (_MAXWELL_FIELDS if self._maxwell
                       else _NEWTON_FIELDS + _TERM_FIELDS.get(self._term, _H_FIELDS))
        self._table = np.array(list(map(operator.attrgetter(*self._names, "t_end"), segs))).T

    def _to_strain(self, lam: np.ndarray) -> np.ndarray:
        if self.strain_measure == "engineering":
            return lam - 1.0
        return np.log(lam)

    def strain_in_segment(self, index: int, times) -> np.ndarray:
        """Strain at times inside segments[index] (a negative index counts
        from the end), in the shape of ``times`` made at least 1-D: one
        batched solve."""
        k = self.segments[index].index
        ts = np.array(times, dtype=float, ndmin=1)
        lam = self._lam([0] * k + [ts.size], ts.ravel())
        return self._to_strain(lam.reshape(ts.shape))

    def _lam(self, counts, times: np.ndarray) -> np.ndarray:
        """Stretch at ``times``, the first counts[0] in segment 0, the next
        counts[1] in segment 1 and so on: one array pass, and each element it
        cannot certify re-solved by its own segment's loop. Raises ValueError
        for a time outside its segment (nan included), before solving."""
        n = len(counts)
        c = SimpleNamespace(maxwell=self._maxwell, term=self._term)
        vars(c).update(zip(self._names, self._table[:-1, :n].repeat(counts, axis=1)))
        inside = (c.t_lo <= times) & (times <= c.t_hi)
        if np.count_nonzero(inside) != inside.size:
            seg = np.repeat(np.arange(n), counts)
            raise ValueError(f"times outside segment {seg[~inside][0]} requested")
        if not c.maxwell and c.term is None:  # e.g. a log-branch load, an atan-branch unload
            branch = np.repeat(np.sign([s.disc for s in self.segments[:n]]), counts)
            c.term, c.cases = _mixed_term, []
            for kind in set(branch.tolist()):
                mask, term = branch == kind, _h_term(kind)
                sub = SimpleNamespace(**{name: getattr(c, name)[mask]
                                         for name in _TERM_FIELDS[term]})
                c.cases.append((term, mask, sub))
        dt = np.maximum(times - c.t_start, 0.0)
        with np.errstate(all="ignore"):
            lam, redo = _plain_newton(c, dt)
        if len(redo):
            seg = np.repeat(np.arange(n), counts)
            for i in redo:
                lam[i] = self.segments[seg[i]]._lam_one(float(dt[i]))
        # every stretch in (0, inf), nan not, and an empty batch passes
        if not (0.0 < np.minimum.reduce(lam, axis=None, initial=math.inf)
                and np.maximum.reduce(lam, axis=None, initial=0.0) < math.inf):
            seg = np.repeat(np.arange(n), counts)
            bad = seg[~((lam > 0.0) & (lam < math.inf))][0]
            raise DomainError(f"creep solution left lambda > 0 in segment {bad}")
        return lam

    def strains_in_segments(self, times) -> List[np.ndarray]:
        """Strain at times[k] inside segment k, for each k < len(times): one
        batched solve."""
        times = [np.asarray(t, dtype=float) for t in times]
        if len(times) > len(self.segments):
            raise ValueError(f"times for {len(times)} segments, the curve has {len(self.segments)}")
        for k, t in enumerate(times):
            if t.ndim != 1:
                raise ValueError(f"times for segment {k} must be 1-D, got shape {t.shape}")
        counts = [t.size for t in times]
        if not any(counts):
            return [t.copy() for t in times]
        eps = self._to_strain(self._lam(counts, np.concatenate(times)))
        return [eps[end - m:end] for m, end in zip(counts, itertools.accumulate(counts))]

    @cached_property
    def samples(self):
        """(times, strains), each (n_segments, SEGMENT_SAMPLES): every segment's
        output grid, np.linspace(t_start, t_end, SEGMENT_SAMPLES) row by row."""
        t_start, t_end = self._table[0], self._table[-1]
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
