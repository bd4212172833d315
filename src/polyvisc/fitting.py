"""Creep-error objective and derivative-free parameter estimation.

The objective is the weighted relative L2 misfit between simulated and
measured strains, split into loading and unloading phases:

    error = w * sqrt(sum((e_sim - e_exp)^2) / sum(e_exp^2))   [load]
          + (1-w) * (same for the unload phase)

Simulated strains come from the closed-form creep solution at the
experimental time stamps, so the objective is smooth in the parameters.
Minimization runs over the logarithms of (mu_p_bar, mu_g_bar, eta), which
keeps the parameters positive without constraint handling. The misfit is
finite or raises; only the fit's objective scores a failed trial set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .material import ConfigError, MaterialParams
from .tensors import DomainError
from .uniaxial import CreepSegment, simulate_creep

# Objective value of a trial parameter set that has no creep solution inside
# fit_dataset; large enough that the simplex always retreats from it.
PENALTY = 1e6

# The simplex stops once its diameter is below _XTOL and its objective
# spread below min(_FTOL, max(_FTOL_REL * |f_best|, _FTOL_FLOOR)): relative
# to the best value, so a small but non-zero minimum is resolved to a fixed
# fraction of itself, with an absolute floor for minima at 0.
_XTOL = 1e-8
_FTOL = 1e-12
_FTOL_REL = 1e-4
_FTOL_FLOOR = 1e-14
# The stop is confirmed by polling the best vertex this far along each
# coordinate; a lower neighbour restarts the simplex there.
_POLL_STEP = 1e-3
# Initial simplex spread of the creep fit (log-parameter units).
_FIT_STEP = 0.25
# A squared strain above this magnitude can overflow (such data are scaled by
# their largest value first) and one below its inverse underflows.
_SQUARE_SAFE = 1e150


@dataclass(frozen=True)
class ExperimentalDataset:
    """Measured creep/recovery strains under one constant load.

    Immutable: the arrays are stored as read-only float copies, so the
    misfit's fixed parts (``_misfit_terms``) are formed once and never stale.
    """

    t_load: np.ndarray
    eps_load: np.ndarray
    t_unload: np.ndarray
    eps_unload: np.ndarray
    stress: float  # Pa, applied during the load phase (zero on unload)
    temperature_c: Optional[float] = None
    provenance: str = ""
    unload_start: Optional[float] = None  # defaults to the last load stamp

    def __post_init__(self):
        for name in ("t_load", "eps_load", "t_unload", "eps_unload"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        for t_name, eps_name in (("t_load", "eps_load"), ("t_unload", "eps_unload")):
            t, eps = getattr(self, t_name), getattr(self, eps_name)
            if t.ndim != 1 or eps.shape != t.shape:
                raise ValueError(f"{t_name} and {eps_name} must be 1-D arrays of one length, "
                                 f"got shapes {t.shape} and {eps.shape}")
        if self.t_load.size < 2:
            raise ValueError("load phase needs at least 2 samples")
        for name in ("t_load", "eps_load", "t_unload", "eps_unload"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if self.t_load[0] < 0.0:
            raise ValueError("load times must not precede the load start at t = 0")
        if np.any(np.diff(self.t_load) <= 0.0):
            raise ValueError("load times must be strictly increasing")
        if self.t_unload.size and np.any(np.diff(self.t_unload) <= 0.0):
            raise ValueError("unload times must be strictly increasing")
        if not math.isfinite(self.stress):
            raise ValueError("stress must be finite")
        if self.t_unload.size and self.t_unload[0] < self.t_load[-1]:
            raise ValueError("unload times must not precede the load phase")
        if self.unload_start is not None:
            if not math.isfinite(self.unload_start):
                raise ValueError(f"unload start must be finite, got {self.unload_start}")
            if not (self.t_load[-1] <= self.unload_start):
                raise ValueError("unload start must not precede the last load stamp")
            if self.t_unload.size and self.t_unload[0] < self.unload_start:
                raise ValueError("unload times must not precede the unload start")
        if self.t_unload.size and not (self.t_unload[-1] > self.t_unload_start()):
            raise ValueError("unload phase must extend past the unload start")

    @property
    def has_unload(self) -> bool:
        return self.t_unload.size > 0

    def t_unload_start(self) -> float:
        """When the stress is removed: explicit metadata or the last load stamp."""
        if self.unload_start is not None:
            return float(self.unload_start)
        return float(self.t_load[-1])

    @cached_property
    def _misfit_terms(self) -> SimpleNamespace:
        """The parts of ``creep_error`` that depend on the data alone: the
        stress program, and per phase (load, unload) its largest |measured
        strain| ``scale``, the measured strains ``eps`` (divided by scale
        above _SQUARE_SAFE) and their sum of squares ``norm_sq``."""
        t_u = self.t_unload_start()
        segments = [CreepSegment(self.stress, t_u)]
        if self.has_unload:
            segments.append(CreepSegment(0.0, float(self.t_unload[-1]) - t_u))
        phases = []
        for eps in (self.eps_load, self.eps_unload):
            scale = float(np.max(np.abs(eps), initial=0.0))
            if scale > _SQUARE_SAFE:
                eps = eps / scale
            phases.append(SimpleNamespace(scale=scale, eps=eps,
                                          norm_sq=float(np.sum(eps * eps))))
        return SimpleNamespace(segments=tuple(segments), phases=phases)


@dataclass
class FitConfig:
    """Initial guess, weight and iteration cap for a creep fit.

    The initial guess is exactly three positive finite values, the weight
    lies in [0, 1] and ``max_iter`` is an int >= 1 (not a bool); anything
    else raises ValueError here, before a search.
    """

    initial: Sequence[float]  # (mu_p_bar, mu_g_bar, eta)
    weight: float = 0.5
    max_iter: int = 2000

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError(f"weight must lie in [0, 1], got {self.weight}")
        if len(self.initial) != 3:
            raise ValueError("initial guess must be 3 values (mu_p_bar, mu_g_bar, eta), got "
                             f"{len(self.initial)}")
        if not all(0.0 < v < math.inf for v in self.initial):
            raise ValueError(f"initial guess must be positive and finite, got {self.initial!r}")
        cap = self.max_iter
        if isinstance(cap, bool) or not (isinstance(cap, int) and cap >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {cap!r}")


@dataclass
class FitResult:
    params: MaterialParams
    error: float
    iterations: int
    converged: bool
    weight: float
    n_fev: int  # objective evaluations

    def to_dict(self) -> dict:
        return {
            "mu_p_bar": self.params.mu_p_bar,
            "mu_g_bar": self.params.mu_g_bar,
            "eta": self.params.eta,
            "error": self.error,
            "iterations": self.iterations,
            "converged": self.converged,
            "w": self.weight,
            "n_fev": self.n_fev,
        }


def creep_error(mp: MaterialParams, ds: ExperimentalDataset, w: float) -> float:
    """Weighted relative misfit of the simulated creep curve to the dataset.

    ``w`` must lie in [0, 1] (ValueError otherwise). With no unload samples
    the unload term is defined as zero and the weight is forced to 1; a
    phase of weight 0 is neither solved nor scored. The data are checked
    first: a phase with positive weight whose measured strains are all zero
    or below 1e-150 has no relative misfit and raises ConfigError. A
    parameter set the model cannot solve raises DomainError. Otherwise the
    misfit is finite.
    """
    if not (0.0 <= w <= 1.0):
        raise ValueError(f"weight w must lie in [0, 1], got {w}")
    if not ds.has_unload:
        w = 1.0
    fixed = ds._misfit_terms
    scored = []  # (weight, segment index, the phase's fixed terms)
    for k, (phase, weight) in enumerate((("load", w), ("unload", 1.0 - w))):
        if weight > 0.0:
            if not fixed.phases[k].scale >= 1.0 / _SQUARE_SAFE:
                raise ConfigError(f"the {phase} phase has weight {weight:g} but its measured "
                                  "strains are all zero or below 1e-150, so it has no relative "
                                  "misfit; give it weight 0")
            scored.append((weight, k, fixed.phases[k]))

    times = (ds.t_load if w > 0.0 else ds.t_load[:0],) + ((ds.t_unload,) if w < 1.0 else ())
    eps_sim = simulate_creep(fixed.segments, mp).strains_in_segments(times)
    misfit = 0.0
    for weight, k, data in scored:
        sim = eps_sim[k] / data.scale if data.scale > _SQUARE_SAFE else eps_sim[k]
        misfit += weight * math.sqrt(float(np.add.reduce((sim - data.eps) ** 2)) / data.norm_sq)
    return misfit


@dataclass
class SimplexResult:
    """Best vertex of a Nelder-Mead run."""

    x: np.ndarray
    fun: float
    iterations: int
    converged: bool
    n_fev: int


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0,
    *,
    step: float = 0.05,
    max_iter: int = 2000,
) -> SimplexResult:
    """Minimize f by the Nelder-Mead simplex method with a polled stop.

    Standard coefficients (reflection 1, expansion 2, contraction 0.5,
    shrink 0.5); the start simplex is x0 and x0 + step along each axis. The
    simplex ends when its diameter is below ``_XTOL`` and its objective
    spread below both ``_FTOL`` and ``_FTOL_REL`` of the best value (floored
    at ``_FTOL_FLOOR``), or when a shrink moves no vertex. The best vertex is
    then polled at +-``_POLL_STEP`` along each axis: a lower neighbour
    restarts the simplex at the lowest one (counted as an iteration), and
    the run is ``converged`` only when none is lower. The poll catches a
    simplex that collapses onto a non-stationary point (McKinnon, SIAM J.
    Optim. 9 (1998) 148-158; Kelley, SIAM J. Optim. 10 (1999) 43-55); its
    evaluations count in ``n_fev``. Lengths are in the search coordinates,
    which callers scale (the creep fit runs over log-parameters, so _XTOL
    is a relative parameter tolerance there). The returned vertex is never
    worse than f(x0).
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    offsets = np.eye(n)

    def simplex(x, fx):
        verts = np.vstack([x, x + step * offsets])  # absolute offsets
        return verts, np.array([fx] + [f(v) for v in verts[1:]])

    verts, fvals = simplex(x0, f(x0))
    n_fev = n + 1

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    iterations = 0
    converged = False
    stalled = False

    while iterations < max_iter:
        order = fvals.argsort(kind="stable")
        verts = verts[order]
        fvals = fvals[order]

        diam = float(np.maximum.reduce(abs(verts[1:] - verts[0]), axis=None))
        spread_tol = min(_FTOL, max(_FTOL_REL * abs(fvals[0]), _FTOL_FLOOR))
        if stalled or (diam < _XTOL and (fvals[-1] - fvals[0]) < spread_tol):
            stalled = False
            poll = verts[0] + _POLL_STEP * np.vstack([offsets, -offsets])
            f_poll = np.array([f(x) for x in poll])
            n_fev += 2 * n
            best = int(np.argmin(f_poll))
            if not f_poll[best] < fvals[0]:
                converged = True
                break
            verts, fvals = simplex(poll[best], f_poll[best])
            n_fev += n
            iterations += 1
            continue

        iterations += 1
        centroid = np.add.reduce(verts[:-1], axis=0) / n  # np.mean, bit for bit
        reflected = centroid + alpha * (centroid - verts[-1])
        f_r = f(reflected)
        n_fev += 1

        if fvals[0] <= f_r < fvals[-2]:
            verts[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[0]:
            expanded = centroid + gamma * (reflected - centroid)
            f_e = f(expanded)
            n_fev += 1
            if f_e < f_r:
                verts[-1], fvals[-1] = expanded, f_e
            else:
                verts[-1], fvals[-1] = reflected, f_r
        else:
            if f_r < fvals[-1]:  # outside contraction
                contracted = centroid + rho * (reflected - centroid)
            else:  # inside contraction
                contracted = centroid - rho * (centroid - verts[-1])
            f_c = f(contracted)
            n_fev += 1
            if f_c < min(f_r, fvals[-1]):
                verts[-1], fvals[-1] = contracted, f_c
            else:  # shrink toward the best vertex
                shrunk = verts[0] + sigma * (verts[1:] - verts[0])
                stalled = np.array_equal(shrunk, verts[1:])
                if not stalled:
                    verts[1:] = shrunk
                    fvals[1:] = [f(v) for v in shrunk]
                    n_fev += n

    order = np.argsort(fvals, kind="stable")
    best = order[0]
    return SimplexResult(
        x=verts[best].copy(),
        fun=float(fvals[best]),
        iterations=iterations,
        converged=converged,
        n_fev=n_fev,
    )


def fit_dataset(ds: ExperimentalDataset, cfg: FitConfig) -> FitResult:
    """Fit (mu_p_bar, mu_g_bar, eta) to one dataset by simplex search.

    The search runs over log-parameters so every trial set is positive. A
    trial set that ``MaterialParams`` rejects (exp over- or underflowed; the
    search runs with numpy's overflow warning off) or that has no creep
    solution (DomainError) scores PENALTY, here only. A ConfigError about
    the data leaves the first evaluation, before any search. Non-convergence
    is reported on the result, not raised. A search whose every trial set
    was penalised has no result and raises DomainError.
    """
    w = cfg.weight if ds.has_unload else 1.0
    x0 = np.log(np.asarray(cfg.initial, dtype=float))

    def objective(logp: np.ndarray) -> float:
        mu_p, mu_g, eta = np.exp(logp).tolist()
        try:
            mp = MaterialParams(mu_p_bar=mu_p, mu_g_bar=mu_g, eta=eta)
        except ConfigError:
            return PENALTY
        try:
            return creep_error(mp, ds, cfg.weight)
        except DomainError:
            return PENALTY

    with np.errstate(over="ignore"):  # a trial exp that overflows is inf: ConfigError above
        res = nelder_mead(objective, x0, step=_FIT_STEP, max_iter=cfg.max_iter)
    if not res.fun < PENALTY:
        raise DomainError(f"every trial parameter set was penalised ({res.n_fev} evaluations)")
    mu_p, mu_g, eta = np.exp(res.x)
    return FitResult(
        params=MaterialParams(mu_p_bar=float(mu_p), mu_g_bar=float(mu_g), eta=float(eta)),
        error=res.fun,
        iterations=res.iterations,
        converged=res.converged,
        weight=w,
        n_fev=res.n_fev,
    )
