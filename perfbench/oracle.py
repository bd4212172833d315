"""Independent reference for the scalar uniaxial creep reduction.

Re-derived from the model, sharing no code with polyvisc:

* Under axial stress t11 with free lateral faces the natural-configuration
  stretch B solves mu_p*(B - B^-1/2) = t11. In s = sqrt(B) this is the cubic
  s^3 - (t11/mu_p)*s - 1 = 0 with one positive root, found here by plain
  bisection.
* With B = b held over a constant-stress segment the flow rule reduces to
  d(lambda)/dt = -2 P(lambda) / (eta * b^2 * (1 + 2 b^(3/2))), where
  P(lambda) = mu_g b^(3/2) lambda^3 + mu_p b^2 (1 - b^(3/2)) lambda - mu_g b^3.
  It is integrated with scipy's DOP853 at rtol 1e-12.
* lambda starts at sqrt(B) and jumps by sqrt(B_new/B_old) at every stress
  change; strain is log(lambda).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-12
ATOL = 1e-14


def traction_free_b(t11: float, mu_p: float) -> float:
    a = t11 / mu_p
    lo, hi = 0.0, 2.0 + abs(a)  # g(0) = -1 < 0 < g(2 + |a|) for every finite a
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * mid * mid - a * mid - 1.0 > 0.0:
            hi = mid
        else:
            lo = mid
    s = 0.5 * (lo + hi)
    return s * s


def _rate(mu_p: float, mu_g: float, eta: float, b: float):
    b15 = b**1.5
    c3 = mu_g * b15
    c1 = mu_p * b * b * (1.0 - b15)
    c0 = -mu_g * b**3
    scale = -2.0 / (eta * b * b * (1.0 + 2.0 * b15))

    def rate(t, y):
        lam = y[0]
        return [scale * (c3 * lam**3 + c1 * lam + c0)]

    return rate


def creep_strain(params, program, stamps):
    """Log strain of a stress program at given times.

    ``params`` is (mu_p, mu_g, eta), ``program`` a list of (stress, duration)
    and ``stamps`` one array of absolute times per segment, each inside its
    segment. Returns one strain array per segment and the per-segment B.
    """
    mu_p, mu_g, eta = params
    out, bs = [], []
    t0 = 0.0
    lam = None
    b_prev = None
    for (stress, duration), ts in zip(program, stamps):
        b = traction_free_b(stress, mu_p)
        lam = math.sqrt(b) if lam is None else lam * math.sqrt(b / b_prev)
        t1 = t0 + duration
        sol = solve_ivp(_rate(mu_p, mu_g, eta, b), (t0, t1), [lam], method="DOP853",
                        rtol=RTOL, atol=ATOL, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        out.append(np.log(sol.sol(np.clip(ts, t0, t1))[0]))
        bs.append(b)
        lam = float(sol.y[0, -1])
        t0, b_prev = t1, b
    return out, bs
