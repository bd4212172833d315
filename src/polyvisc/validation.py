"""Runtime invariant suite: the checks behind the ``validate`` subcommand.

Each check exercises a different leg of the kernel (unimodularity of the
evolved natural configuration, non-negative dissipation, the stress-power
identity, agreement of the tensor integrator with the scalar creep module,
and convergence to the linearized solid). The first checks run on a
uniaxial replay, whose B_p stays coaxial with the load, so a defect in the
shear components of the flow is invisible there; one shear ramp-hold gets
the same three trajectory checks. Each check can fail on a defect of the
kernel, and a drive that aborts fails every check it feeds; tr D_G = 0
holds by construction (``evolution._flow``), so it is not a check.
``quick=True`` shortens the time horizons without loosening any pass
criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import uniaxial
from .dataio import get_preset
from .evolution import drive, replay_uniaxial
from .kinematics import ramp_hold
from .odesolve import IntegrationError


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _diagnostics(traj) -> tuple:
    """(max |det B_p - 1|, min xi_m, max identity residual) over a trajectory."""
    return (float(np.max(np.abs(traj.det_bp - 1.0))), float(np.min(traj.xi_m)),
            float(np.max(traj.identity_residual)))


def run_validation(quick: bool = False) -> List[CheckResult]:
    results: List[CheckResult] = []
    preset = get_preset("pmr15_288")
    mp = preset.params()
    stress = preset.fit_load_pa()
    tau = mp.retardation_time()

    # a uniaxial replay feeds the first four checks and a shear ramp-hold the
    # fifth; a drive that fails (a det drift beyond DET_DRIFT_LIMIT, say) fails
    # every check it feeds
    t_load = (1.0 if quick else 5.0) * tau
    curve = uniaxial.simulate_creep([(stress, t_load)], mp)
    try:
        traj = replay_uniaxial(curve, mp)[0]
    except (ValueError, IntegrationError) as exc:
        results += [CheckResult(name, False, f"replay failed: {exc}") for name in
                    ("det_drift", "dissipation_positivity", "dissipation_identity",
                     "general_vs_scalar")]
    else:
        det_err, xi_min, res_max = _diagnostics(traj)
        results.append(
            CheckResult("det_drift", det_err <= 1e-8, f"max |det B_p - 1| = {det_err:.3e}")
        )

        results.append(
            CheckResult("dissipation_positivity", xi_min >= 0.0, f"min xi_m = {xi_min:.3e}")
        )

        results.append(
            CheckResult(
                "dissipation_identity", res_max <= 1e-8, f"max residual = {res_max:.3e}"
            )
        )

        # scalar/tensor equivalence on the same creep history
        seg = curve.segments[0]
        ref = np.diag([seg.b, seg.b**-0.5, seg.b**-0.5])
        bp_err = max(np.linalg.norm(bp.as_matrix() - ref) for bp in traj.b_p) / np.linalg.norm(ref)
        t11_err = float(np.max(np.abs(traj.t_axial - stress))) / stress
        eq_ok = bp_err <= 1e-6 and t11_err <= 1e-6
        results.append(
            CheckResult(
                "general_vs_scalar",
                eq_ok,
                f"max B_p dev = {bp_err:.3e}, max T11 dev = {t11_err:.3e}",
            )
        )

    try:
        shear = drive(ramp_hold("shear", 0.05, tau, 2.0 * tau), mp, np.eye(3))
    except (ValueError, IntegrationError) as exc:
        results.append(CheckResult("shear_ramp_hold", False, f"drive failed: {exc}"))
    else:
        det_err, xi_min, res_max = _diagnostics(shear)
        results.append(CheckResult(
            "shear_ramp_hold", det_err <= 1e-8 and xi_min >= 0.0 and res_max <= 1e-8,
            f"max |det B_p - 1| = {det_err:.3e}, min xi_m = {xi_min:.3e}, "
            f"max residual = {res_max:.3e}"))

    # convergence to the linearized standard linear solid at small load
    t11 = 1e-3 * mp.mu_p_bar
    horizon = (2.0 if quick else 10.0) * tau
    small = uniaxial.simulate_creep([(t11, horizon)], mp)
    ts = np.linspace(0.0, horizon, 200)
    eps_sim = small.strain_in_segment(0, ts)
    eps_lin = uniaxial.sls_creep_analytic(t11, mp, ts)
    sls_dev = float(np.max(np.abs(eps_sim - eps_lin) / np.abs(eps_lin)))
    results.append(
        CheckResult("sls_limit", sls_dev <= 5e-3, f"max rel deviation = {sls_dev:.3e}")
    )

    return results


def all_passed(results: List[CheckResult]) -> bool:
    return all(r.passed for r in results)
