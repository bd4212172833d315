"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 6a (recovery after a 5-tau load / 5-tau unload program) is
expected to fail: the linearized solution puts the terminal strain at
exp(-5)*(1-exp(-5))*T/(3*mu_g_bar), which is 1.7x-3.0x the 1e-3*eps_max
bound for every bundled parameter set. The bound is met from 10-tau
programs up (covered by the recovery test in test_uniaxial). The criterion
is asserted as stated rather than weakened.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import sqrtm

from polyvisc import dataio, evolution, fitting, uniaxial
from polyvisc.kinematics import ramp_hold
from polyvisc.material import MaterialParams
from polyvisc.odesolve import OdeProblem, integrate
from polyvisc.tensors import _sylvester_from_decomp, eig_sym

from test_tensors import random_rotation, random_spd, random_sym

PMR15 = dataio.get_preset("pmr15_288").params()
HFPE285 = dataio.get_preset("hfpe285").params()
STRESS_PMR15 = 1.0e7  # Pa
TAU_PMR15 = PMR15.retardation_time()


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}  ({detail})")
    return ok


def bisect_cubic(t11, mu_p):
    # independent oracle for the traction-free stretch
    a = t11 / mu_p
    g = lambda s: s**3 - a * s - 1.0
    lo, hi = 1e-3, 2.0 + abs(a)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if g(mid) > 0.0 else (mid, hi)
    return (0.5 * (lo + hi)) ** 2


@pytest.fixture(scope="module")
def replay_bundle():
    """Shared by criteria 4 and 5: the scalar creep run and its tensor replay."""
    curve = uniaxial.simulate_creep([(STRESS_PMR15, 7.0e4)], PMR15)
    start = time.perf_counter()
    traj = evolution.replay_uniaxial(curve, PMR15)[0]
    elapsed = time.perf_counter() - start
    return curve, traj, elapsed


@pytest.fixture(scope="module")
def acceptance_trajectories(replay_bundle):
    """Every tensor trajectory the acceptance suite drives (criterion 5)."""
    _, replay_traj, _ = replay_bundle
    relax_traj = evolution.relax(1.01, PMR15, hold_time=5 * TAU_PMR15)
    shear = ramp_hold("shear", 0.05, TAU_PMR15, 3 * TAU_PMR15)
    shear_traj = evolution.drive(shear, PMR15, np.eye(3))
    return {"replay": replay_traj, "relax": relax_traj, "shear": shear_traj}


def test_criterion_1_instantaneous_elastic_response():
    runs = []
    for _ in range(10):
        start = time.perf_counter()
        b = uniaxial.solve_B(STRESS_PMR15, PMR15.mu_p_bar)
        eps0 = 0.5 * math.log(b)
        runs.append(time.perf_counter() - start)
    oracle = 0.5 * math.log(bisect_cubic(STRESS_PMR15, PMR15.mu_p_bar))
    best = min(runs)
    ok = abs(eps0 - 0.008826) <= 1e-5 and abs(eps0 - oracle) <= 1e-12 and best < 1e-3
    assert report(
        "1 (instantaneous elastic response)", ok,
        f"eps(0+) = {eps0:.7f} vs 0.008826 +- 1e-5, oracle dev = {abs(eps0 - oracle):.1e}, "
        f"runtime = {best * 1e6:.0f} us",
    )


def test_criterion_2_creep_asymptote_and_timescale():
    # the linearization behind the oracle, re-derived by finite differences
    h = 1e-7
    dl = (uniaxial.lambda_rate(1 + h, 1.0, PMR15)
          - uniaxial.lambda_rate(1 - h, 1.0, PMR15)) / (2 * h)
    db = (uniaxial.lambda_rate(1.0, 1 + h, PMR15)
          - uniaxial.lambda_rate(1.0, 1 - h, PMR15)) / (2 * h)
    assert dl == pytest.approx(-2 * PMR15.mu_g_bar / PMR15.eta, rel=1e-6)
    assert db == pytest.approx((PMR15.mu_g_bar + PMR15.mu_p_bar) / PMR15.eta, rel=1e-6)

    start = time.perf_counter()
    curve = uniaxial.simulate_creep([(STRESS_PMR15, 7.0e4)], PMR15)
    elapsed = time.perf_counter() - start

    terminal = curve.epsilon[-1]
    gap_target = curve.epsilon[0] + (1 - math.exp(-1)) * (terminal - curve.epsilon[0])
    ts = np.linspace(0.0, 7.0e4, 70001)
    eps = curve.strain_in_segment(0, ts)
    t_star = float(ts[np.searchsorted(eps, gap_target)])

    ok = (
        abs(terminal / 0.016407 - 1.0) <= 0.05
        and abs(t_star / 7.036e3 - 1.0) <= 0.10
        and elapsed < 1.0
    )
    assert report(
        "2 (creep asymptote and timescale)", ok,
        f"terminal = {terminal:.6f} vs 0.016407 +- 5%, t(63.2%) = {t_star:.0f} s "
        f"vs 7036 +- 10%, runtime = {elapsed * 1e3:.0f} ms",
    )


def test_criterion_3_sls_limit_convergence():
    t11 = 1e-3 * PMR15.mu_p_bar
    tau = PMR15.retardation_time()
    curve = uniaxial.simulate_creep([(t11, 10 * tau)], PMR15)
    ts = np.linspace(0.0, 10 * tau, 1000)
    eps_sim = curve.strain_in_segment(0, ts)
    eps_lin = uniaxial.sls_creep_analytic(t11, PMR15, ts)
    dev = float(np.max(np.abs(eps_sim - eps_lin) / np.abs(eps_lin)))
    assert report(
        "3 (SLS-limit convergence)", dev <= 5e-3,
        f"max relative deviation = {dev:.2e} vs 5e-3",
    )


def test_criterion_4_general_scalar_equivalence(replay_bundle):
    curve, traj, elapsed = replay_bundle
    b = curve.segments[0].b
    ref = np.diag([b, b**-0.5, b**-0.5])
    bp_dev = max(np.linalg.norm(bp.as_matrix() - ref) / np.linalg.norm(ref) for bp in traj.b_p)
    t11_dev = float(np.max(np.abs(traj.t_axial - STRESS_PMR15))) / STRESS_PMR15
    ok = bp_dev <= 1e-6 and t11_dev <= 1e-6 and elapsed < 5.0
    assert report(
        "4 (general/scalar equivalence)", ok,
        f"max B_p dev = {bp_dev:.2e}, max T11 dev = {t11_dev:.2e} (both vs 1e-6), "
        f"runtime = {elapsed:.2f} s",
    )


def test_criterion_5_thermodynamic_invariants(acceptance_trajectories):
    worst = {"xi": 0.0, "residual": 0.0, "det": 0.0, "trace": 0.0}
    for name, traj in acceptance_trajectories.items():
        worst["xi"] = min(worst["xi"], float(np.min(traj.xi_m)))
        worst["residual"] = max(worst["residual"], float(np.max(traj.identity_residual)))
        worst["det"] = max(worst["det"], float(np.max(np.abs(traj.det_bp - 1.0))))
        for f, b_p in zip(traj.F, traj.b_p):
            # B_G = V^-1 F F^T V^-1 with V = B_p^1/2, independently of the kernel
            bpm = b_p.as_matrix()
            v_inv = np.linalg.inv(np.real(sqrtm(bpm)))
            b_g = v_inv @ f @ f.T @ v_inv
            d_g = evolution.dG_rate(bpm, 0.5 * (b_g + b_g.T), PMR15)
            worst["trace"] = max(worst["trace"], abs(np.trace(d_g)))
    ok = (
        worst["xi"] >= 0.0
        and worst["residual"] <= 1e-8
        and worst["det"] <= 1e-8
        and worst["trace"] <= 1e-12
    )
    assert report(
        "5 (thermodynamic invariants)", ok,
        f"min xi_m = {worst['xi']:.1e}, max identity residual = {worst['residual']:.1e} "
        f"(vs 1e-8), max |det-1| = {worst['det']:.1e} (vs 1e-8), "
        f"max |tr D_G| = {worst['trace']:.1e} (vs 1e-12)",
    )


def test_criterion_6a_recovery_after_5tau():
    # asserted as stated; see the module docstring for why this is red
    ratios = {}
    for name in ("hfpe285", "hfpe300", "hfpe315", "hfpe330"):
        row = dataio.get_preset(name)
        mp = row.params()
        tau = mp.retardation_time()
        stress = row.fit_load_pa()
        curve = uniaxial.simulate_creep([(stress, 5 * tau), (0.0, 5 * tau)], mp)
        eps_max = float(np.max(np.abs(curve.epsilon)))
        terminal = abs(float(curve.epsilon[-1]))
        ratios[name] = terminal / (1e-3 * eps_max)
    ok = all(r <= 1.0 for r in ratios.values())
    detail = ", ".join(f"{k}: |eps_end|/(1e-3 eps_max) = {v:.2f}" for k, v in ratios.items())
    assert report("6a (recovery, 5 tau load + 5 tau unload)", ok, detail)


def test_criterion_6b_maxwell_limit_non_recovering():
    mp = MaterialParams(mu_p_bar=PMR15.mu_p_bar, mu_g_bar=0.0, eta=PMR15.eta)
    t11 = 1e-3 * mp.mu_p_bar  # small load
    t_load = 2.0e4
    curve = uniaxial.simulate_creep([(t11, t_load), (0.0, t_load)], mp)
    # late-time creep rate during load
    ts = np.linspace(0.6 * t_load, t_load, 200)
    eps = curve.strain_in_segment(0, ts)
    rate = np.polyfit(ts, eps, 1)[0]
    rate_ok = abs(rate / (2 * t11 / (3 * mp.eta)) - 1.0) <= 0.02
    # fluid response: the viscous strain stays (no recovery mechanism)
    terminal = float(curve.epsilon[-1])
    viscous = 2 * t11 * t_load / (3 * mp.eta)
    non_recovering = terminal >= 0.5 * viscous
    ok = rate_ok and non_recovering
    assert report(
        "6b (Maxwell limit)", ok,
        f"late creep rate = {rate:.3e} vs 2T/(3 eta) = {2 * t11 / (3 * mp.eta):.3e} "
        f"(+-2%), terminal strain = {terminal:.2e} (retained viscous flow)",
    )


def test_criterion_7_parameter_recovery():
    start = time.perf_counter()
    tau = HFPE285.retardation_time()
    stress = dataio.get_preset("hfpe285").fit_load_pa()
    noisy = dataio.make_synthetic_dataset(
        HFPE285, stress=stress, t_load=5 * tau, t_unload=5 * tau,
        n_load=50, n_unload=20, noise=0.005, seed=0,
    )
    cfg = fitting.FitConfig(weight=0.5, initial=(2.0e8, 2.0e9, 1.0e13))
    res_noisy = fitting.fit_dataset(noisy, cfg)

    clean = dataio.make_synthetic_dataset(
        HFPE285, stress=stress, t_load=5 * tau, t_unload=5 * tau,
        n_load=50, n_unload=20, noise=0.0,
    )
    res_clean = fitting.fit_dataset(clean, cfg)
    elapsed = time.perf_counter() - start

    truth = np.array([HFPE285.mu_p_bar, HFPE285.mu_g_bar, HFPE285.eta])

    def devs(res):
        got = np.array([res.params.mu_p_bar, res.params.mu_g_bar, res.params.eta])
        return np.abs(got / truth - 1.0)

    dev_noisy = devs(res_noisy)
    dev_clean = devs(res_clean)
    ok = np.max(dev_noisy) <= 0.05 and np.max(dev_clean) <= 1e-3 and elapsed < 60.0
    assert report(
        "7 (parameter recovery)", ok,
        f"noisy max dev = {np.max(dev_noisy) * 100:.2f}% (vs 5%), "
        f"zero-noise max dev = {np.max(dev_clean) * 100:.3f}% (vs 0.1%), "
        f"runtime = {elapsed:.1f} s",
    )


def test_criterion_8_optimizer_sanity():
    rosen = lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
    res = fitting.nelder_mead(rosen, [-1.2, 1.0], step=0.1, max_iter=400)
    err = float(np.max(np.abs(res.x - 1.0)))
    ok = err <= 1e-5 and res.iterations <= 400
    assert report(
        "8 (optimizer sanity)", ok,
        f"Rosenbrock |x - 1| = {err:.1e} (vs 1e-5) in {res.iterations} iterations",
    )


def test_criterion_9_golden_presets():
    table = dataio.presets()
    golden = {
        "hfpe285": (43.0, 4.79e8, 1.43e9, 3.95e13, 0.45),
        "hfpe300": (40.2, 4.12e8, 0.51e9, 2.23e13, 0.45),
        "hfpe315": (36.3, 4.19e8, 0.79e9, 4.04e13, 0.30),
        "hfpe330": (23.8, 5.07e8, 0.79e9, 3.19e13, 0.20),
    }
    ok = True
    for name, (uts, mu_p, mu_g, eta, frac) in golden.items():
        row = table[name]
        ok &= (row.uts_mpa, row.mu_p_bar, row.mu_g_bar, row.eta, row.load_fraction) == (
            uts, mu_p, mu_g, eta, frac,
        )
    pmr = table["pmr15_288"]
    ok &= (pmr.mu_p_bar, pmr.mu_g_bar, pmr.eta, pmr.fit_stress_pa) == (
        3.76e8, 4.42e8, 6.22e12, 1.0e7,
    )
    assert report("9 (golden presets)", bool(ok), "all published values match exactly")


def test_criterion_10_numerics():
    # embedded RK pair against closed forms
    sol_exp = integrate(OdeProblem(rhs=lambda t, y: -y, span=(0.0, 1.0),
                                   y0=np.array([1.0]), rtol=1e-8, atol=1e-12))
    exp_err = abs(sol_exp.ys[-1, 0] - math.exp(-1.0))
    sol_sin = integrate(OdeProblem(rhs=lambda t, y: np.array([math.cos(t)]),
                                   span=(0.0, math.pi / 2), y0=np.array([0.0]),
                                   rtol=1e-8, atol=1e-12))
    sin_err = abs(sol_sin.ys[-1, 0] - 1.0)

    rng = np.random.default_rng(211)
    eig_worst = 0.0
    for _ in range(1000):
        a = random_spd(rng, cond_max=1e6)
        lam, q = eig_sym(a)
        eig_worst = max(eig_worst, np.linalg.norm((q * lam) @ q.T - a) / np.linalg.norm(a))

    syl_worst = 0.0
    for _ in range(300):
        a = random_spd(rng, cond_max=1e3)
        x_known = random_sym(rng)
        m = a @ x_known + x_known @ a
        lam, q = eig_sym(a)
        x = q @ _sylvester_from_decomp(lam, q.T @ (0.5 * (m + m.T)) @ q) @ q.T
        syl_worst = max(syl_worst, np.linalg.norm(x - x_known) / max(1.0, np.linalg.norm(x_known)))

    ok = exp_err <= 1e-8 and sin_err <= 1e-8 and eig_worst <= 1e-12 and syl_worst <= 1e-12
    assert report(
        "10 (numerics)", ok,
        f"RK exp err = {exp_err:.1e}, RK sine err = {sin_err:.1e} (vs 1e-8), "
        f"eig reconstruction = {eig_worst:.1e} (vs 1e-12), "
        f"Sylvester round trip = {syl_worst:.1e} (vs 1e-12)",
    )
