import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import sqrtm
from scipy.spatial.transform import Rotation

from polyvisc import evolution, uniaxial
from polyvisc.dataio import get_preset, presets
from polyvisc.evolution import (
    Trajectory,
    _rate_kernel,
    dG_rate,
    drive,
    relax,
    replay_uniaxial,
)
from polyvisc.kinematics import (
    constant_stretch,
    ramp_hold,
    shear_protocol,
    uniaxial_L,
    uniaxial_protocol,
)
from polyvisc.material import MaterialParams
from polyvisc.odesolve import IntegrationError
from polyvisc.tensors import _COLS, _ROWS, _SYM_INDEX, DomainError, SymTensor3, eig_sym
from polyvisc.uniaxial import CreepSegment, lambda_rate, simulate_creep, solve_B

from test_tensors import random_rotation

PMR15 = MaterialParams(mu_p_bar=3.76e8, mu_g_bar=4.42e8, eta=6.22e12)
UNIT = MaterialParams(mu_p_bar=1.0, mu_g_bar=0.8, eta=1.0)


def random_unimodular_spd(rng):
    q = random_rotation(rng)
    lams = rng.uniform(0.4, 2.5, size=3)
    lams /= np.prod(lams) ** (1.0 / 3.0)
    return symmetrized(q @ np.diag(lams) @ q.T)


def random_spd(rng):
    q = random_rotation(rng)
    lams = rng.uniform(0.4, 2.5, size=3)
    return symmetrized(q @ np.diag(lams) @ q.T)


def symmetrized(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


class TestDGRate:
    def test_rest_state_is_stationary(self):
        d_g = dG_rate(np.eye(3), np.eye(3), PMR15)
        assert np.linalg.norm(d_g) == 0.0

    def test_generalized_equilibrium_states(self):
        # any B_G = (c0*I + mu_p*B_p)/mu_g is a stationary point of the flow
        rng = np.random.default_rng(109)
        for _ in range(50):
            b_p = random_unimodular_spd(rng)
            c0 = rng.uniform(0.1, 1.0)
            b_g = np.eye(3) * (c0 / UNIT.mu_g_bar) + b_p * (
                UNIT.mu_p_bar / UNIT.mu_g_bar
            )
            d_g = dG_rate(b_p, b_g, UNIT)
            assert np.linalg.norm(d_g) <= 1e-13

    def test_traceless_over_random_states(self):
        rng = np.random.default_rng(113)
        worst = 0.0
        for _ in range(1000):
            d_g = dG_rate(random_spd(rng), random_spd(rng), UNIT)
            worst = max(worst, abs(np.trace(d_g)))
        assert worst <= 1e-12

    def test_uniaxial_closed_form(self):
        # diagonal flow matches the scalar creep rate link
        for lam, b in ((1.05, 1.02), (1.3, 1.15), (0.9, 0.97)):
            b_p = np.diag([b, b**-0.5, b**-0.5])
            b_g = np.diag([lam**2 / b, math.sqrt(b) / lam, math.sqrt(b) / lam])
            d_g = dG_rate(b_p, b_g, PMR15)
            lam_dot = lambda_rate(lam, b, PMR15)
            r = lam_dot / lam
            expected = np.diag([r, -0.5 * r, -0.5 * r])
            assert np.linalg.norm(d_g - expected) <= 1e-10 * max(np.linalg.norm(expected), 1e-30)

    def test_rejects_non_spd(self):
        with pytest.raises(DomainError):
            dG_rate(np.diag([1.0, -1.0, 1.0]), np.eye(3), PMR15)


def spd_sqrt(a: np.ndarray) -> np.ndarray:
    """B_p^1/2 by scipy's Schur-based sqrtm, which shares no code with the kernel."""
    return np.real(sqrtm(a))


def kernel_rate(b_p: np.ndarray, b_g: np.ndarray, lmat: np.ndarray, mp: MaterialParams):
    """drive's rate of B_p (matrix) at the total stretch B = V B_G V that splits into B_G."""
    v = spd_sqrt(b_p)
    return _rate_kernel(b_p[_ROWS, _COLS], v @ b_g @ v, lmat, mp)[_SYM_INDEX]


class TestBpRate:
    def test_frozen_natural_configuration(self):
        # at an equilibrium B_G = (c0*I + mu_p*B_p)/mu_g the flow stops (D_G = 0)
        # and B_p is only convected
        rng = np.random.default_rng(127)
        b_p = random_unimodular_spd(rng)
        lmat = rng.standard_normal((3, 3))
        b_g = (0.5 * np.eye(3) + UNIT.mu_p_bar * b_p) / UNIT.mu_g_bar
        rate = kernel_rate(b_p, b_g, lmat, UNIT)
        lb = lmat @ b_p
        assert np.linalg.norm(rate - (lb + lb.T)) <= 1e-12 * np.linalg.norm(lb)

    def test_pure_relaxation(self):
        rng = np.random.default_rng(131)
        b_p = random_unimodular_spd(rng)
        b_g = random_spd(rng)
        d_g = dG_rate(b_p, b_g, UNIT)
        rate = kernel_rate(b_p, b_g, np.zeros((3, 3)), UNIT)
        vm = spd_sqrt(b_p)
        expected = -2.0 * vm @ d_g @ vm
        assert np.linalg.norm(rate - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_creep_state_is_stationary(self):
        # with B pinned by the load, the scalar creep condition freezes B_p
        b = solve_B(1.0e7, PMR15.mu_p_bar)
        lam = 1.01 * math.sqrt(b)
        b_p = np.diag([b, b**-0.5, b**-0.5])
        lam_dot = lambda_rate(lam, b, PMR15)
        total = np.diag([lam**2, 1.0 / lam, 1.0 / lam])
        rate = _rate_kernel(b_p[_ROWS, _COLS], total, uniaxial_L(lam, lam_dot), PMR15)[_SYM_INDEX]
        assert np.linalg.norm(rate) <= 1e-12 * np.linalg.norm(b_p) * abs(lam_dot / lam) / 1e-3

    def test_det_preservation_in_rate_form(self):
        # tr(B_p^-1 Bp_dot) vanishes for traceless L and traceless D_G
        rng = np.random.default_rng(137)
        for _ in range(100):
            b_p = random_unimodular_spd(rng)
            lmat = rng.standard_normal((3, 3))
            lmat -= np.trace(lmat) / 3.0 * np.eye(3)
            rate = kernel_rate(b_p, random_spd(rng), lmat, UNIT)
            drift = float(np.tensordot(np.linalg.inv(b_p), rate))
            assert abs(drift) <= 1e-10 * max(1.0, np.linalg.norm(rate))


def spd_from(log_eigs, angles):
    q = Rotation.from_euler("zxz", angles).as_matrix()
    return q @ np.diag(np.exp(log_eigs)) @ q.T


class TestRateKernel:
    _log = st.floats(-0.5, 0.5)
    _angles = st.tuples(*[st.floats(-math.pi, math.pi)] * 3)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        preset=st.sampled_from(sorted(presets())),
        decades=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        bp_logs=st.tuples(_log, _log),
        bp_angles=_angles,
        b_logs=st.tuples(_log, _log, _log),
        b_angles=_angles,
        vel=st.tuples(*[st.floats(-1.0, 1.0)] * 9),
    )
    @example(preset="pmr15_288", decades=(0.0, 0.0, 0.0), bp_logs=(0.2, 0.2),
             bp_angles=(0.0, 0.0, 0.0), b_logs=(0.3, -0.1, 0.1), b_angles=(0.0, 0.0, 0.0),
             vel=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    def test_matches_public_api(self, preset, decades, bp_logs, bp_angles, b_logs,
                                b_angles, vel):
        # the array kernel behind drive's RHS against an independent split
        # (scipy sqrtm, numpy inv) and the public flow rule, for log-uniform
        # parameters within a decade of a preset, SPD unimodular B_p, SPD B
        # and traceless L on the flow rule's own rate scale
        row = get_preset(preset)
        base = (row.mu_p_bar, row.mu_g_bar, row.eta)
        mu_p, mu_g, eta = (v * 10.0**d for v, d in zip(base, decades))
        mp = MaterialParams(mu_p_bar=mu_p, mu_g_bar=mu_g, eta=eta)
        b_p = symmetrized(spd_from((*bp_logs, -sum(bp_logs)), bp_angles))
        b = symmetrized(spd_from(b_logs, b_angles))
        lmat = np.reshape(vel, (3, 3)) * (mu_p / eta)
        lmat -= np.trace(lmat) / 3.0 * np.eye(3)

        v = spd_sqrt(b_p)
        v_inv = np.linalg.inv(v)
        b_g = symmetrized(v_inv @ b @ v_inv)
        d_g = dG_rate(b_p, b_g, mp)
        lb = lmat @ b_p
        expected = symmetrized(lb + lb.T - 2.0 * v @ d_g @ v)[_ROWS, _COLS]
        got = _rate_kernel(b_p[_ROWS, _COLS], b, lmat, mp)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


class TestDrive:
    def test_rest_state_stays_at_rest(self):
        protocol = constant_stretch(1.0, (0.0, 1.0e4))
        traj = drive(protocol, PMR15, np.eye(3))
        assert traj.F.shape == (len(traj), 3, 3) and np.all(traj.F == np.eye(3))
        for b_p in traj.b_p:
            assert np.linalg.norm(b_p.as_matrix() - np.eye(3)) == 0.0
        assert np.all(traj.t_axial == 0.0)
        assert np.all(traj.xi_m == 0.0)

    def test_step_stretch_relaxation_modulus(self):
        # held small stretch: stress decays to the series-spring value
        lam = 1.01
        tau = PMR15.retardation_time()
        traj = relax(lam, PMR15, hold_time=12 * tau)
        t_inf = (
            3.0
            * PMR15.mu_p_bar
            * PMR15.mu_g_bar
            / (PMR15.mu_p_bar + PMR15.mu_g_bar)
            * math.log(lam)
        )
        assert traj.t_axial[-1] == pytest.approx(t_inf, rel=0.02)
        assert np.all(np.diff(traj.t_axial) <= 1e-9 * traj.t_axial[0])

    def test_relax_unit_stretch_is_stress_free(self):
        # 2e6 s: a stationary start on a span over 1e6 s once failed at t = 0
        # with "step size underflow"
        for hold_time in (1.0e3, 2.0e6):
            traj = relax(1.0, PMR15, hold_time=hold_time)
            assert traj.t[-1] == hold_time
            assert np.max(np.abs(traj.t_axial)) == 0.0

    def test_relax_maxwell_limit_decays_to_zero(self):
        mp = MaterialParams(mu_p_bar=3.76e8, mu_g_bar=0.0, eta=6.22e12)
        tau_relax = mp.eta / (2.0 * mp.mu_p_bar)  # linearized decay time
        traj = relax(1.001, mp, hold_time=3.0 * tau_relax)
        t, y = traj.t, traj.t_axial
        mask = (t > 0.2 * tau_relax) & (t < 2.0 * tau_relax)
        rate = -np.polyfit(t[mask], np.log(y[mask]), 1)[0]
        assert rate == pytest.approx(2.0 * mp.mu_p_bar / mp.eta, rel=1e-3)
        assert y[-1] < 0.06 * y[0]

    def test_relax_ratio_approaches_series_spring(self):
        tau = PMR15.retardation_time()
        traj = relax(1.001, PMR15, hold_time=15 * tau)
        ratio = traj.t_axial[-1] / traj.t_axial[0]
        expected = PMR15.mu_g_bar / (PMR15.mu_p_bar + PMR15.mu_g_bar)
        assert ratio == pytest.approx(expected, rel=2e-3)

    def test_det_drift_abort(self):
        # a non-unimodular start trips the determinant monitor immediately
        protocol = constant_stretch(1.2, (0.0, 1.0e4))
        bad = np.diag([1.1, 1.0, 1.0])  # det 1.1
        with pytest.raises(IntegrationError, match="det"):
            drive(protocol, PMR15, bad)

    @pytest.mark.parametrize("b_p0", [
        np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # asymmetric
        np.diag([1.0, math.nan, 1.0]),
        np.diag([1.0, 1.0, math.inf]),
        np.eye(2),
    ], ids=["asymmetric", "nan", "inf", "2x2"])
    def test_rejects_a_bad_initial_state(self, b_p0):
        with pytest.raises(DomainError, match="b_p0"):
            drive(constant_stretch(1.0, (0.0, 1.0e4)), PMR15, b_p0)

    def test_symmetrizes_rounding_asymmetry(self):
        # a jump J B_p J is symmetric only to rounding: averaged, not refused
        b_p0 = np.eye(3)
        b_p0[0, 1] = 1e-12
        traj = drive(constant_stretch(1.0, (0.0, 1.0e4)), PMR15, b_p0)
        assert traj.b_p[0].xy == 5e-13

    def test_shear_drive_reports_deviatoric_convention(self):
        protocol = shear_protocol(lambda t: 0.1 * t / 100.0, lambda t: 0.1 / 100.0, (0.0, 100.0))
        traj = drive(protocol, PMR15, np.eye(3))
        assert traj.pressure_convention == "tr T = 0"
        assert traj.stress.shape == (len(traj), 3, 3)
        for t_sym in traj.stress:
            assert abs(np.trace(t_sym)) <= 1e-6 * max(np.linalg.norm(t_sym), 1.0)
        # shear exercises non-diagonal states
        assert any(abs(b_p.xy) > 1e-6 for b_p in traj.b_p[1:])

    def test_invariants_along_trajectory(self):
        tau = PMR15.retardation_time()
        traj = relax(1.02, PMR15, hold_time=5 * tau)
        assert np.max(np.abs(traj.det_bp - 1.0)) <= 1e-8
        assert np.min(traj.xi_m) >= 0.0
        assert np.max(traj.identity_residual) <= 1e-8

    def test_ramp_hold_protocol_drive(self):
        # ramp to 1.01 over half a retardation time, then hold to 3 tau
        tau = PMR15.retardation_time()
        ramp = 0.5 * tau
        protocol = uniaxial_protocol(
            lambda t: 1.0 + 0.01 * min(t / ramp, 1.0),
            lambda t: 0.01 / ramp if t < ramp else 0.0,
            (0.0, 3.0 * tau),
        )
        traj = drive(protocol, PMR15, np.eye(3))
        assert np.max(np.abs(traj.det_bp - 1.0)) <= 1e-8
        assert np.min(traj.xi_m) >= 0.0
        assert np.max(traj.identity_residual) <= 1e-8
        # after the hold the stress heads toward the relaxation plateau
        t_inf = (3.0 * PMR15.mu_p_bar * PMR15.mu_g_bar
                 / (PMR15.mu_p_bar + PMR15.mu_g_bar) * math.log(1.01))
        assert traj.t_axial[-1] == pytest.approx(t_inf, rel=0.25)
        assert traj.eps_axial[-1] == pytest.approx(math.log(1.01), rel=1e-9)


def traced_solutions(monkeypatch):
    """Record the OdeSolution of every integrate call that evolution makes."""
    sols = []
    integrate = evolution.integrate

    def recording(problem, step_hook=None):
        sol = integrate(problem, step_hook)
        sols.append(sol)
        return sol

    monkeypatch.setattr(evolution, "integrate", recording)
    return sols


class TestPiecewiseDrive:
    def test_breakpoint_is_recorded_once(self):
        tau = PMR15.retardation_time()
        ramp = 0.7 * tau
        traj = drive(ramp_hold("shear", 0.05, ramp, 3.0 * tau), PMR15, np.eye(3))
        assert np.count_nonzero(traj.t == ramp) == 1
        assert traj.t[0] == 0.0 and traj.t[-1] == 3.0 * tau

    def test_pieces_must_abut(self):
        ramp, hold = ramp_hold("uniaxial", 1.01, 10.0, 20.0)
        gap = constant_stretch(1.01, (11.0, 20.0))
        with pytest.raises(ValueError, match="abut"):
            drive((ramp, gap), PMR15, np.eye(3))

    def test_pieces_must_share_kind_and_rotation(self):
        ramp, _ = ramp_hold("uniaxial", 1.01, 10.0, 20.0)
        shear = shear_protocol(lambda t: 0.0, lambda t: 0.0, (10.0, 20.0))
        with pytest.raises(ValueError, match="kind and rotation"):
            drive((ramp, shear), PMR15, np.eye(3))
        turned = dataclasses.replace(constant_stretch(1.01, (10.0, 20.0)),
                                     rotation=random_rotation(np.random.default_rng(5)))
        with pytest.raises(ValueError, match="kind and rotation"):
            drive((ramp, turned), PMR15, np.eye(3))

    @pytest.mark.parametrize("preset", ["hfpe285", "pmr15_288"])
    @pytest.mark.parametrize("ramp_fraction", [0.5, 0.2])
    def test_no_step_is_rejected_at_the_ramp_end(self, monkeypatch, preset, ramp_fraction):
        # a step across t = ramp sees a jump in the rate and is rejected
        # (19-20 rejections per drive when the drive was one span)
        mp = get_preset(preset).params()
        duration = 5.0 * mp.retardation_time()
        pieces = ramp_hold("uniaxial", 1.01, ramp_fraction * duration, duration)
        sols = traced_solutions(monkeypatch)
        traj = drive(pieces, mp, np.eye(3))
        assert len(sols) == 2
        assert sum(sol.n_rejected for sol in sols) == 0
        ref = drive(pieces, mp, np.eye(3), rtol=1e-11)
        assert traj.t_axial[-1] == pytest.approx(ref.t_axial[-1], rel=5e-7)

    @pytest.mark.parametrize("preset", sorted(presets()))
    def test_shear_identity_residual(self, preset):
        # the flow rule forms M in the lab frame from the B_p and B_G arrays
        # the identity check reads (about 1e-12 here); formed in B_p's
        # eigenbasis instead, its ~mu-sized terms are rounded in another
        # frame than the check's, and these drives reached 3e-9 to 1.5e-8
        mp = get_preset(preset).params()
        tau = mp.retardation_time()
        worst = 0.0
        for amplitude in (0.01, 0.05, 0.1):
            for ramp_taus in (0.2, 1.0, 2.5):
                traj = drive(ramp_hold("shear", amplitude, ramp_taus * tau, 5.0 * tau), mp,
                             np.eye(3))
                worst = max(worst, float(np.max(traj.identity_residual)))
        assert worst <= 1e-10

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(
        preset=st.sampled_from(sorted(presets())),
        kind=st.sampled_from(["uniaxial", "shear"]),
        amplitude_frac=st.floats(0.0, 1.0),
        ramp_taus=st.floats(0.2, 2.5),
    )
    def test_det_drift_over_random_ramp_hold_drives(self, preset, kind, amplitude_frac,
                                                    ramp_taus):
        # criterion 5's det bound over the benchmark's drive ranges
        mp = get_preset(preset).params()
        tau = mp.retardation_time()
        low, high = (1.002, 1.05) if kind == "uniaxial" else (0.01, 0.1)
        amplitude = low + amplitude_frac * (high - low)
        traj = drive(ramp_hold(kind, amplitude, ramp_taus * tau, 5.0 * tau), mp,
                     np.eye(3))
        assert np.max(np.abs(traj.det_bp - 1.0)) <= 1e-8


class TestScalarEquivalence:
    def test_replay_reproduces_scalar_creep(self):
        # the central cross-validation: tensor vs scalar on the same history
        curve = simulate_creep([CreepSegment(1.0e7, 7.0e4)], PMR15)
        traj = replay_uniaxial(curve, PMR15, rtol=1e-8)[0]
        b = curve.segments[0].b
        ref = np.diag([b, b**-0.5, b**-0.5])
        for b_p in traj.b_p:
            assert np.linalg.norm(b_p.as_matrix() - ref) <= 1e-6 * np.linalg.norm(ref)
        assert np.max(np.abs(traj.t_axial - 1.0e7)) <= 1e-6 * 1.0e7

    def test_replay_with_unloading(self):
        tau = PMR15.retardation_time()
        curve = simulate_creep(
            [CreepSegment(1.0e7, 5 * tau), CreepSegment(0.0, 2 * tau)], PMR15
        )
        trajs = replay_uniaxial(curve, PMR15)
        assert len(trajs) == 2
        assert np.max(np.abs(trajs[1].t_axial)) <= 1e-6 * 1.0e7
        # strain continues the scalar solution across the jump
        eps_scalar = curve.strain_in_segment(1, trajs[1].t)
        assert np.max(np.abs(trajs[1].eps_axial - eps_scalar)) <= 1e-9

    def test_drive_example_protocol_replay(self):
        # replaying lambda(t) from a converged creep run through drive
        curve = simulate_creep([CreepSegment(1.0e7, 3.0e4)], PMR15)
        seg = curve.segments[0]
        protocol = uniaxial_protocol(
            lam=lambda t: float(seg.lam_at(t)),
            lam_dot=lambda t: lambda_rate(float(seg.lam_at(t)), seg.b, PMR15),
            span=(0.0, 3.0e4),
        )
        b = seg.b
        traj = drive(protocol, PMR15, np.diag([b, b**-0.5, b**-0.5]))
        assert np.max(np.abs(traj.t_axial - 1.0e7)) <= 1e-6 * 1.0e7

    def test_replay_segments_start_at_their_time_scale(self, monkeypatch):
        # each segment's exact solution is constant: a first step on the
        # segment's own scale reaches the end in a few steps
        tau = PMR15.retardation_time()
        curve = simulate_creep(
            [CreepSegment(1.0e7, 2 * tau), CreepSegment(0.0, 2 * tau)], PMR15
        )
        sols = traced_solutions(monkeypatch)
        replay_uniaxial(curve, PMR15)
        assert len(sols) == 2
        assert all(sol.n_accepted <= 4 for sol in sols)

    def test_replay_solves_the_stretch_once_per_time(self, monkeypatch):
        tau = PMR15.retardation_time()
        curve = simulate_creep(
            [CreepSegment(1.0e7, 2 * tau), CreepSegment(0.0, 2 * tau)], PMR15
        )
        solves = collections.Counter()
        lam_at = uniaxial.SegmentTrace.lam_at

        def counting(self, t):
            solves[id(self), float(t)] += 1
            return lam_at(self, t)

        monkeypatch.setattr(uniaxial.SegmentTrace, "lam_at", counting)
        replay_uniaxial(curve, PMR15)
        assert solves and max(solves.values()) == 1


def reduced_t11(pieces, mp: MaterialParams, beta0: float, ts: np.ndarray) -> np.ndarray:
    """T11 at ``ts`` from the unrotated uniaxial reduction, solved by scipy.

    For B = diag(lam^2, 1/lam, 1/lam), B_p stays diag(beta, beta^-1/2,
    beta^-1/2) and the six tensor equations reduce to
    beta' = 2 (lam'/lam) beta - (2/eta)(c + mu_p beta - mu_g lam^2/beta),
    c = (mu_g (lam^2/beta^2 + 2 beta/lam) - 3 mu_p) / (1/beta + 2 sqrt(beta)),
    with T11 = mu_p (beta - beta^-1/2) under lateral traction-freeness. Each
    piece is one DOP853 solve; beta is carried across the breakpoints.
    """
    mu_p, mu_g, eta = mp.mu_p_bar, mp.mu_g_bar, mp.eta

    def rhs(t, y, piece):
        beta, lam = y[0], piece.drive(t)
        c = (mu_g * (lam**2 / beta**2 + 2.0 * beta / lam) - 3.0 * mu_p) / (
            1.0 / beta + 2.0 * math.sqrt(beta))
        return [2.0 * piece.drive_rate(t) / lam * beta
                - (2.0 / eta) * (c + mu_p * beta - mu_g * lam**2 / beta)]

    beta = np.empty(ts.size)
    y0 = beta0
    for piece in pieces:
        t0, t1 = piece.span
        sol = solve_ivp(rhs, (t0, t1), [y0], method="DOP853", rtol=1e-13, atol=1e-15,
                        dense_output=True, args=(piece,))
        inside = (ts >= t0) & (ts <= t1)
        beta[inside] = sol.sol(ts[inside])[0]
        y0 = float(sol.y[0, -1])
    return mu_p * (beta - beta**-0.5)


def reduction_misfit(preset: str, decades, lam: float, motion: str, ramp_frac: float,
                     taus: float) -> float:
    """max |t_axial - T11_oracle| over a drive at rtol 1e-10, relative to
    max |T11_oracle| or, if larger, 1e-3 mu_p.

    B_p itself (not B_p - I) is integrated, so the stress error is about
    rtol * mu_p in absolute terms whatever the strain: the floor keeps
    strains below about 1e-3 (lam = 1 included) to that absolute check.
    """
    row = get_preset(preset)
    base = (row.mu_p_bar, row.mu_g_bar, row.eta)
    mp = MaterialParams(*(v * 10.0**d for v, d in zip(base, decades)))
    duration = taus * mp.retardation_time()
    if motion == "relax":
        traj = relax(lam, mp, duration, rtol=1e-10)
        pieces, beta0 = (constant_stretch(lam, (0.0, duration)),), lam**2
    else:
        pieces, beta0 = ramp_hold("uniaxial", lam, ramp_frac * duration, duration), 1.0
        traj = drive(pieces, mp, np.eye(3), rtol=1e-10)
    t11 = reduced_t11(pieces, mp, beta0, traj.t)
    scale = max(float(np.max(np.abs(t11))), 1e-3 * mp.mu_p_bar)
    return float(np.max(np.abs(traj.t_axial - t11))) / scale


class TestUniaxialReduction:
    # the independent check on strain-controlled stress: relax and uniaxial
    # ramp-hold drives against the one-ODE reduction, parameters log-uniform
    # within a decade of a preset
    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(
        preset=st.sampled_from(sorted(presets())),
        decades=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        lam=st.floats(0.95, 1.05),
        motion=st.sampled_from(["relax", "ramp_hold"]),
        ramp_frac=st.floats(0.1, 1.0),
        taus=st.floats(0.5, 5.0),
    )
    @example(preset="pmr15_288", decades=(0.0, 0.0, 0.0), lam=1.01, motion="relax",
             ramp_frac=1.0, taus=5.0)
    @example(preset="hfpe285", decades=(0.0, 0.0, 0.0), lam=0.97, motion="relax",
             ramp_frac=1.0, taus=5.0)
    @example(preset="hfpe330", decades=(0.0, 0.0, 0.0), lam=1.05, motion="ramp_hold",
             ramp_frac=0.2, taus=5.0)
    def test_t_axial_matches_reduction(self, preset, decades, lam, motion, ramp_frac, taus):
        assert reduction_misfit(preset, decades, lam, motion, ramp_frac, taus) <= 1e-6

    @pytest.mark.parametrize("motion", ["relax", "ramp_hold"])
    def test_negative_control(self, monkeypatch, motion):
        # a 0.1 % error in the flow rule's D_G must break the property
        true_solve = evolution._sylvester_from_decomp
        monkeypatch.setattr(evolution, "_sylvester_from_decomp",
                            lambda lam, mt: 1.001 * true_solve(lam, mt))
        assert reduction_misfit("pmr15_288", (0.0, 0.0, 0.0), 1.01, motion, 0.2, 5.0) > 1e-6


class TestRotationEquivariance:
    def test_rotated_protocol_preserves_spectra(self):
        rng = np.random.default_rng(139)
        q = random_rotation(rng)
        tau = PMR15.retardation_time()
        span = (0.0, 0.5 * tau)
        # the ramp's rate jump at 0.1 tau is a breakpoint between pieces: a
        # step across it would leave an error set by where the step sequence
        # happens to straddle it (about 1e-10 at this rtol), not by rotation
        base = ramp_hold("uniaxial", 1.01, 0.1 * tau, span[1])
        rotated = tuple(dataclasses.replace(piece, rotation=q) for piece in base)

        x0 = np.eye(3)
        # near-roundoff tolerances: the comparison is between two separate
        # integrations, so their global errors must sit below the 1e-10 bar
        kw = dict(rtol=3e-14, atol=1e-16)
        traj_a = drive(base, PMR15, x0, **kw)
        traj_b = drive(rotated, PMR15, x0, **kw)
        for traj in (traj_a, traj_b):
            assert traj.t[-1] == span[1]
        inv_a, _ = eig_sym(traj_a.b_p[-1].as_matrix())
        inv_b, _ = eig_sym(traj_b.b_p[-1].as_matrix())
        for va, vb in zip(inv_a, inv_b):
            assert vb == pytest.approx(va, rel=1e-10, abs=1e-10)
        eig_a, _ = eig_sym(traj_a.stress[-1])
        eig_b, _ = eig_sym(traj_b.stress[-1])
        scale = max(1.0, max(abs(e) for e in eig_a))
        for ea, eb in zip(eig_a, eig_b):
            assert abs(ea - eb) <= 1e-10 * scale

    def test_flow_rule_commutes_with_rotation(self):
        # pointwise: D_G(Q B_p Q^T, Q B_G Q^T) = Q D_G(B_p, B_G) Q^T
        rng = np.random.default_rng(149)
        for _ in range(100):
            q = random_rotation(rng)
            b_p = random_unimodular_spd(rng)
            m = rng.standard_normal((3, 3)) * 0.3 + np.eye(3)
            b_g = symmetrized(m)
            d_g = dG_rate(b_p, b_g, PMR15)
            b_p_r = symmetrized(q @ b_p @ q.T)
            b_g_r = symmetrized(q @ b_g @ q.T)
            d_g_r = dG_rate(b_p_r, b_g_r, PMR15)
            diff = np.linalg.norm(d_g_r - q @ d_g @ q.T)
            assert diff <= 1e-12 * max(np.linalg.norm(d_g), 1e-30)


class TestTrajectoryType:
    def test_validates_monotone_time(self):
        with pytest.raises(ValueError):
            Trajectory(
                t=np.array([0.0, 0.0]),
                F=np.array([np.eye(3)] * 2),
                b_p=[SymTensor3(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)] * 2,
                stress=np.zeros((2, 3, 3)),
                eps_axial=np.zeros(2),
                t_axial=np.zeros(2),
                det_bp=np.ones(2),
                xi_m=np.zeros(2),
                identity_residual=np.zeros(2),
            )

    def test_validates_nonnegative_dissipation(self):
        with pytest.raises(ValueError):
            Trajectory(
                t=np.array([0.0, 1.0]),
                F=np.array([np.eye(3)] * 2),
                b_p=[SymTensor3(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)] * 2,
                stress=np.zeros((2, 3, 3)),
                eps_axial=np.zeros(2),
                t_axial=np.zeros(2),
                det_bp=np.ones(2),
                xi_m=np.array([0.0, -1.0]),
                identity_residual=np.zeros(2),
            )
