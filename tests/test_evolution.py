import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import sqrtm
from scipy.spatial.transform import Rotation

from polyvisc.dataio import get_preset, presets
from polyvisc.evolution import (
    Trajectory,
    _convected_rate,
    _rate_kernel,
    dG_rate,
    drive,
    relax,
    replay_uniaxial,
)
from polyvisc.kinematics import (
    constant_stretch,
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
        rng = np.random.default_rng(127)
        b_p = random_unimodular_spd(rng)
        lmat = rng.standard_normal((3, 3))
        rate = _convected_rate(spd_sqrt(b_p), b_p, lmat, np.zeros((3, 3)))
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
        traj = drive(protocol, PMR15, SymTensor3.identity())
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
        bad = SymTensor3.diag(1.1, 1.0, 1.0)  # det 1.1
        with pytest.raises(IntegrationError, match="det"):
            drive(protocol, PMR15, bad)

    def test_shear_drive_reports_deviatoric_convention(self):
        protocol = shear_protocol(lambda t: 0.1 * t / 100.0, lambda t: 0.1 / 100.0, (0.0, 100.0))
        traj = drive(protocol, PMR15, SymTensor3.identity())
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
        traj = drive(protocol, PMR15, SymTensor3.identity())
        assert np.max(np.abs(traj.det_bp - 1.0)) <= 1e-8
        assert np.min(traj.xi_m) >= 0.0
        assert np.max(traj.identity_residual) <= 1e-8
        # after the hold the stress heads toward the relaxation plateau
        t_inf = (3.0 * PMR15.mu_p_bar * PMR15.mu_g_bar
                 / (PMR15.mu_p_bar + PMR15.mu_g_bar) * math.log(1.01))
        assert traj.t_axial[-1] == pytest.approx(t_inf, rel=0.25)
        assert traj.eps_axial[-1] == pytest.approx(math.log(1.01), rel=1e-9)


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
        traj = drive(protocol, PMR15, SymTensor3.diag(b, b**-0.5, b**-0.5))
        assert np.max(np.abs(traj.t_axial - 1.0e7)) <= 1e-6 * 1.0e7


class TestRotationEquivariance:
    def test_rotated_protocol_preserves_spectra(self):
        rng = np.random.default_rng(139)
        q = random_rotation(rng)
        tau = PMR15.retardation_time()
        span = (0.0, 0.5 * tau)

        def lam(t):
            return 1.0 + 0.01 * min(t / (0.1 * tau), 1.0)

        def lam_dot(t):
            return 0.01 / (0.1 * tau) if t < 0.1 * tau else 0.0

        base = uniaxial_protocol(lam, lam_dot, span)
        from polyvisc.kinematics import MotionProtocol

        rotated = MotionProtocol(base.kind, base.span, base.drive, base.drive_rate, rotation=q)

        x0 = SymTensor3.identity()
        # near-roundoff tolerances: the comparison is between two separate
        # integrations, so their global errors must sit below the 1e-10 bar
        kw = dict(rtol=3e-14, atol=1e-16)
        traj_a = drive(base, PMR15, x0, **kw)
        traj_b = drive(rotated, PMR15, x0, **kw)
        for traj in (traj_a, traj_b):
            assert traj.t[-1] == span[1]
        inv_a = eig_sym(traj_a.b_p[-1].as_matrix()).eigenvalues
        inv_b = eig_sym(traj_b.b_p[-1].as_matrix()).eigenvalues
        for va, vb in zip(inv_a, inv_b):
            assert vb == pytest.approx(va, rel=1e-10, abs=1e-10)
        eig_a = eig_sym(traj_a.stress[-1]).eigenvalues
        eig_b = eig_sym(traj_b.stress[-1]).eigenvalues
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
                b_p=[SymTensor3.identity()] * 2,
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
                b_p=[SymTensor3.identity()] * 2,
                stress=np.zeros((2, 3, 3)),
                eps_axial=np.zeros(2),
                t_axial=np.zeros(2),
                det_bp=np.ones(2),
                xi_m=np.array([0.0, -1.0]),
                identity_residual=np.zeros(2),
            )
