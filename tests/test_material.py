import math

import numpy as np
import pytest

from polyvisc.evolution import dG_rate
from polyvisc.material import (
    ConfigError,
    MaterialParams,
    check_dissipation_identity,
    dissipation_rate,
    helmholtz,
    pressure,
    stress,
)
from polyvisc.tensors import DomainError

from test_tensors import kernel_b_g, random_spd, random_sym

PMR15 = MaterialParams(mu_p_bar=3.76e8, mu_g_bar=4.42e8, eta=6.22e12)


class TestStateFunctions:
    def test_helmholtz_reference_state(self):
        i = np.eye(3)
        assert helmholtz(i, i, PMR15) == 0.0

    def test_helmholtz_mechanical_part(self):
        b = np.diag([3.0, 1.0, 1.0])  # trace 5
        i = np.eye(3)
        assert helmholtz(b, i, PMR15) == pytest.approx(PMR15.mu_p_bar, rel=1e-12)
        assert helmholtz(i, b, PMR15) == pytest.approx(PMR15.mu_g_bar, rel=1e-12)

    def test_helmholtz_rejects_non_spd_b_p(self):
        with pytest.raises(DomainError):
            helmholtz(np.diag([1.0, -1.0, 1.0]), np.eye(3), PMR15)

    def test_helmholtz_rejects_non_spd_b_g(self):
        with pytest.raises(DomainError):
            helmholtz(np.eye(3), np.diag([2.0, 1.0, 0.0]), PMR15)


class TestStress:
    def test_stress_free_reference(self):
        t = stress(np.eye(3), -PMR15.mu_p_bar, PMR15)
        assert np.linalg.norm(t) == 0.0

    def test_traction_free_uniaxial(self):
        b = 1.3
        b_p = np.diag([b, b**-0.5, b**-0.5])
        p = -PMR15.mu_p_bar * b**-0.5
        t = stress(b_p, p, PMR15)
        assert t[1, 1] == 0.0 and t[2, 2] == 0.0
        assert t[0, 1] == t[1, 2] == t[0, 2] == 0.0
        assert t[0, 0] == pytest.approx(PMR15.mu_p_bar * (b - b**-0.5), rel=1e-12)

    def test_pressure_conventions(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            b_p = random_spd(rng, cond_max=10.0)
            t = stress(b_p, pressure(b_p, PMR15), PMR15)
            assert abs(np.trace(t)) <= 1e-12 * np.linalg.norm(t)
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            t = stress(b_p, pressure(b_p, PMR15, n), PMR15)
            assert abs(n @ t @ n) <= 1e-12 * np.linalg.norm(t)

    def test_fig4_load_level(self):
        from polyvisc.uniaxial import solve_B

        b = solve_B(1.0e7, PMR15.mu_p_bar)
        b_p = np.diag([b, b**-0.5, b**-0.5])
        t = stress(b_p, -PMR15.mu_p_bar * b**-0.5, PMR15)
        assert t[0, 0] == pytest.approx(1.0e7, rel=1e-9)
        # and at the rounded published stretch the stress is 10 MPa to ~1e-5
        b_round = 1.017809
        t11 = PMR15.mu_p_bar * (b_round - b_round**-0.5)
        assert t11 == pytest.approx(1.0e7, rel=5e-5)

    def test_affine_in_arguments(self):
        rng = np.random.default_rng(79)
        b_p = random_spd(rng, cond_max=10.0)
        t1 = stress(b_p, 2.0e6, PMR15)
        t2 = stress(b_p, -3.0e6, PMR15)
        diff = t1 - t2
        assert np.linalg.norm(diff - np.eye(3) * 5.0e6) <= 1e-9 * np.linalg.norm(diff)


class TestDissipation:
    def test_zero_rate_at_equilibrium(self):
        xi = dissipation_rate(np.eye(3), np.zeros((3, 3)), PMR15)
        assert xi == 0.0

    def test_identity_reduces_to_frobenius(self):
        rng = np.random.default_rng(83)
        d_g = random_sym(rng)
        xi = dissipation_rate(np.eye(3), d_g, PMR15)
        assert xi == pytest.approx(PMR15.eta * np.vdot(d_g, d_g), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(89)
        for _ in range(300):
            b_p = random_spd(rng, cond_max=1e4)
            d_g = random_sym(rng)
            xi = dissipation_rate(b_p, d_g, PMR15)
            assert xi >= 0.0
            # against the quadratic form eta * D_G : B_p D_G it evaluates
            reference = PMR15.eta * float(np.tensordot(d_g, b_p @ d_g))
            assert xi == pytest.approx(reference, rel=1e-9, abs=1e-12 * PMR15.eta * np.vdot(d_g, d_g))

    def test_rejects_non_spd_b_p(self):
        with pytest.raises(DomainError):
            dissipation_rate(np.diag([1.0, -1.0, 1.0]), np.eye(3), PMR15)

    def test_identity_residual_zero_at_equilibrium(self):
        res = check_dissipation_identity(
            np.zeros((3, 3)), np.eye(3), np.zeros((3, 3)), 0.0, PMR15
        )
        assert res == 0.0

    def test_identity_for_flow_states(self):
        # states generated by the flow rule satisfy the stress-power identity
        rng = np.random.default_rng(97)
        for _ in range(50):
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            lams = rng.uniform(0.7, 1.5, size=3)
            lams /= np.prod(lams) ** (1.0 / 3.0)
            b_p = q @ np.diag(lams) @ q.T
            b_p = 0.5 * (b_p + b_p.T)
            b = random_spd(rng, cond_max=10.0)
            b_g = kernel_b_g(b_p, b)
            d_g = dG_rate(b_p, b_g, PMR15)
            xi = dissipation_rate(b_p, d_g, PMR15)
            t = stress(b_p, -PMR15.mu_p_bar * b_p[1, 1], PMR15)
            res = check_dissipation_identity(t, b_g, d_g, xi, PMR15)
            assert res <= 1e-8

    def test_identity_negative_control(self):
        rng = np.random.default_rng(101)
        b_p = np.diag([1.2, 1.2**-0.5, 1.2**-0.5])
        b_g = kernel_b_g(b_p, random_spd(rng, cond_max=5.0))
        d_g = dG_rate(b_p, b_g, PMR15)
        xi = dissipation_rate(b_p, d_g, PMR15)
        t = stress(b_p, -PMR15.mu_p_bar * b_p[1, 1], PMR15)
        res = check_dissipation_identity(t, b_g, d_g * 1.1, xi, PMR15)
        assert res > 1e-3


class TestStackAxis:
    """Each function on an (n, 3, 3) stack gives the n single-state results."""

    @staticmethod
    def states(seed, n=50):
        rng = np.random.default_rng(seed)
        b_p = np.array([random_spd(rng, cond_max=1e3) for _ in range(n)])
        d_g = np.array([random_sym(rng) for _ in range(n)])
        d_g -= np.multiply.outer(np.trace(d_g, axis1=1, axis2=2) / 3.0, np.eye(3))
        normal = rng.standard_normal(3)
        return b_p, d_g, normal / np.linalg.norm(normal)

    def test_stress_and_pressure_are_exact(self):
        b_p, _, normal = self.states(103)
        for n in (None, normal):
            p = pressure(b_p, PMR15, n)
            assert p.shape == (len(b_p),)
            assert np.array_equal(p, [pressure(b, PMR15, n) for b in b_p])
            t = stress(b_p, p, PMR15)
            assert np.array_equal(t, [stress(b, q, PMR15) for b, q in zip(b_p, p)])

    def test_dissipation_and_identity_residual(self):
        b_p, d_g, normal = self.states(107)
        rng = np.random.default_rng(109)
        b_g = np.array([random_spd(rng, cond_max=10.0) for _ in b_p])
        t = stress(b_p, pressure(b_p, PMR15, normal), PMR15)
        xi = dissipation_rate(b_p, d_g, PMR15)
        xi_one = np.array([dissipation_rate(b, d, PMR15) for b, d in zip(b_p, d_g)])
        assert np.all(np.abs(xi - xi_one) <= 1e-15 * xi_one)
        res = check_dissipation_identity(t, b_g, d_g, xi, PMR15)
        res_one = np.array([check_dissipation_identity(*state, PMR15)
                            for state in zip(t, b_g, d_g, xi_one)])
        assert np.all(np.abs(res - res_one) <= 1e-15 * res_one)

    def test_non_spd_state_is_named(self):
        b_p, d_g, _ = self.states(113, n=5)
        b_p[3] = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(DomainError, match=r"state 3\b"):
            dissipation_rate(b_p, d_g, PMR15)


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MaterialParams(mu_p_bar=0.0, mu_g_bar=1.0, eta=1.0)
        with pytest.raises(ConfigError):
            MaterialParams(mu_p_bar=1.0, mu_g_bar=-1.0, eta=1.0)
        with pytest.raises(ConfigError):
            MaterialParams(mu_p_bar=1.0, mu_g_bar=1.0, eta=0.0)
        # the Maxwell limit is legal
        assert MaterialParams(mu_p_bar=1.0, mu_g_bar=0.0, eta=1.0).mu_g_bar == 0.0

    @pytest.mark.parametrize("field", ["mu_p_bar", "mu_g_bar", "eta"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        # an infinite eta let relax write nan dissipation and exit 0; a nan
        # mu_g_bar passed the sign check
        kw = dict(mu_p_bar=1.0, mu_g_bar=1.0, eta=1.0)
        kw[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be .* finite"):
            MaterialParams(**kw)

    def test_retardation_time(self):
        assert PMR15.retardation_time() == pytest.approx(6.22e12 / (2 * 4.42e8))
        assert math.isinf(MaterialParams(1.0, 0.0, 1.0).retardation_time())
