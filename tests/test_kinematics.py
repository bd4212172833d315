import math

import numpy as np
import pytest

from polyvisc.kinematics import (
    MotionProtocol,
    ramp_hold,
    uniaxial_F,
    uniaxial_L,
)
from polyvisc.tensors import DomainError

from test_tensors import kernel_b_g, random_spd


class TestUniaxialF:
    def test_identity_at_unit_stretch(self):
        assert uniaxial_F(1.0) == pytest.approx(np.eye(3))

    def test_direct_substitution(self):
        f = uniaxial_F(4.0)
        assert np.allclose(f, np.diag([4.0, 0.5, 0.5]))

    def test_unimodular(self):
        rng = np.random.default_rng(3)
        for lam in rng.uniform(0.2, 5.0, size=200):
            f = uniaxial_F(lam)
            # det = lam * (1/sqrt(lam))^2 computed exactly as such
            assert abs(np.linalg.det(f) - 1.0) <= 1e-15

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            uniaxial_F(0.0)
        with pytest.raises(DomainError):
            uniaxial_F(-1.2)


class TestUniaxialL:
    def test_zero_rate(self):
        assert uniaxial_L(2.0, 0.0) == pytest.approx(np.zeros((3, 3)))

    def test_direct_substitution(self):
        l = uniaxial_L(2.0, 1.0)
        assert np.allclose(l, np.diag([0.5, -0.25, -0.25]))

    def test_traceless(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lam = rng.uniform(0.2, 5.0)
            rate = rng.standard_normal()
            assert abs(uniaxial_L(lam, rate).trace()) <= 1e-15 * max(1.0, abs(rate / lam))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            uniaxial_L(-0.5, 1.0)


class TestNaturalMaps:
    def test_full_relaxation(self):
        rng = np.random.default_rng(7)
        b = random_spd(rng, cond_max=100.0)
        b_g = kernel_b_g(b, b)
        assert np.linalg.norm(b_g - np.eye(3)) <= 1e-12

    def test_no_elastic_stretch(self):
        rng = np.random.default_rng(11)
        b = random_spd(rng, cond_max=100.0)
        b_g = kernel_b_g(np.eye(3), b)
        assert np.linalg.norm(b_g - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("lam,b", [(1.3, 1.1), (0.8, 0.95), (2.0, 1.6)])
    def test_uniaxial_closed_form(self, lam, b):
        total = np.diag([lam**2, 1.0 / lam, 1.0 / lam])
        b_p = np.diag([b, b**-0.5, b**-0.5])
        b_g = kernel_b_g(b_p, total)
        expected = np.diag([lam**2 / b, math.sqrt(b) / lam, math.sqrt(b) / lam])
        assert np.linalg.norm(b_g - expected) <= 1e-12 * np.linalg.norm(expected)
        # and the relative-stretch product B_p^-1 B_G
        prod = np.diag([1.0 / b, b**0.5, b**0.5]) @ b_g
        expected_prod = np.diag([lam**2 / b**2, b / lam, b / lam])
        assert np.linalg.norm(prod - expected_prod) <= 1e-12 * np.linalg.norm(expected_prod)

    def test_determinant_multiplicativity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            b = random_spd(rng, cond_max=100.0)
            b_p = random_spd(rng, cond_max=100.0)
            b_g = kernel_b_g(b_p, b)
            lhs = np.linalg.det(b_g) * np.linalg.det(b_p)
            assert lhs == pytest.approx(np.linalg.det(b), rel=1e-10)

    def test_rejects_indefinite_inputs(self):
        # a singular B_p has no square root to split by; inside drive the
        # total stretch B = F F^T is SPD by construction
        with pytest.raises(DomainError):
            kernel_b_g(np.diag([1.0, 0.0, 1.0]), np.eye(3))

    def test_unimodular_inputs_give_unimodular_output(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            def unimodular():
                a = random_spd(rng, cond_max=50.0)
                return a / np.linalg.det(a) ** (1.0 / 3.0)

            b_g = kernel_b_g(unimodular(), unimodular())
            assert abs(np.linalg.det(b_g) - 1.0) <= 1e-10


class TestProtocols:
    def test_constant_stretch(self):
        p = MotionProtocol("uniaxial", (0.0, 10.0), lambda t: 1.5, lambda t: 0.0)
        assert p.kind == "uniaxial"
        assert np.allclose(p.F(3.0), np.diag([1.5, 1.5**-0.5, 1.5**-0.5]))
        assert np.allclose(p.L(3.0), np.zeros((3, 3)))
        assert p.drive(7.0) == 1.5

    def test_shear(self):
        p = MotionProtocol("shear", (0.0, 5.0), lambda t: 0.1 * t, lambda t: 0.1)
        f = p.F(2.0)
        assert f[0, 1] == pytest.approx(0.2)
        assert abs(f - np.eye(3)).sum() == pytest.approx(0.2)
        assert p.L(2.0)[0, 1] == pytest.approx(0.1)
        assert np.linalg.det(p.F(2.0)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("kind", ["Shear", "torsion", ""])
    def test_rejects_unknown_kind(self, kind):
        # "Shear" once ran as a uniaxial motion
        with pytest.raises(ValueError, match="unknown protocol kind"):
            MotionProtocol(kind, (0.0, 1.0), lambda t: 0.1 * t, lambda t: 0.1)


class TestRampHold:
    @pytest.mark.parametrize("kind, rest, amplitude", [("uniaxial", 1.0, 1.03), ("shear", 0.0, 0.05)])
    def test_abutting_pieces_with_constant_rates(self, kind, rest, amplitude):
        ramp, hold = ramp_hold(kind, amplitude, 2.0, 5.0)
        assert ramp.kind == hold.kind == kind
        assert ramp.span == (0.0, 2.0) and hold.span == (2.0, 5.0)
        assert ramp.drive(0.0) == rest
        # the stretch is continuous at the breakpoint, the rate jumps to 0
        assert ramp.drive(2.0) == hold.drive(2.0) == pytest.approx(amplitude, rel=1e-15)
        for t in np.linspace(0.0, 2.0, 9):
            assert ramp.drive_rate(t) == (amplitude - rest) / 2.0
            assert ramp.drive(t) == pytest.approx(rest + (amplitude - rest) * t / 2.0, rel=1e-15)
        for t in np.linspace(2.0, 5.0, 9):
            assert hold.drive_rate(t) == 0.0
            assert hold.drive(t) == hold.drive(2.0)

    def test_ramp_to_the_end_is_one_piece(self):
        (ramp,) = ramp_hold("uniaxial", 1.01, 5.0, 5.0)
        assert ramp.span == (0.0, 5.0)
        assert ramp.drive_rate(5.0) == pytest.approx(0.01 / 5.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ramp_hold("torsion", 0.1, 1.0, 2.0)

    @pytest.mark.parametrize("ramp, duration", [
        (2.0, 1.0), (-1.0, 5.0), (0.0, 5.0), (1.0, math.inf), (math.nan, 5.0), (1.0, math.nan),
    ])
    def test_rejects_a_ramp_outside_the_duration(self, ramp, duration):
        # a ramp past the duration ran to the ramp's end; a negative one
        # failed later, in OdeProblem
        with pytest.raises(ValueError, match="0 < ramp <= duration < inf"):
            ramp_hold("uniaxial", 1.02, ramp, duration)
