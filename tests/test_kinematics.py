import math

import numpy as np
import pytest

from polyvisc.evolution import _flow_terms
from polyvisc.kinematics import constant_stretch, shear_protocol, uniaxial_F, uniaxial_L
from polyvisc.material import MaterialParams
from polyvisc.tensors import DomainError

from test_tensors import random_rotation, random_spd

UNIT = MaterialParams(mu_p_bar=1.0, mu_g_bar=0.8, eta=1.0)


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


def split_stretch(b: np.ndarray, b_p: np.ndarray) -> tuple:
    """(V, B_G) of the split B_p = V^2, B_G = V^-1 B V^-1 that drive's kernel runs."""
    v, b_g, _ = _flow_terms(b_p, b, UNIT)
    return v, b_g


class TestNaturalMaps:
    def test_full_relaxation(self):
        rng = np.random.default_rng(7)
        b = random_spd(rng, cond_max=100.0)
        _, b_g = split_stretch(b, b)
        assert np.linalg.norm(b_g - np.eye(3)) <= 1e-12

    def test_no_elastic_stretch(self):
        rng = np.random.default_rng(11)
        b = random_spd(rng, cond_max=100.0)
        v, b_g = split_stretch(b, np.eye(3))
        assert np.linalg.norm(b_g - b) <= 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(v - np.eye(3)) <= 1e-13

    @pytest.mark.parametrize("lam,b", [(1.3, 1.1), (0.8, 0.95), (2.0, 1.6)])
    def test_uniaxial_closed_form(self, lam, b):
        total = np.diag([lam**2, 1.0 / lam, 1.0 / lam])
        b_p = np.diag([b, b**-0.5, b**-0.5])
        v, b_g = split_stretch(total, b_p)
        expected = np.diag([lam**2 / b, math.sqrt(b) / lam, math.sqrt(b) / lam])
        assert np.linalg.norm(b_g - expected) <= 1e-12 * np.linalg.norm(expected)
        v_expected = np.diag([b**0.5, b**-0.25, b**-0.25])
        assert np.linalg.norm(v - v_expected) <= 1e-13 * np.linalg.norm(v)
        # and the relative-stretch product B_p^-1 B_G
        prod = np.diag([1.0 / b, b**0.5, b**0.5]) @ b_g
        expected_prod = np.diag([lam**2 / b**2, b / lam, b / lam])
        assert np.linalg.norm(prod - expected_prod) <= 1e-12 * np.linalg.norm(expected_prod)

    def test_determinant_multiplicativity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            b = random_spd(rng, cond_max=100.0)
            b_p = random_spd(rng, cond_max=100.0)
            _, b_g = split_stretch(b, b_p)
            lhs = np.linalg.det(b_g) * np.linalg.det(b_p)
            assert lhs == pytest.approx(np.linalg.det(b), rel=1e-10)

    def test_rejects_indefinite_inputs(self):
        # a singular B_p has no square root to split by; inside drive the
        # total stretch B = F F^T is SPD by construction
        with pytest.raises(DomainError):
            split_stretch(np.eye(3), np.diag([1.0, 0.0, 1.0]))

    def test_unimodular_inputs_give_unimodular_output(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            def unimodular():
                a = random_spd(rng, cond_max=50.0)
                return a / np.linalg.det(a) ** (1.0 / 3.0)

            _, b_g = split_stretch(unimodular(), unimodular())
            assert abs(np.linalg.det(b_g) - 1.0) <= 1e-10


class TestProtocols:
    def test_constant_stretch(self):
        p = constant_stretch(1.5, (0.0, 10.0))
        assert p.kind == "uniaxial"
        assert np.allclose(p.F(3.0), np.diag([1.5, 1.5**-0.5, 1.5**-0.5]))
        assert np.allclose(p.L(3.0), np.zeros((3, 3)))
        assert p.drive(7.0) == 1.5

    def test_shear(self):
        p = shear_protocol(lambda t: 0.1 * t, lambda t: 0.1, (0.0, 5.0))
        f = p.F(2.0)
        assert f[0, 1] == pytest.approx(0.2)
        assert abs(f - np.eye(3)).sum() == pytest.approx(0.2)
        assert p.L(2.0)[0, 1] == pytest.approx(0.1)
        assert np.linalg.det(p.F(2.0)) == pytest.approx(1.0, abs=1e-15)

    def test_rotated_protocol(self):
        rng = np.random.default_rng(17)
        q = random_rotation(rng)
        from polyvisc.kinematics import MotionProtocol

        base = constant_stretch(1.4, (0.0, 1.0))
        rot = MotionProtocol(base.kind, base.span, base.drive, base.drive_rate, rotation=q)
        f_rot = rot.F(0.5)
        assert np.linalg.norm(f_rot - q @ base.F(0.5)) <= 1e-14
