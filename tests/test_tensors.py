import math

import numpy as np
import pytest

from scipy.linalg import sqrtm

from polyvisc.evolution import _elastic_split, dG_rate
from polyvisc.material import MaterialParams
from polyvisc.tensors import DomainError, SymTensor3, _sylvester_from_decomp, eig_sym

UNIT = MaterialParams(mu_p_bar=1.0, mu_g_bar=0.8, eta=1.0)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_spd(rng, cond_max=1e6):
    q = random_rotation(rng)
    lam_max = rng.uniform(0.5, 10.0)
    cond = 10 ** rng.uniform(0.0, math.log10(cond_max))
    lams = [lam_max, lam_max * rng.uniform(1.0 / cond, 1.0), lam_max / cond]
    m = q @ np.diag(lams) @ q.T
    return 0.5 * (m + m.T)


def random_sym(rng, scale=1.0):
    m = rng.standard_normal((3, 3)) * scale
    return 0.5 * (m + m.T)


def invariants(a: np.ndarray) -> tuple:
    """(tr A, det A) and the eigenvalues."""
    lam, _ = eig_sym(a)
    return (np.trace(a), np.linalg.det(a), *lam)


class TestInvariants:
    def test_identity(self):
        assert invariants(np.eye(3)) == (3.0, 1.0, 1.0, 1.0, 1.0)

    def test_diagonal(self):
        assert invariants(np.diag([4.0, 1.0, 1.0])) == (6.0, 4.0, 1.0, 1.0, 4.0)

    def test_uniaxial_diag(self):
        # eigenvalues (2, 2^-1/2, 2^-1/2): sums/products by hand
        a = np.diag([2.0, 2.0**-0.5, 2.0**-0.5])
        i1, i3, *eigs = invariants(a)
        assert i1 == pytest.approx(2.0 + 2.0**0.5, rel=1e-12)
        assert i3 == pytest.approx(1.0, rel=1e-12)
        assert eigs == pytest.approx([2.0**-0.5, 2.0**-0.5, 2.0], rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = random_sym(rng)
            q = random_rotation(rng)
            rotated = q @ a @ q.T
            rotated = 0.5 * (rotated + rotated.T)
            for v, w in zip(invariants(a), invariants(rotated)):
                assert w == pytest.approx(v, rel=1e-12, abs=1e-12)


def reconstruct(lam, q) -> np.ndarray:
    """Q diag(lam) Q^T."""
    return (q * lam) @ q.T


class TestEigSym:
    def test_diagonal_input(self):
        lam, q = eig_sym(np.diag([3.0, 2.0, 1.0]))
        assert lam.tolist() == [1.0, 2.0, 3.0]
        assert np.allclose(np.abs(q), np.eye(3)[:, ::-1])

    def test_identity_degenerate(self):
        lam, q = eig_sym(np.eye(3))
        assert lam.tolist() == [1.0, 1.0, 1.0]
        assert np.linalg.norm(reconstruct(lam, q) - np.eye(3)) <= 1e-12

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            lams = np.sort(rng.uniform(0.1, 5.0, size=3))
            q = random_rotation(rng)
            a = q @ np.diag(lams) @ q.T
            a = 0.5 * (a + a.T)
            lam, vecs = eig_sym(a)
            assert np.allclose(lam, lams, rtol=1e-12, atol=1e-12)
            err = np.linalg.norm(reconstruct(lam, vecs) - a)
            assert err <= 1e-12 * np.linalg.norm(a)

    def test_eigenvectors_are_orthonormal(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            _, q = eig_sym(random_sym(rng))
            assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-13

    def test_eigenvalues_solve_characteristic_polynomial(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            a = random_sym(rng, scale=2.0)
            i1, i3 = np.trace(a), np.linalg.det(a)
            i2 = 0.5 * (i1 * i1 - float(np.trace(a @ a)))
            scale = max(1.0, np.linalg.norm(a) ** 3)
            for lam in eig_sym(a)[0]:
                p = lam**3 - i1 * lam**2 + i2 * lam - i3
                assert abs(p) <= 1e-10 * scale


def assert_eig_convention(a, lam, q):
    """eigh's convention: ascending eigenvalues, orthonormal eigenvector
    columns (their signs are LAPACK's), reconstruction to 1e-14 relative."""
    assert lam[0] <= lam[1] <= lam[2]
    assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-14
    assert np.linalg.norm(reconstruct(lam, q) - a) <= 1e-14 * np.linalg.norm(a)


class TestEigConvention:
    def test_uniaxial_states_with_repeated_pair(self):
        # every uniaxial state diag(b, b^-1/2, b^-1/2) has a double eigenvalue
        rng = np.random.default_rng(61)
        for b in (1.0, 1.3, 0.8, 1.0 + 1e-9, 2.5):
            base = np.diag([b, b**-0.5, b**-0.5])
            for q in [np.eye(3)] + [random_rotation(rng) for _ in range(50)]:
                a = q @ base @ q.T
                a = 0.5 * (a + a.T)
                lam, vecs = eig_sym(a)
                assert_eig_convention(a, lam, vecs)
                hi, lo = max(b, b**-0.5), min(b, b**-0.5)
                assert lam[2] == pytest.approx(hi, rel=1e-14)
                assert lam[0] == pytest.approx(lo, rel=1e-14)

    def test_random_spd(self):
        rng = np.random.default_rng(67)
        for _ in range(500):
            a = random_spd(rng, cond_max=1e6)
            assert_eig_convention(a, *eig_sym(a))

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                eig_sym(SymTensor3(1.0, 1.0, 1.0, bad, 0.0, 0.0).as_matrix())


def kernel_b_g(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """B_G = V^-1 B V^-1, V = A^1/2, as drive's kernel splits it, checked
    against scipy's Schur-based sqrtm, which shares no code with the kernel."""
    b_g = _elastic_split(a, b)[3]
    v_inv = np.linalg.inv(np.real(sqrtm(a)))
    ref = v_inv @ b @ v_inv
    assert np.linalg.norm(b_g - ref) <= 1e-9 * np.linalg.norm(ref)
    return b_g


class TestSqrtSpd:
    def test_identity(self):
        assert np.linalg.norm(kernel_b_g(np.eye(3), np.eye(3)) - np.eye(3)) == 0.0

    def test_diagonal(self):
        b_g = kernel_b_g(np.diag([4.0, 1.0, 1.0]), np.diag([2.0, 3.0, 5.0]))
        assert np.linalg.norm(b_g - np.diag([0.5, 3.0, 5.0])) <= 1e-14

    def test_rotated(self):
        rng = np.random.default_rng(23)
        q = random_rotation(rng)
        a = q @ np.diag([9.0, 4.0, 1.0]) @ q.T
        a = 0.5 * (a + a.T)
        b = random_spd(rng, cond_max=10.0)
        v_inv = q @ np.diag([1.0 / 3.0, 0.5, 1.0]) @ q.T
        expected = v_inv @ b @ v_inv
        assert np.linalg.norm(kernel_b_g(a, b) - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_square_recovers_input(self):
        # the split's V = Q diag(sqrt(lam)) Q^T squares to A
        rng = np.random.default_rng(29)
        for _ in range(1000):
            a = random_spd(rng, cond_max=1e6)
            lam, q, _, _ = _elastic_split(a, np.eye(3))
            v = (q * np.sqrt(lam)) @ q.T
            err = np.linalg.norm(v @ v - a)
            assert err <= 1e-12 * np.linalg.norm(a)

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            _elastic_split(np.diag([1.0, 1.0, -1.0]), np.eye(3))

    def test_inv_spd(self):
        # B = I splits into B_G = A^-1
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = random_spd(rng, cond_max=1e4)
            prod = kernel_b_g(a, np.eye(3)) @ a
            assert np.linalg.norm(prod - np.eye(3)) <= 1e-10


def sylvester(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The flow rule's Sylvester solve A*X + X*A = M, rotated into A's eigenbasis and back."""
    lam, q = eig_sym(a)
    return q @ _sylvester_from_decomp(lam, q.T @ m @ q) @ q.T


class TestSylvester:
    def test_identity_coefficient(self):
        rng = np.random.default_rng(37)
        m = random_sym(rng)
        x = sylvester(np.eye(3), m)
        assert np.linalg.norm(x - m * 0.5) <= 1e-14 * max(1.0, np.linalg.norm(m))

    def test_diagonal_componentwise(self):
        # in the diagonal basis X_ij = M_ij / (a_i + a_j)
        a = np.diag([2.0, 1.0, 1.0])
        m = np.array([[4.0, 3.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        x = sylvester(a, m)
        assert x[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert x[0, 1] == pytest.approx(1.0, abs=1e-14)
        assert abs(x[1, 1]) + abs(x[2, 2]) + abs(x[1, 2]) + abs(x[0, 2]) <= 1e-14

    def test_construct_then_solve(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            a = random_spd(rng, cond_max=1e3)
            x_known = random_sym(rng)
            m = a @ x_known + x_known @ a
            x = sylvester(a, 0.5 * (m + m.T))
            assert np.linalg.norm(x - x_known) <= 1e-12 * max(1.0, np.linalg.norm(x_known))

    def test_residual_and_symmetry(self):
        # a symmetric right-hand side in the eigenbasis gives an exactly
        # symmetric solution there
        rng = np.random.default_rng(43)
        for _ in range(300):
            a = random_spd(rng, cond_max=1e3)
            m = random_sym(rng)
            lam, q = eig_sym(a)
            mt = q.T @ m @ q
            xt = _sylvester_from_decomp(lam, 0.5 * (mt + mt.T))
            assert np.array_equal(xt, xt.T)
            x = q @ xt @ q.T
            res = np.linalg.norm(a @ x + x @ a - m)
            assert res <= 1e-12 * max(1.0, np.linalg.norm(m))

    def test_rejects_indefinite(self):
        # the flow rule's entry point guards its Sylvester solve
        with pytest.raises(DomainError):
            dG_rate(np.diag([1.0, -2.0, 1.0]), np.eye(3), UNIT)


class TestValueTypes:
    def test_component_order(self):
        a = SymTensor3(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        m = a.as_matrix()
        assert m[0, 0] == 1.0 and m[1, 1] == 2.0 and m[2, 2] == 3.0
        assert m[0, 1] == 4.0 and m[1, 2] == 5.0 and m[0, 2] == 6.0
        assert np.array_equal(m, m.T)
