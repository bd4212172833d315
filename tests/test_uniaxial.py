import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from polyvisc import dataio, fitting, uniaxial
from polyvisc.dataio import get_preset, presets, save_curve, save_svg
from polyvisc.material import MaterialParams
from polyvisc.odesolve import OdeProblem, integrate
from polyvisc.tensors import DomainError
from polyvisc.uniaxial import (
    SEGMENT_SAMPLES,
    CreepSegment,
    lambda_rate,
    simulate_creep,
    sls_creep_analytic,
    solve_B,
)

PMR15 = MaterialParams(mu_p_bar=3.76e8, mu_g_bar=4.42e8, eta=6.22e12)
HFPE285 = MaterialParams(mu_p_bar=4.79e8, mu_g_bar=1.43e9, eta=3.95e13)


def solve_B_bisect(t11, mu_p, iters=200):
    """Independent oracle: bisection on s^3 - (t11/mu_p)*s - 1."""
    a = t11 / mu_p
    g = lambda s: s**3 - a * s - 1.0
    lo, hi = 1e-3, 2.0 + abs(a)
    assert g(lo) < 0.0 < g(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    s = 0.5 * (lo + hi)
    return s * s


class TestSolveB:
    def test_stress_free(self):
        assert solve_B(0.0, 3.76e8) == pytest.approx(1.0, abs=1e-15)

    def test_fig4_load(self):
        b = solve_B(1.0e7, 3.76e8)
        assert b == pytest.approx(solve_B_bisect(1.0e7, 3.76e8), rel=1e-12)
        assert b == pytest.approx(1.0178086246207283, rel=1e-10)
        assert math.sqrt(b) == pytest.approx(1.008865, abs=1e-6)
        assert 0.5 * math.log(b) == pytest.approx(0.0088261, abs=5e-7)

    def test_table1_285C_load(self):
        t11 = 0.45 * 43.0e6
        b = solve_B(t11, 4.79e8)
        assert b == pytest.approx(solve_B_bisect(t11, 4.79e8), rel=1e-12)
        assert b == pytest.approx(1.0271108, abs=1e-6)
        assert 0.5 * math.log(b) == pytest.approx(0.013374906, abs=1e-8)

    def test_residual_bound(self):
        rng = np.random.default_rng(103)
        for _ in range(500):
            mu_p = 10 ** rng.uniform(6.0, 10.0)
            t11 = rng.uniform(-0.5, 0.5) * mu_p
            b = solve_B(t11, mu_p)
            residual = abs(mu_p * (b - b**-0.5) - t11)
            assert residual <= 1e-12 * max(abs(t11), mu_p)

    def test_unique_positive_root(self):
        # the cubic dips below -1 at its positive stationary point, so the
        # sign pattern admits exactly one positive crossing
        rng = np.random.default_rng(107)
        for a in rng.uniform(-0.5, 0.5, size=1000):
            g = lambda s: s**3 - a * s - 1.0
            if a > 0.0:
                s_star = math.sqrt(a / 3.0)
                assert g(s_star) <= -1.0
            grid = np.linspace(1e-3, 2.0 + abs(a), 2001)
            signs = np.sign(g(grid))
            crossings = np.sum(np.abs(np.diff(signs)) > 0)
            assert crossings == 1

    def test_compression_branch(self):
        b = solve_B(-1.0e7, 3.76e8)
        assert 0.0 < b < 1.0
        assert b == pytest.approx(solve_B_bisect(-1.0e7, 3.76e8), rel=1e-12)

    def test_extreme_compression_root(self):
        # the root s = sqrt(B) ~ 1/2000 lies below any fixed positive lower bracket
        mu_p = 3.76e8
        s = math.sqrt(solve_B(-2000.0 * mu_p, mu_p))
        assert abs(s**3 + 2000.0 * s - 1.0) <= 1e-12

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(decade=st.floats(-12.0, 150.0), compression=st.booleans())
    @example(decade=math.log10(1e37 / 3.76e8), compression=True)
    def test_relative_residual_over_all_loads(self, decade, compression):
        # |t11/mu_p| log-uniform over 162 decades: from -1e37 Pa on PMR-15 the
        # bracket-and-bisect solver returned B = 2.8e-4 (residual 4.4e26)
        mu_p = 3.76e8
        t11 = (-1.0 if compression else 1.0) * 10.0**decade * mu_p
        a = t11 / mu_p
        s = math.sqrt(solve_B(t11, mu_p))
        assert abs(s * s - a - 1.0 / s) <= 2e-15 * max(s * s, abs(a), 1.0 / s)

    def test_unrepresentable_stretch_is_a_domain_error(self):
        # B ~ (mu_p/t11)^2 ~ 1e-383 underflows
        with pytest.raises(DomainError):
            solve_B(-1.0e200, 3.76e8)

    def test_rejects_bad_modulus(self):
        with pytest.raises(DomainError):
            solve_B(1.0e7, 0.0)


class TestLambdaRate:
    def test_rest_state_is_stationary(self):
        assert lambda_rate(1.0, 1.0, PMR15) == 0.0

    def test_linearization_by_finite_differences(self):
        # the coefficients behind the analytic small-strain curve
        h = 1e-7
        dl = (lambda_rate(1 + h, 1.0, PMR15) - lambda_rate(1 - h, 1.0, PMR15)) / (2 * h)
        db = (lambda_rate(1.0, 1 + h, PMR15) - lambda_rate(1.0, 1 - h, PMR15)) / (2 * h)
        assert dl == pytest.approx(-2.0 * PMR15.mu_g_bar / PMR15.eta, rel=1e-6)
        assert db == pytest.approx((PMR15.mu_g_bar + PMR15.mu_p_bar) / PMR15.eta, rel=1e-6)

    def test_maxwell_steady_creep_rate(self):
        mp = MaterialParams(mu_p_bar=3.76e8, mu_g_bar=0.0, eta=6.22e12)
        t11 = 1e-3 * mp.mu_p_bar
        b = solve_B(t11, mp.mu_p_bar)
        lam = math.sqrt(b)
        rate = lambda_rate(lam, b, mp) / lam
        assert rate == pytest.approx(2.0 * t11 / (3.0 * mp.eta), rel=2e-3)

    def test_positive_rate_below_equilibrium(self):
        # during creep the stretch keeps growing until equilibrium
        b = solve_B(1.0e7, PMR15.mu_p_bar)
        lam0 = math.sqrt(b)
        eps_inf = (1.0e7 / 3.0) * (1.0 / PMR15.mu_p_bar + 1.0 / PMR15.mu_g_bar)
        lam_inf = math.exp(eps_inf)
        for frac in (0.0, 0.3, 0.7, 0.95):
            lam = lam0 + frac * (lam_inf - lam0)
            assert lambda_rate(lam, b, PMR15) > 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            lambda_rate(-1.0, 1.0, PMR15)
        with pytest.raises(DomainError):
            lambda_rate(1.0, 0.0, PMR15)


class TestSimulateCreep:
    def test_zero_stress_stays_at_zero(self):
        # from rest the segment starts at its asymptote: d0 = 0, so K = 0 and
        # the Newton stop is infinite, and every solve stays there exactly
        curve = simulate_creep([CreepSegment(0.0, 100.0)], PMR15)
        (seg,) = curve.segments
        assert seg.d0 == 0.0 and seg.inv_2k == math.inf
        assert np.all(curve.epsilon == 0.0)
        ts = np.linspace(0.0, 100.0, 7)
        assert np.all(curve.strain_in_segment(0, ts) == 0.0)
        assert all(seg.lam_at(float(t)) == 1.0 for t in ts)

    def test_pmr15_creep_against_linearized_solid(self):
        tau = PMR15.retardation_time()
        curve = simulate_creep([CreepSegment(1.0e7, 7.0e4)], PMR15)
        assert curve.epsilon[0] == pytest.approx(0.008826, abs=1e-5)
        # terminal strain within 5% of the linearized asymptote
        eps_inf_lin = (1.0e7 / 3.0) * (1.0 / PMR15.mu_p_bar + 1.0 / PMR15.mu_g_bar)
        assert curve.epsilon[-1] == pytest.approx(eps_inf_lin, rel=0.05)
        # 63.2% of the creep gap closes at one retardation time (+-10%)
        eps0 = curve.epsilon[0]
        eps_end = curve.epsilon[-1]
        target = eps0 + (1.0 - math.exp(-1.0)) * (eps_end - eps0)
        ts = np.linspace(0.0, 7.0e4, 20001)
        eps = curve.strain_in_segment(0, ts)
        t_star = ts[np.searchsorted(eps, target)]
        assert t_star == pytest.approx(tau, rel=0.10)

    def test_full_recovery_after_10tau(self):
        tau = PMR15.retardation_time()
        curve = simulate_creep(
            [CreepSegment(1.0e7, 10 * tau), CreepSegment(0.0, 10 * tau)], PMR15
        )
        assert abs(curve.epsilon[-1]) <= 1e-3 * np.max(curve.epsilon)

    def test_monotone_loading(self):
        curve = simulate_creep([CreepSegment(1.0e7, 5.0e4)], PMR15)
        assert np.all(np.diff(curve.epsilon) >= -1e-15)

    def test_monotone_recovery_toward_unity(self):
        tau = PMR15.retardation_time()
        curve = simulate_creep(
            [CreepSegment(1.0e7, 5 * tau), CreepSegment(0.0, 5 * tau)], PMR15,
            strain_measure="engineering",
        )
        unload = curve.segments[1]
        lam = curve.strain_in_segment(1, np.linspace(unload.t_start, unload.t_end, 200)) + 1.0
        assert np.all(np.diff(lam) <= 1e-15)
        assert np.all(lam >= 1.0 - 1e-12)

    def test_converges_to_sls_at_small_load(self):
        t11 = 1e-3 * PMR15.mu_p_bar
        tau = PMR15.retardation_time()
        curve = simulate_creep([CreepSegment(t11, 10 * tau)], PMR15)
        ts = np.linspace(0.0, 10 * tau, 500)
        eps_sim = curve.strain_in_segment(0, ts)
        eps_lin = sls_creep_analytic(t11, PMR15, ts)
        assert np.max(np.abs(eps_sim - eps_lin) / np.abs(eps_lin)) <= 5e-3

    def test_unload_jump_reproduces_virgin_rule(self):
        # unloading to zero: lambda(t_u+) = lambda(t_u-) / lambda(0)
        tau = PMR15.retardation_time()
        curve = simulate_creep(
            [CreepSegment(1.0e7, 2 * tau), CreepSegment(0.0, tau)], PMR15
        )
        lam0 = curve.segments[0].lam_start
        lam_end_load = curve.segments[0].lam_at(curve.segments[0].t_end)
        lam_start_unload = curve.segments[1].lam_start
        assert lam_start_unload == pytest.approx(lam_end_load / lam0, rel=1e-13)

    def test_engineering_strain_measure(self):
        curve = simulate_creep([CreepSegment(1.0e7, 1.0e3)], PMR15,
                               strain_measure="engineering")
        lam0 = curve.segments[0].lam_start
        assert curve.epsilon[0] == pytest.approx(lam0 - 1.0, rel=1e-12)

    def test_requires_segments(self):
        with pytest.raises(ValueError):
            simulate_creep([], PMR15)
        with pytest.raises(ValueError):
            simulate_creep([CreepSegment(1.0e7, 1.0)], PMR15, strain_measure="bogus")

    def test_accepts_tuples(self):
        curve = simulate_creep([(1.0e7, 10.0)], PMR15)
        assert curve.segments[0].stress == 1.0e7

    def test_compressive_creep_mirrors_tension(self):
        # compression: lambda < 1, strain negative, recovery back toward zero
        tau = PMR15.retardation_time()
        curve = simulate_creep(
            [CreepSegment(-1.0e7, 5 * tau), CreepSegment(0.0, 10 * tau)], PMR15
        )
        assert curve.epsilon[0] < 0.0
        load_eps = curve.strain_in_segment(0, np.linspace(0, 5 * tau, 50))
        assert np.all(np.diff(load_eps) <= 1e-15)  # creeps further negative
        assert abs(curve.epsilon[-1]) <= 1e-3 * np.max(np.abs(curve.epsilon))


def _rk_reference(seg, lam0, mp):
    rhs = lambda t, y: np.array([lambda_rate(y[0], seg.b, mp)])
    return integrate(OdeProblem(rhs=rhs, span=(seg.t_start, seg.t_end),
                                y0=np.array([lam0]), rtol=1e-12, atol=1e-14))


class TestClosedForm:
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(
        preset=st.sampled_from(sorted(presets())),
        decades=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        load=st.floats(-0.3, 0.3),
        maxwell=st.booleans(),
        durations=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
    )
    @example(preset="pmr15_288", decades=(0.0, 0.0, 0.0), load=0.0, maxwell=False,
             durations=(1.0, 1.0))
    @example(preset="hfpe300", decades=(1.0, -1.0, 0.0), load=0.3, maxwell=True,
             durations=(5.0, 5.0))
    def test_matches_tight_runge_kutta(self, preset, decades, load, maxwell, durations):
        # log-uniform parameters within a decade of a preset, loads in
        # +-0.3 mu_p (compression included), a load segment and an unload
        row = get_preset(preset)
        base = (row.mu_p_bar, row.mu_g_bar, row.eta)
        mu_p, mu_g, eta = (v * 10.0**d for v, d in zip(base, decades))
        mp = MaterialParams(mu_p_bar=mu_p, mu_g_bar=0.0 if maxwell else mu_g, eta=eta)
        tau = eta / (2.0 * (mp.mu_g_bar or mu_p))
        curve = simulate_creep(
            [(load * mu_p, durations[0] * tau), (0.0, durations[1] * tau)], mp,
            strain_measure="engineering",  # strain + 1 is the stretch, exactly on [0.5, 2]
        )
        lam_rk = math.sqrt(curve.segments[0].b)
        for seg in curve.segments:
            if seg.index:
                lam_rk *= math.sqrt(seg.b / curve.segments[seg.index - 1].b)
            if lambda_rate(lam_rk, seg.b, mp) == 0.0:  # the exact answer is lam_start
                ts = np.linspace(seg.t_start, seg.t_end, 9)
                assert np.all(curve.strain_in_segment(seg.index, ts) + 1.0 == seg.lam_start)
                continue
            ref = _rk_reference(seg, lam_rk, mp)
            lam = curve.strain_in_segment(seg.index, ref.ts) + 1.0
            assert np.max(np.abs(lam / ref.ys[:, 0] - 1.0)) <= 1e-9
            scalar = np.array([seg.lam_at(float(t)) for t in ref.ts[::7]])
            assert np.max(np.abs(scalar / lam[::7] - 1.0)) <= 1e-14
            lam_rk = float(ref.ys[-1, 0])

    def test_maxwell_limit_is_exponential(self):
        mp = MaterialParams(mu_p_bar=3.76e8, mu_g_bar=0.0, eta=6.22e12)
        curve = simulate_creep([(0.1 * mp.mu_p_bar, 1.0e5)], mp, strain_measure="engineering")
        seg = curve.segments[0]
        rate = lambda_rate(seg.lam_start, seg.b, mp) / seg.lam_start
        ts = np.linspace(0.0, 1.0e5, 11)
        assert np.allclose(curve.strain_in_segment(0, ts) + 1.0, seg.lam_start * np.exp(rate * ts),
                           rtol=1e-13, atol=0.0)

    def test_asymptote_is_a_fixed_point(self):
        seg = simulate_creep([(1.0e7, 1.0e4)], PMR15).segments[0]
        initial_rate = lambda_rate(seg.lam_start, seg.b, PMR15)
        assert abs(lambda_rate(seg.lam_inf, seg.b, PMR15)) <= 1e-12 * initial_rate
        assert seg.lam_start < seg.lam_at(seg.t_end) < seg.lam_inf

    def test_asymptote_solves_the_cubic_at_extreme_compression(self):
        # r^3 + p r - b^1.5 = 0 with p = c1/c3 >> r^2: r ~ b^1.5/p ~ 1.7e-43
        seg = simulate_creep([(-1.0e30, 3.0e4)], PMR15).segments[0]
        b15 = seg.b**1.5
        p = PMR15.mu_p_bar * seg.b**2 * (1.0 - b15) / (PMR15.mu_g_bar * b15)
        r = seg.lam_inf
        assert r == pytest.approx(b15 / p, rel=1e-12)
        assert abs((r * r + p) * r - b15) <= 1e-12 * b15

    def test_nonfinite_solution_is_a_domain_error(self):
        # eta this small overflows the creep rate
        mp = MaterialParams(mu_p_bar=3.76e8, mu_g_bar=4.42e8, eta=1e-320)
        with pytest.raises(DomainError):
            simulate_creep([(1.0e7, 1.0e4)], mp)

    def test_an_underflowed_denominator_is_a_domain_error(self):
        # eta * sqrt(B) rounds to 0 in the creep rate: a ZeroDivisionError inside
        with pytest.raises(DomainError, match="no finite creep solution in segment 0"):
            simulate_creep([(-1.0e9, 1.0)], MaterialParams(mu_p_bar=1e8, mu_g_bar=1e8,
                                                          eta=5e-324))

    def test_non_finite_segment_constants_are_a_domain_error(self):
        # Q(lam_start) = lam_start (lam_start + r) + q overflows
        with pytest.raises(DomainError, match="no finite creep solution in segment 0"):
            uniaxial.SegmentTrace(0, 0.0, 2.0, 0.0, 1.0, 1e200, 2.244924096618746, 1.0)

    @pytest.mark.parametrize("read", [
        lambda curve: curve.segments[0].lam_at(1.0e6),  # math.exp raises OverflowError
        lambda curve: curve.strain_in_segment(0, [0.0, 1.0e6]),  # np.exp gives inf
        lambda curve: curve.samples,
    ], ids=["lam_at", "strain_in_segment", "samples"])
    def test_an_overflowing_maxwell_stretch_is_a_domain_error(self, read):
        # Maxwell flow under tension grows the stretch as exp(rate t), here exp(2e3)
        curve = simulate_creep([(5.0e7, 1.0e6)], MaterialParams(1e8, 0.0, 1e10))
        with pytest.raises(DomainError, match="creep solution left lambda > 0 in segment 0"):
            read(curve)

    def test_rejects_times_outside_segment(self):
        curve = simulate_creep([(1.0e7, 1.0e4)], PMR15)
        with pytest.raises(ValueError):
            curve.segments[0].lam_at(2.0e4)
        with pytest.raises(ValueError):
            curve.strain_in_segment(0, np.array([0.0, -1.0]))

    def test_output_grid_ends_at_segment_ends(self):
        curve = simulate_creep([(1.0e7, 1.0e4), (0.0, 3.0e4)], PMR15)
        assert curve.t[0] == 0.0
        assert 1.0e4 in curve.t
        assert curve.t[-1] == 4.0e4
        assert np.all(np.diff(curve.t) > 0.0)
        assert curve.t.size == curve.epsilon.size


def _scalar_strains(curve, ts):
    """Per-segment scalar solves of the (n_segments, m) times ``ts``."""
    return np.array([[math.log(seg.lam_at(float(t))) for t in row]
                     for seg, row in zip(curve.segments, ts)])


# A log-branch load (mu_g << mu_p) followed by an atan-branch unload.
MIXED = MaterialParams(mu_p_bar=4.79e8, mu_g_bar=4.79e6, eta=3.95e13)
MIXED_PROGRAM = [(0.3 * 4.79e8, 2.0e4), (0.0, 4.0e4)]


def _v_reference(seg, dt):
    """(v, nu) at dt >= 0 in ``seg`` (see ``SegmentTrace``): v by Newton with
    bisection on ``math``, iterated to a step of at most 1e-3 tol or until
    the step stops shrinking at the residual's rounding floor, and nu, that
    floor in v: eps times the size of the residual's terms, where log1p
    magnifies the rounding of dq/q0 by q0/Q(lam), over F' = Q(r)/Q(lam)."""
    lam0, r, d0, q0, qr = seg.lam_start, seg.lam_inf, seg.d0, seg.q0, seg.qr
    k = seg.rate * dt
    lo, hi = -k * max(1.0, seg.rho), -k * min(1.0, seg.rho)
    tol = 1e-12 * (1.0 + k)
    v, last = -k * seg.rho, math.inf
    for _ in range(1000):
        dl = d0 * math.expm1(v)
        lam = lam0 + dl
        dq = dl * (lam + lam0 + r)
        log_term = 0.5 * math.log1p(dq / q0)
        h_term = seg.r15 * seg.term(dl, 2.0 * lam + r, seg, math.atan, math.log1p)
        f = v + k - (log_term + h_term)
        if f < 0.0:
            lo = v
        elif f > 0.0:
            hi = v
        v_next = v - f * (q0 + dq) / qr
        if not lo <= v_next <= hi:
            v_next = 0.5 * (lo + hi)
        step = abs(v_next - v)
        if step <= 1e-3 * tol or (step < tol and step >= 0.5 * last):
            size = abs(v) + k + abs(log_term) + abs(h_term) + q0 / (q0 + dq)
            return v_next, 4.0 * sys.float_info.epsilon * size * (q0 + dq) / qr
        v, last = v_next, step
    raise AssertionError("the reference did not converge")


def _worst_stop_error(curve, stamps):
    """The largest |v - v_ref| / (tol + 2 nu) over the scalar and the batch
    solves of stamps[k] in segment k (``_v_reference``: the solve's root and
    the reference's are each fixed to nu), measured on
    lam = lam_start + d0 expm1(v) up to lam's own rounding; at most 1 where
    every solve is within tol of the root."""
    batch = curve._lam([len(ts) for ts in stamps], np.concatenate(stamps))
    worst, i = 0.0, 0
    for seg, ts in zip(curve.segments, stamps):
        for t in ts:
            dt = max(float(t) - seg.t_start, 0.0)
            v_ref, nu = _v_reference(seg, dt)
            dl = seg.d0 * math.expm1(v_ref)
            lam_ref = seg.lam_start + dl
            slack = 8.0 * sys.float_info.epsilon * (lam_ref + abs(dl))
            allowed = (1e-12 * (1.0 + seg.rate * dt) + 2.0 * nu) * abs(lam_ref - seg.lam_inf)
            for lam in (seg.lam_at(float(t)), batch[i]):
                miss = abs(lam - lam_ref) - slack
                if miss > 0.0:
                    worst = max(worst, miss / allowed)
            i += 1
    return worst


def _optimistic_stop(curve):
    """``curve`` rebuilt on its own segments, each with K scaled by 1e-6 in
    place (the stop widened 1000-fold)."""
    for seg in curve.segments:
        seg.inv_2k *= 1e6
    return uniaxial.CreepCurve(curve.segments, curve.strain_measure)


class TestStop:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        preset=st.sampled_from(sorted(presets())),
        decades=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        program=st.tuples(*[st.tuples(st.floats(-0.9, 3.0), st.floats(0.01, 50.0))] * 2),
    )
    @example(preset="pmr15_288", decades=(0.0, -2.0, 0.0), program=((1.5, 0.5), (0.0, 5.0)))
    # an unload from 258 times its asymptote (rho ~ 2e4), where the
    # residual's rounding, not the stop, fixes v: to about 2 tol
    @example(preset="hfpe285", decades=(2.0, -3.0, 0.0), program=((2.0, 1.0), (0.0, 3.0)))
    def test_every_solve_is_within_tol_of_the_root(self, preset, decades, program):
        # the ranges of TestBatch.test_plain_pass_is_the_bracketed_loop, 40
        # stamps per segment: each lam_at and batch element, stopped on the
        # certified bound, is within tol in v of an over-converged reference
        # (beyond the residual's rounding)
        row = get_preset(preset)
        mu_p, mu_g, eta = (v * 10.0**d for v, d in zip((row.mu_p_bar, row.mu_g_bar, row.eta),
                                                        decades))
        mp = MaterialParams(mu_p_bar=mu_p, mu_g_bar=mu_g, eta=eta)
        tau = mp.retardation_time()
        try:
            curve = simulate_creep([(load * mu_p, d * tau) for load, d in program], mp)
            stamps = [np.linspace(s.t_start, s.t_end, 40) for s in curve.segments]
            worst = _worst_stop_error(curve, stamps)
        except DomainError:
            reject()
        assert worst <= 1.0

    @pytest.mark.parametrize("preset", sorted(presets()))
    def test_an_optimistic_stop_misses_the_root(self, preset):
        # negative control: the benchmark's fit program (5 tau load, 5 tau
        # unload) is within tol everywhere, and with K scaled by 1e-6 some
        # solve stops a Newton step early, ten times tol or more away
        row = get_preset(preset)
        mp = row.params()
        tau = mp.retardation_time()
        curve = simulate_creep([(row.fit_load_pa(), 5 * tau), (0.0, 5 * tau)], mp)
        stamps = [np.linspace(s.t_start, s.t_end, 40) for s in curve.segments]
        assert _worst_stop_error(curve, stamps) <= 1.0
        assert _worst_stop_error(_optimistic_stop(curve), stamps) > 10.0

    def test_an_overflowing_bound_falls_back_to_the_tol_stop(self):
        # creep from lam_start = 1e-170 up to r = 1: q0 ~ 1e-165 against
        # qr ~ 2, so K overflows, inv_2k is 0 and the stop is tol, the rule
        # without the bound
        seg = uniaxial.SegmentTrace(0, 0.0, 1e-110, 0.0, 10.0, 1e-170, 1.0, 1.0)
        assert seg.inv_2k == 0.0
        curve = uniaxial.CreepCurve([seg])
        stamps = [np.linspace(0.0, 10.0, 40)]
        assert _worst_stop_error(curve, stamps) <= 1.0
        lam = np.exp(curve.strain_in_segment(0, stamps[0]))
        assert np.max(np.abs(lam / [seg.lam_at(float(t)) for t in stamps[0]] - 1.0)) <= 1e-13


class TestBatch:
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(
        preset=st.sampled_from(sorted(presets())),
        decades=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        maxwell=st.booleans(),
        program=st.lists(
            st.tuples(st.one_of(st.just(0.0), st.floats(-0.3, 0.3)), st.floats(0.1, 5.0)),
            min_size=2, max_size=8),
    )
    @example(preset="pmr15_288", decades=(0.0, 0.0, 0.0), maxwell=False,
             program=[(0.0, 1.0), (0.0, 1.0)])
    # segments that converge after different numbers of Newton steps
    @example(preset="pmr15_288", decades=(1.0, 0.1, -1.0), maxwell=False,
             program=[(0.29, 3.0), (0.0, 1.7), (-0.19, 3.4)])
    def test_one_solve_matches_the_scalar_solves(self, preset, decades, maxwell, program):
        # parameters and loads as in TestClosedForm, over 2-8 segment
        # programs with zero-stress segments
        row = get_preset(preset)
        base = (row.mu_p_bar, row.mu_g_bar, row.eta)
        mu_p, mu_g, eta = (v * 10.0**d for v, d in zip(base, decades))
        mp = MaterialParams(mu_p_bar=mu_p, mu_g_bar=0.0 if maxwell else mu_g, eta=eta)
        tau = eta / (2.0 * (mp.mu_g_bar or mu_p))
        curve = simulate_creep([(load * mu_p, d * tau) for load, d in program], mp)

        ts, eps = curve.samples
        for seg, row_t in zip(curve.segments, ts):
            assert np.array_equal(row_t, np.linspace(seg.t_start, seg.t_end, SEGMENT_SAMPLES))
        assert np.max(np.abs(eps - _scalar_strains(curve, ts))) <= 1e-13
        # each segment takes the same Newton steps as when solved alone
        for k, row_t in enumerate(ts):
            assert np.array_equal(eps[k], curve.strain_in_segment(k, row_t))
        # arbitrary stamps, several segments in one call, and without segment 1
        stamps = ts[:, [4, 9, 13]]
        eps_stamps = curve.strains_in_segments(stamps)
        assert np.max(np.abs(np.array(eps_stamps) - _scalar_strains(curve, stamps))) <= 1e-13
        skipped = curve.strains_in_segments([stamps[0], [], *stamps[2:]])
        assert skipped[1].size == 0
        assert all(np.array_equal(a, b) for k, (a, b) in enumerate(zip(skipped, eps_stamps))
                   if k != 1)

    @pytest.fixture()
    def array_passes(self, monkeypatch):
        """Records, for each array pass, the flat indices of the elements it
        could not certify and the caller re-solved by the scalar loop; each
        read returns the passes since the last read."""
        passes = []
        plain = uniaxial._plain_newton

        def recorded(c, dt):
            lam, redo = plain(c, dt)
            passes.append(list(redo))
            return lam, redo

        monkeypatch.setattr(uniaxial, "_plain_newton", recorded)

        def read():
            out = passes[:]
            passes.clear()
            return out

        return read

    def test_mixed_branches_in_one_solve(self, array_passes):
        curve = simulate_creep(MIXED_PROGRAM, MIXED)
        load, unload = curve.segments
        assert load.disc > 0.0 > unload.disc  # log term, then atan term
        ts, eps = curve.samples
        assert array_passes() == [[]]
        assert np.max(np.abs(eps - _scalar_strains(curve, ts))) <= 1e-13

    def test_bisecting_batch_matches_the_scalar_solves(self, array_passes):
        # a log-branch load above mu_p_bar, where some Newton steps would
        # leave the bracket: the output grid re-solves 7 elements
        mp = MaterialParams(mu_p_bar=3.0e8, mu_g_bar=8.24e-4 * 3.0e8, eta=1.0e13)
        curve = simulate_creep([(1.33 * mp.mu_p_bar, 0.33 * mp.retardation_time())], mp)
        (seg,) = curve.segments
        assert seg.disc > 0.0  # the log term
        ts, eps = curve.samples
        (redo,) = array_passes()
        assert redo
        assert np.array_equal(eps[0], curve.strain_in_segment(0, ts[0]))
        assert array_passes() == [redo]
        assert np.max(np.abs(eps - _scalar_strains(curve, ts))) <= 1e-13
        assert np.array_equal(eps[0, redo], np.log([seg.lam_at(float(ts[0, i])) for i in redo]))
        ref = _rk_reference(seg, seg.lam_start, mp)
        lam = np.exp(curve.strain_in_segment(0, ref.ts))
        assert np.max(np.abs(lam / ref.ys[:, 0] - 1.0)) <= 1e-9

    @settings(max_examples=150, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        preset=st.sampled_from(sorted(presets())),
        decades=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        program=st.tuples(*[st.tuples(st.floats(-0.9, 3.0), st.floats(0.01, 50.0))] * 2),
    )
    # a log-branch load whose batch re-solves some elements
    @example(preset="pmr15_288", decades=(0.0, -2.0, 0.0), program=((1.5, 0.5), (0.0, 5.0)))
    def test_plain_pass_is_the_bracketed_loop(self, preset, decades, program, array_passes):
        # two-segment programs with moduli and eta within 10^+-3 of a preset,
        # loads from -0.9 to 3 mu_p_bar and 0.01-50 tau per segment, 200
        # stamps each: a re-solved element is its own scalar solve bit for
        # bit, and a certified one (the bracketed loop's result on numpy's
        # elementary functions) is within 1e-13 of it
        row = get_preset(preset)
        mu_p, mu_g, eta = (v * 10.0**d for v, d in zip((row.mu_p_bar, row.mu_g_bar, row.eta),
                                                        decades))
        mp = MaterialParams(mu_p_bar=mu_p, mu_g_bar=mu_g, eta=eta)
        tau = mp.retardation_time()
        try:
            curve = simulate_creep([(load * mu_p, d * tau) for load, d in program], mp)
        except DomainError:
            reject()
        stamps = [np.linspace(s.t_start, s.t_end, 200) for s in curve.segments]

        def solve(batch):
            try:
                if batch:
                    return np.concatenate(curve.strains_in_segments(stamps))
                return np.log([seg.lam_at(float(t))
                               for seg, ts in zip(curve.segments, stamps) for t in ts])
            except DomainError as exc:  # the first element without a solution
                return str(exc)

        eps, scalar = solve(True), solve(False)
        if isinstance(eps, str) or isinstance(scalar, str):
            assert eps == scalar
            return
        (redo,) = array_passes()
        assert np.array_equal(eps[redo], scalar[redo])
        assert np.max(np.abs(eps - scalar)) <= 1e-13  # the stretches' relative deviation

    def test_a_final_v_outside_the_bracket_is_resolved(self, array_passes):
        # a compressive load held for 30 tau and then held on: the second
        # segment starts within rounding of its asymptote, so its bracket is
        # a few ulps wide, and the residual's rounding carries some final v
        # out of it although every step halved. The pass re-solves those
        # elements, none of the first segment, each its own scalar solve bit
        # for bit
        mp = get_preset("hfpe315").params()
        tau = mp.retardation_time()
        curve = simulate_creep([(-1.0e7, 30 * tau), (-1.0e7, tau)], mp)
        held = curve.segments[1]
        assert 0.0 < abs(held.d0) <= 4.0 * math.ulp(held.lam_inf)
        stamps = [np.linspace(s.t_start, s.t_end, 200) for s in curve.segments]
        eps = np.concatenate(curve.strains_in_segments(stamps))
        (redo,) = array_passes()
        assert redo and min(redo) >= 200
        scalar = np.log([seg.lam_at(float(t)) for seg, ts in zip(curve.segments, stamps)
                         for t in ts])
        assert np.array_equal(eps[redo], scalar[redo])
        assert np.max(np.abs(eps - scalar)) <= 1e-13

    def test_grouping_does_not_change_a_segment(self, array_passes):
        # the bisecting load above, then an atan-branch unload: the batch of
        # both re-solves load elements only, each segment alone re-solves the
        # same ones, and each segment's strains are those of its own solve,
        # bit for bit
        mp = MaterialParams(mu_p_bar=3.0e8, mu_g_bar=8.24e-4 * 3.0e8, eta=1.0e13)
        tau = mp.retardation_time()
        curve = simulate_creep([(1.33 * mp.mu_p_bar, 0.33 * tau), (0.0, 5.0 * tau)], mp)
        load, unload = curve.segments
        assert load.disc > 0.0 > unload.disc
        stamps = [np.linspace(s.t_start, s.t_end, 50) for s in curve.segments]
        together = curve.strains_in_segments(stamps)
        (redo,) = array_passes()
        assert redo and max(redo) < 50
        for k, eps in enumerate(together):
            assert eps.tobytes() == curve.strain_in_segment(k, stamps[k]).tobytes()
            assert array_passes() == [redo if k == 0 else []]

    def test_plain_pass_beyond_its_cap_runs_the_loop(self, array_passes, monkeypatch):
        tau = PMR15.retardation_time()
        curve = simulate_creep([(1.0e7, tau), (-5.0e6, 2 * tau)], PMR15)
        stamps = [np.linspace(s.t_start, s.t_end, 50) for s in curve.segments]
        curve.strains_in_segments(stamps)
        assert array_passes() == [[]]
        with monkeypatch.context() as m:
            m.setattr(uniaxial, "_PLAIN_MAX_ITER", 1)  # the batch needs more
            capped = curve.strains_in_segments(stamps)
        # all but the two segment starts (no step) and the three stamps next
        # to them (a first step within the certified stop) are re-solved
        (redo,) = array_passes()
        assert sorted(set(range(100)) - set(redo)) == [0, 1, 2, 50, 51]
        scalar = [np.log([seg.lam_at(float(t)) for t in ts])
                  for seg, ts in zip(curve.segments, stamps)]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(capped, scalar))

    def test_a_loop_that_does_not_converge_raises(self, monkeypatch):
        tau = PMR15.retardation_time()
        curve = simulate_creep([(1.0e7, tau)], PMR15)
        monkeypatch.setattr(uniaxial, "_NEWTON_MAX_ITER", 1)
        monkeypatch.setattr(uniaxial, "_PLAIN_MAX_ITER", 1)
        with pytest.raises(DomainError, match="creep solution did not converge"):
            curve.segments[0].lam_at(0.5 * tau)
        with pytest.raises(DomainError, match="creep solution did not converge"):
            curve.strain_in_segment(0, [0.5 * tau])

    @pytest.mark.parametrize("solve", [
        lambda curve, t: curve.segments[1].lam_at(t),
        lambda curve, t: curve.strain_in_segment(1, [curve.segments[1].t_start, t]),
        lambda curve, t: curve.strains_in_segments([[0.0], [curve.segments[1].t_end, t]]),
    ], ids=["lam_at", "strain_in_segment", "strains_in_segments"])
    def test_nan_time_is_outside_its_segment(self, solve, array_passes, monkeypatch):
        # rejected by the range check, like any other time outside the
        # segment, before any solve
        curve = simulate_creep([(1.0e7, 1.0e4), (0.0, 1.0e4)], PMR15)

        def no_solve(*args):
            raise AssertionError("solved a nan time")

        monkeypatch.setattr(uniaxial, "_bracketed_newton", no_solve)
        with pytest.raises(ValueError, match="times outside segment 1 requested"):
            solve(curve, math.nan)
        assert array_passes() == []

    @pytest.mark.parametrize("times", [np.zeros((2, 3)), 0.0], ids=["2-D", "0-D"])
    def test_times_per_segment_must_be_1d(self, times):
        curve = simulate_creep([(1.0e7, 1.0e4), (0.0, 1.0e4)], PMR15)
        with pytest.raises(ValueError, match="times for segment 1 must be 1-D"):
            curve.strains_in_segments([[0.0], times])

    def test_one_segment_read_contract(self, array_passes):
        # lam_at takes one time. An array of times is one curve batch,
        # indexed as segments[index] is (a negative index counts from the
        # end; one past the end is an IndexError before any solve), and
        # read in the shape of its times
        curve = simulate_creep([(1.0e7, 1.0e4), (0.0, 1.0e4)], PMR15)
        last = curve.segments[-1]
        ts = np.linspace(last.t_start, last.t_end, 6)
        with pytest.raises(TypeError):
            last.lam_at(ts[:2])
        eps = curve.strain_in_segment(1, ts)
        assert curve.strain_in_segment(-1, ts).tobytes() == eps.tobytes()
        array_passes()
        with pytest.raises(IndexError):
            curve.strain_in_segment(2, ts)
        assert array_passes() == []
        grid = curve.strain_in_segment(1, ts.reshape(2, 3))
        assert grid.shape == (2, 3) and grid.tobytes() == eps.tobytes()
        assert curve.strain_in_segment(1, []).shape == (0,)

    @pytest.mark.parametrize("name", sorted(presets()))
    def test_fit_programs_take_no_scalar_resolve(self, name, array_passes):
        # the benchmark's fit datasets: 5 tau load and 5 tau unload, 50 + 20
        # stamps, solved at the preset's own parameters in one certified pass
        row = get_preset(name)
        mp = row.params()
        tau = mp.retardation_time()
        ds = dataio.make_synthetic_dataset(mp, stress=row.fit_load_pa(), t_load=5 * tau,
                                           t_unload=5 * tau, n_load=50, n_unload=20)
        array_passes()
        fitting.creep_error(mp, ds, 0.5)
        simulate_creep([(row.fit_load_pa(), 5 * tau), (0.0, 5 * tau)], mp).samples
        assert array_passes() == [[], []]

    @pytest.mark.parametrize("mu_g_bar", [PMR15.mu_g_bar, 0.0])
    def test_times_for_a_prefix_of_the_segments(self, mu_g_bar):
        # times for the first k < n segments, the middle one empty, as the
        # objective asks at w = 1 for its load segment alone: each piece is
        # the segment's own solve, bit for bit
        mp = MaterialParams(mu_p_bar=PMR15.mu_p_bar, mu_g_bar=mu_g_bar, eta=PMR15.eta)
        tau = PMR15.retardation_time()
        curve = simulate_creep([(1.0e7, tau), (0.0, tau), (-5.0e6, 2 * tau), (0.0, tau)], mp)
        segs = curve.segments
        times = [np.linspace(segs[0].t_start, segs[0].t_end, 7), [],
                 np.linspace(segs[2].t_start, segs[2].t_end, 5)]
        eps = curve.strains_in_segments(times)
        assert [e.size for e in eps] == [7, 0, 5]
        for k in (0, 2):
            assert np.array_equal(eps[k], curve.strain_in_segment(k, times[k]))
        (load,) = curve.strains_in_segments(times[:1])
        assert np.array_equal(load, eps[0])

    def test_one_array_solve_per_curve_and_per_objective(self, array_passes, tmp_path):
        # one certified pass each, with no scalar re-solve
        tau = PMR15.retardation_time()
        curve = simulate_creep([(1.0e7, tau), (-5.0e6, tau), (0.0, 2 * tau)], PMR15)
        assert array_passes() == []  # the segment ends are scalar solves
        save_curve(curve, tmp_path / "c.csv")
        save_svg([curve], tmp_path / "c.svg")
        assert curve.t.size == curve.epsilon.size
        assert array_passes() == [[]]

        ds = dataio.make_synthetic_dataset(PMR15, stress=1.0e7, t_load=5 * tau,
                                           t_unload=5 * tau, n_load=20, n_unload=10)
        array_passes()
        fitting.creep_error(PMR15, ds, 0.5)
        assert array_passes() == [[]]


class TestAnalyticCurve:
    def test_instantaneous_compliance(self):
        t11 = 1e-3 * HFPE285.mu_p_bar
        assert sls_creep_analytic(t11, HFPE285, 0.0) == pytest.approx(
            t11 / (3 * HFPE285.mu_p_bar), rel=1e-12
        )

    def test_series_compliance_limit(self):
        t11 = 1e-3 * HFPE285.mu_p_bar
        tau = HFPE285.retardation_time()
        eps_inf = (t11 / 3.0) * (1.0 / HFPE285.mu_p_bar + 1.0 / HFPE285.mu_g_bar)
        assert sls_creep_analytic(t11, HFPE285, 60 * tau) == pytest.approx(eps_inf, rel=1e-9)

    def test_hfpe285_at_published_load(self):
        # 0.45 UTS is 4% of mu_p_bar: still inside the small-strain window
        t11 = 0.45 * 43.0e6
        eps0 = sls_creep_analytic(t11, HFPE285, 0.0)
        assert eps0 == pytest.approx(0.013466, abs=1e-6)
        tau = HFPE285.retardation_time()
        assert tau == pytest.approx(1.3811e4, rel=1e-3)
        eps_inf = sls_creep_analytic(t11, HFPE285, 1e3 * tau)
        assert eps_inf == pytest.approx(0.017976, abs=1e-6)

    def test_maxwell_limit_is_linear_creep(self):
        mp = MaterialParams(mu_p_bar=3.76e8, mu_g_bar=0.0, eta=6.22e12)
        t11 = 1e-3 * mp.mu_p_bar
        t = np.array([0.0, 1.0e4, 2.0e4])
        eps = sls_creep_analytic(t11, mp, t)
        expected = t11 / (3 * mp.mu_p_bar) + 2 * t11 * t / (3 * mp.eta)
        assert np.allclose(eps, expected, rtol=1e-12)

    def test_small_strain_warning_threshold(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sls_creep_analytic(0.04 * PMR15.mu_p_bar, PMR15, 0.0)  # no warning
        with pytest.warns(UserWarning):
            sls_creep_analytic(0.06 * PMR15.mu_p_bar, PMR15, 0.0)


class TestZeroDiscriminant:
    # at b = 2 this asymptote gives disc = r^2 - 4 b^1.5 / r == 0.0 exactly: the
    # rational H term, between the atan term below it and the log term above it
    R0 = 2.244924096618746

    @pytest.mark.parametrize("lam_start", [1.5, 3.0])
    def test_rational_term_matches_its_neighbours(self, lam_start):
        traces = [uniaxial.SegmentTrace(0, 0.0, 2.0, 0.0, 10.0, lam_start, r, 1.0)
                  for r in (math.nextafter(self.R0, 0.0), self.R0, math.nextafter(self.R0, 9.0))]
        assert [t.term for t in traces] == [uniaxial._atan_term, uniaxial._rational_term,
                                            uniaxial._log_term]
        assert traces[1].disc == 0.0
        ts = np.linspace(0.0, 10.0, 11)
        lams = [np.array([t.lam_at(float(x)) for x in ts]) for t in traces]
        batch = np.exp(uniaxial.CreepCurve([traces[1]]).strain_in_segment(0, ts))
        assert np.max(np.abs(batch / lams[1] - 1.0)) <= 1e-15
        for neighbour in (lams[0], lams[2]):
            assert np.max(np.abs(lams[1] / neighbour - 1.0)) <= 1e-13
        assert abs(lams[1][-1] / self.R0 - 1.0) < abs(lam_start / self.R0 - 1.0)


class TestSegmentValidation:
    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            CreepSegment(1.0e7, 0.0)
        with pytest.raises(ValueError):
            CreepSegment(float("nan"), 1.0)
