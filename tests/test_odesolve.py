import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyvisc import odesolve
from polyvisc.odesolve import IntegrationError, OdeProblem, OdeSolution, integrate
from polyvisc.tensors import DomainError


def solve(rhs, span, y0, rtol=1e-8, atol=1e-10, **kw):
    return integrate(OdeProblem(rhs=rhs, span=span, y0=np.atleast_1d(y0), rtol=rtol, atol=atol), **kw)


class TestClosedForms:
    def test_constant_solution_is_exact(self):
        # spans past 1e6 once underflowed at t = 0; a stationary start tries the
        # whole span first, so one step and no probe, whatever the span
        for t1 in (1e-3, 10.0, 2.0e6, 1.0e12, 1.0e300):
            sol = solve(lambda t, y: np.zeros_like(y), (0.0, t1), [3.5])
            assert np.all(sol.ys == 3.5)
            assert sol.ts.tolist() == [0.0, t1]
            assert (sol.n_accepted, sol.n_rejected, sol.n_rhs) == (1, 0, 7)

    def test_exponential_decay(self):
        sol = solve(lambda t, y: -y, (0.0, 1.0), [1.0])
        assert sol.ys[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-8)

    def test_cosine_integral(self):
        sol = solve(lambda t, y: np.array([math.cos(t)]), (0.0, math.pi / 2), [0.0])
        assert sol.ys[-1, 0] == pytest.approx(1.0, rel=1e-8)

    def test_vector_system(self):
        # harmonic oscillator: y'' = -y
        def rhs(t, y):
            return np.array([y[1], -y[0]])

        sol = solve(rhs, (0.0, 2 * math.pi), [1.0, 0.0])
        assert sol.ys[-1] == pytest.approx([1.0, 0.0], abs=1e-7)


def positive_decay(t, y):
    # y' = -5 y on the domain y > 0
    if y[0] <= 0.0:
        raise DomainError("y must be positive")
    return -5.0 * y


class TestToleranceBehavior:
    @pytest.mark.parametrize(
        "rhs,span,y0,exact",
        [
            (lambda t, y: -y, (0.0, 1.0), [1.0], math.exp(-1.0)),
            (lambda t, y: np.array([math.cos(t)]), (0.0, math.pi / 2), [0.0], 1.0),
            (lambda t, y: np.zeros(1), (0.0, 5.0), [2.0], 2.0),
        ],
    )
    def test_halving_tolerances_never_hurts(self, rhs, span, y0, exact):
        errors = []
        for k in range(4):
            rtol = 1e-6 / 2**k
            sol = solve(rhs, span, y0, rtol=rtol, atol=rtol * 1e-2)
            errors.append(abs(sol.ys[-1, 0] - exact))
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-15

    def test_error_within_tolerance_budget(self):
        for rtol in (1e-6, 1e-8, 1e-10):
            sol = solve(lambda t, y: -y, (0.0, 1.0), [1.0], rtol=rtol, atol=1e-14)
            # global error stays within a small multiple of rtol
            assert abs(sol.ys[-1, 0] - math.exp(-1.0)) <= 50 * rtol


class TestRestart:
    def test_restartability(self):
        rtol = 1e-8
        sol = solve(lambda t, y: -y, (0.0, 2.0), [1.0], rtol=rtol, atol=1e-12)
        mid = len(sol.ts) // 2
        t_mid, y_mid = sol.ts[mid], sol.ys[mid]
        sol2 = solve(lambda t, y: -y, (t_mid, 2.0), y_mid, rtol=rtol, atol=1e-12)
        target = sol.ys[-1, 0]
        assert abs(sol2.ys[-1, 0] - target) <= 10 * rtol * abs(target)


class TestFailureModes:
    def test_blowup_reports_last_state(self):
        # y' = y^2 blows up at t = 1; the solver must not silently continue
        with pytest.raises(IntegrationError, match="at t = ") as err:
            solve(lambda t, y: y * y, (0.0, 2.0), [1.0])
        assert isinstance(err.value.partial, OdeSolution)
        assert err.value.partial.ts[-1] < 1.01

    @pytest.mark.parametrize("case", ["underflow", "budget", "nan-at-start"])
    def test_every_failure_carries_its_partial(self, monkeypatch, case):
        # the hook's abort is covered in TestStepHook; a nan rate at t0 fails
        # in the start and once carried no partial
        rhs, match = {
            "underflow": (lambda t, y: y * y, "step size underflow at t = "),
            "budget": (lambda t, y: -y, "step budget exhausted"),
            "nan-at-start": (lambda t, y: np.full_like(y, math.nan), r"at t = 0\.0 \(initial"),
        }[case]
        if case == "budget":
            monkeypatch.setattr(odesolve, "_MAX_STEPS", 5)
        with pytest.raises(IntegrationError, match=match) as err:
            solve(rhs, (0.0, 2.0), [1.0])
        partial = err.value.partial
        assert isinstance(partial, OdeSolution)
        assert partial.ts[0] == 0.0 and partial.ys[0, 0] == 1.0
        assert partial.n_accepted == len(partial.ts) - 1 == len(partial.ys) - 1
        assert partial.n_rhs >= 1 + 6 * (partial.n_accepted + partial.n_rejected)
        if case == "budget":
            assert partial.n_accepted + partial.n_rejected == 6
        if case == "nan-at-start":
            assert partial.n_accepted == partial.n_rejected == 0 and partial.n_rhs == 1

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_a_non_finite_rate_at_a_zero_state_fails_unprobed(self, rate):
        # y0 = 0 is below the probe's fallback threshold; an infinite rate
        # once took the fallback h0, probed inf - inf and stepped on nan stages
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError,
                               match=r"^step size underflow at t = 0\.0 \(initial h") as err:
                solve(lambda t, y: np.full_like(y, rate), (0.0, 1.0), [0.0])
        assert err.value.partial.n_rhs == 1

    def test_an_infinite_trial_stage_is_a_rejected_step_without_a_warning(self):
        # past t = 0.5 the rate is infinite: the stage sums meet inf - inf, which numpy
        # reported as "invalid value encountered in dot" before the step was rejected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match=r"^step size underflow at t = 0\.4"):
                integrate(OdeProblem(
                    rhs=lambda t, y: -y if t <= 0.5 else np.full_like(y, np.inf),
                    span=(0.0, 1.0), y0=np.array([1.0])))

    def test_a_stage_outside_the_domain_is_a_rejected_step(self):
        # y' = -5 y from y = 1 with a first step of the whole span: the second
        # stage is at y = 1 - 5/5 = 0, outside the domain y > 0
        calls = []

        def rhs(t, y):
            calls.append(t)
            return positive_decay(t, y)

        sol = integrate(OdeProblem(rhs=rhs, span=(0.0, 1.0), y0=np.array([1.0]), first_step=1.0))
        assert sol.n_rejected >= 1
        assert sol.n_rhs == len(calls)  # the failed evaluation counts, the stages after it do not
        assert sol.ys[-1, 0] == pytest.approx(math.exp(-5.0), rel=1e-6)

    def test_a_start_outside_the_domain_raises(self):
        def rhs(t, y):
            raise DomainError("y must be positive")

        with pytest.raises(DomainError):
            solve(rhs, (0.0, 1.0), [-1.0])

    def test_invalid_problem(self):
        with pytest.raises(ValueError):
            OdeProblem(rhs=lambda t, y: y, span=(1.0, 1.0), y0=np.array([1.0]))
        with pytest.raises(ValueError):
            OdeProblem(rhs=lambda t, y: y, span=(0.0, 1.0), y0=np.array([1.0]), rtol=-1.0)
        for bad in ({"first_step": 0.0}, {"first_step": -1e-9}, {"first_step": math.nan}):
            with pytest.raises(ValueError, match="must be positive"):
                OdeProblem(rhs=lambda t, y: y, span=(0.0, 1.0), y0=np.array([1.0]), **bad)


# (rhs, span, first_step): a probed start; a zero rate whose landing step from t has
# t + (t1 - t) != t1 in floating point; a first step whose second stage is at y = 0
HOOK_RUNS = {
    "decay": (lambda t, y: -y, (0.0, 1.0), None),
    "landing": (lambda t, y: np.zeros_like(y), (0.0, 3250.1015031114853), 162.50507515557427),
    "domain": (positive_decay, (0.0, 1.0), 1.0),
}


class TestStepHook:
    def test_hook_sees_every_accepted_step(self):
        seen = []
        sol = solve(lambda t, y: -y, (0.0, 1.0), [1.0], step_hook=lambda t, y: seen.append(t))
        assert len(seen) == sol.n_accepted
        assert seen[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("case", sorted(HOOK_RUNS))
    def test_hook_follows_the_rhs_call_at_its_state(self, case):
        # FSAL: the RHS call just before each hook call was made at exactly the hook's (t, y)
        rhs, span, first_step = HOOK_RUNS[case]
        calls, hooked = [], []

        def recording(t, y):
            calls.append((t, y.copy()))
            return rhs(t, y)

        def hook(t, y):
            hooked.append((len(calls) - 1, t, y.copy()))

        sol = integrate(OdeProblem(rhs=recording, span=span, y0=np.array([1.0]),
                                   first_step=first_step), step_hook=hook)
        assert sol.n_rhs == len(calls)
        assert len(hooked) == sol.n_accepted
        for k, (i, t, y) in enumerate(hooked):
            assert calls[i][0] == t == sol.ts[k + 1]
            assert calls[i][1].tobytes() == y.tobytes() == sol.ys[k + 1].tobytes()
        assert hooked[-1][1] == span[1]
        if case == "landing":
            t_last = sol.ts[-2]
            assert t_last + (span[1] - t_last) != span[1]
        if case == "domain":
            assert sol.n_rejected >= 1

    def test_hook_abort_attaches_partial(self):
        def hook(t, y):
            if t > 0.5:
                raise IntegrationError("monitor tripped")
            return None

        with pytest.raises(IntegrationError) as err:
            solve(lambda t, y: -y, (0.0, 2.0), [1.0], step_hook=hook)
        assert err.value.partial is not None
        assert err.value.partial.ts[-1] <= 0.5 + 1e-12


class TestStatistics:
    def test_counts_are_consistent(self):
        sol = solve(lambda t, y: -y, (0.0, 1.0), [1.0])
        assert sol.n_accepted == len(sol.ts) - 1
        assert sol.n_rhs >= 6 * sol.n_accepted
        assert sol.n_rejected >= 0


class TestStepControls:
    def test_first_step_replaces_the_automatic_start(self):
        sol = integrate(OdeProblem(rhs=lambda t, y: -y, span=(0.0, 1.0), y0=np.array([1.0]),
                                   first_step=1e-3))
        assert sol.ts[1] == 1e-3
        # no rhs call for the automatic start
        assert sol.n_rhs == 1 + 6 * (sol.n_accepted + sol.n_rejected)
        assert sol.ys[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-8)

    @pytest.mark.parametrize("rate, stationary", [(0.0, True), (1e-9, True), (1e-8, False)])
    def test_a_stationary_start_takes_the_whole_span(self, rate, stationary):
        # y0 = 3.5 is 1/3.51e-8 tolerance units: a rate of 1e-9 moves y by 0.28
        # units over the span of 10 and 1e-8 by 2.8, which takes the probed start;
        # with d2 = 0 only its caps, 100 h0 = 350 and the span, bound it: one step too
        sol = solve(lambda t, y: np.full_like(y, rate), (0.0, 10.0), [3.5])
        assert sol.ts.tolist() == [0.0, 10.0]
        n_probe = 0 if stationary else 1
        assert sol.n_rhs == 1 + n_probe + 6 * (sol.n_accepted + sol.n_rejected)
        assert sol.ys[-1, 0] == pytest.approx(3.5 + 10.0 * rate, rel=1e-15)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(power=st.sampled_from([1, 2, 3, None]), log_omega_span=st.floats(0.0, 3.0),
           log_amplitude=st.floats(-2.0, 2.0), y0=st.sampled_from([0.0, 1.0]),
           t0=st.sampled_from([0.0, 0.5]), unit=st.integers(-60, 60))
    # y' = sin(100 t) over (0, 10) from y = 1, in the time unit 10
    @example(power=None, log_omega_span=3.0, log_amplitude=-2.0, y0=1.0, t0=0.0, unit=0)
    def test_a_stationary_start_that_moves_is_cut_to_size(self, power, log_omega_span,
                                                          log_amplitude, y0, t0, unit):
        # y' = a (p + 1) u^p or y' = a w sin(w u), u = (t - t0) in units of the span,
        # is 0 at the start, so the start is stationary and its whole-span step must
        # be cut by the error control alone; w is omega * span
        a, w = 10.0 ** log_amplitude, 10.0 ** log_omega_span

        def run(scale):
            start = t0 * scale
            if power is None:
                def rhs(t, y):
                    return np.array([a * w / scale * math.sin(w * (t - start) / scale)])
            else:
                def rhs(t, y):
                    return np.array([a * (power + 1) / scale * ((t - start) / scale) ** power])
            return solve(rhs, (start, start + scale), [y0])

        sol, ref = run(2.0 ** unit), run(1.0)
        # a power-of-two time unit rescales every step exactly
        assert sol.ys[-1, 0] == ref.ys[-1, 0]
        assert (sol.n_accepted, sol.n_rejected) == (ref.n_accepted, ref.n_rejected)
        if power is None:
            exact, top, radians = y0 + a * (1.0 - math.cos(w)), y0 + 2.0 * a, w
        else:  # a quartic at most, which the fifth-order pair integrates exactly
            exact, top, radians = y0 + a, y0 + a, 0.0
        # the error in tolerance units per radian, with a floor of 10 radians (the
        # polynomials' bound): at most 0.0571 when a stationary start took 0.05 of the
        # span, and 0.0574 now, on a grid of w in [1, 1e3], a in [1e-2, 1e2], y0 in {0, 1}
        tol = 1e-10 + 1e-8 * top
        assert abs(sol.ys[-1, 0] - exact) <= 0.06 * max(radians, 10.0) * tol

    @pytest.mark.parametrize("a", [2.0**-60, 2.0**40, 1e-100, 1e100])
    def test_the_probed_start_scales_with_the_time_unit(self, a):
        # y' = -5 y over (0, 1), and over (0, a) in a time unit a times smaller; the
        # textbook rule (0.01 / max(d1, d2))**(1/5) compares a rate with its derivative
        ref = solve(lambda t, y: -5.0 * y, (0.0, 1.0), [1.0])
        sol = solve(lambda t, y: -5.0 / a * y, (0.0, a), [1.0])
        assert sol.ts[1] / a == pytest.approx(ref.ts[1], rel=1e-12)
        assert sol.n_accepted == ref.n_accepted

    def test_a_first_step_below_the_floor_is_admissible(self):
        # 1e-14 of the span is below _MIN_STEP_FRACTION of it: a start the caller chose
        # lowers the floor to itself
        sol = integrate(OdeProblem(rhs=lambda t, y: -y, span=(0.0, 1.0), y0=np.array([1.0]),
                                   first_step=1e-14))
        assert sol.ts[1] == 1e-14 and sol.ts[-1] == 1.0
        assert sol.ys[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-8)

    @pytest.mark.parametrize("first_step, floor", [(None, 1e-12), (1e-3, 1e-12), (1e-14, 1e-14)])
    def test_a_collapsing_step_fails_below_the_floor(self, first_step, floor):
        # every stage past t = 0.5 leaves the domain, so the step shrinks at t = 0.5
        # until it is below 1e-12 of the span, or below a shorter first step
        def rhs(t, y):
            if t > 0.5:
                raise DomainError("past the wall")
            return -y

        with pytest.raises(IntegrationError, match=r"^step size underflow at t = 0\.4") as err:
            integrate(OdeProblem(rhs=rhs, span=(0.0, 1.0), y0=np.array([1.0]),
                                 first_step=first_step))
        h = float(re.search(r"\(h = (\S+)\)", str(err.value)).group(1))
        assert 0.2 * floor <= h < floor

    def test_last_step_lands_on_the_span_end(self):
        # a last step from below half the span can miss t1 by rounding in t + (t1 - t)
        for t1 in np.random.default_rng(5).uniform(1.0, 1.0e4, 200):
            sol = integrate(OdeProblem(rhs=lambda t, y: np.zeros_like(y), span=(0.0, t1),
                                       y0=np.array([1.0]), first_step=0.05 * t1))
            assert sol.ts[-1] == t1
