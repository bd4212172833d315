import math

import numpy as np
import pytest

from polyvisc.odesolve import IntegrationError, OdeProblem, OdeSolution, integrate


def solve(rhs, span, y0, rtol=1e-8, atol=1e-10, **kw):
    return integrate(OdeProblem(rhs=rhs, span=span, y0=np.atleast_1d(y0), rtol=rtol, atol=atol), **kw)


class TestClosedForms:
    def test_constant_solution_is_exact(self):
        # spans past 1e6 once underflowed at t = 0 (a stationary start gets a
        # fallback initial step, which must scale with the span)
        for t1 in (10.0, 2.0e6, 1.0e12):
            sol = solve(lambda t, y: np.zeros_like(y), (0.0, t1), [3.5])
            assert np.all(sol.ys == 3.5)
            assert sol.ts[-1] == t1

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
        with pytest.raises(IntegrationError) as err:
            solve(lambda t, y: y * y, (0.0, 2.0), [1.0])
        assert err.value.t < 1.01
        assert err.value.partial is not None
        assert isinstance(err.value.partial, OdeSolution)
        assert err.value.partial.ts[-1] <= err.value.t

    def test_invalid_problem(self):
        with pytest.raises(ValueError):
            OdeProblem(rhs=lambda t, y: y, span=(1.0, 1.0), y0=np.array([1.0]))
        with pytest.raises(ValueError):
            OdeProblem(rhs=lambda t, y: y, span=(0.0, 1.0), y0=np.array([1.0]), rtol=-1.0)
        for bad in ({"first_step": 0.0}, {"min_step": -1e-9}, {"first_step": math.nan}):
            with pytest.raises(ValueError, match="must be positive"):
                OdeProblem(rhs=lambda t, y: y, span=(0.0, 1.0), y0=np.array([1.0]), **bad)


class TestStepHook:
    def test_hook_sees_every_accepted_step(self):
        seen = []
        sol = solve(lambda t, y: -y, (0.0, 1.0), [1.0], step_hook=lambda t, y: seen.append(t))
        assert len(seen) == sol.n_accepted
        assert seen[-1] == pytest.approx(1.0)

    def test_hook_abort_attaches_partial(self):
        def hook(t, y):
            if t > 0.5:
                raise IntegrationError("monitor tripped", t, y)
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

    def test_min_step_is_the_underflow_floor(self):
        problem = dict(rhs=lambda t, y: -y, span=(0.0, 1.0), y0=np.array([1.0]), first_step=1e-3)
        with pytest.raises(IntegrationError, match="step size underflow"):
            integrate(OdeProblem(**problem, min_step=2e-3))
        assert integrate(OdeProblem(**problem, min_step=1e-3)).ts[-1] == 1.0

    def test_last_step_lands_on_the_span_end(self):
        # a last step from below half the span can miss t1 by rounding in t + (t1 - t)
        for t1 in np.random.default_rng(5).uniform(1.0, 1.0e4, 200):
            sol = integrate(OdeProblem(rhs=lambda t, y: np.zeros_like(y), span=(0.0, t1),
                                       y0=np.array([1.0]), first_step=0.05 * t1))
            assert sol.ts[-1] == t1
