import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyvisc.dataio import get_preset, make_synthetic_dataset, presets
from polyvisc.fitting import (
    PENALTY,
    ExperimentalDataset,
    FitConfig,
    creep_error,
    fit_dataset,
    nelder_mead,
)
from polyvisc.material import ConfigError, MaterialParams
from polyvisc.tensors import DomainError
from polyvisc.uniaxial import CreepCurve, CreepSegment, simulate_creep

HFPE285 = MaterialParams(mu_p_bar=4.79e8, mu_g_bar=1.43e9, eta=3.95e13)
PMR15 = MaterialParams(mu_p_bar=3.76e8, mu_g_bar=4.42e8, eta=6.22e12)


def synthetic(mp, noise=0.0, seed=0, n_load=50, n_unload=20, stress=None):
    tau = mp.retardation_time()
    stress = stress if stress is not None else 0.45 * 43.0e6
    return make_synthetic_dataset(
        mp, stress=stress, t_load=5 * tau, t_unload=5 * tau,
        n_load=n_load, n_unload=n_unload, noise=noise, seed=seed,
    )


class TestCreepError:
    def test_self_consistency_is_zero(self):
        # generator and objective share the closed-form solution, so the true
        # parameters reproduce the data exactly
        ds = synthetic(HFPE285)
        assert creep_error(HFPE285, ds, w=0.5) <= 1e-10

    def test_weight_one_ignores_unload(self):
        ds = synthetic(HFPE285)
        corrupted = ExperimentalDataset(
            t_load=ds.t_load,
            eps_load=ds.eps_load,
            t_unload=ds.t_unload,
            eps_unload=ds.eps_unload + 0.5,
            stress=ds.stress,
        )
        assert creep_error(HFPE285, corrupted, w=1.0) == creep_error(HFPE285, ds, w=1.0)

    def test_formula_against_direct_evaluation(self):
        # five-point hand evaluation of the weighted relative misfit
        ds = ExperimentalDataset(
            t_load=np.array([0.0, 1.0e3, 5.0e3]),
            eps_load=np.array([0.010, 0.012, 0.016]),
            t_unload=np.array([5.0e3, 1.0e4]),
            eps_unload=np.array([0.004, 0.001]),
            stress=1.0e7,
        )
        w = 0.75
        curve = simulate_creep(
            [CreepSegment(1.0e7, 5.0e3), CreepSegment(0.0, 5.0e3)], PMR15
        )
        sim_load = curve.strain_in_segment(0, ds.t_load)
        sim_unload = curve.strain_in_segment(1, ds.t_unload)
        expected = w * math.sqrt(
            np.sum((sim_load - ds.eps_load) ** 2) / np.sum(ds.eps_load**2)
        ) + (1 - w) * math.sqrt(
            np.sum((sim_unload - ds.eps_unload) ** 2) / np.sum(ds.eps_unload**2)
        )
        assert creep_error(PMR15, ds, w=w) == pytest.approx(expected, rel=1e-12)

    def test_scaling_is_relative_not_absolute(self):
        # doubling the data does not halve the error: both terms normalize
        ds = synthetic(HFPE285, noise=0.01, seed=3)
        doubled = ExperimentalDataset(
            t_load=ds.t_load, eps_load=2.0 * ds.eps_load,
            t_unload=ds.t_unload, eps_unload=2.0 * ds.eps_unload,
            stress=ds.stress,
        )
        e1 = creep_error(HFPE285, ds, w=0.5)
        e2 = creep_error(HFPE285, doubled, w=0.5)
        assert e2 != pytest.approx(e1 / 2.0, rel=0.2)

    def test_reordering_within_phase_is_invariant(self):
        ds = synthetic(HFPE285, noise=0.01, seed=5, n_load=10, n_unload=5)
        err = creep_error(HFPE285, ds, w=0.5)
        # the sums are order-free; evaluating on a reversed copy via the
        # formula (times must stay sorted in the dataset type itself)
        sim = simulate_creep(
            [CreepSegment(ds.stress, ds.t_unload_start()),
             CreepSegment(0.0, ds.t_unload[-1] - ds.t_unload_start())],
            HFPE285,
        )
        perm = np.random.default_rng(0).permutation(ds.t_load.size)
        sim_load = sim.strain_in_segment(0, ds.t_load[perm])
        term = math.sqrt(
            np.sum((sim_load - ds.eps_load[perm]) ** 2) / np.sum(ds.eps_load**2)
        )
        sim_unload = sim.strain_in_segment(1, ds.t_unload)
        term_u = math.sqrt(
            np.sum((sim_unload - ds.eps_unload) ** 2) / np.sum(ds.eps_unload**2)
        )
        assert 0.5 * term + 0.5 * term_u == pytest.approx(err, rel=1e-9)

    def test_load_only_dataset_forces_weight_one(self):
        tau = HFPE285.retardation_time()
        ds = make_synthetic_dataset(HFPE285, stress=1.0e7, t_load=3 * tau, t_unload=0.0)
        assert not ds.has_unload
        assert creep_error(HFPE285, ds, w=0.25) == creep_error(HFPE285, ds, w=1.0)

    def test_simulation_failure_raises_domain_error(self):
        ds = synthetic(HFPE285, n_load=5, n_unload=3)
        # eta this small overflows the creep rate: no finite solution exists
        bad = MaterialParams(mu_p_bar=4.79e8, mu_g_bar=1.43e9, eta=1e-320)
        with pytest.raises(DomainError):
            creep_error(bad, ds, w=0.5)

    @pytest.mark.parametrize("eps_load, w, phase", [
        ([0.0, 0.0], 0.5, "load"),
        ([1e-320, 1e-320], 0.5, "load"),  # the squares underflow to 0
        ([-2e-151, 1e-200], 1.0, "load"),
    ])
    def test_phase_without_relative_misfit_is_a_config_error(self, monkeypatch, eps_load, w,
                                                             phase):
        # the data are checked before anything is simulated
        import polyvisc.fitting as fitting

        monkeypatch.setattr(fitting, "simulate_creep", None)
        ds = ExperimentalDataset(
            t_load=np.array([0.0, 100.0]), eps_load=np.array(eps_load),
            t_unload=np.array([200.0]), eps_unload=np.array([0.004]), stress=1.0e7,
        )
        with pytest.raises(ConfigError, match=f"the {phase} phase has weight {w:g} but its "
                                              "measured strains are all zero or below 1e-150"):
            creep_error(PMR15, ds, w=w)

    def test_zero_unload_phase_is_a_config_error_unless_unweighted(self):
        ds = ExperimentalDataset(
            t_load=np.array([0.0, 100.0]), eps_load=np.array([0.0088, 0.0100]),
            t_unload=np.array([100.0, 200.0]), eps_unload=np.zeros(2), stress=1.0e7,
        )
        with pytest.raises(ConfigError, match="the unload phase has weight 0.5"):
            creep_error(PMR15, ds, w=0.5)
        assert math.isfinite(creep_error(PMR15, ds, w=1.0))

    def test_smallest_scored_strain_is_scored(self):
        # 1e-150 squares to 1e-300, a normal double: the misfit is finite
        ds = ExperimentalDataset(
            t_load=np.array([0.0, 100.0]), eps_load=np.array([1e-150, 0.0]),
            t_unload=np.array([200.0]), eps_unload=np.array([0.004]), stress=1.0e7,
        )
        assert math.isfinite(creep_error(PMR15, ds, w=0.5))

    def test_zero_weight_phase_is_not_solved(self, monkeypatch):
        # with w = 0 only the unload stamps are solved, and the misfit is the
        # unload term alone
        ds = synthetic(HFPE285, noise=0.01, seed=2, n_load=6, n_unload=4)
        asked = []
        real = CreepCurve.strains_in_segments
        monkeypatch.setattr(CreepCurve, "strains_in_segments",
                            lambda self, times: asked.append(times) or real(self, times))
        err = creep_error(HFPE285, ds, w=0.0)
        assert [t.size for t in asked[0]] == [0, ds.t_unload.size]
        curve = simulate_creep([CreepSegment(ds.stress, ds.t_unload_start()),
                                CreepSegment(0.0, ds.t_unload[-1] - ds.t_unload_start())],
                               HFPE285)
        sim = curve.strain_in_segment(1, ds.t_unload)
        expected = math.sqrt(np.sum((sim - ds.eps_unload) ** 2) / np.sum(ds.eps_unload**2))
        assert err == pytest.approx(expected, rel=1e-12)

    def test_other_errors_are_not_penalised(self, monkeypatch):
        # only a parameter set the model cannot solve is penalised, and only
        # inside the fit; any other error is a bug and must not steer the
        # simplex silently
        import polyvisc.fitting as fitting

        def broken(segments, mp):
            raise ValueError("bug")

        monkeypatch.setattr(fitting, "simulate_creep", broken)
        with pytest.raises(ValueError, match="bug"):
            creep_error(HFPE285, synthetic(HFPE285, n_load=5, n_unload=3), w=0.5)

    def test_huge_strain_does_not_overflow(self):
        # a squared 1e308 overflowed to inf, and inf/inf made the objective nan
        ds = ExperimentalDataset(
            t_load=np.array([0.0, 100.0]), eps_load=np.array([0.0088, 1e308]),
            t_unload=np.array([200.0]), eps_unload=np.array([0.004]), stress=1.0e7,
        )
        err = creep_error(PMR15, ds, w=0.5)
        assert math.isfinite(err) and err >= 0.5  # the load term is 1 to rounding

    @pytest.mark.parametrize("w", [math.nan, 2.0, -1.0, math.inf])
    def test_weight_outside_the_unit_interval_is_rejected(self, monkeypatch, w):
        # nan scored 0.0, 2.0 twice the load term and -1.0 twice the unload term
        import polyvisc.fitting as fitting

        ds = synthetic(HFPE285, noise=0.01, seed=4, n_load=10, n_unload=5)
        monkeypatch.setattr(fitting, "simulate_creep", None)
        with pytest.raises(ValueError, match=r"weight w must lie in \[0, 1\], got"):
            creep_error(HFPE285, ds, w=w)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        ds = synthetic(HFPE285, noise=0.02, seed=11)
        for _ in range(5):
            mp = MaterialParams(
                mu_p_bar=10 ** rng.uniform(8, 9.5),
                mu_g_bar=10 ** rng.uniform(8, 9.5),
                eta=10 ** rng.uniform(12.5, 14),
            )
            assert creep_error(mp, ds, w=0.5) >= 0.0


# Datasets of the misfit property: synthetic 1 %-noise creep/recovery data of
# each preset at its fit load over 5 tau + 5 tau, a log-branch load with an
# atan-branch unload (both branches in one batch) and a Maxwell-limit
# material. Each entry is (the material the data came from, the dataset).
def _misfit_dataset(name):
    if name == "mixed":
        mp = MaterialParams(4.79e8, 4.79e6, 3.95e13)
        stress, t_load, t_unload = 0.3 * mp.mu_p_bar, 2e4, 4e4
    elif name == "maxwell":
        mp = MaterialParams(3.76e8, 0.0, 6.22e12)
        stress, t_load, t_unload = 1.0e7, 1e4, 1e4
    else:
        row = get_preset(name)
        mp, stress = row.params(), row.fit_load_pa()
        t_load = t_unload = 5.0 * mp.retardation_time()
    return mp, make_synthetic_dataset(mp, stress=stress, t_load=t_load, t_unload=t_unload,
                                      n_load=30, n_unload=15, noise=0.01, seed=3)


_MISFIT_DATASETS = {name: _misfit_dataset(name)
                    for name in [*sorted(presets()), "mixed", "maxwell"]}


def _misfit_by_segment(mp, ds, w):
    """The misfit of ``creep_error`` from one solve per segment and phase."""
    t_u = ds.t_unload_start()
    curve = simulate_creep([CreepSegment(ds.stress, t_u),
                            CreepSegment(0.0, float(ds.t_unload[-1]) - t_u)], mp)
    misfit = 0.0
    for k, weight, t, eps in ((0, w, ds.t_load, ds.eps_load),
                              (1, 1.0 - w, ds.t_unload, ds.eps_unload)):
        if weight > 0.0:
            sim = curve.strain_in_segment(k, t)
            misfit += weight * math.sqrt(float(np.sum((sim - eps) ** 2))
                                         / float(np.sum(eps * eps)))
    return misfit


class TestCreepErrorIsTheMisfit:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        dataset=st.sampled_from(sorted(presets())),
        decades=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
        w=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @example(dataset="mixed", decades=(0.0, 0.0, 0.0), w=0.5)
    @example(dataset="mixed", decades=(0.3, -0.5, 0.2), w=0.5)
    @example(dataset="maxwell", decades=(0.0, 0.0, 0.0), w=0.5)
    @example(dataset="maxwell", decades=(-0.4, 0.0, 1.0), w=0.5)
    def test_equals_the_per_segment_misfit(self, dataset, decades, w):
        # the batched objective is bit for bit the misfit of per-segment
        # solves, for trial parameters within 2 decades of the data's
        truth, ds = _MISFIT_DATASETS[dataset]
        base = (truth.mu_p_bar, truth.mu_g_bar, truth.eta)
        mp = MaterialParams(*(v * 10.0**d for v, d in zip(base, decades)))
        try:
            expected = _misfit_by_segment(mp, ds, w)
        except DomainError:
            with pytest.raises(DomainError):
                creep_error(mp, ds, w)
            return
        assert creep_error(mp, ds, w) == expected

    def test_mixed_dataset_takes_both_branches(self):
        truth, ds = _MISFIT_DATASETS["mixed"]
        curve = simulate_creep([CreepSegment(ds.stress, ds.t_unload_start()),
                                CreepSegment(0.0, float(ds.t_unload[-1]) - ds.t_unload_start())],
                               truth)
        load, unload = curve.segments
        assert load.disc > 0.0 > unload.disc


class TestDatasetValidation:
    def test_requires_two_load_points(self):
        with pytest.raises(ValueError):
            ExperimentalDataset(
                t_load=np.array([0.0]), eps_load=np.array([0.01]),
                t_unload=np.array([]), eps_unload=np.array([]), stress=1e7,
            )

    def test_rejects_nonmonotone_times(self):
        with pytest.raises(ValueError):
            ExperimentalDataset(
                t_load=np.array([0.0, 2.0, 1.0]), eps_load=np.zeros(3),
                t_unload=np.array([]), eps_unload=np.array([]), stress=1e7,
            )

    def test_rejects_unload_before_load(self):
        with pytest.raises(ValueError):
            ExperimentalDataset(
                t_load=np.array([0.0, 10.0]), eps_load=np.zeros(2),
                t_unload=np.array([5.0, 20.0]), eps_unload=np.zeros(2), stress=1e7,
            )

    @pytest.mark.parametrize("t_load, eps_load, message", [
        ([-100.0, 100.0], [0.0088, 0.0100], "precede the load start"),
        ([0.0, 100.0], [0.0088, float("nan")], "eps_load must be finite"),
        ([0.0, float("inf")], [0.0088, 0.0100], "t_load must be finite"),
    ])
    def test_rejects_times_before_load_and_non_finite_data(self, t_load, eps_load, message):
        # each of these made the fit return its initial guess: as "converged"
        # with error PENALTY, or after max_iter iterations with error nan
        with pytest.raises(ValueError, match=message):
            ExperimentalDataset(
                t_load=np.array(t_load), eps_load=np.array(eps_load),
                t_unload=np.array([200.0]), eps_unload=np.array([0.004]), stress=1e7,
            )

    @pytest.mark.parametrize("t_load, eps_load, t_unload, eps_unload", [
        ([0.0, 5.0, 10.0], [0.01], [15.0], [0.004]),
        ([0.0, 10.0], [0.01, 0.02], [15.0, 20.0], [0.004]),
        ([0.0, 5.0, 10.0], [0.01, 0.02], [15.0], [0.004]),
        ([[0.0, 5.0], [10.0, 15.0]], [0.01, 0.02], [20.0], [0.004]),
    ], ids=["3-load-times-1-strain", "2-unload-times-1-strain", "3-times-2-strains", "2-D-t_load"])
    def test_strains_must_match_their_times(self, t_load, eps_load, t_unload, eps_unload):
        # the first two were broadcast into a misfit (1.136 and 0.762 on
        # hfpe285), the last two failed inside creep_error
        with pytest.raises(ValueError, match="must be 1-D arrays of one length"):
            ExperimentalDataset(
                t_load=np.array(t_load), eps_load=np.array(eps_load),
                t_unload=np.array(t_unload), eps_unload=np.array(eps_unload), stress=1e7,
            )

    @pytest.mark.parametrize("unload_start, t_unload, eps_unload", [
        (math.inf, [], []),
        (math.nan, [15.0, 20.0], [0.005, 0.001]),
    ], ids=["inf", "nan"])
    def test_unload_start_must_be_finite(self, unload_start, t_unload, eps_unload):
        # inf was accepted and failed only in creep_error; nan was said to
        # precede the last load stamp
        with pytest.raises(ValueError, match="unload start must be finite"):
            ExperimentalDataset(
                t_load=np.array([0.0, 10.0]), eps_load=np.array([0.01, 0.02]),
                t_unload=np.array(t_unload), eps_unload=np.array(eps_unload),
                stress=1e7, unload_start=unload_start,
            )

    def test_unload_start_default_and_override(self):
        ds = ExperimentalDataset(
            t_load=np.array([0.0, 10.0]), eps_load=np.array([0.01, 0.02]),
            t_unload=np.array([12.0, 20.0]), eps_unload=np.array([0.005, 0.001]),
            stress=1e7,
        )
        assert ds.t_unload_start() == 10.0
        ds2 = ExperimentalDataset(
            t_load=np.array([0.0, 10.0]), eps_load=np.array([0.01, 0.02]),
            t_unload=np.array([12.0, 20.0]), eps_unload=np.array([0.005, 0.001]),
            stress=1e7, unload_start=11.0,
        )
        assert ds2.t_unload_start() == 11.0


class TestDatasetIsImmutable:
    def arrays(self):
        return dict(t_load=np.array([0.0, 10.0]), eps_load=np.array([0.01, 0.02]),
                    t_unload=np.array([12.0, 20.0]), eps_unload=np.array([0.005, 0.001]))

    def test_fields_cannot_be_reassigned(self):
        ds = ExperimentalDataset(**self.arrays(), stress=1e7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.eps_load = np.array([0.02, 0.03])
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.stress = 2e7

    def test_arrays_are_read_only_float_copies(self):
        given = self.arrays()
        given["t_load"] = [0, 10]  # a list of ints is stored as floats too
        ds = ExperimentalDataset(**given, stress=1e7)
        for name, values in given.items():
            stored = getattr(ds, name)
            assert stored.dtype == np.float64 and not stored.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 1.0
            if isinstance(values, np.ndarray):
                # the caller's array stays writeable and is not aliased
                assert values.flags.writeable
                assert not np.shares_memory(values, stored)
                values[0] = 99.0
                assert stored[0] != 99.0

    def test_misfit_terms_are_formed_once(self):
        ds = synthetic(HFPE285, noise=0.01, seed=6, n_load=10, n_unload=5)
        first = creep_error(HFPE285, ds, w=0.5)
        terms = ds._misfit_terms
        assert creep_error(HFPE285, ds, w=0.5) == first
        assert ds._misfit_terms is terms
        assert [s.duration for s in terms.segments] == [
            ds.t_unload_start(), ds.t_unload[-1] - ds.t_unload_start()]


class TestNelderMead:
    def test_convex_quadratic(self):
        res = nelder_mead(lambda x: (x[0] - 1) ** 2 + (x[1] - 2) ** 2, [0.0, 0.0], step=0.1)
        assert res.converged
        assert np.max(np.abs(res.x - [1.0, 2.0])) <= 1e-6

    def test_rosenbrock(self):
        rosen = lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        res = nelder_mead(rosen, [-1.2, 1.0], step=0.1, max_iter=400)
        assert np.max(np.abs(res.x - 1.0)) <= 1e-5
        assert res.iterations <= 400

    def test_degenerate_coordinate_bounded_drift(self):
        # a flat coordinate picks up bounded simplex translation, never a
        # runaway: the active coordinate still converges
        res = nelder_mead(lambda x: (x[0] - 1.0) ** 2, [0.0, 0.3], step=0.1, max_iter=500)
        assert res.x[0] == pytest.approx(1.0, abs=1e-6)
        assert abs(res.x[1] - 0.3) <= 25 * 0.1

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(13)
        f = lambda x: float(np.sum(x**4) - 3.0 * np.sum(np.cos(x)))
        for _ in range(25):
            x0 = rng.uniform(-2.0, 2.0, size=3)
            res = nelder_mead(f, x0, step=0.2, max_iter=40)
            assert res.fun <= f(x0) + 1e-15

    def test_resolves_small_nonzero_minimum(self):
        # the spread stop is relative to the best value: a cone whose minimum
        # is c = 5e-11 must be resolved to 1e-4 c, not to an absolute spread
        c = 5e-11
        x_star = np.array([0.3, -0.2, 0.1])
        f = lambda x: math.sqrt(c * c + float(np.sum((x - x_star) ** 2)))
        res = nelder_mead(f, np.zeros(3), step=0.25)
        assert res.converged
        assert res.fun - c <= 1e-4 * c

    def test_mckinnon_collapse_is_polled_away(self):
        # McKinnon's function (tau = 2, theta = 6, phi = 60) from his start
        # simplex {(0, 0), (1, 1), ((1 + sqrt 33)/8, (1 - sqrt 33)/8)}, here
        # the image of the axis simplex at [0, 0] with step 1 under A:
        # repeated inside contractions collapse it onto the origin, f = 0,
        # which is not stationary; the minimum is -1/4 at (0, -1/2)
        r33 = math.sqrt(33.0)
        a = np.array([[1.0, (1.0 + r33) / 8.0], [1.0, (1.0 - r33) / 8.0]])

        def mckinnon(u):
            x, y = a @ u
            return (360.0 if x <= 0.0 else 6.0) * x * x + y + y * y

        res = nelder_mead(mckinnon, [0.0, 0.0], step=1.0)
        assert res.converged
        assert res.fun <= -0.25 + 1e-8
        assert np.max(np.abs(a @ res.x - [0.0, -0.5])) <= 1e-6

    def test_iteration_cap_reports_nonconvergence(self):
        rosen = lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        res = nelder_mead(rosen, [-1.2, 1.0], step=0.1, max_iter=5)
        assert not res.converged
        assert res.iterations == 5


class TestFitDataset:
    def test_zero_noise_recovery(self):
        ds = synthetic(HFPE285, noise=0.0)
        cfg = FitConfig(weight=0.5, initial=(2.0e8, 2.0e9, 1.0e13))
        res = fit_dataset(ds, cfg)
        assert res.converged
        assert res.params.mu_p_bar == pytest.approx(HFPE285.mu_p_bar, rel=1e-3)
        assert res.params.mu_g_bar == pytest.approx(HFPE285.mu_g_bar, rel=1e-3)
        assert res.params.eta == pytest.approx(HFPE285.eta, rel=1e-3)

    def test_noisy_recovery_within_5_percent(self):
        ds = synthetic(HFPE285, noise=0.005, seed=0)
        cfg = FitConfig(weight=0.5, initial=(2.0e8, 2.0e9, 1.0e13))
        res = fit_dataset(ds, cfg)
        assert res.params.mu_p_bar == pytest.approx(HFPE285.mu_p_bar, rel=0.05)
        assert res.params.mu_g_bar == pytest.approx(HFPE285.mu_g_bar, rel=0.05)
        assert res.params.eta == pytest.approx(HFPE285.eta, rel=0.05)

    def test_truth_as_initial_guess_converges_immediately(self):
        # the objective is a norm, so it grows linearly away from this zero:
        # the simplex sat one ulp wide on the truth until max_iter; a shrink
        # that moves no vertex now ends it
        ds = synthetic(HFPE285, noise=0.0, n_load=20, n_unload=10)
        cfg = FitConfig(weight=0.5, initial=(4.79e8, 1.43e9, 3.95e13))
        res = fit_dataset(ds, cfg)
        assert res.error <= 1e-8
        assert res.converged
        assert res.iterations <= 300

    def test_round_trip_curve_match(self):
        ds = synthetic(HFPE285, noise=0.0, n_load=30, n_unload=10)
        cfg = FitConfig(weight=0.5, initial=(3.0e8, 1.0e9, 2.0e13))
        res = fit_dataset(ds, cfg)
        tau = HFPE285.retardation_time()
        segs = [CreepSegment(ds.stress, 5 * tau), CreepSegment(0.0, 5 * tau)]
        truth = simulate_creep(segs, HFPE285)
        fitted = simulate_creep(segs, res.params)
        ts = np.linspace(0.0, 5 * tau, 100)
        for k in (0, 1):
            d = np.abs(truth.strain_in_segment(k, ts + (0 if k == 0 else 5 * tau))
                       - fitted.strain_in_segment(k, ts + (0 if k == 0 else 5 * tau)))
            assert np.max(d) <= 1e-4

    def test_requires_initial_guess(self):
        with pytest.raises(TypeError):
            FitConfig(weight=0.5)

    def test_result_dict_shape(self):
        ds = synthetic(HFPE285, n_load=10, n_unload=5)
        cfg = FitConfig(weight=0.75, initial=(4.79e8, 1.43e9, 3.95e13))
        res = fit_dataset(ds, cfg)
        d = res.to_dict()
        assert set(d) == {"mu_p_bar", "mu_g_bar", "eta", "error", "iterations",
                          "converged", "w", "n_fev"}
        assert d["w"] == 0.75

    def test_n_fev_counts_the_objective_evaluations(self, monkeypatch):
        import polyvisc.fitting as fitting

        calls = []
        monkeypatch.setattr(fitting, "creep_error",
                            lambda *args: calls.append(args) or creep_error(*args))
        ds = synthetic(HFPE285, n_load=10, n_unload=5)
        res = fit_dataset(ds, FitConfig(initial=(4e8, 1.2e9, 3e13), max_iter=30))
        assert res.n_fev == len(calls) > res.iterations

    def test_data_error_leaves_the_first_evaluation(self, monkeypatch):
        # a phase with no relative misfit is a property of the data, not of a
        # trial parameter set: the fit stops at f(x0), before any search
        import polyvisc.fitting as fitting

        calls = []
        monkeypatch.setattr(fitting, "creep_error",
                            lambda *args: calls.append(args) or creep_error(*args))
        ds = ExperimentalDataset(
            t_load=np.array([0.0, 100.0]), eps_load=np.array([1e-320, 1e-320]),
            t_unload=np.array([200.0]), eps_unload=np.array([0.004]), stress=1.0e7,
        )
        with pytest.raises(ConfigError, match="the load phase has weight 0.5"):
            fit_dataset(ds, FitConfig(initial=(3.76e8, 4.42e8, 6.22e12)))
        assert len(calls) == 1

    def test_an_overflowing_trial_is_penalised_without_a_warning(self, monkeypatch):
        # the reflected vertex of a guess at 1.7e308 has exp(log mu_p) = inf: numpy's
        # "overflow encountered in exp" once escaped the ConfigError -> PENALTY branch
        import polyvisc.fitting as fitting

        rejected = []

        def recording(**kw):
            try:
                return MaterialParams(**kw)
            except ConfigError:
                rejected.append(kw)
                raise

        monkeypatch.setattr(fitting, "MaterialParams", recording)
        ds = synthetic(HFPE285, n_load=10, n_unload=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_dataset(ds, FitConfig(initial=(1.7e308, 1.43e9, 3.95e13), max_iter=3))
        assert rejected and all(kw["mu_p_bar"] == math.inf for kw in rejected)
        assert res.error < PENALTY and res.iterations == 3

    def test_every_trial_penalised_is_a_domain_error(self):
        # at -1e308 Pa the stretch B underflows for every parameter set, so
        # every trial is a penalty and the simplex has nothing to report
        ds = ExperimentalDataset(
            t_load=np.array([0.0, 100.0]), eps_load=np.array([-0.01, -0.02]),
            t_unload=np.array([200.0]), eps_unload=np.array([-0.004]), stress=-1e308,
        )
        with pytest.raises(DomainError, match="every trial parameter set was penalised"):
            fit_dataset(ds, FitConfig(initial=(3.76e8, 4.42e8, 6.22e12), max_iter=50))


class TestFitConfig:
    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            FitConfig(initial=(4.79e8, 1.43e9, 3.95e13), weight=1.5)
        with pytest.raises(ValueError):
            FitConfig(initial=(4.79e8, 1.43e9, 3.95e13), weight=-0.1)

    def test_positive_guess(self):
        with pytest.raises(ValueError):
            FitConfig(initial=(1.0, -1.0, 1.0))

    @pytest.mark.parametrize("initial", [
        (math.nan, 1e9, 1e13),  # ran 154 evaluations, then "every trial ... penalised"
        (math.inf, 1e9, 1e13),  # a numpy RuntimeWarning escaped from the search
        (4.79e8, 1.43e9, -math.inf),
    ])
    def test_non_finite_guess(self, initial):
        with pytest.raises(ValueError, match="initial guess must be positive and finite"):
            FitConfig(initial=initial)

    @pytest.mark.parametrize("max_iter", [
        0, -3, math.nan,  # each returned after 0 iterations and 4 evaluations, not converged
        2.5,  # ran 3 iterations
        True,  # ran 1 iteration
        False, "10", None,
    ])
    def test_iteration_cap_is_a_positive_int(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            FitConfig(initial=(4.79e8, 1.43e9, 3.95e13), max_iter=max_iter)

    def test_iteration_cap_of_one(self):
        ds = synthetic(HFPE285, n_load=10, n_unload=5)
        res = fit_dataset(ds, FitConfig(initial=(4.0e8, 1.2e9, 3.0e13), max_iter=1))
        assert res.iterations == 1 and not res.converged

    @pytest.mark.parametrize("initial", [(4.79e8, 1.43e9), (4.79e8, 1.43e9, 3.95e13, 1.0)])
    def test_guess_is_a_triple(self, initial):
        # a bare unpacking ValueError left the objective instead
        with pytest.raises(ValueError, match=f"must be 3 values .* got {len(initial)}"):
            FitConfig(initial=initial)
