"""The three workloads: inputs made from the seed, the op, and its check.

``prepare(i)`` builds op ``i``'s inputs (untimed) and returns ``(run,
check)``: ``run()`` is the timed call into polyvisc and ``check(result)``
returns None when the output is right, else a one-line reason. Every op's
inputs come from ``numpy.random.default_rng((seed, 0, i))`` or from per-run
tables drawn from ``default_rng(seed)``, so the same seed gives the same
ops in the same order.

A tensor trajectory fails its check when |det B_p - 1| exceeds DET_LIMIT,
the drift at which polyvisc's own integrator aborts a drive, so no returned
trajectory may carry more. The stricter acceptance-criterion-5 bound
CRITERION5_TOL is not met everywhere in the tensor workload's input ranges:
a uniaxial drive whose accepted step straddles the end of the ramp, where
the stretch rate jumps to zero, returns a drift of up to ~7e-7 (about 1 in
1000 uniaxial drives). Each such trajectory is recorded in ``notes`` and
reported by run.py, not counted as a failed op.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import oracle

LN4 = math.log(4.0)
LN2 = math.log(2.0)
FIT_NOISE = 0.005
CREEP_STAMPS = 200
CREEP_TOL = 1e-5  # |d eps| <= CREEP_TOL * max|eps|
DET_LIMIT = 1e-6  # |det B_p - 1|: polyvisc.evolution.DET_DRIFT_LIMIT
CRITERION5_TOL = 1e-8  # |det B_p - 1| of acceptance criterion 5, reported only
INVARIANT_TOL = 1e-8  # the identity residual
REPLAY_TOL = 1e-6  # B_p and T11 deviations of the tensor replay


def _midpoints(t0: float, t1: float, n: int) -> np.ndarray:
    # interior stamps, so no query sits on a segment end up to rounding
    return t0 + (t1 - t0) * (np.arange(n) + 0.5) / n


def _program_stamps(program, n: int):
    stamps, t0 = [], 0.0
    for _, duration in program:
        t1 = t0 + duration
        stamps.append(_midpoints(t0, t1, n))
        t0 = t1
    return stamps


def _rel_dev(fitted, truth) -> float:
    return max(abs(f / t - 1.0) for f, t in zip(fitted, truth))


class _Workload:
    name = ""
    why = ""
    trace_ops = 1  # ops in one traced pass (fixed, so counters repeat exactly)
    warmup_ops = 1

    def __init__(self, pv, seed: int, tmpdir: str):
        self.pv = pv
        self.seed = seed
        self.tmp = tmpdir
        self.rng = np.random.default_rng(seed)
        self.notes: list = []  # outputs that pass their check but miss a stricter bound
        presets = pv.dataio.presets()
        self.presets = [presets[name] for name in sorted(presets)]

    def op_rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, 0, i))

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)


class FitWorkload(_Workload):
    name = "fit"
    why = ("polyvisc fit CLI on oracle datasets: Nelder-Mead over simulate_creep, "
           "the scalar odesolve path; tensors and evolution idle")
    trace_ops = 5

    def __init__(self, pv, seed, tmpdir):
        super().__init__(pv, seed, tmpdir)
        self.datasets = []
        for row in self.presets:
            tau = row.eta / (2.0 * row.mu_g_bar)
            program = [(row.fit_load_pa(), 5.0 * tau), (0.0, 5.0 * tau)]
            t_load = np.linspace(0.0, 5.0 * tau, 50)
            t_unload = np.linspace(5.0 * tau, 10.0 * tau, 21)[1:]
            truth = (row.mu_p_bar, row.mu_g_bar, row.eta)
            (e_load, e_unload), _ = oracle.creep_strain(truth, program, [t_load, t_unload])
            self.datasets.append((row, truth, t_load, e_load, t_unload, e_unload))
        self._blocks: dict = {}

    def _init_factors(self, i: int) -> np.ndarray:
        """Log-uniform factors in [1/4, 4], Latin-hypercube stratified per block of 10."""
        block, k = divmod(i, 10)
        if block not in self._blocks:
            rng = np.random.default_rng((self.seed, 1, block))
            u = (np.stack([rng.permutation(10) for _ in range(3)], axis=1)
                 + rng.random((10, 3))) / 10.0
            self._blocks[block] = np.exp((2.0 * u - 1.0) * LN4)
        return self._blocks[block][k]

    def prepare(self, i):
        row, truth, t_load, e_load, t_unload, e_unload = self.datasets[i % len(self.datasets)]
        noise = FIT_NOISE if i % 2 else 0.0
        if noise:
            rng = self.op_rng(i)
            e_load = e_load * (1.0 + noise * rng.standard_normal(e_load.size))
            e_unload = e_unload * (1.0 + noise * rng.standard_normal(e_unload.size))
        data, out = self.path("fit_data.csv"), self.path("fit_result.json")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write(f"# stress_pa={row.fit_load_pa()!r}\nsegment,t_s,strain\n")
            fh.writelines(f"load,{float(t)!r},{float(e)!r}\n" for t, e in zip(t_load, e_load))
            fh.writelines(f"unload,{float(t)!r},{float(e)!r}\n"
                         for t, e in zip(t_unload, e_unload))
        if os.path.exists(out):
            os.remove(out)
        init = ",".join(repr(float(v)) for v in np.asarray(truth) * self._init_factors(i))
        argv = ["fit", "--data", data, "--init", init, "--out", out]
        cli = self.pv.cli

        def run():
            return cli.main(argv)

        def check(code):
            if code != 0:
                return f"exit code {code}"
            with open(out, encoding="utf-8") as fh:
                res = json.load(fh)
            fitting = self.pv.fitting
            ds = fitting.ExperimentalDataset(t_load, e_load, t_unload, e_unload, row.fit_load_pa())
            at_truth = fitting.creep_error(self.pv.MaterialParams(*truth), ds, 0.5)
            if not res["error"] <= at_truth:
                return f"objective {res['error']:.3e} above its value at the truth {at_truth:.3e}"
            dev = _rel_dev((res["mu_p_bar"], res["mu_g_bar"], res["eta"]), truth)
            limit = 0.05 if noise else 1e-3
            if not dev <= limit:
                return f"{row.name} noise={noise}: parameter deviation {dev:.2e} > {limit:g}"
            return None

        return run, check


class CreepWorkload(_Workload):
    name = "creep"
    why = ("forward simulate_creep on 2-8 segment programs, then dense reads and CSV/SVG "
           "export: solve cost against per-point query and export cost")
    trace_ops = 280
    warmup_ops = 28
    POOL = 28  # 4 programs of each length 2..8

    def __init__(self, pv, seed, tmpdir):
        super().__init__(pv, seed, tmpdir)
        lengths = self.rng.permutation(np.repeat(np.arange(2, 9), self.POOL // 7))
        self.pool = []
        for j, n_seg in enumerate(lengths):
            row = self.presets[j % len(self.presets)]
            tau = row.eta / (2.0 * row.mu_g_bar)
            program = []
            for k in range(int(n_seg)):
                stress = 0.0
                if k % 2 == 0:  # loads alternate with unloads
                    stress = (self.rng.choice((-1.0, 1.0)) * self.rng.uniform(0.01, 0.1)
                              * row.mu_p_bar)
                program.append((float(stress), float(self.rng.uniform(0.5, 5.0) * tau)))
            base = (row.mu_p_bar, row.mu_g_bar, row.eta)
            ref, _ = oracle.creep_strain(base, program, _program_stamps(program, CREEP_STAMPS))
            scale = max(float(np.max(np.abs(r))) for r in ref)
            self.pool.append((base, program, ref, scale))

    def prepare(self, i):
        # The model is invariant under moduli, stress and viscosity scaled by c
        # with viscosity and durations scaled by k: strain(k t) is unchanged.
        # Scaled copies give every op distinct inputs against one reference.
        (mu_p, mu_g, eta), program, ref, scale = self.pool[i % self.POOL]
        c, k = np.exp(self.op_rng(i).uniform(-LN2, LN2, 2))
        mp = self.pv.MaterialParams(c * mu_p, c * mu_g, c * k * eta)
        segments = [(c * s, k * d) for s, d in program]
        stamps = _program_stamps(segments, CREEP_STAMPS)
        csv_path, svg_path = self.path("curve.csv"), self.path("curve.svg")
        pv = self.pv

        def run():
            curve = pv.uniaxial.simulate_creep(segments, mp)
            strains = [curve.strain_in_segment(n, ts) for n, ts in enumerate(stamps)]
            pv.dataio.save_curve(curve, csv_path)
            pv.dataio.save_svg([curve], svg_path)
            return strains

        def check(strains):
            dev = max(float(np.max(np.abs(e - r))) for e, r in zip(strains, ref))
            if not dev <= CREEP_TOL * scale:
                return f"strain deviation {dev:.2e} > {CREEP_TOL:g} * {scale:.3e}"
            if not (os.path.getsize(csv_path) > 0 and os.path.getsize(svg_path) > 0):
                return "empty export"
            return None

        return run, check


class TensorWorkload(_Workload):
    name = "tensor"
    why = ("3-D B_p integrator: drive uniaxial, drive shear, relax and scalar replay "
           "through evolution, tensors, kinematics and material; fitting idle")
    trace_ops = 80  # 4 rounds of (4 kinds x 5 presets)
    warmup_ops = 4
    KINDS = ("uniaxial", "shear", "relax", "replay")

    def prepare(self, i):
        kind = self.KINDS[i % 4]
        row = self.presets[(i // 4) % len(self.presets)]
        rng = self.op_rng(i)
        tau = row.eta / (2.0 * row.mu_g_bar)
        if kind == "replay":
            return self._replay(i, row, tau, rng)
        out = self.path("traj.csv")
        if os.path.exists(out):
            os.remove(out)
        if kind == "relax":
            argv = ["relax", "--preset", row.name,
                    "--lambda-hold", repr(rng.uniform(1.002, 1.05)),
                    "--hold-time", repr(5.0 * tau), "--out", out]
        else:
            amp = rng.uniform(1.002, 1.05) if kind == "uniaxial" else rng.uniform(0.01, 0.1)
            argv = ["drive", "--preset", row.name, "--protocol", kind,
                    "--amplitude", repr(amp), "--ramp-time", repr(rng.uniform(0.2, 2.5) * tau),
                    "--duration", repr(5.0 * tau), "--out", out]
        cli = self.pv.cli

        def run():
            return cli.main(argv)

        def check(code):
            if code != 0:
                return f"{kind}: exit code {code}"
            traj = np.loadtxt(out, delimiter=",", skiprows=2, ndmin=2)
            if traj.shape[0] < 2 or traj.shape[1] != 6:
                return f"{kind}: malformed trajectory {traj.shape}"
            return self._invariant_failure(i, kind, traj[:, 3], traj[:, 4], traj[:, 5])

        return run, check

    def _replay(self, i, row, tau, rng):
        stress = rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.05) * row.mu_p_bar
        program = [(float(stress), 2.0 * tau), (0.0, 2.0 * tau)]
        mp = row.params()
        bs = [oracle.traction_free_b(s, row.mu_p_bar) for s, _ in program]
        pv = self.pv

        def run():
            curve = pv.uniaxial.simulate_creep(program, mp)
            return pv.evolution.replay_uniaxial(curve, mp)

        def check(trajs):
            if len(trajs) != len(program):
                return f"replay: {len(trajs)} trajectories for {len(program)} segments"
            for traj, b, (t11, _) in zip(trajs, bs, program):
                failure = self._invariant_failure(i, "replay", traj.det_bp, traj.xi_m,
                                                  traj.identity_residual)
                if failure:
                    return failure
                ref = np.diag([b, b**-0.5, b**-0.5])
                bp_dev = max(np.linalg.norm(bp.as_matrix() - ref) / np.linalg.norm(ref)
                             for bp in traj.b_p)
                t11_dev = float(np.max(np.abs(traj.t_axial - t11))) / abs(stress)
                if not (bp_dev <= REPLAY_TOL and t11_dev <= REPLAY_TOL):
                    return f"replay: B_p dev {bp_dev:.2e}, T11 dev {t11_dev:.2e} > {REPLAY_TOL:g}"
            return None

        return run, check

    def _invariant_failure(self, i, kind, det_bp, xi_m, residual):
        det_err = float(np.max(np.abs(np.asarray(det_bp) - 1.0)))
        xi_min = float(np.min(xi_m))
        res_max = float(np.max(residual))
        if det_err <= DET_LIMIT and xi_min >= 0.0 and res_max <= INVARIANT_TOL:
            if det_err > CRITERION5_TOL:
                self.notes.append(f"op {i}: {kind}: |det B_p - 1| = {det_err:.2e} "
                                  f"> criterion-5 bound {CRITERION5_TOL:g}")
            return None
        return (f"{kind}: |det B_p - 1| = {det_err:.2e}, min xi_m = {xi_min:.2e}, "
                f"identity residual = {res_max:.2e}")


WORKLOADS = {w.name: w for w in (FitWorkload, CreepWorkload, TensorWorkload)}
