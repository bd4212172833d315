"""The benchmark's span tracer (perfbench/spans.py) still finds its call sites.

The tracer wraps names that callers look up at call time; a refactor that
deletes or stops calling one of them breaks ``perfbench/run.py --trace 1``
without failing any other test. This reads ``perfbench/`` and changes
nothing there.
"""

import importlib.util
from pathlib import Path

import numpy as np

from polyvisc import cli, dataio, evolution, fitting, kinematics, odesolve, tensors, uniaxial
from polyvisc.dataio import get_preset

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(work):
    """Run ``work()`` with the tracer installed; return the tracer and its layer totals."""
    tracer = load_spans().Tracer()
    mods = dict(cli=cli, dataio=dataio, evolution=evolution, fitting=fitting,
                kinematics=kinematics, odesolve=odesolve, tensors=tensors, uniaxial=uniaxial)
    tracer.install(mods)
    try:
        tracer.enabled = True
        work()
        tracer.enabled = False
        return tracer, tracer.layer_totals()
    finally:
        tracer.uninstall()


def assert_called(totals, names):
    for name in names:
        assert totals.get(name, (0, 0.0))[0] > 0, name


def test_tensor_sites_are_bound_and_called():
    # a relax and a replay sample under lateral traction-freeness, a shear
    # drive under tr T = 0: both branches of the per-sample stress
    mp = get_preset("pmr15_288").params()
    tau = mp.retardation_time()
    shear = kinematics.MotionProtocol("shear", (0.0, 0.5 * tau), lambda t: 0.05 * t / tau,
                                      lambda t: 0.05 / tau)

    def work():
        evolution.relax(1.01, mp, 0.5 * tau)
        traj = evolution.drive(shear, mp, np.eye(3))
        assert traj.pressure_convention == "tr T = 0"
        curve = uniaxial.simulate_creep([(1.0e7, 0.5 * tau), (0.0, 0.5 * tau)], mp)
        assert len(evolution.replay_uniaxial(curve, mp)) == 2

    tracer, totals = traced(work)

    assert_called(totals, ("evolution.drive", "odesolve.integrate", "evolution.rhs",
                           "tensors.eig_sym", "tensors.sylvester", "material.identity_check",
                           "kinematics.protocol"))
    assert tracer.counts["odesolve.steps_accepted"] > 0
    # the identity check runs once per drive, over the stack of its samples
    assert totals["evolution.drive"][0] == totals["material.identity_check"][0]
    # one decomposition and one solve per kernel evaluation, none per sample: each
    # recorded state's B_G and D_G come from the right-hand side's own call
    assert totals["tensors.eig_sym"][0] == totals["tensors.sylvester"][0]
    assert totals["tensors.eig_sym"][0] == totals["evolution.rhs"][0]
    # uninstall restores the undecorated names
    assert evolution.eig_sym is tensors.eig_sym


def test_scalar_sites_are_bound_and_called(tmp_path):
    row = get_preset("hfpe285")
    mp = row.params()
    tau = mp.retardation_time()
    data = tmp_path / "data.csv"
    dataio.save_dataset(dataio.make_synthetic_dataset(
        mp, stress=row.fit_load_pa(), t_load=tau, t_unload=tau, n_load=10, n_unload=5), data)

    def work():
        assert cli.main(["fit", "--data", str(data), "--init", "hfpe285",
                         "--max-iter", "20"]) == 0
        assert cli.main(["simulate", "--preset", "hfpe285", "--t-load", repr(tau),
                         "--t-unload", repr(tau), "--out", str(tmp_path / "c.csv"),
                         "--plot", str(tmp_path / "c.svg")]) == 0

    tracer, totals = traced(work)

    assert_called(totals, ("fitting.nelder_mead", "fitting.creep_error",
                           "uniaxial.simulate_creep", "uniaxial.solve_B", "dataio.export",
                           "dataio.load_dataset", "cli.main"))
    assert tracer.counts["fitting.objective_evals"] > 0
    assert tracer.counts["dataio.bytes_written"] > 0
    assert cli.main.__name__ == "main"
