"""The benchmark's span tracer (perfbench/spans.py) still finds its call sites.

The tracer wraps names that callers look up at call time; a refactor that
deletes or stops calling one of them breaks ``perfbench/run.py --trace 1``
without failing any other test. This reads ``perfbench/`` and changes
nothing there.
"""

import importlib.util
from pathlib import Path

from polyvisc import cli, dataio, evolution, fitting, kinematics, odesolve, tensors, uniaxial
from polyvisc.dataio import get_preset

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tensor_sites_are_bound_and_called():
    tracer = load_spans().Tracer()
    mods = dict(cli=cli, dataio=dataio, evolution=evolution, fitting=fitting,
                kinematics=kinematics, odesolve=odesolve, tensors=tensors, uniaxial=uniaxial)
    tracer.install(mods)
    try:
        tracer.enabled = True
        mp = get_preset("pmr15_288").params()
        evolution.relax(1.01, mp, 0.5 * mp.retardation_time())
        tracer.enabled = False
        totals = tracer.layer_totals()
    finally:
        tracer.uninstall()

    for name in ("evolution.drive", "odesolve.integrate", "evolution.rhs", "tensors.eig_sym",
                 "tensors.sylvester", "material.identity_check", "kinematics.protocol"):
        assert totals.get(name, (0, 0.0))[0] > 0, name
    assert tracer.counts["odesolve.steps_accepted"] > 0
    assert tracer.counts["evolution.samples"] == totals["material.identity_check"][0]
    # uninstall restores the undecorated names
    assert evolution.eig_sym is tensors.eig_sym
