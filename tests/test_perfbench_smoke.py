"""The benchmark's first ops pass the benchmark's own output checks.

``perfbench/workloads.py`` builds each op's inputs from a seed and checks
its output (``check(result)`` returns None when the output is right). Those
checks otherwise run only inside ``perfbench/run.py``. This runs the first
ops of every workload for seed 7, covering each kind of op, through them,
and the first fit and tensor ops of seed 31, whose noise, initial guesses,
amplitudes and ramp times differ.
It reads ``perfbench/`` and changes nothing there.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from polyvisc import cli, dataio, evolution, fitting, kinematics, odesolve, tensors, uniaxial
from polyvisc.material import MaterialParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 7


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # workloads.py imports oracle by its bare name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    load("oracle")
    return load("workloads")


PV = SimpleNamespace(cli=cli, dataio=dataio, evolution=evolution, fitting=fitting,
                     kinematics=kinematics, odesolve=odesolve, tensors=tensors,
                     uniaxial=uniaxial, MaterialParams=MaterialParams)


def failed_checks(workloads, tmp_path, name, seed, n_ops):
    wl = workloads.WORKLOADS[name](PV, seed, str(tmp_path))
    failures = []
    for i in range(n_ops):
        run, check = wl.prepare(i)
        failure = check(run())
        if failure is not None:
            failures.append(f"op {i}: {failure}")
    return failures


# fit: a clean and a noisy dataset; creep: programs of 2 to 8 segments;
# tensor: uniaxial, shear, relax and replay on two presets
@pytest.mark.parametrize("name, n_ops", [("fit", 2), ("creep", 7), ("tensor", 8)])
def test_first_ops_pass_their_checks(workloads, tmp_path, name, n_ops):
    assert failed_checks(workloads, tmp_path, name, SEED, n_ops) == []


def test_first_fit_ops_of_seed_31_pass_their_checks(workloads, tmp_path):
    # the fit check on a clean dataset is tight (the fitted objective must not
    # exceed its value at the truth, about 5e-11), and a change that moves
    # the simplex path can fail it from one start and pass from another
    assert failed_checks(workloads, tmp_path, "fit", 31, 2) == []


def test_first_tensor_ops_of_seed_31_pass_their_checks(workloads, tmp_path):
    # the tensor checks read the trajectory's det(B_p), dissipation and
    # identity residual, and the replay's agreement with the scalar solution
    assert failed_checks(workloads, tmp_path, "tensor", 31, 8) == []
