"""Mutation gate: the suite must catch the defects the kernel's proofs and bounds rely on.

Each row of ``MUTANTS`` is one defect, written as one exact text replacement
in one source file (mutation analysis: DeMillo, Lipton and Sayward, "Hints
on test data selection", Computer 11(4), 1978), with the test node ids that
must fail on it. The runner copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, checks that every killer
passes on the unmutated copy, then applies one row at a time, runs only that
row's nodes under a per-mutant timeout and restores the file. A row whose
nodes all pass is a survivor, and any survivor fails the run (exit 1). A
timeout counts as caught, but it is listed. pytest does not collect this
file; run it with

    python tests/mutants.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300.0  # per mutant; a defect that makes a test spin is caught, not waited out


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str  # occurs exactly once in the file
    replacement: str
    killers: Tuple[str, ...]


MUTANTS = (
    Mutant("det_drift_limit", "src/polyvisc/evolution.py",
           "DET_DRIFT_LIMIT = 1e-6", "DET_DRIFT_LIMIT = 1e-2",
           ("tests/test_evolution.py::TestDrive::"
            "test_late_det_drift_names_the_first_drifted_state[strength0.01]",)),
    Mutant("final_bracket_check", "src/polyvisc/uniaxial.py",
           "ok = (lo <= v) & (v <= hi)", "ok = np.isfinite(v)",
           ("tests/test_uniaxial.py::TestBatch::test_a_final_v_outside_the_bracket_is_resolved",)),
    Mutant("dissipation_floor", "src/polyvisc/material.py",
           "DISSIPATION_FLOOR = 1e-30", "DISSIPATION_FLOOR = 1e-3",
           ("tests/test_evolution.py::TestPiecewiseDrive::"
            "test_a_flow_defect_shows_on_a_slow_drive",)),
    Mutant("dp5_fifth_order_weight", "src/polyvisc/odesolve.py",
           "-2187 / 6784, 11 / 84]", "-2187 / 6784, 11 / 85]",
           ("tests/test_acceptance.py::test_criterion_10_numerics",)),
    Mutant("flow_term_scale", "src/polyvisc/evolution.py",
           "rate -= 2.0 * q.dot(d_g * ss).dot(q.T)",
           "rate -= 2.0 * (1.0 + 1e-4) * q.dot(d_g * ss).dot(q.T)",
           ("tests/test_acceptance.py::test_criterion_4_general_scalar_equivalence",)),
    Mutant("scalar_flow_rate", "src/polyvisc/uniaxial.py",
           "return -lam * ((mu_g * lam * lam / b",
           "return -(1.0 + 1e-7) * lam * ((mu_g * lam * lam / b",
           ("tests/test_uniaxial.py::TestClosedForm::test_matches_tight_runge_kutta",)),
    Mutant("fit_phase_weights_swapped", "src/polyvisc/fitting.py",
           '(("load", w), ("unload", 1.0 - w))', '(("load", 1.0 - w), ("unload", w))',
           ("tests/test_cli.py::TestFit::test_all_zero_phase_is_data_error",)),
    Mutant("flow_mu_g", "src/polyvisc/evolution.py",
           "mu_p, mu_g = mp.mu_p_bar, mp.mu_g_bar",
           "mu_p, mu_g = mp.mu_p_bar, 1.001 * mp.mu_g_bar",
           ("tests/test_cli.py::TestPresetsAndValidate::test_validate_quick",)),
)


def _pytest(tree: Path, nodes, timeout: float) -> Optional[int]:
    """pytest's exit code on ``nodes`` in ``tree``; None if it ran out of time."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    try:
        return subprocess.run(argv, cwd=tree, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def run(rows, timeout: float) -> int:
    """Run the gate on ``rows``; 0 if every row is caught, 1 otherwise."""
    with tempfile.TemporaryDirectory(prefix="polyvisc-mutants-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src")
        shutil.copytree(ROOT / "tests", tree / "tests")
        shutil.copy2(ROOT / "pyproject.toml", tree)

        killers = sorted({node for row in rows for node in row.killers})
        start = time.perf_counter()
        if _pytest(tree, killers, timeout * len(rows)) != 0:
            print("the killers do not all pass on the unmutated tree")
            return 1
        print(f"unmutated: {len(killers)} killers pass ({time.perf_counter() - start:.1f} s)")

        failed = False
        for row in rows:
            path = tree / row.path
            source = path.read_text()
            count = source.count(row.text)
            if count != 1:
                print(f"{row.name}: the text occurs {count} times in {row.path}")
                failed = True
                continue
            path.write_text(source.replace(row.text, row.replacement))
            start = time.perf_counter()
            try:
                code = _pytest(tree, row.killers, timeout)
            finally:
                path.write_text(source)
            if code is None:
                verdict = "caught (timeout)"
            elif code == 0:
                verdict, failed = "SURVIVED", True
            elif code in (4, 5):  # usage error, no test collected: a broken row
                verdict, failed = f"not run (pytest exit {code})", True
            else:
                verdict = "killed"
            print(f"{row.name}: {verdict} ({time.perf_counter() - start:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS, TIMEOUT_S))
