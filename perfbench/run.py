"""polyvisc benchmark: one closed-loop client in one process, per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fit|creep|tensor --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's ops back to back, untraced, until S
seconds of op time have been measured, checks every op's output, and prints
the end-to-end metrics. Outputs that pass their check but miss the stricter
criterion-5 det bound (workloads.py) are counted on the ``report`` line and
listed on standard error. Latencies and ``setup_s`` are normalised to machine
speed (speed.py); the raw values are printed on the ``report`` line.
``--trace 1`` wraps polyvisc's call sites in the span tracer (spans.py) and
runs a fixed pass of the workload's first ops traced, the same pass
untraced, and the traced pass again. It prints the per-layer metrics (totals
over one pass; self times in raw seconds, averaged over the two traced
passes), checks that both traced passes counted exactly the same work, and
reports the tracing overhead.

Human-readable report lines come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# The 3x3 numpy calls must not start BLAS threads: one client, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import setup_probe  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
SETUP_RUNS = 5
IMPORT_RUNS = 3
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {"setup_s": "s", "p50_s": "s", "ops_per_s": "1/s", "rss_mb": "MB"}
PER_LAYER = {
    "odesolve.integrate.calls": "count",
    "odesolve.integrate.self_s": "s",
    "odesolve.rhs_evals": "count",
    "odesolve.steps_accepted": "count",
    "odesolve.steps_rejected": "count",
    "odesolve.accept_ratio": "ratio",
    "odesolve.dense.calls": "count",
    "odesolve.dense.points": "count",
    "odesolve.dense.self_s": "s",
    "uniaxial.simulate_creep.calls": "count",
    "uniaxial.simulate_creep.self_s": "s",
    "uniaxial.rhs.self_s": "s",
    "uniaxial.solve_B.calls": "count",
    "fitting.objective_evals": "count",
    "fitting.iterations": "count",
    "fitting.penalties": "count",
    "fitting.penalty_ratio": "ratio",
    "fitting.nelder_mead.self_s": "s",
    "fitting.creep_error.self_s": "s",
    "tensors.eig_sym.calls": "count",
    "tensors.eig_sym.self_s": "s",
    "tensors.sylvester.calls": "count",
    "tensors.sylvester.self_s": "s",
    "kinematics.protocol.calls": "count",
    "kinematics.protocol.self_s": "s",
    "material.identity_check.calls": "count",
    "material.identity_check.self_s": "s",
    "evolution.drive.calls": "count",
    "evolution.rhs.self_s": "s",
    "evolution.trajectory.self_s": "s",
    "evolution.samples": "count",
    "dataio.export.self_s": "s",
    "dataio.bytes_written": "B",
    "dataio.load_dataset.self_s": "s",
    "cli.main.self_s": "s",
    "setup.import.numpy_s": "s",
    "setup.import.scipy_s": "s",
    "setup.import.polyvisc_s": "s",
    "trace.overhead_frac": "ratio",
}


def load_polyvisc():
    if not (SRC / "polyvisc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polyvisc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from polyvisc import cli, dataio, evolution, fitting, kinematics, odesolve, tensors, uniaxial
    from polyvisc.material import MaterialParams

    return SimpleNamespace(cli=cli, dataio=dataio, evolution=evolution, fitting=fitting,
                           kinematics=kinematics, odesolve=odesolve, tensors=tensors,
                           uniaxial=uniaxial, MaterialParams=MaterialParams)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_seconds():
    """Median raw and speed-normalised wall time of a fresh interpreter running
    ``from polyvisc.cli import main; main(["presets"])`` (setup_probe.py)."""
    raw, normalised = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], env=child_env(),
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, check=True)
        raw.append(time.perf_counter() - start)
        spent, *samples = (float(v) for v in proc.stderr.splitlines()[-1].split())
        normalised.append(speed.normalised(raw[-1] - spent, samples, setup_probe.REF_S))
    return statistics.median(raw), statistics.median(normalised)


def import_seconds() -> dict:
    """Median self import time of numpy, scipy and polyvisc modules (-X importtime)."""
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import polyvisc.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              check=True)
        us = {"numpy": 0, "scipy": 0, "polyvisc": 0}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            top = fields[2].strip().split(".")[0]
            if top in us:
                us[top] += int(fields[0])
        runs.append(us)
    return {f"setup.import.{k}_s": statistics.median(r[k] for r in runs) * 1e-6 for k in runs[0]}


def run_ops(wl, start, *, seconds=None, count=None, tracer=None):
    """Closed loop: prepare, time, check.

    Returns raw latencies, speed-normalised latencies (speed.py) and failure
    reasons. Traced ops are normalised by the kernel timed around them only,
    so that no sampling lands inside a span.
    """
    latencies, normalised, failures = [], [], []
    busy = 0.0
    i = start
    probe = speed.SpeedProbe(sample_during=tracer is None)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        while (len(latencies) < count) if count is not None else (busy < seconds):
            run, check = wl.prepare(i)
            if tracer is not None:
                run = tracer.span("op", run)
                tracer.enabled = True
            err_buf = io.StringIO()
            failure = None
            with contextlib.redirect_stderr(err_buf), probe:
                t0 = time.perf_counter()
                try:
                    result = run()
                except Exception as exc:  # an op that raises counts as failed
                    failure = f"{type(exc).__name__}: {exc}"
                elapsed, spent = time.perf_counter() - t0, probe.spent
            if tracer is not None:
                tracer.enabled = False
            normalised.append(probe.normalise(elapsed, spent))
            if failure is None:
                try:
                    failure = check(result)
                except Exception as exc:
                    failure = f"check raised {type(exc).__name__}: {exc}"
            if failure is not None:
                failures.append(f"op {i}: {failure} {err_buf.getvalue().strip()}".strip())
            latencies.append(elapsed - spent)
            busy += elapsed
            i += 1
    return latencies, normalised, failures


def tail(latencies):
    """Highest standard percentile with at least ten ops beyond it (nearest rank), or None."""
    n = len(latencies)
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10.0:
            return level, sorted(latencies)[math.ceil(level / 100.0 * n) - 1]
    return None


def layer_metrics(totals: dict, counts) -> dict:
    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    acc, rej = counts["odesolve.steps_accepted"], counts["odesolve.steps_rejected"]
    evals = counts["fitting.objective_evals"]
    return {
        "odesolve.integrate.calls": calls("odesolve.integrate"),
        "odesolve.integrate.self_s": self_s("odesolve.integrate"),
        "odesolve.rhs_evals": calls("uniaxial.rhs") + calls("evolution.rhs"),
        "odesolve.steps_accepted": acc,
        "odesolve.steps_rejected": rej,
        "odesolve.accept_ratio": acc / (acc + rej) if acc + rej else 0.0,
        "odesolve.dense.calls": calls("odesolve.dense"),
        "odesolve.dense.points": counts["odesolve.dense.points"],
        "odesolve.dense.self_s": self_s("odesolve.dense"),
        "uniaxial.simulate_creep.calls": calls("uniaxial.simulate_creep"),
        "uniaxial.simulate_creep.self_s": self_s("uniaxial.simulate_creep"),
        "uniaxial.rhs.self_s": self_s("uniaxial.rhs"),
        "uniaxial.solve_B.calls": calls("uniaxial.solve_B"),
        "fitting.objective_evals": evals,
        "fitting.iterations": counts["fitting.iterations"],
        "fitting.penalties": counts["fitting.penalties"],
        "fitting.penalty_ratio": counts["fitting.penalties"] / evals if evals else 0.0,
        "fitting.nelder_mead.self_s": self_s("fitting.nelder_mead"),
        "fitting.creep_error.self_s": self_s("fitting.creep_error"),
        "tensors.eig_sym.calls": calls("tensors.eig_sym"),
        "tensors.eig_sym.self_s": self_s("tensors.eig_sym"),
        "tensors.sylvester.calls": calls("tensors.sylvester"),
        "tensors.sylvester.self_s": self_s("tensors.sylvester"),
        "kinematics.protocol.calls": calls("kinematics.protocol"),
        "kinematics.protocol.self_s": self_s("kinematics.protocol"),
        "material.identity_check.calls": calls("material.identity_check"),
        "material.identity_check.self_s": self_s("material.identity_check"),
        "evolution.drive.calls": calls("evolution.drive"),
        "evolution.rhs.self_s": self_s("evolution.rhs"),
        "evolution.trajectory.self_s": self_s("evolution.drive"),
        "evolution.samples": counts["evolution.samples"],
        "dataio.export.self_s": self_s("dataio.export"),
        "dataio.bytes_written": counts["dataio.bytes_written"],
        "dataio.load_dataset.self_s": self_s("dataio.load_dataset"),
        "cli.main.self_s": self_s("cli.main"),
    }


def traced_run(pv, wl):
    import spans

    tracer = spans.Tracer()
    tracer.install(vars(pv))
    start, k = wl.warmup_ops, wl.trace_ops
    passes, failures = [], []
    try:
        for traced in (True, False, True):
            tracer.reset()
            _, lat, fail = run_ops(wl, start, count=k, tracer=tracer if traced else None)
            failures += fail
            passes.append((lat, layer_metrics(tracer.layer_totals(), tracer.counts)))
    finally:
        tracer.uninstall()
    (lat_a, m_a), (lat_u, _), (lat_b, m_b) = passes
    metrics, mismatches = {}, []
    for name, value in m_a.items():
        if name.endswith("_s"):
            metrics[name] = 0.5 * (value + m_b[name])
        else:
            metrics[name] = value
            if value != m_b[name]:
                mismatches.append(f"{name}: {value} != {m_b[name]}")
    metrics.update(import_seconds())
    metrics["trace.overhead_frac"] = (sum(lat_a) + sum(lat_b)) / (2.0 * sum(lat_u)) - 1.0
    report = {"trace_ops_per_pass": k, "counter_mismatches": mismatches}
    return metrics, 3 * k, failures, report


def timed_run(pv, wl, seconds):
    setup_raw, setup = setup_seconds()
    raw, lat, failures = run_ops(wl, wl.warmup_ops, seconds=seconds)
    metrics = {
        "setup_s": setup,
        "p50_s": statistics.median(lat),
        "ops_per_s": len(lat) / sum(lat),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    t = tail(lat)
    report = {"ops": len(lat), "failed_frac": len(failures) / len(lat),
              "tail_s": f"p{t[0]:g} = {t[1]:.6g}" if t else "undefined (fewer than 20 ops)",
              "raw_setup_s": setup_raw, "raw_p50_s": statistics.median(raw),
              "raw_ops_per_s": len(raw) / sum(raw)}
    return metrics, len(lat), failures, report


def provenance(seed: int, wl) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count(), "seed": seed,
            "workload": wl.name, "why": wl.why}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pv = load_polyvisc()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    TMP_ROOT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload](pv, args.seed, tmpdir)
        print("provenance " + json.dumps(provenance(args.seed, wl)))
        run_ops(wl, 0, count=wl.warmup_ops)
        if args.trace:
            metrics, attempted, failures, report = traced_run(pv, wl)
            units = PER_LAYER
        else:
            metrics, attempted, failures, report = timed_run(pv, wl, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()

    mismatches = report.get("counter_mismatches", [])
    report["checks_above_criterion5_det"] = len(wl.notes)
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    for line in wl.notes[:10]:
        print(f"NOTE (not a failure) {line}", file=sys.stderr)
    for line in mismatches:
        print(f"COUNTER DIFFERS between identical traced passes: {line}", file=sys.stderr)
    print("report " + json.dumps(report))
    for name, unit in units.items():
        print(f"{args.workload:>7} {name:<34} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
