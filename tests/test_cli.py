import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polyvisc
from polyvisc import cli
from polyvisc.dataio import load_dataset, make_synthetic_dataset, save_dataset
from polyvisc.fitting import PENALTY
from polyvisc.material import MaterialParams

HFPE285 = MaterialParams(mu_p_bar=4.79e8, mu_g_bar=1.43e9, eta=3.95e13)


def run(*argv):
    return cli.main(list(argv))


class TestSimulate:
    def test_pmr15_explicit_segments(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = run(
            "simulate", "--preset", "pmr15_288",
            "--segment", "1.0e7:70000", "--segment", "0:70000",
            "--out", str(out),
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert out.exists()
        line0 = [l for l in captured.splitlines() if l.startswith("strain(0+)")][0]
        assert float(line0.split("=")[1]) == pytest.approx(0.008826, abs=1e-5)

    def test_hfpe285_load_fraction(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = run(
            "simulate", "--preset", "hfpe285", "--load-fraction", "0.45",
            "--t-load", "1", "--t-unload", "1", "--out", str(out),
        )
        assert code == 0
        first_data = out.read_text().splitlines()[2]
        assert float(first_data.split(",")[1]) == pytest.approx(0.013374, abs=2e-6)

    def test_zero_stress_is_flat(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = run("simulate", "--preset", "pmr15_288", "--segment", "0:100",
                   "--out", str(out))
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith(("t_s", "#"))]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_default_durations_five_tau(self, capsys):
        code = run("simulate", "--preset", "pmr15_288")
        assert code == 0
        captured = capsys.readouterr().out
        tau = 6.22e12 / (2 * 4.42e8)
        assert f"{5 * tau:g}" in captured

    def test_plot_and_dataset_export(self, tmp_path):
        svg = tmp_path / "p.svg"
        ds_path = tmp_path / "d.csv"
        code = run(
            "simulate", "--preset", "hfpe285", "--load-fraction", "0.45",
            "--t-load", "1000", "--t-unload", "1000",
            "--plot", str(svg), "--export-dataset", str(ds_path),
            "--noise", "0.01", "--seed", "5", "--temperature-c", "285",
        )
        assert code == 0
        assert svg.read_text().startswith("<?xml")
        ds = load_dataset(ds_path)
        assert ds.temperature_c == 285.0

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run(
                "simulate", "--preset", "pmr15_288", "--segment", "1e7:1000",
                "--export-dataset", str(path), "--noise", "0.02", "--seed", "9",
            ) == 0
        assert a.read_text() == b.read_text()

    def test_usage_errors(self, capsys):
        # conflicting parameter sources
        assert run("simulate", "--preset", "pmr15_288", "--mu-p", "1e8",
                   "--segment", "1e7:10") == 1
        # no load specification
        assert run("simulate", "--mu-p", "1e8", "--mu-g", "1e8", "--eta", "1e12") == 1
        # malformed segment
        assert run("simulate", "--preset", "pmr15_288", "--segment", "banana") == 1
        # unknown preset
        assert run("simulate", "--preset", "nope", "--segment", "1e7:10") == 1
        # load fraction without preset UTS
        assert run("simulate", "--mu-p", "1e8", "--mu-g", "1e8", "--eta", "1e12",
                   "--load-fraction", "0.4") == 1

    @pytest.mark.parametrize("segments, b", [
        (["--segment=-1e30:30000"], "1.41376e-43"),
        (["--segment=-1e30:30000", "--segment=0:30000"], "1.41376e-43"),
        (["--segment=-1e37:30000"], "1.41376e-57"),
        (["--segment=-1e90:30000"], "1.41376e-163"),
    ], ids=["load", "load_unload", "load_1e37", "load_1e90"])
    def test_extreme_compression_is_solved(self, capsys, segments, b):
        # at -1e30 Pa, B = 1.4e-43 and the asymptote r ~ 1.7e-43: Newton from
        # sqrt(B) cancelled to r = 0, and the run exited 3 with "no positive
        # creep asymptote"; at -1e37 Pa the bisection for B ran out of
        # iterations and printed B = 0.000278989 with a strain of -4.09; at
        # -1e90 Pa the flow rate's factor 2/(eta B^2 (1 + 2 B^1.5)) overflowed
        # and the run exited 3 with "no finite creep solution"
        assert run("simulate", "--preset", "pmr15_288", *segments) == 0
        captured = capsys.readouterr()
        assert f"B = {b}" in captured.out
        assert captured.err == ""

    def test_export_dataset_rejects_a_loaded_second_segment(self, tmp_path):
        # the dataset format is a load then a zero-stress unload, which this is not
        ds_path, out = tmp_path / "d.csv", tmp_path / "c.csv"
        code = run("simulate", "--preset", "pmr15_288", "--segment", "1e7:1000",
                   "--segment", "5e6:1000", "--out", str(out), "--export-dataset", str(ds_path))
        assert code == 1
        assert not ds_path.exists() and not out.exists()


SIM = ["simulate", "--preset", "hfpe285"]
RELAX = ["relax", "--preset", "hfpe285", "--lambda-hold", "1.01"]


@pytest.mark.parametrize("argv", [
    SIM + ["--t-load", "-5"],
    SIM + ["--t-load", "nan"],
    SIM + ["--t-unload", "-5"],
    SIM + ["--load-fraction", "nan"],
    SIM + ["--export-dataset", "{tmp}/d.csv", "--n-load", "1"],
    SIM + ["--export-dataset", "{tmp}/d.csv", "--n-unload", "0"],
    SIM + ["--export-dataset", "{tmp}/d.csv", "--noise", "-1"],
    SIM + ["--export-dataset", "{tmp}/d.csv", "--temperature-c", "nan"],
    SIM + ["--export-dataset", "{tmp}/d.csv", "--noise", "0.01", "--seed", "-1"],
    RELAX + ["--hold-time", "-5"],
    RELAX + ["--rtol", "0"],
    ["drive", "--preset", "hfpe285", "--amplitude", "1.01", "--rtol", "-1"],
    ["drive", "--preset", "hfpe285", "--amplitude", "inf"],
    ["drive", "--preset", "hfpe285", "--protocol", "shear", "--amplitude", "nan"],
    ["fit", "--data", "{tmp}/data.csv", "--init", "hfpe285", "--weight", "2"],
    ["fit", "--data", "{tmp}/data.csv", "--init", "0,1e9,1e13"],
    ["fit", "--data", "{tmp}/data.csv", "--init", "1e8,1e9,inf"],
    ["fit", "--data", "{tmp}/data.csv", "--init", "hfpe285", "--max-iter", "0"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_bad_numeric_option_is_usage_error(argv, tmp_path, capsys):
    ds = make_synthetic_dataset(HFPE285, stress=1.0e7, t_load=1.0e4, n_load=10)
    save_dataset(ds, tmp_path / "data.csv")
    code = run(*(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "d.csv").exists()


HUGE_STRESS_DATASET = """# stress_pa=1e30
segment,t_s,strain
load,0,0.0088
load,30000,0.0162
unload,36000,0.00315
unload,60000,0.0001
"""

_FUZZ_BASE = """# stress_pa=1.0e7
# temperature_c=288
segment,t_s,strain
load,0.0,0.0088
load,10000.0,0.0120
load,30000.0,0.0162
unload,36000.0,0.00315
unload,48000.0,0.0009
unload,60000.0,0.0001
""".splitlines()
_FUZZ_NUMBERS = ("nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1", "1e30")
_FUZZ_TOKENS = _FUZZ_NUMBERS + ("", "0.01,", ",", "load", "unload", "segment", "bogus")
_FUZZ_STRESSES = ("1.0e7", "1e30", "-1e30", "1e308", "-1e308", "1e-320", "-1e-320", "0",
                  "-1e7", "nan", "inf", "1e7,")


@st.composite
def mutated_dataset(draw):
    """The valid dataset above with an extreme or malformed stress and up to
    three edits: a line deleted, a time or strain replaced by an extreme
    number, any field replaced by a malformed token, or a row inserted."""
    lines = list(_FUZZ_BASE)
    lines[0] = f"# stress_pa={draw(st.sampled_from(_FUZZ_STRESSES))}"
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("delete", "number", "field", "insert")))
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        if kind == "delete":
            del lines[i]
        elif kind == "number" and len(fields) == 3:
            fields[draw(st.integers(1, 2))] = draw(st.sampled_from(_FUZZ_NUMBERS))
            lines[i] = ",".join(fields)
        elif kind == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_FUZZ_TOKENS))
            lines[i] = ",".join(fields)
        elif kind == "insert":
            label = draw(st.sampled_from(("load", "unload", "bogus", "")))
            t, e = draw(st.sampled_from(_FUZZ_TOKENS)), draw(st.sampled_from(_FUZZ_TOKENS))
            lines.insert(i, f"{label},{t},{e}")
    return "\n".join(lines) + "\n"


class TestFit:
    @pytest.fixture()
    def dataset_file(self, tmp_path):
        tau = HFPE285.retardation_time()
        ds = make_synthetic_dataset(
            HFPE285, stress=0.45 * 43.0e6, t_load=5 * tau, t_unload=5 * tau,
            n_load=25, n_unload=10, noise=0.0,
        )
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        return path

    def test_fit_recovers_parameters(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = run(
            "fit", "--data", str(dataset_file), "--weight", "0.5",
            "--init", "3e8,1e9,2e13", "--out", str(out),
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["mu_p_bar"] == pytest.approx(4.79e8, rel=1e-3)
        assert result["mu_g_bar"] == pytest.approx(1.43e9, rel=1e-3)
        assert result["eta"] == pytest.approx(3.95e13, rel=1e-3)
        assert result["error"] < 1e-4
        assert result["w"] == 0.5

    def test_zero_noise_fit_is_exact(self, dataset_file, tmp_path):
        out = tmp_path / "fit.json"
        code = run("fit", "--data", str(dataset_file), "--init", "3e8,1e9,2e13",
                   "--out", str(out))
        assert code == 0
        result = json.loads(out.read_text())
        assert result["error"] < 1e-8
        assert result["mu_p_bar"] == pytest.approx(4.79e8, rel=1e-3)
        assert result["mu_g_bar"] == pytest.approx(1.43e9, rel=1e-3)
        assert result["eta"] == pytest.approx(3.95e13, rel=1e-3)

    def test_weight_recorded(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = run("fit", "--data", str(dataset_file), "--weight", "0.75",
                   "--init", "hfpe285", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["w"] == 0.75
        # the data are noise-free hfpe285 curves, so the initial guess is a
        # zero of the objective: the fit ran 2000 iterations, NOT converged
        assert "(converged," in capsys.readouterr().out

    def test_holdout_evaluation(self, dataset_file, tmp_path):
        tau = HFPE285.retardation_time()
        held = make_synthetic_dataset(
            HFPE285, stress=0.30 * 43.0e6, t_load=5 * tau, t_unload=5 * tau,
            n_load=20, n_unload=8,
        )
        held_path = tmp_path / "held.csv"
        save_dataset(held, held_path)
        out = tmp_path / "fit.json"
        code = run("fit", "--data", str(dataset_file), "--init", "hfpe285",
                   "--holdout", str(held_path), "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert str(held_path) in payload["holdout"]
        assert payload["holdout"][str(held_path)] < 1e-2

    def test_missing_data_flag(self):
        assert run("fit", "--init", "hfpe285") == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("fit", "--data", str(tmp_path / "nope.csv"), "--init", "hfpe285") == 2

    def test_malformed_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("segment,t_s,strain\nload,0,0.01\n")
        assert run("fit", "--data", str(bad), "--init", "hfpe285") == 2

    @pytest.mark.parametrize(
        "unload_start,unload_stamps,message",
        [
            (50.0, (150.0, 200.0), "unload start must not precede the last load stamp"),
            (120.0, (110.0, 200.0), "unload times must not precede the unload start"),
        ],
        ids=["before_last_load", "after_first_unload"],
    )
    def test_inconsistent_unload_start_is_data_error(
        self, tmp_path, capsys, unload_start, unload_stamps, message
    ):
        # every trial would be penalised, and the fit would report the
        # initial guess as converged
        bad = tmp_path / "bad.csv"
        rows = ["load,0,0.0088", "load,100,0.0100"]
        rows += [f"unload,{t},0.004" for t in unload_stamps]
        bad.write_text(
            f"# stress_pa=1.0e7\n# t_unload_s={unload_start}\nsegment,t_s,strain\n"
            + "\n".join(rows) + "\n"
        )
        assert run("fit", "--data", str(bad), "--init", "pmr15_288") == 2
        assert message in capsys.readouterr().err

    def test_times_before_load_are_data_error(self, tmp_path, capsys):
        # the load starts at t = 0; an earlier stamp made every trial a
        # penalty and the fit reported the initial guess as converged
        bad = tmp_path / "early.csv"
        bad.write_text(
            "# stress_pa=1.0e7\nsegment,t_s,strain\n"
            "load,-100,0.0088\nload,100,0.0100\nunload,200,0.004\n"
        )
        assert run("fit", "--data", str(bad), "--init", "pmr15_288") == 2
        assert "load times must not precede the load start" in capsys.readouterr().err

    def test_all_zero_phase_is_data_error(self, tmp_path, capsys):
        # a relative misfit needs a nonzero measured strain: with the load
        # phase all zero the fit optimised the unload term alone and printed
        # "error = 5.000000e+05 (converged ...)"
        data = tmp_path / "zero.csv"
        data.write_text("# stress_pa=1e7\nsegment,t_s,strain\nload,0,0\nload,30000,0\n"
                        "unload,36000,0.00315\nunload,60000,0.0001\n")
        assert run("fit", "--data", str(data), "--init", "pmr15_288") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: the load phase has weight 0.5")
        # with no weight on that phase the fit is well posed
        assert run("fit", "--data", str(data), "--init", "pmr15_288", "--weight", "0",
                   "--max-iter", "20") == 0

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "utf16.csv"
        bad.write_bytes(b"\xff\xfe" + "segment,t_s,strain\n".encode("utf-16-le"))
        assert run("fit", "--data", str(bad), "--init", "hfpe285") == 2
        assert "line 1: not UTF-8 text" in capsys.readouterr().err

    def test_directory_is_data_error(self, tmp_path):
        assert run("fit", "--data", str(tmp_path), "--init", "hfpe285") == 2

    def test_huge_stress_is_fitted(self, tmp_path, capsys):
        # at 1e30 Pa the creep asymptote is ~1e21 and the log term's factor
        # a0 - w, formed as a difference, cancelled to 0: a ZeroDivisionError
        # escaped. The model is solvable there, so the fit runs to its end:
        # exit 0 with a finite objective.
        data, out = tmp_path / "huge.csv", tmp_path / "fit.json"
        data.write_text(HUGE_STRESS_DATASET)
        code = run("fit", "--data", str(data), "--init", "pmr15_288", "--out", str(out))
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert 0.0 <= json.loads(out.read_text())["error"] < PENALTY

    def test_every_trial_penalised_is_a_numerical_failure(self, tmp_path, capsys):
        data = tmp_path / "neg.csv"
        data.write_text(HUGE_STRESS_DATASET.replace("1e30", "-1e308"))
        assert run("fit", "--data", str(data), "--init", "pmr15_288") == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: every trial parameter set was penalised")

    def test_out_records_the_objective_evaluations(self, dataset_file, tmp_path):
        out = tmp_path / "fit.json"
        assert run("fit", "--data", str(dataset_file), "--init", "hfpe285",
                   "--max-iter", "20", "--out", str(out)) == 0
        result = json.loads(out.read_text())
        assert result["n_fev"] > result["iterations"] > 0

    @settings(max_examples=100, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=mutated_dataset())
    def test_fuzzed_dataset_ends_with_an_exit_code(self, tmp_path, text):
        data = tmp_path / "fuzz.csv"
        data.write_text(text)
        assert run("fit", "--data", str(data), "--init", "pmr15_288",
                   "--max-iter", "50") in (0, 1, 2, 3)


class TestDriveRelax:
    def test_drive_uniaxial(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run("drive", "--preset", "pmr15_288", "--amplitude", "1.01",
                   "--duration", "10000", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "t,eps_axial,T11_pa,detBp,xi_m,identity_residual"
        assert len(lines) > 4

    def test_drive_shear(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run("drive", "--preset", "pmr15_288", "--protocol", "shear",
                   "--amplitude", "0.05", "--duration", "10000", "--out", str(out))
        assert code == 0
        assert "pressure_convention=tr T = 0" in out.read_text().splitlines()[0]

    def test_relax(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run("relax", "--preset", "pmr15_288", "--lambda-hold", "1.01",
                   "--hold-time", "20000", "--out", str(out))
        assert code == 0
        captured = capsys.readouterr().out
        assert "T_axial(0)" in captured

    def test_relax_unit_stretch_long_hold(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run("relax", "--preset", "pmr15_288", "--lambda-hold", "1",
                   "--hold-time", "2e6", "--out", str(out))
        assert code == 0
        traj = np.loadtxt(out, delimiter=",", skiprows=2, ndmin=2)
        assert traj[-1, 0] == 2.0e6
        assert np.all(traj[:, 2] == 0.0)

    @pytest.mark.parametrize("amplitude", ["1e10", "1e300"])
    def test_huge_shear_is_a_numerical_failure(self, capsys, amplitude):
        # at 1e300 the first step-size guess underflows to 0
        code = run("drive", "--preset", "pmr15_288", "--protocol", "shear",
                   "--amplitude", amplitude, "--duration", "100")
        assert code == 3
        assert "step size underflow" in capsys.readouterr().err

    def test_drive_requires_amplitude(self):
        assert run("drive", "--preset", "pmr15_288") == 1

    @pytest.mark.parametrize("argv, option", [
        (["drive", "--amplitude", "1.01"], "--duration"),
        (["relax", "--lambda-hold", "1.01"], "--hold-time"),
    ])
    def test_maxwell_limit_needs_explicit_duration(self, capsys, argv, option):
        # 5 tau is the default duration, and the Maxwell limit has no tau
        code = run(*argv, "--mu-p", "3.76e8", "--mu-g", "0", "--eta", "6.22e12")
        assert code == 1
        assert f"give {option} explicitly" in capsys.readouterr().err

    def test_relax_requires_lambda(self):
        assert run("relax", "--preset", "pmr15_288") == 1


class TestPresetsAndValidate:
    def test_presets_listing(self, capsys):
        assert run("presets") == 0
        captured = capsys.readouterr().out
        for name in ("hfpe285", "hfpe300", "hfpe315", "hfpe330", "pmr15_288"):
            assert name in captured
        assert "4.79e+08" in captured

    def test_validate_quick(self, capsys):
        assert run("validate", "--quick") == 0
        captured = capsys.readouterr().out
        assert captured.count("[PASS]") == 6
        assert "[FAIL]" not in captured

    def test_validate_negative_control(self, monkeypatch, capsys):
        # a sign flip in the scalar flow rule must break the
        # general-vs-scalar equivalence check
        import polyvisc.uniaxial as uniaxial
        import polyvisc.validation  # noqa: F401  (check runs through module refs)

        true_rate = uniaxial.lambda_rate
        monkeypatch.setattr(
            uniaxial, "lambda_rate",
            lambda lam, b, mp: -true_rate(lam, b, mp),
        )
        code = run("validate", "--quick")
        captured = capsys.readouterr().out
        assert code == 4
        assert "[FAIL] general_vs_scalar" in captured

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_no_subcommand(self):
        assert run() == 1


class TestImport:
    def test_cli_import_pulls_no_scipy(self):
        # a cold start pays for every module the CLI imports
        src = str(Path(polyvisc.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        probe = ("import sys, polyvisc.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"
