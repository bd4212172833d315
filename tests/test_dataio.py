import os
import stat
import threading
from types import SimpleNamespace
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from polyvisc.dataio import (
    DatasetError,
    get_preset,
    load_dataset,
    make_synthetic_dataset,
    presets,
    render_svg,
    save_curve,
    save_dataset,
    save_json,
    save_svg,
    save_trajectory,
)
from polyvisc.evolution import relax
from polyvisc.material import MaterialParams
from polyvisc.uniaxial import CreepSegment, simulate_creep

HFPE285 = MaterialParams(mu_p_bar=4.79e8, mu_g_bar=1.43e9, eta=3.95e13)


class TestPresets:
    def test_golden_table(self):
        # published values, exact float match
        table = presets()
        assert set(table) == {"hfpe285", "hfpe300", "hfpe315", "hfpe330", "pmr15_288"}
        expected = {
            "hfpe285": (285.0, 43.0, 4.79e8, 1.43e9, 3.95e13, 0.45),
            "hfpe300": (300.0, 40.2, 4.12e8, 0.51e9, 2.23e13, 0.45),
            "hfpe315": (315.0, 36.3, 4.19e8, 0.79e9, 4.04e13, 0.30),
            "hfpe330": (330.0, 23.8, 5.07e8, 0.79e9, 3.19e13, 0.20),
        }
        for name, (temp, uts, mu_p, mu_g, eta, frac) in expected.items():
            row = table[name]
            assert row.temperature_c == temp
            assert row.uts_mpa == uts
            assert row.mu_p_bar == mu_p
            assert row.mu_g_bar == mu_g
            assert row.eta == eta
            assert row.load_fraction == frac
        pmr = table["pmr15_288"]
        assert pmr.temperature_c == 288.0
        assert pmr.mu_p_bar == 3.76e8
        assert pmr.mu_g_bar == 4.42e8
        assert pmr.eta == 6.22e12
        assert pmr.fit_stress_pa == 1.0e7

    def test_lookup(self):
        assert get_preset("hfpe285").mu_g_bar == 1.43e9
        assert get_preset("pmr15_288").eta == 6.22e12
        with pytest.raises(KeyError):
            get_preset("hfpe999")

    def test_fit_load(self):
        assert get_preset("hfpe285").fit_load_pa() == pytest.approx(0.45 * 43.0e6)
        assert get_preset("pmr15_288").fit_load_pa() == 1.0e7

    def test_params_object(self):
        mp = get_preset("hfpe300").params()
        assert mp.mu_p_bar == 4.12e8 and mp.eta == 2.23e13


class TestDatasetIO:
    def test_load_only_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "# stress_pa=1.0e7\nsegment,t_s,strain\nload,0.0,0.01\nload,10.0,0.012\n"
        )
        ds = load_dataset(path)
        assert not ds.has_unload
        assert ds.stress == 1.0e7
        assert np.allclose(ds.t_load, [0.0, 10.0])

    def test_missing_stress_metadata(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("segment,t_s,strain\nload,0.0,0.01\nload,10.0,0.012\n")
        with pytest.raises(DatasetError, match="stress_pa"):
            load_dataset(path)

    def test_unknown_segment_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "# stress_pa=1e7\nsegment,t_s,strain\nload,0.0,0.01\nramp,1.0,0.02\n"
        )
        with pytest.raises(DatasetError, match="line 4"):
            load_dataset(path)

    def test_unload_before_load_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "# stress_pa=1e7\nsegment,t_s,strain\n"
            "load,0.0,0.01\nload,10.0,0.012\nunload,5.0,0.002\nunload,20.0,0.001\n"
        )
        with pytest.raises(DatasetError, match="unload"):
            load_dataset(path)

    def test_nonmonotone_times_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "# stress_pa=1e7\nsegment,t_s,strain\nload,5.0,0.01\nload,1.0,0.012\n"
        )
        with pytest.raises(DatasetError, match="increasing"):
            load_dataset(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "# stress_pa=1e7\nsegment,t_s,strain\nload,0.0,0.01\nload,abc,0.02\n"
        )
        with pytest.raises(DatasetError, match="line 4"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# stress_pa=1e7\ntime,strain\n0.0,0.01\n")
        with pytest.raises(DatasetError, match="header"):
            load_dataset(path)

    def test_round_trip(self, tmp_path):
        tau = HFPE285.retardation_time()
        ds = make_synthetic_dataset(
            HFPE285, stress=1.935e7, t_load=5 * tau, t_unload=5 * tau,
            noise=0.005, seed=7, temperature_c=285.0,
        )
        path = tmp_path / "round.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        # written with repr, so every sample reads back exactly
        assert np.array_equal(back.t_load, ds.t_load)
        assert np.array_equal(back.eps_load, ds.eps_load)
        assert np.array_equal(back.t_unload, ds.t_unload)
        assert np.array_equal(back.eps_unload, ds.eps_unload)
        assert back.stress == ds.stress
        assert back.temperature_c == 285.0

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "# stress_pa=1e7\nsegment,t_s,strain\nload,0.0,0.01\nload,10.0,0.012\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        a, b = load_dataset(plain), load_dataset(marked)
        assert np.array_equal(a.t_load, b.t_load)
        assert np.array_equal(a.eps_load, b.eps_load)
        assert a.stress == b.stress

    def test_byte_order_mark_keeps_bad_byte_line(self, tmp_path):
        path = tmp_path / "bom.csv"
        # the bad byte opens its line: an offset that skipped the mark would count line 2
        path.write_bytes(b"\xef\xbb\xbf# stress_pa=1e7\nsegment,t_s,strain\n\xffload,0.0,1\n")
        with pytest.raises(DatasetError, match="line 3: not UTF-8 text"):
            load_dataset(path)

    def test_synthetic_generator_is_deterministic(self):
        a = make_synthetic_dataset(HFPE285, 1e7, 1e4, 1e4, noise=0.01, seed=42)
        b = make_synthetic_dataset(HFPE285, 1e7, 1e4, 1e4, noise=0.01, seed=42)
        assert np.array_equal(a.eps_load, b.eps_load)
        assert np.array_equal(a.eps_unload, b.eps_unload)
        c = make_synthetic_dataset(HFPE285, 1e7, 1e4, 1e4, noise=0.01, seed=43)
        assert not np.array_equal(a.eps_load, c.eps_load)


class TestCurveExport:
    def test_segment_markers_and_rounding(self, tmp_path):
        curve = simulate_creep(
            [CreepSegment(1.0e7, 100.0), CreepSegment(0.0, 100.0)], HFPE285
        )
        path = tmp_path / "curve.csv"
        save_curve(curve, path)
        text = path.read_text().splitlines()
        assert text[0] == "t_s,strain"
        assert "# segment 0 stress_pa=10000000.0" in text
        assert "# segment 1 stress_pa=0.0" in text
        # data rows parse back to 9-decimal precision
        row = text[2].split(",")
        assert len(row) == 2
        assert abs(float(row[1]) - curve.epsilon[0]) <= 1e-9

    def test_trajectory_export_columns(self, tmp_path):
        from polyvisc.evolution import relax

        traj = relax(1.01, HFPE285, hold_time=1.0e3)
        path = tmp_path / "traj.csv"
        save_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# pressure_convention=")
        assert lines[1] == "t,eps_axial,T11_pa,detBp,xi_m,identity_residual"
        assert len(lines) == 2 + len(traj)

    def test_trajectory_columns_parse_back_within_written_precision(self, tmp_path):
        from polyvisc.evolution import drive
        from polyvisc.kinematics import ramp_hold

        traj = drive(ramp_hold("uniaxial", 1.02, 50.0, 100.0), HFPE285, np.eye(3))
        path = tmp_path / "traj.csv"
        save_trajectory(traj, path)
        back = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        # (array, rtol, atol) per column, from its format: repr .12e .6e .15f .6e .3e
        columns = (
            (traj.t, 0.0, 0.0),
            (traj.eps_axial, 1e-12, 0.0),
            (traj.t_axial, 1e-6, 0.0),
            (traj.det_bp, 0.0, 1e-15),
            (traj.xi_m, 1e-6, 0.0),
            (traj.identity_residual, 1e-3, 0.0),
        )
        assert back.shape == (len(traj), len(columns))
        for k, (col, rtol, atol) in enumerate(columns):
            np.testing.assert_allclose(back[:, k], col, rtol=rtol, atol=atol)


class TestSvg:
    def test_well_formed_with_one_polyline_per_curve(self):
        load = simulate_creep([CreepSegment(1.0e7, 100.0)], HFPE285)
        unload = simulate_creep([CreepSegment(1.0e7, 100.0), CreepSegment(0.0, 100.0)], HFPE285)
        doc = render_svg([load, unload])
        root = ET.fromstring(doc)
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 2
        labels = [el.text for el in root.findall(f"{ns}text")]
        assert "curve 0" in labels and "curve 1" in labels
        assert "time (s)" in labels and "strain" in labels
        assert root.get("width") == "800" and root.get("height") == "600"

    def test_accepts_creep_curves(self):
        curve = simulate_creep([CreepSegment(1.0e7, 100.0)], HFPE285)
        root = ET.fromstring(render_svg([curve]))
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f"{ns}polyline")) == 1

    def test_constant_zero_curve(self):
        # zero stress from the virgin state stays exactly at zero strain
        zero = simulate_creep([(0.0, 5.0)], HFPE285)
        assert not np.any(zero.epsilon)
        root = ET.fromstring(render_svg([zero]))
        ns = "{http://www.w3.org/2000/svg}"
        poly = root.findall(f"{ns}polyline")[0]
        ys = {p.split(",")[1] for p in poly.get("points").split()}
        assert len(ys) == 1  # one horizontal line

    def test_one_point_per_sample_and_palette_cycles(self):
        curves = [simulate_creep([CreepSegment(1.0e6 * (k + 1), 100.0)], HFPE285)
                  for k in range(7)]
        root = ET.fromstring(render_svg(curves))
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert [len(p.get("points").split()) for p in polylines] == [c.t.size for c in curves]
        colors = [p.get("stroke") for p in polylines]
        assert len(set(colors[:6])) == 6
        assert colors[6] == colors[0]

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            render_svg([])

    def test_save_svg_writes_xml_declaration(self, tmp_path):
        path = tmp_path / "plot.svg"
        save_svg([simulate_creep([CreepSegment(1.0e7, 1.0)], HFPE285)], path)
        content = path.read_text()
        assert content.startswith('<?xml version="1.0"')
        ET.fromstring(content[content.index("<svg"):])


@pytest.fixture(scope="module")
def writers():
    """Each writer, bound to a valid document: ``write(path)``."""
    curve = simulate_creep([CreepSegment(1.0e7, 100.0), CreepSegment(0.0, 100.0)], HFPE285)
    traj = relax(1.01, HFPE285, hold_time=1.0e3)
    ds = make_synthetic_dataset(HFPE285, 1e7, 1e3, 1e3, n_load=5, n_unload=3, noise=0.01)
    return {
        "save_curve": lambda path: save_curve(curve, path),
        "save_svg": lambda path: save_svg([curve], path),
        "save_trajectory": lambda path: save_trajectory(traj, path),
        "save_dataset": lambda path: save_dataset(ds, path),
        "save_json": lambda path: save_json({"b": [1.5, None], "a": "\u03bc"}, path),
    }


WRITERS = ("save_curve", "save_svg", "save_trajectory", "save_dataset", "save_json")


def fresh_bytes(write, tmp_path) -> bytes:
    path = tmp_path / "fresh"
    write(path)
    return path.read_bytes()


class TestOutputFiles:
    """Every writer writes over its path in place, as one document."""

    @pytest.mark.parametrize("name", WRITERS)
    @pytest.mark.parametrize("old_size", [1, 400_000])
    def test_writing_over_a_file_leaves_the_bytes_of_a_fresh_write(
            self, writers, tmp_path, name, old_size):
        path = tmp_path / "over"
        path.write_bytes(b"x" * old_size)
        writers[name](path)
        assert path.read_bytes() == fresh_bytes(writers[name], tmp_path)

    def test_a_shorter_curve_over_a_longer_one(self, tmp_path):
        long = simulate_creep([CreepSegment((-1) ** k * 1.0e7, 100.0) for k in range(8)], HFPE285)
        short = simulate_creep([CreepSegment(1.0e7, 100.0), CreepSegment(0.0, 100.0)], HFPE285)
        path, fresh = tmp_path / "over.csv", tmp_path / "fresh.csv"
        save_curve(long, path)
        save_curve(short, path)
        save_curve(short, fresh)
        assert path.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("name", WRITERS)
    def test_a_hard_link_sees_the_new_bytes(self, writers, tmp_path, name):
        path, link = tmp_path / "out", tmp_path / "link"
        path.write_bytes(b"x" * 100_000)
        os.link(path, link)
        inode = path.stat().st_ino
        writers[name](path)
        assert path.stat().st_ino == inode
        assert link.read_bytes() == fresh_bytes(writers[name], tmp_path)

    @pytest.mark.parametrize("name", WRITERS)
    def test_a_symlink_stays_a_symlink_to_the_updated_target(self, writers, tmp_path, name):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"x" * 100_000)
        link.symlink_to(target)
        writers[name](link)
        assert link.is_symlink()
        assert target.read_bytes() == fresh_bytes(writers[name], tmp_path)

    @pytest.mark.parametrize("name", WRITERS)
    def test_a_new_file_gets_the_mode_open_gives(self, writers, tmp_path, name):
        with open(tmp_path / "reference", "w", encoding="utf-8"):
            pass
        writers[name](tmp_path / "new")
        assert (tmp_path / "new").stat().st_mode == (tmp_path / "reference").stat().st_mode

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_a_fifo_is_written_and_not_truncated(self, writers, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        writers["save_curve"](fifo)
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert received == [fresh_bytes(writers["save_curve"], tmp_path)]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    @pytest.mark.parametrize("write", [
        lambda path: save_svg([], path),
        lambda path: save_json({"a": {1, 2}}, path),  # a set is not JSON
        lambda path: save_curve(SimpleNamespace(samples=(np.zeros((1, 2)), np.zeros((1, 2)))),
                                path),
        lambda path: save_trajectory(SimpleNamespace(pressure_convention="tr T = 0"), path),
        lambda path: save_dataset(SimpleNamespace(stress=None), path),
    ], ids=["save_svg", "save_json", "save_curve", "save_trajectory", "save_dataset"])
    def test_a_writer_that_raises_leaves_the_file_untouched(self, tmp_path, write):
        path = tmp_path / "out"
        path.write_bytes(b"previous output\n")
        with pytest.raises((ValueError, TypeError, AttributeError)):
            write(path)
        assert path.read_bytes() == b"previous output\n"
