"""Dataset ingestion, built-in parameter presets, and result emission.

Dataset CSV format (UTF-8, SI units):

    # stress_pa=1.0e7
    # temperature_c=288
    segment,t_s,strain
    load,0.0,0.0088260
    ...
    unload,70000.0,0.0021255

Optional metadata lines: ``# t_unload_s=<v>`` (when the stress removal time
is not the last load stamp; it must lie between the last load stamp and the
first unload stamp) and ``# provenance=<text>``. Other comment
lines are ignored.

The presets bundle the published best-fit parameter sets for HFPE-II-52 at
four temperatures and PMR-15 at 288 C; experimental raw curves are not
redistributable, so a synthetic-dataset generator (simulator plus seeded
multiplicative noise) stands in for them in tests and examples.
"""

from __future__ import annotations

import codecs
import io
import json
import math
import os
import stat
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .fitting import ExperimentalDataset
from .material import MaterialParams
from .uniaxial import CreepCurve, CreepSegment, simulate_creep


class DatasetError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


@dataclass(frozen=True)
class PresetRow:
    """One published parameter set."""

    name: str
    temperature_c: float
    mu_p_bar: float  # Pa
    mu_g_bar: float  # Pa
    eta: float  # Pa*s
    uts_mpa: Optional[float] = None
    load_fraction: Optional[float] = None  # fraction of UTS used for the fit
    fit_stress_pa: Optional[float] = None  # absolute load when UTS is unknown

    def params(self) -> MaterialParams:
        return MaterialParams(self.mu_p_bar, self.mu_g_bar, self.eta)

    def fit_load_pa(self) -> float:
        """Stress level of the dataset the parameters were fitted to."""
        if self.fit_stress_pa is not None:
            return self.fit_stress_pa
        return self.load_fraction * self.uts_mpa * 1e6


_PRESETS = {
    "hfpe285": PresetRow("hfpe285", 285.0, 4.79e8, 1.43e9, 3.95e13,
                         uts_mpa=43.0, load_fraction=0.45),
    "hfpe300": PresetRow("hfpe300", 300.0, 4.12e8, 0.51e9, 2.23e13,
                         uts_mpa=40.2, load_fraction=0.45),
    "hfpe315": PresetRow("hfpe315", 315.0, 4.19e8, 0.79e9, 4.04e13,
                         uts_mpa=36.3, load_fraction=0.30),
    "hfpe330": PresetRow("hfpe330", 330.0, 5.07e8, 0.79e9, 3.19e13,
                         uts_mpa=23.8, load_fraction=0.20),
    "pmr15_288": PresetRow("pmr15_288", 288.0, 3.76e8, 4.42e8, 6.22e12,
                           fit_stress_pa=1.0e7),
}


def presets() -> dict:
    """All built-in parameter presets, keyed by name."""
    return dict(_PRESETS)


def get_preset(name: str) -> PresetRow:
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        ) from None


# --------------------------------------------------------------------------
# dataset CSV


def load_dataset(path) -> ExperimentalDataset:
    """Parse a dataset CSV; raises DatasetError with a line number on bad input."""
    stress = None
    temperature_c = None
    unload_start = None
    provenance = ""
    header_seen = False
    t_load: List[float] = []
    eps_load: List[float] = []
    t_unload: List[float] = []
    eps_unload: List[float] = []

    with _read_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    key = key.strip()
                    value = value.strip()
                    if key == "stress_pa":
                        stress = _parse_number(value, lineno, "stress_pa")
                    elif key == "temperature_c":
                        temperature_c = _parse_number(value, lineno, "temperature_c")
                    elif key == "t_unload_s":
                        unload_start = _parse_number(value, lineno, "t_unload_s")
                    elif key == "provenance":
                        provenance = value
                continue
            fields = [f.strip() for f in line.split(",")]
            if not header_seen:
                if fields != ["segment", "t_s", "strain"]:
                    raise DatasetError(
                        f"line {lineno}: expected header 'segment,t_s,strain', got {line!r}"
                    )
                header_seen = True
                continue
            if len(fields) != 3:
                raise DatasetError(f"line {lineno}: expected 3 fields, got {len(fields)}")
            seg, t_str, e_str = fields
            t = _parse_number(t_str, lineno, "t_s")
            e = _parse_number(e_str, lineno, "strain")
            if seg == "load":
                if t_unload:
                    raise DatasetError(
                        f"line {lineno}: load sample after the unload phase began"
                    )
                if t_load and t <= t_load[-1]:
                    raise DatasetError(f"line {lineno}: load times must be strictly increasing")
                t_load.append(t)
                eps_load.append(e)
            elif seg == "unload":
                if t_load and t < t_load[-1]:
                    raise DatasetError(
                        f"line {lineno}: unload time precedes the end of the load phase"
                    )
                if t_unload and t <= t_unload[-1]:
                    raise DatasetError(f"line {lineno}: unload times must be strictly increasing")
                t_unload.append(t)
                eps_unload.append(e)
            else:
                raise DatasetError(f"line {lineno}: unknown segment label {seg!r}")

    if not header_seen:
        raise DatasetError("line 1: missing header 'segment,t_s,strain'")
    if stress is None:
        raise DatasetError("line 1: missing '# stress_pa=<value>' metadata")
    try:
        return ExperimentalDataset(
            t_load=np.array(t_load),
            eps_load=np.array(eps_load),
            t_unload=np.array(t_unload),
            eps_unload=np.array(eps_unload),
            stress=stress,
            temperature_c=temperature_c,
            provenance=provenance or str(path),
            unload_start=unload_start,
        )
    except ValueError as exc:
        raise DatasetError(str(exc)) from exc


def _read_utf8(path) -> io.StringIO:
    """The file's text, newlines translated as ``open`` would and a leading
    byte-order mark dropped; raises DatasetError on bytes that are not UTF-8."""
    with open(path, "rb") as fh:
        # a leading byte-order mark is dropped from the bytes, not by "utf-8-sig",
        # whose error offsets would not index ``data``
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DatasetError(f"line {lineno}: not UTF-8 text") from None


def _parse_number(s: str, lineno: int, what: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise DatasetError(f"line {lineno}: {what} is not a number: {s!r}") from None
    if not math.isfinite(v):
        raise DatasetError(f"line {lineno}: {what} must be finite")
    return v


def save_dataset(ds: ExperimentalDataset, path) -> None:
    lines = [f"# stress_pa={float(ds.stress)!r}\n"]
    if ds.temperature_c is not None:
        lines.append(f"# temperature_c={float(ds.temperature_c)!r}\n")
    if ds.unload_start is not None:
        lines.append(f"# t_unload_s={float(ds.unload_start)!r}\n")
    if ds.provenance:
        lines.append(f"# provenance={ds.provenance}\n")
    lines.append("segment,t_s,strain\n")
    # full precision: fits treat these as exact observations
    lines += (f"load,{t!r},{e!r}\n" for t, e in zip(ds.t_load.tolist(), ds.eps_load.tolist()))
    lines += (f"unload,{t!r},{e!r}\n"
              for t, e in zip(ds.t_unload.tolist(), ds.eps_unload.tolist()))
    _write_text(path, "".join(lines))


def save_json(payload, path) -> None:
    """Write a JSON document, indented and with sorted keys."""
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path`` in place; every writer ends here.

    ``path`` is opened as ``open(path, "w")`` opens it but without O_TRUNC, and
    a regular file still longer than ``text`` is then shortened to it. ext4
    (``auto_da_alloc``) flushes a file truncated to zero and rewritten when it
    is closed, about 100 us; in place it does not. A FIFO or device is never
    truncated. Nothing is fsynced.
    """
    with open(path, "w", encoding="utf-8", opener=_open_without_truncation) as fh:
        fh.write(text)
        fh.flush()
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size > fh.tell():
            fh.truncate()


def _open_without_truncation(path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


# --------------------------------------------------------------------------
# curve / trajectory CSV


def save_curve(curve: CreepCurve, path) -> None:
    """Write a strain curve with one comment marker per stress segment.

    Each segment is written on its row of ``curve.samples``, both ends
    included, so a boundary time appears twice: pre-jump, then post-jump.
    ``t_s`` is written with ``repr``, so it parses back exactly.
    """
    ts, eps = curve.samples
    lines = ["t_s,strain\n"]
    for seg, t_row, e_row in zip(curve.segments, ts.tolist(), eps.tolist()):
        lines.append(f"# segment {seg.index} stress_pa={seg.stress!r}\n")
        lines += (f"{t!r},{e:.9f}\n" for t, e in zip(t_row, e_row))
    _write_text(path, "".join(lines))


def save_trajectory(traj, path) -> None:
    lines = [f"# pressure_convention={traj.pressure_convention}\n",
             "t,eps_axial,T11_pa,detBp,xi_m,identity_residual\n"]
    cols = (traj.t, traj.eps_axial, traj.t_axial, traj.det_bp, traj.xi_m,
            traj.identity_residual)
    lines += (f"{t!r},{e:.12e},{s:.6e},{d:.15f},{x:.6e},{r:.3e}\n"
              for t, e, s, d, x, r in zip(*(c.tolist() for c in cols)))
    _write_text(path, "".join(lines))


# --------------------------------------------------------------------------
# synthetic data


def make_synthetic_dataset(
    mp: MaterialParams,
    stress: float,
    t_load: float,
    t_unload: float = 0.0,
    n_load: int = 50,
    n_unload: int = 20,
    noise: float = 0.0,
    seed: int = 0,
    temperature_c: Optional[float] = None,
) -> ExperimentalDataset:
    """Sample a simulated creep/recovery curve, optionally with noise.

    Noise is multiplicative Gaussian (relative standard deviation ``noise``)
    with a fixed seed so generated datasets are reproducible. The fitting
    objective evaluates the same closed-form solution, so a zero-noise
    dataset is an exact fixed point of the fit.
    """
    segments = [CreepSegment(stress, t_load)]
    if t_unload > 0.0:
        segments.append(CreepSegment(0.0, t_unload))
    curve = simulate_creep(segments, mp)

    ts_load = np.linspace(0.0, t_load, n_load)
    if t_unload > 0.0:
        ts_unload = np.linspace(t_load, t_load + t_unload, n_unload + 1)[1:]
        eps_load, eps_unload = curve.strains_in_segments([ts_load, ts_unload])
    else:
        ts_unload = np.array([])
        (eps_load,) = curve.strains_in_segments([ts_load])
        eps_unload = np.array([])

    if noise > 0.0:
        rng = np.random.default_rng(seed)
        eps_load = eps_load * (1.0 + noise * rng.standard_normal(eps_load.size))
        if eps_unload.size:
            eps_unload = eps_unload * (1.0 + noise * rng.standard_normal(eps_unload.size))

    return ExperimentalDataset(
        t_load=ts_load,
        eps_load=eps_load,
        t_unload=ts_unload,
        eps_unload=eps_unload,
        stress=stress,
        temperature_c=temperature_c,
        provenance=f"synthetic(seed={seed}, noise={noise})",
    )


# --------------------------------------------------------------------------
# SVG rendering

_SVG_W = 800
_SVG_H = 600
_MARGIN_FRACTION = 0.05
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_svg(curves: Sequence[CreepCurve]) -> str:
    """Render strain-vs-time curves as a standalone 800x600 SVG document.

    Axes are linear and auto-scaled with a 5 percent margin, one polyline
    per curve, legend "curve 0", "curve 1", ...
    """
    if not curves:
        raise ValueError("render_svg needs at least one curve")

    all_t = np.concatenate([c.t for c in curves])
    all_e = np.concatenate([c.epsilon for c in curves])
    t_lo, t_hi = float(np.min(all_t)), float(np.max(all_t))
    e_lo, e_hi = float(np.min(all_e)), float(np.max(all_e))
    t_pad = (t_hi - t_lo) * _MARGIN_FRACTION or 1.0
    e_pad = (e_hi - e_lo) * _MARGIN_FRACTION or max(abs(e_hi), 1e-6) * _MARGIN_FRACTION
    t_lo, t_hi = t_lo - t_pad, t_hi + t_pad
    e_lo, e_hi = e_lo - e_pad, e_hi + e_pad

    # plot area inside fixed pixel margins for the axis labels
    px0, px1 = 70.0, _SVG_W - 20.0
    py0, py1 = _SVG_H - 50.0, 20.0  # y axis points up

    def to_px(t, e):
        x = px0 + (t - t_lo) / (t_hi - t_lo) * (px1 - px0)
        y = py0 + (e - e_lo) / (e_hi - e_lo) * (py1 - py0)
        return x, y

    # every value is a number or fixed ASCII text, so nothing needs escaping
    mid_y = 0.5 * (py0 + py1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white" />',
        # axes
        f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="black" stroke-width="1" />',
        f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="black" stroke-width="1" />',
        f'<text x="{0.5 * (px0 + px1)}" y="{_SVG_H - 12}" fill="black" '
        'text-anchor="middle">time (s)</text>',
        f'<text x="18" y="{mid_y}" fill="black" text-anchor="middle" '
        f'transform="rotate(-90 18 {mid_y})">strain</text>',
    ]
    # range annotations at the axis ends; attribute order is part of the output's
    # bytes, and a tick names its fixed coordinate first
    for t_val, anchor in ((t_lo, "start"), (t_hi, "end")):
        parts.append(f'<text y="{py0 + 16}" fill="black" x="{to_px(t_val, e_lo)[0]}" '
                     f'text-anchor="{anchor}" font-size="11">{t_val:.4g}</text>')
    for e_val in (e_lo, e_hi):
        parts.append(f'<text x="{px0 - 6}" fill="black" y="{to_px(t_lo, e_val)[1] + 4}" '
                     f'text-anchor="end" font-size="11">{e_val:.4g}</text>')

    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        xs, ys = to_px(curve.t, curve.epsilon)  # elementwise, in the scalar operation order
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))
        ly = 30 + 18 * i
        parts += [
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}" />',
            # legend entry
            f'<line x1="{px1 - 150}" y1="{ly}" x2="{px1 - 120}" y2="{ly}" stroke="{color}" />',
            f'<text x="{px1 - 112}" y="{ly + 4}" fill="black" font-size="12">curve {i}</text>',
        ]
    parts.append("</svg>")
    return "".join(parts)


def save_svg(curves: Sequence[CreepCurve], path) -> None:
    _write_text(path, f'<?xml version="1.0" encoding="UTF-8"?>\n{render_svg(curves)}\n')
