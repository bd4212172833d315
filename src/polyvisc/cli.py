"""Command-line frontend: simulate, fit, drive, relax, presets, validate.

Units at the CLI follow the published convention: temperatures in degrees
Celsius, stresses in Pa (scientific notation accepted everywhere). Exit
codes: 0 success, 1 usage error, 2 data error, 3 numerical failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

import numpy as np

from . import dataio, evolution, fitting, kinematics, uniaxial, validation
from .dataio import DatasetError
from .material import ConfigError, MaterialParams
from .odesolve import IntegrationError
from .tensors import DomainError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise UsageError(message)


def _checked(cast, check, what: str):
    """An argparse ``type=``: ``cast`` the text, then require ``check`` of the value."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not check(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive = _checked(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
_nonnegative = _checked(float, lambda v: 0.0 <= v < math.inf, "a non-negative finite number")
_finite = _checked(float, math.isfinite, "a finite number")
_unit_interval = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")


def _int_at_least(minimum: int):
    return _checked(int, lambda v: v >= minimum, f"an integer >= {minimum}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="polyvisc",
        description="Finite-strain viscoelastic creep/recovery simulator and fitter "
        "for high-temperature polyimides.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--preset", help="built-in parameter set (see 'presets')")
        p.add_argument("--mu-p", type=float, help="modulus mu_p_bar (Pa)")
        p.add_argument("--mu-g", type=float, help="modulus mu_g_bar (Pa); 0 = fluid limit")
        p.add_argument("--eta", type=float, help="viscosity (Pa*s)")

    sim = sub.add_parser("simulate", help="uniaxial creep/recovery under a stress program")
    add_params(sim)
    sim.add_argument(
        "--segment",
        action="append",
        metavar="STRESS_PA:DURATION_S",
        help="stress program piece; repeatable",
    )
    sim.add_argument("--load-fraction", type=_finite,
                     help="load as a fraction of the preset's UTS")
    sim.add_argument("--t-load", type=_positive, help="load duration (s); default 5*tau")
    sim.add_argument("--t-unload", type=_nonnegative,
                     help="unload duration (s); default 5*tau, 0 = load only")
    sim.add_argument("--out", help="write the strain curve CSV here")
    sim.add_argument("--plot", help="write an SVG plot here")
    sim.add_argument("--strain-measure", choices=uniaxial.STRAIN_MEASURES, default="log")
    sim.add_argument("--export-dataset", help="also write a dataset-format CSV (for fitting)")
    sim.add_argument("--noise", type=_nonnegative, default=0.0,
                     help="relative noise for --export-dataset")
    sim.add_argument("--seed", type=_int_at_least(0), default=0, help="noise seed")
    sim.add_argument("--n-load", type=_int_at_least(2), default=50,
                     help="dataset samples in the load phase")
    sim.add_argument("--n-unload", type=_int_at_least(1), default=20,
                     help="dataset samples in the unload phase")
    sim.add_argument("--temperature-c", type=_finite,
                     help="metadata for exported datasets (deg C)")

    fit = sub.add_parser("fit", help="fit (mu_p_bar, mu_g_bar, eta) to a creep dataset")
    fit.add_argument("--data", required=False, help="dataset CSV (required)")
    fit.add_argument("--weight", type=_unit_interval, default=0.5,
                     help="load-phase weight w in [0,1]")
    fit.add_argument("--init", help="initial guess: preset name or 'MU_P,MU_G,ETA'")
    fit.add_argument("--out", help="write the fit result JSON here")
    fit.add_argument("--holdout", action="append", default=[],
                     help="evaluate the fitted parameters on this dataset; repeatable")
    fit.add_argument("--max-iter", type=_int_at_least(1), default=2000)

    drv = sub.add_parser("drive", help="strain-controlled 3-D evolution (ramp and hold)")
    add_params(drv)
    drv.add_argument("--protocol", choices=("uniaxial", "shear"), default="uniaxial")
    drv.add_argument("--amplitude", type=_finite, required=False,
                     help="target stretch (uniaxial) or shear (shear)")
    drv.add_argument("--ramp-time", type=_positive, help="ramp duration (s); default duration/2")
    drv.add_argument("--duration", type=_positive, help="total duration (s); default 5*tau")
    drv.add_argument("--out", help="write the trajectory CSV here")

    rlx = sub.add_parser("relax", help="stress relaxation at a held stretch")
    add_params(rlx)
    rlx.add_argument("--lambda-hold", type=_positive, required=False, help="held stretch")
    rlx.add_argument("--hold-time", type=_positive, help="hold duration (s); default 5*tau")
    rlx.add_argument("--out", help="write the trajectory CSV here")

    for p in (drv, rlx):  # creep is solved in closed form; only the 3-D drivers integrate
        p.add_argument("--rtol", type=_positive, default=1e-8, help="ODE relative tolerance")

    sub.add_parser("presets", help="list the built-in parameter sets")

    val = sub.add_parser("validate", help="run the invariant suite")
    val.add_argument("--quick", action="store_true", help="sub-second subset")

    return parser


def _resolve_params(args) -> MaterialParams:
    explicit = [args.mu_p, args.mu_g, args.eta]
    if args.preset is not None:
        if any(v is not None for v in explicit):
            raise UsageError("--preset conflicts with --mu-p/--mu-g/--eta")
        try:
            return dataio.get_preset(args.preset).params()
        except KeyError as exc:
            raise UsageError(str(exc)) from None
    if any(v is None for v in explicit):
        raise UsageError("provide --preset or all of --mu-p, --mu-g, --eta")
    return MaterialParams(mu_p_bar=args.mu_p, mu_g_bar=args.mu_g, eta=args.eta)


def _parse_segment(text: str) -> uniaxial.CreepSegment:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"--segment expects STRESS_PA:DURATION_S, got {text!r}")
    try:
        stress, duration = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"--segment values must be numbers, got {text!r}") from None
    try:
        return uniaxial.CreepSegment(stress, duration)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _duration(mp: MaterialParams, given: Optional[float], option: str) -> float:
    """``given``, or the documented default of 5 retardation times."""
    if given is not None:
        return given
    tau = mp.retardation_time()
    if not np.isfinite(tau):
        raise UsageError(f"the Maxwell limit has no retardation time; give {option} explicitly")
    return 5.0 * tau


def _cmd_simulate(args) -> int:
    mp = _resolve_params(args)

    if args.segment and args.load_fraction is not None:
        raise UsageError("--segment conflicts with --load-fraction")
    if args.segment:
        if args.t_load is not None or args.t_unload is not None:
            raise UsageError("--t-load/--t-unload only apply to --load-fraction runs")
        segments = [_parse_segment(s) for s in args.segment]
    else:
        if args.load_fraction is not None:
            if args.preset is None:
                raise UsageError("--load-fraction needs a preset (for its UTS)")
            row = dataio.get_preset(args.preset)
            if row.uts_mpa is None:
                raise UsageError(f"preset {row.name!r} has no UTS on record")
            stress = args.load_fraction * row.uts_mpa * 1e6
        elif args.preset is not None:
            stress = dataio.get_preset(args.preset).fit_load_pa()
        else:
            raise UsageError("give --segment or --load-fraction")
        t_load = _duration(mp, args.t_load, "--t-load")
        t_unload = _duration(mp, args.t_unload, "--t-unload")
        segments = [uniaxial.CreepSegment(stress, t_load)]
        if t_unload > 0.0:
            segments.append(uniaxial.CreepSegment(0.0, t_unload))
    if args.export_dataset and not (
        len(segments) == 1 or (len(segments) == 2 and segments[1].stress == 0.0)
    ):
        raise UsageError("--export-dataset needs a load, optionally followed by a "
                         "zero-stress unload")

    curve = uniaxial.simulate_creep(segments, mp, strain_measure=args.strain_measure)

    print(f"strain(0+) = {curve.epsilon[0]:.7g}")
    print(f"strain(end) = {curve.epsilon[-1]:.7g}")
    for seg in curve.segments:
        print(
            f"segment {seg.index}: stress = {seg.stress:g} Pa over "
            f"[{seg.t_start:g}, {seg.t_end:g}] s, B = {seg.b:.7g}"
        )

    if args.out:
        dataio.save_curve(curve, args.out)
        print(f"curve written to {args.out}")
    if args.plot:
        dataio.save_svg([curve], args.plot)
        print(f"plot written to {args.plot}")
    if args.export_dataset:
        ds = dataio.make_synthetic_dataset(
            mp,
            stress=segments[0].stress,
            t_load=segments[0].duration,
            t_unload=segments[1].duration if len(segments) == 2 else 0.0,
            n_load=args.n_load,
            n_unload=args.n_unload,
            noise=args.noise,
            seed=args.seed,
            temperature_c=args.temperature_c,
        )
        dataio.save_dataset(ds, args.export_dataset)
        print(f"dataset written to {args.export_dataset}")
    return EXIT_OK


def _parse_init(init: Optional[str]) -> tuple:
    if init is None:
        raise UsageError("--init is required (preset name or MU_P,MU_G,ETA)")
    if "," in init:
        parts = init.split(",")
        if len(parts) != 3:
            raise UsageError("--init triple must be MU_P,MU_G,ETA")
        try:
            values = tuple(float(p) for p in parts)
        except ValueError:
            raise UsageError(f"--init values must be numbers, got {init!r}") from None
        if not all(0.0 < v < math.inf for v in values):
            raise UsageError(f"--init values must be positive and finite, got {init!r}")
        return values
    try:
        row = dataio.get_preset(init)
    except KeyError as exc:
        raise UsageError(str(exc)) from None
    return (row.mu_p_bar, row.mu_g_bar, row.eta)


def _cmd_fit(args) -> int:
    if not args.data:
        raise UsageError("--data is required")
    ds = dataio.load_dataset(args.data)
    cfg = fitting.FitConfig(
        weight=args.weight,
        initial=_parse_init(args.init),
        max_iter=args.max_iter,
    )
    result = fitting.fit_dataset(ds, cfg)
    print(f"error = {result.error:.6e} ({'converged' if result.converged else 'NOT converged'}, "
          f"{result.iterations} iterations)")
    print(f"mu_p_bar = {result.params.mu_p_bar:.6e} Pa")
    print(f"mu_g_bar = {result.params.mu_g_bar:.6e} Pa")
    print(f"eta = {result.params.eta:.6e} Pa*s")

    payload = result.to_dict()
    if args.holdout:
        payload["holdout"] = {}
        for path in args.holdout:
            held = dataio.load_dataset(path)
            err = fitting.creep_error(result.params, held, args.weight)
            payload["holdout"][str(path)] = err
            print(f"holdout {path}: error = {err:.6e}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"result written to {args.out}")
    return EXIT_OK


def _cmd_drive(args) -> int:
    mp = _resolve_params(args)
    if args.amplitude is None:
        raise UsageError("--amplitude is required")
    duration = _duration(mp, args.duration, "--duration")
    ramp = args.ramp_time if args.ramp_time is not None else 0.5 * duration
    if not (0.0 < ramp <= duration):
        raise UsageError("--ramp-time must lie in (0, duration]")

    if args.protocol != "shear" and not (args.amplitude > 0.0):
        raise UsageError("uniaxial --amplitude must be a positive stretch")
    protocol = kinematics.ramp_hold(args.protocol, args.amplitude, ramp, duration)

    traj = evolution.drive(protocol, mp, np.eye(3), rtol=args.rtol)
    _print_trajectory_summary(traj)
    if args.out:
        dataio.save_trajectory(traj, args.out)
        print(f"trajectory written to {args.out}")
    return EXIT_OK


def _cmd_relax(args) -> int:
    mp = _resolve_params(args)
    if args.lambda_hold is None:
        raise UsageError("--lambda-hold is required")
    hold = _duration(mp, args.hold_time, "--hold-time")
    traj = evolution.relax(args.lambda_hold, mp, hold, rtol=args.rtol)
    _print_trajectory_summary(traj)
    if args.out:
        dataio.save_trajectory(traj, args.out)
        print(f"trajectory written to {args.out}")
    return EXIT_OK


def _print_trajectory_summary(traj) -> None:
    print(f"samples = {len(traj)}, pressure convention: {traj.pressure_convention}")
    print(f"T_axial(0) = {traj.t_axial[0]:.6e} Pa, T_axial(end) = {traj.t_axial[-1]:.6e} Pa")
    print(f"max |det B_p - 1| = {np.max(np.abs(traj.det_bp - 1.0)):.3e}")
    print(f"max identity residual = {np.max(traj.identity_residual):.3e}")


def _cmd_presets(args) -> int:
    rows = dataio.presets()
    print(f"{'name':<12}{'T (degC)':>9}{'UTS (MPa)':>11}{'mu_p_bar (Pa)':>15}"
          f"{'mu_g_bar (Pa)':>15}{'eta (Pa.s)':>13}{'fit load':>12}")
    for name, r in rows.items():
        uts = f"{r.uts_mpa:g}" if r.uts_mpa is not None else "-"
        if r.load_fraction is not None:
            load = f"{r.load_fraction:g} UTS"
        else:
            load = f"{r.fit_stress_pa:g} Pa"
        print(f"{name:<12}{r.temperature_c:>9g}{uts:>11}{r.mu_p_bar:>15.4g}"
              f"{r.mu_g_bar:>15.4g}{r.eta:>13.4g}{load:>12}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    results = validation.run_validation(quick=args.quick)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    if validation.all_passed(results):
        print("all checks passed")
        return EXIT_OK
    failed = ", ".join(r.name for r in results if not r.passed)
    print(f"failed checks: {failed}", file=sys.stderr)
    return EXIT_VALIDATION


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "drive": _cmd_drive,
    "relax": _cmd_relax,
    "presets": _cmd_presets,
    "validate": _cmd_validate,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, ConfigError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (IntegrationError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
