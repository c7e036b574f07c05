"""Command-line front end: temperature sweeps, figure-data presets, verification.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
error. main returns them, argparse's own exits (bad flags, --help) included.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .models.ho import HarmonicOscillator, truncation_level
from .models.ising import IsingChain
from .models.lipkin import LipkinModel
from .numdiff import DiffConfig
from .sweep import rows_to_csv, rows_to_json, sweep, temperature_grid
from .verify import verify_all, verify_ho, verify_ising, verify_lipkin

__all__ = ["main"]

_MODEL_DEFAULTS = {
    "ho": {"t-min": 0.05, "t-max": 20.0, "t-steps": 200, "grid": "linear"},
    "ising": {"t-min": 0.1, "t-max": 30.0, "t-steps": 200, "grid": "linear",
              "J": 2.0, "h": 1.0, "N": 10},
    "lipkin": {"t-min": 0.1, "t-max": 100.0, "t-steps": 200, "grid": "geometric",
               "N": 10, "epsilon": 1.0, "V": 3.0},
}


class UsageError(Exception):
    pass


def _read_config_file(path: str) -> dict:
    """Flat key/value file; keys are the flag names without leading dashes."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" in line:
                    key, _, val = line.partition("=")
                else:
                    parts = line.split(None, 1)
                    if len(parts) != 2:
                        raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                    key, val = parts
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return values


def _resolve(flag_value, file_values: dict, key: str, default, cast):
    """Flags override config-file values override per-model defaults."""
    if flag_value is not None:
        return flag_value
    if key in file_values:
        try:
            return cast(file_values[key])
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc
    return default


def _add_sweep_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--model", choices=("ho", "ising", "lipkin"))
    parser.add_argument("--t-min", type=float)
    parser.add_argument("--t-max", type=float)
    parser.add_argument("--t-steps", type=int)
    parser.add_argument("--grid", choices=("linear", "geometric"))
    parser.add_argument("--J", type=float, help="Ising bond coupling")
    parser.add_argument("--h", type=float, help="Ising field strength")
    parser.add_argument("--N", type=int, help="particle / spin count")
    parser.add_argument("--epsilon", type=float, help="Lipkin level splitting")
    parser.add_argument("--V", type=float, help="Lipkin interaction strength")
    parser.add_argument("--lambda-step", type=float,
                        help="relative step of the coupling derivatives")
    parser.add_argument("--richardson", type=int,
                        help="Richardson extrapolation levels (1-5)")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--config", help="flat key/value config file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermohf",
        description="Canonical-ensemble sweeps and Hellmann-Feynman checks "
                    "for the oscillator, Ising chain and Lipkin model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="temperature sweep, CSV/JSON output")
    _add_sweep_flags(sweep)

    fig = sub.add_parser("fig", help="sweep with the default figure parameters")
    fig.add_argument("figure", choices=("ho", "ising", "lipkin"))
    _add_sweep_flags(fig)

    verify = sub.add_parser("verify", help="run the cross-check suites")
    verify.add_argument("--scope", choices=("all", "ho", "ising", "lipkin"),
                        default="all")
    verify.add_argument("--N", type=int, help="system size for the oracles")
    verify.add_argument("--lambda-step", type=float)
    verify.add_argument("--richardson", type=int)
    verify.add_argument("--tolerance", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="override the tolerance of checks whose name "
                             "contains NAME (repeatable)")
    verify.add_argument("--config", help="flat key/value config file")
    return parser


def _diff_config(args, file_values) -> DiffConfig:
    step = _resolve(args.lambda_step, file_values, "lambda-step", 1e-5, float)
    levels = _resolve(args.richardson, file_values, "richardson", 2, int)
    return DiffConfig(relative_step=step, richardson_levels=levels)


def _run_sweep(args) -> int:
    file_values = _read_config_file(args.config) if args.config else {}
    model = getattr(args, "figure", None) or _resolve(
        args.model, file_values, "model", None, str
    )
    if model not in _MODEL_DEFAULTS:
        raise UsageError("--model is required (ho, ising or lipkin)")
    defaults = _MODEL_DEFAULTS[model]

    t_min = _resolve(args.t_min, file_values, "t-min", defaults["t-min"], float)
    t_max = _resolve(args.t_max, file_values, "t-max", defaults["t-max"], float)
    t_steps = _resolve(args.t_steps, file_values, "t-steps", defaults["t-steps"], int)
    grid_kind = _resolve(args.grid, file_values, "grid", defaults["grid"], str)
    out_format = _resolve(args.format, file_values, "format", "csv", str)
    out_path = _resolve(args.out, file_values, "out", None, str)
    try:
        config = _diff_config(args, file_values)
        t_grid = temperature_grid(t_min, t_max, t_steps, grid_kind)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    echo = {"model": model, "t_min": t_min, "t_max": t_max, "t_steps": t_steps,
            "grid": grid_kind, "lambda_step": config.relative_step,
            "richardson": config.richardson_levels}
    if model == "ho":
        backend = HarmonicOscillator(n_max=truncation_level(float(t_grid.max())))
    elif model == "ising":
        backend = IsingChain(
            coupling_j=_resolve(args.J, file_values, "J", defaults["J"], float),
            field_h=_resolve(args.h, file_values, "h", defaults["h"], float),
            n_spins=_resolve(args.N, file_values, "N", defaults["N"], int),
        )
        echo.update({"J": backend.coupling_j, "h": backend.field_h, "N": backend.n_spins})
    else:
        backend = LipkinModel(
            n_particles=_resolve(args.N, file_values, "N", defaults["N"], int),
            epsilon=_resolve(args.epsilon, file_values, "epsilon",
                             defaults["epsilon"], float),
            v_coupling=_resolve(args.V, file_values, "V", defaults["V"], float),
        )
        echo.update({"N": backend.n_particles, "epsilon": backend.epsilon,
                     "V": backend.v_coupling})
    rows = sweep(backend, t_grid, config)

    text = rows_to_csv(rows) if out_format == "csv" else rows_to_json(rows, echo)
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _run_verify(args) -> int:
    file_values = _read_config_file(args.config) if args.config else {}
    try:
        config = _diff_config(args, file_values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    overrides = []
    for item in args.tolerance:
        key, sep, val = item.partition("=")
        if not sep:
            raise UsageError(f"--tolerance expects NAME=VALUE, got {item!r}")
        try:
            overrides.append((key, float(val)))
        except ValueError as exc:
            raise UsageError(f"--tolerance {item!r}: {exc}") from exc

    if args.scope == "ho":
        checks = verify_ho(config)
    elif args.scope == "ising":
        kwargs = {"config": config}
        if args.N is not None:
            kwargs["n_spins"] = args.N
        checks = verify_ising(**kwargs)
    elif args.scope == "lipkin":
        kwargs = {"config": config}
        if args.N is not None:
            kwargs["n_oracle"] = args.N
        checks = verify_lipkin(**kwargs)
    else:
        checks = verify_all(config)

    color = _use_color()
    n_passed = 0
    for check in checks:
        tolerance = check.tolerance
        for key, val in overrides:
            if key in check.name:
                tolerance = val
        passed = check.deviation <= tolerance
        n_passed += passed
        tag = "PASS" if passed else "FAIL"
        if color:
            tag = f"\033[32m{tag}\033[0m" if passed else f"\033[31m{tag}\033[0m"
        print(f"{tag}  {check.name}: deviation {check.deviation:.3e} "
              f"(tolerance {tolerance:.3e})")
    print(f"{n_passed}/{len(checks)} checks passed")
    return 0 if n_passed == len(checks) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 for bad flags, 0 after --help
        return exc.code
    try:
        # numpy overflow and invalid operations must stop the run, as the
        # math module's errors do, rather than print warnings and go on
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command in ("sweep", "fig"):
                return _run_sweep(args)
            return _run_verify(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
