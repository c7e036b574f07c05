"""Command-line front end: temperature sweeps, figure-data presets, verification.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
error. main returns them, argparse's own exits (bad flags, --help) included.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import NamedTuple

import numpy as np

from .models.ho import HarmonicOscillator
from .models.ising import IsingChain
from .models.lipkin import LipkinModel
from .numdiff import DiffConfig
from .sweep import rows_to_csv, rows_to_json, sweep, temperature_grid
from .verify import check_oracle_size, verify_all, verify_ho, verify_ising, verify_lipkin

__all__ = ["main"]

class _Model(NamedTuple):
    """A model the CLI sweeps: its class, the flags it reads mapped to the
    fields they set (in the JSON echo's order), and its grid defaults. A
    flag left out keeps the class's default."""

    cls: type
    fields: dict
    grid: dict


_MODELS = {
    "ho": _Model(HarmonicOscillator, {"t_max": "t_max"},
                 {"t_min": 0.05, "t_max": 20.0, "t_steps": 200, "grid": "linear"}),
    "ising": _Model(IsingChain, {"J": "coupling_j", "h": "field_h", "N": "n_spins"},
                    {"t_min": 0.1, "t_max": 30.0, "t_steps": 200, "grid": "linear"}),
    "lipkin": _Model(LipkinModel, {"N": "n_particles", "epsilon": "epsilon", "V": "v_coupling"},
                     {"t_min": 0.1, "t_max": 100.0, "t_steps": 200, "grid": "geometric"}),
}
# the verify suites by scope; each takes the DiffConfig, ising and lipkin also --N
_SUITES = {"all": verify_all, "ho": verify_ho, "ising": verify_ising, "lipkin": verify_lipkin}
# every model parameter flag, grid keys left out; a model refuses those it does not read
_MODEL_FLAGS = tuple(dict.fromkeys(flag for model in _MODELS.values() for flag in model.fields
                                   if flag not in model.grid))
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


class UsageError(Exception):
    pass


def _read_config_file(path: str) -> list[str]:
    """Flat key/value file as `--key=value` flags; keys are flag names without dashes."""
    flags = []
    try:
        with open(path, encoding="utf-8") as fh:
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
                flags.append(f"--{key.strip()}={val.strip()}")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return flags


def _join_negative_values(argv: list[str]) -> list[str]:
    """A negative number after a flag joined to it, `--J -1e-3` as `--J=-1e-3`:
    argparse takes `-1e-3` for an option string, not for the flag's value."""
    joined = []
    for token in argv:
        if (_NEGATIVE_NUMBER.fullmatch(token) and joined
                and joined[-1].startswith("--") and "=" not in joined[-1]):
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


def _tolerance_override(item: str) -> tuple[str, float]:
    """NAME=VALUE of --tolerance as (NAME, VALUE), split at the last `=` (check
    names hold " = "). A blank NAME, which every check name contains, is refused.
    VALUE is a number >= 0 (inf included): a check passes when its deviation is at most it."""
    name, _, value = item.rpartition("=")
    try:
        tolerance = float(value if name.strip() else "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {item!r}") from None
    if not tolerance >= 0.0:  # also nan
        raise argparse.ArgumentTypeError(f"tolerance must be >= 0, got {item!r}")
    return name, tolerance


def _add_diff_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--lambda-step", type=float, default=DiffConfig.relative_step,
                        help="relative step of the coupling derivatives")
    parser.add_argument("--richardson", type=int, default=DiffConfig.richardson_levels,
                        help="Richardson extrapolation levels (1-5)")


def _add_sweep_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--model", choices=tuple(_MODELS))
    parser.add_argument("--t-min", type=float)
    parser.add_argument("--t-max", type=float)
    parser.add_argument("--t-steps", type=int)
    parser.add_argument("--grid", choices=("linear", "geometric"))
    parser.add_argument("--J", type=float, help="Ising bond coupling")
    parser.add_argument("--h", type=float, help="Ising field strength")
    parser.add_argument("--N", type=int, help="particle / spin count")
    parser.add_argument("--epsilon", type=float, help="Lipkin level splitting")
    parser.add_argument("--V", type=float, help="Lipkin interaction strength")
    _add_diff_flags(parser)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--config", help="flat key/value config file")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first main call and reused:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="thermohf",
        description="Canonical-ensemble sweeps and Hellmann-Feynman checks "
                    "for the oscillator, Ising chain and Lipkin model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="temperature sweep, CSV/JSON output")
    _add_sweep_flags(sweep)

    fig = sub.add_parser("fig", help="sweep with the default figure parameters")
    fig.add_argument("figure", choices=tuple(_MODELS))
    _add_sweep_flags(fig)

    verify = sub.add_parser("verify", help="run the cross-check suites")
    verify.add_argument("--scope", choices=tuple(_SUITES), default="all")
    verify.add_argument("--N", type=int, help="system size for the oracles")
    _add_diff_flags(verify)
    verify.add_argument("--tolerance", action="append", default=[],
                        type=_tolerance_override, metavar="NAME=VALUE",
                        help="override the tolerance of checks whose name "
                             "contains NAME (repeatable)")
    verify.add_argument("--config", help="flat key/value config file")
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Parse the command line; with --config, parse again with the file's
    flags in front of the command line's, so the command line wins."""
    parser = _build_parser()
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    args = parser.parse_args(argv)
    if args.config:
        file_flags = _read_config_file(args.config)
        args, unknown = parser.parse_known_args([args.command, *file_flags, *argv[1:]])
        for flag in file_flags:
            key = flag[2:].partition("=")[0]
            # the command line alone parsed cleanly, so an unknown flag is the
            # file's; a key that argparse took for a prefix of a flag is no dest
            if flag in unknown or key.replace("-", "_") not in vars(args):
                raise UsageError(f"{args.config}: {key!r} is not a {args.command} setting")
    return args


def _run_sweep(args) -> int:
    name = getattr(args, "figure", None) or args.model
    if name is None:
        raise UsageError("--model is required (ho, ising or lipkin)")
    if args.model not in (None, name):
        raise UsageError(f"fig {name} draws the {name} model, not --model {args.model}")
    entry = _MODELS[name]
    unread = [flag for flag in _MODEL_FLAGS
              if getattr(args, flag) is not None and flag not in entry.fields]
    if unread:
        raise UsageError(f"the {name} model does not read {', '.join(unread)}")
    for key, value in entry.grid.items():
        if getattr(args, key) is None:
            setattr(args, key, value)

    echo = {"model": name, "t_min": args.t_min, "t_max": args.t_max,
            "t_steps": args.t_steps, "grid": args.grid,
            "lambda_step": args.lambda_step, "richardson": args.richardson}
    try:
        config = DiffConfig(args.lambda_step, args.richardson)
        t_grid = temperature_grid(args.t_min, args.t_max, args.t_steps, args.grid)
        params = {field: getattr(args, flag) for flag, field in entry.fields.items()
                  if getattr(args, flag) is not None}
        backend = entry.cls(**params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    echo.update({flag: getattr(backend, field) for flag, field in entry.fields.items()})
    rows = sweep(backend, t_grid, config)

    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows, echo)
    _write(text, args.out)
    return 0


def _write(text: str, path: str | None = None) -> None:
    """Write text to the file at path, else to the current sys.stdout, flushed."""
    try:
        if path:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _run_verify(args) -> int:
    try:
        config = DiffConfig(args.lambda_step, args.richardson)
        if args.N is not None:
            if args.scope not in ("ising", "lipkin"):
                raise UsageError(f"--N sets the oracle size of scope ising or lipkin, "
                                 f"not of scope {args.scope}")
            check_oracle_size(args.scope, args.N)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    checks = _SUITES[args.scope](config, *(() if args.N is None else (args.N,)))
    for key, _ in args.tolerance:
        if not any(key in check.name for check in checks):
            raise UsageError(f"--tolerance {key}: no check of scope {args.scope} "
                             f"has it in its name")

    color = _use_color()
    lines = []
    n_passed = 0
    for check in checks:
        tolerance = check.tolerance
        for key, val in args.tolerance:
            if key in check.name:
                tolerance = val
        passed = check.deviation <= tolerance
        n_passed += passed
        tag = "PASS" if passed else "FAIL"
        if color:
            tag = f"\033[32m{tag}\033[0m" if passed else f"\033[31m{tag}\033[0m"
        lines.append(f"{tag}  {check.name}: deviation {check.deviation:.3e} "
                     f"(tolerance {tolerance:.3e})\n")
    lines.append(f"{n_passed}/{len(checks)} checks passed\n")
    _write("".join(lines))
    return 0 if n_passed == len(checks) else 1


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        # numpy overflow and invalid operations must stop the run, as the
        # math module's errors do, rather than print warnings and go on
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command in ("sweep", "fig"):
                return _run_sweep(args)
            return _run_verify(args)
    except SystemExit as exc:  # argparse: 2 for bad flags, 0 after --help
        return exc.code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
