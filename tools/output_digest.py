"""One sha256 over the output of a fixed list of `thermohf` invocations and
of the demos.

Usage, from the root of a source checkout:

    python3 tools/output_digest.py [--root CHECKOUT]

Each invocation runs in-process through `thermohf.cli.main`, with the BLAS
and OpenMP pools on one thread, and its argv, exit code, stdout and stderr
go into the digest in order. The list is both benchmark pools at seeds
1-3 (from perfbench/workloads.py), `fig ho|ising|lipkin` as CSV and JSON,
`verify` for every scope, for both oracles past their default sizes and
for the Ising oracle past its cap (exit 2), and a few edge sweeps: two
exit 2, one exits 3, and six reach the float-text kernel's edge cases. After them, each `demos/*_demo.py` has its
`main()` run in-process the same way, its path, return value, stdout and
stderr going into the digest. --root names the checkout whose `src/`,
`perfbench/` and `demos/` are used (default: the one holding this script),
so a change's digest can be compared with its parent's by running this
file once against each checkout. Equal digests mean byte-identical output
and exit codes.

Before the total, one line per invocation gives the first 16 hex digits of
the sha256 of what that invocation put into the total, then its argv (a
demo's path), so diffing the output of two checkouts names the invocations
that moved.
"""

import os

# Pin the BLAS and OpenMP pools before numpy loads, as perfbench/run.py does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shlex  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SEEDS = (1, 2, 3)
POOLS = ("lipkin-sweep", "grid-sweep")
FIXED = [
    *(["fig", model, *fmt] for model in ("ho", "ising", "lipkin")
      for fmt in ([], ["--format", "json"])),
    *(["verify", "--scope", scope] for scope in ("all", "ho", "ising", "lipkin")),
    ["verify", "--scope", "ising", "--N", "16"],
    ["verify", "--scope", "lipkin", "--N", "10"],
    *(["sweep", "--model", "lipkin", "--N", n, "--t-steps", "20"] for n in ("70", "200")),
    ["sweep", "--model", "ho", "--t-max", "26214.4", "--t-steps", "5"],
    # float-text edge cases, each as CSV and JSON: integral and power-of-two
    # T; a zero column that prints -0; T across every fixed/exponent switch
    *([*argv, *fmt] for argv in (
        ["sweep", "--model", "ho", "--t-min", "1", "--t-max", "2", "--t-steps", "2"],
        ["sweep", "--model", "ising", "--J", "0", "--h", "0", "--t-min", "1", "--t-max", "2",
         "--t-steps", "2"],
        ["sweep", "--model", "ising", "--h", "0", "--t-min", "1e-5", "--t-max", "1e20",
         "--t-steps", "7", "--grid", "geometric"],
    ) for fmt in ([], ["--format", "json"])),
    # a t-min whose 1/T overflows is a usage error (exit 2); beta * J
    # overflowing is a numerical error (exit 3)
    ["sweep", "--model", "ho", "--t-min", "1e-310", "--t-max", "1e-300", "--t-steps", "3"],
    ["sweep", "--model", "ising", "--t-min", "5.6e-309", "--t-max", "1", "--t-steps", "3"],
    # a Lipkin N past the model's cap is a usage error (exit 2)
    ["sweep", "--model", "lipkin", "--N", "1041"],
    # so is an oracle size past the oracle's cap
    ["verify", "--scope", "ising", "--N", "21"],
]


def invocations(workloads) -> list[list[str]]:
    pools = [list(op.argv) for name in POOLS for seed in SEEDS
             for op in workloads.make_pool(name, seed)]
    return pools + FIXED


def run(call) -> tuple[object, str, str]:
    """call()'s return value, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = call()
    return result, out.getvalue(), err.getvalue()


def run_demo(path: Path):
    """Load a demo script from its file and return what its main() returns."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to run (default: this script's)")
    root = parser.parse_args().root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from thermohf.cli import main as cli_main

    # (what goes first into the record, the line's label, the call)
    jobs = [(argv, shlex.join(argv), lambda argv=argv: cli_main(argv))
            for argv in invocations(workloads)]
    for path in sorted((root / "demos").glob("*_demo.py")):
        name = path.relative_to(root).as_posix()
        jobs.append((name, name, lambda path=path: run_demo(path)))
    digest = hashlib.sha256()
    for key, label, call in jobs:
        record = json.dumps([key, *run(call)]).encode()
        digest.update(record)
        print(f"{hashlib.sha256(record).hexdigest()[:16]}  {label}")
    print(f"{digest.hexdigest()}  {len(jobs)} invocations of {root}")


if __name__ == "__main__":
    main()
