"""One sha256 over the output of a fixed list of `thermohf` invocations.

Usage, from the root of a source checkout:

    python3 tools/output_digest.py [--root CHECKOUT]

Each invocation runs in-process through `thermohf.cli.main`, with the BLAS
and OpenMP pools on one thread, and its argv, exit code, stdout and stderr
go into the digest in order. The list is both benchmark pools at seeds
1-3 (from perfbench/workloads.py), `fig ho|ising|lipkin` as CSV and JSON,
`verify` for every scope and for both oracles past their default sizes,
and a few edge sweeps: one exits 2, one exits 3, and six reach the
float-text kernel's edge cases. --root names the checkout
whose `src/` and `perfbench/` are imported (default: the one holding this
script), so a change's digest can be compared with its parent's by running
this file once against each checkout. Equal digests mean byte-identical
output and exit codes.

Before the total, one line per invocation gives the first 16 hex digits of
the sha256 of what that invocation put into the total, then its argv, so
diffing the output of two checkouts names the invocations that moved.
"""

import os

# Pin the BLAS and OpenMP pools before numpy loads, as perfbench/run.py does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
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
]


def invocations(workloads) -> list[list[str]]:
    pools = [list(op.argv) for name in POOLS for seed in SEEDS
             for op in workloads.make_pool(name, seed)]
    return pools + FIXED


def run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to run (default: this script's)")
    root = parser.parse_args().root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from thermohf.cli import main as cli_main

    digest = hashlib.sha256()
    argvs = invocations(workloads)
    for argv in argvs:
        code, out, err = run(cli_main, argv)
        record = json.dumps([argv, code, out, err]).encode()
        digest.update(record)
        print(f"{hashlib.sha256(record).hexdigest()[:16]}  {shlex.join(argv)}")
    print(f"{digest.hexdigest()}  {len(argvs)} invocations of {root}")


if __name__ == "__main__":
    main()
