"""thermohf benchmark: drives `thermohf.cli.main` in-process and checks its output.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 20 --trace 0

The seed makes the workload's pool of command lines (see workloads.py);
the runner cycles through the pool, one op after the other, until at least
--seconds have passed and the last pass is complete. Every output is
parsed and checked by checks.py. With --trace 0 the run is untraced and
reports the end-to-end metrics; with --trace 1 each op runs once untraced
and once under the per-layer tracer, and the run reports per-layer metrics
and the tracing overhead. A human-readable report comes first; the last
line of stdout is one JSON object with the results.
"""

import os

# Single-threaded baseline: pin the BLAS and OpenMP pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
# Percentile reported as op_s.tail: the highest with at least this many ops beyond it.
TAIL_BEYOND = 10


@dataclass
class Result:
    op: workloads.Op
    wall_s: float
    exit_code: int | None  # None when main raised
    error: str
    verdict: checks.Verdict | None  # None when the op produced no output to check

    @property
    def ok(self) -> bool:
        return self.verdict is not None and not self.verdict.problems


class Runner:
    """Executes ops in-process and keeps one output digest per command line."""

    def __init__(self, cli):
        self.cli = cli
        self.digests: dict = {}
        self.mismatches: list = []

    def execute(self, op: workloads.Op) -> Result:
        out, err = io.StringIO(), io.StringIO()
        error = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not the end of the run
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        text = out.getvalue()
        if not error:
            stderr_lines = err.getvalue().strip().splitlines()
            error = stderr_lines[-1] if stderr_lines else ""
        # Sweeps print nothing on a nonzero exit; verify prints its checks and exits 1.
        produced = code == 0 or (op.model is None and code == 1)
        verdict = checks.check(op, code, text) if produced else None
        if produced:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.setdefault(op.argv, digest) != digest:
                self.mismatches.append(" ".join(op.argv))
        return Result(op, wall, code, error, verdict)


def run_passes(pool, seconds: float, step):
    """Call step(op) for every op of the pool, pass after pass, for >= seconds."""
    start = time.perf_counter()
    while True:
        for op in pool:
            step(op)
        if time.perf_counter() - start >= seconds:
            return


def tail(values):
    """(value, percentile label) of the highest percentile with TAIL_BEYOND ops beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} (fewer than {TAIL_BEYOND + 1} ops)"
    return ordered[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n}"


def measure_setup(workload: str, seed: int) -> float:
    """Median over repeats of a fresh-interpreter import of thermohf.cli plus input generation."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import thermohf.cli"], env=env, cwd=ROOT,
                       check=True)
        workloads.make_pool(workload, seed)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "git": _git_sha(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def report(lines, name, value, unit, note=""):
    lines.append(f"{name:<34} {value:<14.6g} {unit:<6} {note}".rstrip())


def end_to_end(results, setup_s, lines) -> dict:
    done = [r for r in results if r.ok]
    walls = [r.wall_s for r in done]
    if not walls:
        raise RuntimeError("no op completed; nothing to measure")
    rows = sum(r.verdict.rows for r in done)
    op_time = sum(r.wall_s for r in results)
    tail_s, tail_label = tail(walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "points_per_s": (rows / op_time, "1/s", f"{rows} output rows in {op_time:.3f} s of ops"),
        "op_s.p50": (statistics.median(walls), "s", f"median of {len(walls)} completed ops"),
        "op_s.tail": (tail_s, "s", f"{tail_label} completed ops"),
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} fresh imports + input generation"),
        "peak_rss_mb": (rss_mb, "MB", "this process"),
    }
    for name, (value, unit, note) in metrics.items():
        report(lines, name, value, unit, note)
    failed = len(results) - len(done)
    report(lines, "fail_frac", failed / len(results), "ratio", f"{failed}/{len(results)} ops")
    for name, devs in (
        ("hf_dev_max", [r.verdict.hf_dev for r in done if r.verdict.hf_dev is not None]),
        ("ref_dev_max", [r.verdict.ref_dev for r in done if r.verdict.ref_dev is not None]),
    ):
        if devs:
            report(lines, name, max(devs), "ratio",
                   f"over {len(devs)} ops, tolerance {checks.TOLERANCE:g}")
        else:
            lines.append(f"{name:<34} n/a (no op has that route)")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def per_layer(pairs, trace, lines) -> dict:
    """pairs: (untraced result, traced result, per-op tracer counts) of completed ops."""
    op_s = statistics.fmean(t.wall_s for _, t, _ in pairs)
    units = tracer.metric_names()
    metrics = {}
    for name, value in tracer.summarize([c for _, _, c in pairs]).items():
        share = f"{100.0 * value / op_s:5.1f}% of traced op time" if ".self_s" in name else ""
        metrics[name] = (value, units[name], share)
    metrics.update({
        "trace.op_s": (op_s, "s", f"mean traced op wall time over {len(pairs)} ops"),
        "trace.overhead_s": (statistics.fmean(t.wall_s - u.wall_s for u, t, _ in pairs), "s",
                             "mean traced minus untraced wall time per op"),
        "trace.layers_absent": (len(trace.absent), "count", ", ".join(trace.absent)),
    })
    for name, (value, unit, note) in metrics.items():
        report(lines, name, value, unit, note)
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "thermohf" / "cli.py").is_file():
        print(f"error: no thermohf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import thermohf.cli as cli

    lines = [f"thermohf benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    lines.append("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    pool = workloads.make_pool(args.workload, args.seed)
    runner = Runner(cli)
    results = []

    if args.trace:
        trace = tracer.Tracer()
        pairs = []

        def step(op):
            plain = runner.execute(op)
            trace.begin_op()
            trace.install()
            try:
                traced = runner.execute(op)
            finally:
                trace.uninstall()
            results.extend((plain, traced))
            if plain.ok and traced.ok:
                pairs.append((plain, traced, trace.counts))

        run_passes(pool, args.seconds, step)
        metrics = per_layer(pairs, trace, lines)
    else:
        run_passes(pool, args.seconds, lambda op: results.append(runner.execute(op)))
        metrics = end_to_end(results, measure_setup(args.workload, args.seed), lines)

    failed = [r for r in results if not r.ok]
    reasons = Counter(
        f"exit {r.exit_code}: {r.error}" if r.verdict is None else "; ".join(r.verdict.problems)
        for r in failed
    )
    for reason, count in reasons.most_common():
        lines.append(f"failed x{count}: {reason}")
    incorrect = [r for r in results if r.verdict is not None and r.verdict.problems]
    for text in runner.mismatches:
        lines.append(f"output differs between runs of: {text}")
    correct = not incorrect and not runner.mismatches
    lines.append(f"ops attempted={len(results)} failed={len(failed)} correct={correct}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
