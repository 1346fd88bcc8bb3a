"""Benchmark of the recmeasure CLI.

    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Load model: a closed loop with one client.  The workload's ops (see
workloads.py) run one at a time in a fixed order, each in a fresh
``python -m recmeasure.cli`` process, and the op list repeats while another
pass fits in ``--seconds``.  Every op's exit status and stdout SHA-256 is
checked against the pinned digest or the independent reference.  Times are
scaled to a reference speed with calibrate.py (see CALIBRATION below).

With ``--trace 1`` the op list instead runs in-process, alternating an
untraced pass with a pass traced by tracing.py, and the per-layer metrics
are reported.  Every run makes at least one pass.

Human-readable lines come first.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
status is 0 when every op was correct, 1 when some op failed its check, and
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

# A child's ru_maxrss starts from its parent's peak, so this process keeps
# its footprint below any op's.  hashlib would load OpenSSL and add 3.5 MB;
# the interpreter's own SHA-256 adds almost nothing.
try:
    from _sha256 import sha256  # CPython up to 3.11
except ImportError:
    from _sha2 import sha256  # CPython 3.12 and later

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
SPANS_DIR = ROOT / ".bench_out"

# The fresh-process no-op timed for setup_s, and its exact stdout.
NOOP = ("codec", "--num", "-")
NOOP_STDOUT = b"num(-): 0\n"
# An op that runs longer than this counts as failed.
OP_TIMEOUT_S = 120
# Fresh-process no-ops, and calibration runs, timed before each pass.
SETUP_RUNS_PER_PASS = 3
# The host's speed drifts by up to a third over tens of seconds, far more
# than any one run can average out, so times are scaled to a reference
# speed: each is multiplied by CALIBRATION_REFERENCE_S over the run's median
# time of calibrate.py, a fixed script that never imports recmeasure.
CALIBRATION = [sys.executable, str(BENCH / "calibrate.py")]
# A round number near calibrate.py's median, 0.08 to 0.11 s, on a 2-vCPU
# Xeon VM at 2.1 GHz with CPython 3.11.7
CALIBRATION_REFERENCE_S = 0.1

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@contextmanager
def scratch_dir():
    """A fresh directory under SCRATCH, removed with SCRATCH when done."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()


def command(argv, script: bool) -> list[str]:
    if script:
        return [sys.executable, str(BENCH / "functional_validate.py"), *argv]
    return [sys.executable, "-m", "recmeasure.cli", *argv]


def digest(status: int, stdout: bytes) -> list:
    return [status, sha256(stdout).hexdigest()]


def run_fresh(cmd: list[str], env: dict, scratch: Path):
    """Run one command to completion.

    Returns (seconds, [exit status, stdout SHA-256], maxrss KB).  stdout goes
    to a file and is hashed in chunks, so the caller's footprint stays small.
    """
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    sha = sha256()
    with open(out_path, "rb") as out:
        for chunk in iter(lambda: out.read(1 << 16), b""):
            sha.update(chunk)
    return elapsed, [proc.returncode, sha.hexdigest()], usage.ru_maxrss


def prepare(workload: str, seed: int, scratch: Path) -> tuple[list, dict]:
    """Ops and expected outcomes, generated by workloads.py in a child.

    This process never holds the generated data, so that its peak stays
    below every op's (see the sha256 import).
    """
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), workload, str(seed), str(scratch)],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"workloads.py failed: {proc.stderr.strip()}")
    ops = json.loads(proc.stdout)
    return ops, {op["name"]: op["expected"] for op in ops}


def another_pass_fits(start: float, passes: list[float], seconds: float) -> bool:
    """Whether a pass of the median length still ends within ``seconds``."""
    return time.perf_counter() - start + statistics.median(passes) <= seconds


class Checker:
    """Counts attempted and failed ops; reports each failure on stderr."""

    def __init__(self, expected: dict[str, list]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, got: list, want=None) -> None:
        """Compare [exit status, stdout SHA-256] with the expected pair."""
        self.attempted += 1
        want = self.expected[name] if want is None else want
        if got != want:
            self.failed += 1
            print(f"FAILED {name}: exit {got[0]} sha256 {got[1][:16]}, "
                  f"expected exit {want[0]} sha256 {want[1][:16]}", file=sys.stderr)


def run_end_to_end(ops, checker: Checker, seconds: float, scratch: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    noop = command(NOOP, False)
    noop_want = digest(0, NOOP_STDOUT)
    # untimed warm-up: compiles the package's bytecode once
    checker.check("noop", run_fresh(noop, env, scratch)[1], noop_want)

    setup, calibration, times, peak_kb = [], [], {op["name"]: [] for op in ops}, 0
    start, passes = time.perf_counter(), []
    while True:
        pass_start = time.perf_counter()
        for _ in range(SETUP_RUNS_PER_PASS):
            elapsed, got, _ = run_fresh(noop, env, scratch)
            checker.check("noop", got, noop_want)
            setup.append(elapsed)
            elapsed, got, _ = run_fresh(CALIBRATION, env, scratch)
            if got[0] != 0:
                raise BenchError("calibrate.py failed")
            calibration.append(elapsed)
        for op in ops:
            elapsed, got, maxrss = run_fresh(command(op["argv"], op["script"]), env, scratch)
            checker.check(op["name"], got)
            times[op["name"]].append(elapsed)
            peak_kb = max(peak_kb, maxrss)
        passes.append(time.perf_counter() - pass_start)
        if not another_pass_fits(start, passes, seconds):
            break
    for name, t in times.items():
        print(f"  {name:24s} median {statistics.median(t):.4f} s, "
              f"min {min(t):.4f}, max {max(t):.4f}")
    # each op's median over the passes, summed over the op list
    wall = sum(statistics.median(t) for t in times.values())
    speed = CALIBRATION_REFERENCE_S / statistics.median(calibration)
    print(f"passes {len(passes)}, setup samples {len(setup)}, "
          f"calibration median {statistics.median(calibration):.4f} s")
    print(f"unscaled wall {wall:.4f} s, setup {statistics.median(setup):.4f} s; "
          f"speed factor {speed:.4f}")
    return {
        "wall_s": wall * speed,
        "setup_s": statistics.median(setup) * speed,
        "peak_rss_mb": peak_kb / 1024,
    }


def run_traced(ops, checker: Checker, seconds: float, spans_path: Path) -> dict:
    sys.path.insert(0, str(SRC))
    from recmeasure import cli

    import functional_validate
    import tracing

    def run_in_process(op) -> tuple[list, int]:
        """[exit status, stdout SHA-256] and the stdout size of one op."""
        entry = functional_validate.main if op["script"] else cli.main
        buf = io.StringIO()
        with redirect_stdout(buf):
            try:
                status = entry(list(op["argv"]))
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 2
        stdout = buf.getvalue().encode()
        return digest(status, stdout), len(stdout)

    untraced, traced, per_pass, spans, pairs = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for op in ops:
            checker.check(op["name"], run_in_process(op)[0])
        untraced.append(time.perf_counter() - t0)

        tracer = tracing.Tracer()
        tracer.install()
        stdout_bytes = 0
        try:
            t0 = time.perf_counter()
            for op in ops:
                tracer.op = op["name"]
                got, size = run_in_process(op)
                stdout_bytes += size
                checker.check(op["name"], got)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        per_pass.append(tracer.metrics(stdout_bytes))
        spans.append(tracer.dump())
        pairs.append(untraced[-1] + traced[-1])
        if not another_pass_fits(start, pairs, seconds):
            break

    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps(spans))
    print(f"traced passes {len(traced)}; spans written to {spans_path.relative_to(ROOT)}")
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in tracing.METRICS}
    metrics["inprocess_s"] = statistics.median(untraced)
    metrics["trace_overhead_frac"] = statistics.median(traced) / metrics["inprocess_s"] - 1
    return {key: {"value": metrics[key], "unit": unit} for key, unit in tracing.METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="oracle-average, clopen-cover or table-paths")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "recmeasure" / "cli.py").is_file():
        print(f"error: no recmeasure sources under {SRC}", file=sys.stderr)
        return 2
    try:
        with scratch_dir() as scratch:
            ops, expected = prepare(args.workload, args.seed, scratch)
            checker = Checker(expected)
            print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops, "
                  f"{'traced in-process' if args.trace else 'fresh process per op'}")
            if args.trace:
                spans_path = SPANS_DIR / f"spans-{args.workload}-{args.seed}.json"
                metrics = run_traced(ops, checker, args.seconds, spans_path)
            else:
                values = run_end_to_end(ops, checker, args.seconds, scratch)
                metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                           for k, v in values.items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {checker.failed}/{checker.attempted} = "
          f"{checker.failed / checker.attempted:.6g}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
