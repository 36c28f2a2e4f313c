"""One fresh benchmark process: set up, then run the workload's operations.

    python3 bench/worker.py --workload W --seed N --slot J --role R \
        [--rounds K | --seconds S --trace 1] --rundir DIR

The process draws round J of the workload from seed N (see workloads.py).
Roles:
  setup  import the package and write the inputs, then stop;
  run    also run the round's first operation once, cold: the first command
         of a process pays for every lazy table and cache it builds.  Then
         run the whole round K times, warm.  With --trace 1 the warm rounds
         instead alternate between untraced and traced until S seconds have
         passed since set-up, ending after a traced round.

Before every command, and once after set-up, the process times the
reference mix (``reference_s``): the parent scales its times by how fast
the machine ran that mix (see run.py).

The last line of standard output is one JSON object.  ``t_ready`` is the
``time.monotonic()`` reading once the package is imported and the inputs are
written; the parent subtracts the reading it took before starting this
process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def reference_s() -> float:
    """Median of three timings of a fixed mix of work, about 4 ms each:
    an interpreter loop, small matrix products, small FFTs and gathers.

    It does no work of the program, so it measures only how fast the
    machine runs at that moment.
    """
    import numpy as np

    a = np.linspace(-0.05, 0.05, 32 * 32).reshape(32, 32)
    v = np.linspace(0.0, 1.0, 64)
    table = np.linspace(0.0, 1.0, 1 << 16)
    index = (np.arange(4096) * 7919) % table.size
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc += i * i % 7
        x = a[0]
        for _ in range(300):
            x = np.tanh(a @ x) + a[1]
        for _ in range(50):
            np.fft.irfft(np.fft.rfft(v) * 0.5, v.size)
        for _ in range(75):
            table[index].sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def pin_to_one_cpu() -> int | None:
    """Keep this process on one CPU, so that the reference mix and the
    commands are timed on the same one."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def import_program():
    """The package from this checkout's source tree, never an installed copy."""
    sys.path.insert(0, str(SRC))
    from chrono_duhamel import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"chrono_duhamel imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, op, phase: str, tracer=None) -> dict:
    """One CLI call, timed, then its check.  Output of the call is discarded."""
    import checks

    op.clear()
    sink = io.StringIO()
    error = None
    ref_s = reference_s()
    if tracer is not None:
        tracer.new_operation()
        tracer.install()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(op.argv)
    except Exception as exc:  # a traceback is a failed operation, not a crashed run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    rec = {"op": op.name, "phase": phase, "seconds": seconds, "ref_s": ref_s, "rc": rc,
           "failed": rc != 0}
    if error or rc != 0:
        rec["error"] = error or sink.getvalue()[-500:]
        return rec
    try:
        op.check(op)
    except checks.CheckFailed as exc:
        rec["check"] = str(exc)
    except (OSError, ValueError, KeyError) as exc:
        rec["check"] = f"{type(exc).__name__}: {exc}"
    return rec


def run_role(cli, ops, rounds: int) -> dict:
    ops_out = [run_op(cli, ops[0], "cold")]
    for _ in range(rounds):
        ops_out += [run_op(cli, op, "warm") for op in ops]
    return {"ops": ops_out}


def traced_role(cli, ops, seconds: float) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    out: dict = {"ops": [run_op(cli, ops[0], "cold", tracer)], "trace_cold": tracer.snapshot()}
    tracer.reset()
    # a traced run ends after a traced round, so it has one of each kind
    while True:
        out["ops"] += [run_op(cli, op, "warm") for op in ops]
        out["ops"] += [run_op(cli, op, "traced", tracer) for op in ops]
        if time.perf_counter() - start >= seconds:
            break
    out["trace_warm"] = tracer.snapshot()
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slot", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rundir", required=True)
    args = parser.parse_args()

    cpu = pin_to_one_cpu()
    cli = import_program()
    import workloads

    ops = workloads.make_round(args.workload, args.seed, args.slot, Path(args.rundir))
    result: dict = {"t_ready": time.monotonic(), "pid": os.getpid(), "cpu": cpu,
                    "ref_s": reference_s()}
    if args.role == "run" and args.trace:
        result.update(traced_role(cli, ops, args.seconds))
    elif args.role == "run":
        result.update(run_role(cli, ops, args.rounds))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
