"""Benchmark of the chrono-duhamel CLI: transport, certify and evolve.

    python3 bench/run.py --workload {transport,certify,evolve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every operation is one in-process
``chrono_duhamel.cli.main`` call on a config generated from the seed (see
``workloads.py``); every output is checked (see ``checks.py``).  Each
workload process is fresh and single-threaded, and only one runs at a time.

With ``--trace 0`` the run starts fresh processes one after the other for
about S seconds: another is started while the time gone plus half the
last process's time is under S.  Each draws its own round of operations,
runs the first one cold and then the whole round a number of times warm,
taken in turn from WARM_ROUNDS[workload], so the cold and warm samples are
spread over the whole run.  Then processes that only set up are added
until there are FRESH of them in all.  The end-to-end metrics are
  setup_s      median over the run's fresh processes (at least FRESH) of the
               time from starting the process until the package is
               imported and the inputs are written;
  cold_s       median of the first commands of those processes;
  warm_s       median of their later commands;
  peak_rss_mb  median of their peak resident sets.
The three times are given at reference speed: each is multiplied by
REF_S / (median time of the reference mix over the run), the mix being
timed before every command and once in every process (worker.reference_s).
A shared machine can change speed by tens of percent over minutes (the
2-vCPU VM of the README's figures did), and commands and mix slow down
together; the scaled times read what the commands would take on a machine
that runs the mix in REF_S.  The raw
medians and the scale are kept in the run record.
With ``--trace 1`` one process runs cold, then alternates untraced and
traced rounds for S seconds, and gives the per-layer metrics.

The last line of standard output is the result as one JSON object; the line
before it is the machine probe.  The full record of the run, with every
operation's time and the traced call tree, is written to ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNS = HERE / "runs"

WORKLOADS = ("transport", "certify", "evolve")
# warm rounds of the processes of an untraced run, taken in turn.  Set-up
# takes about 0.9 s.  A transport cold command takes about 0.6 s and a warm
# one 0.25 s; a certify round (8 commands) 2.2 s; an evolve command 1.3 s.
# Processes that run only their cold command double the cold samples of
# transport and certify, whose warm samples are plentiful.
WARM_ROUNDS = {"transport": (6, 0), "certify": (1, 0), "evolve": (1,)}
# processes that only set up are added until there are this many samples
FRESH = 5
# a run must end within 180 s; leave room for the final bookkeeping
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the reference mix's time at reference speed (about what it takes on the
# 2-vCPU Xeon VM of the README's figures)
REF_S = 0.004


class RunError(Exception):
    pass


# ---------------------------------------------------------------------------
# machine probe
# ---------------------------------------------------------------------------


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:9]]
    return ticks[7], sum(ticks)


def probe_delta(start: dict, end: dict) -> dict:
    out = {"ref_start_s": start["ref_s"], "ref_end_s": end["ref_s"]}
    if start["ticks"] and end["ticks"]:
        steal = end["ticks"][0] - start["ticks"][0]
        total = end["ticks"][1] - start["ticks"][1]
        out.update(steal_ticks=steal, total_ticks=total, steal_share=steal / total if total else 0.0)
    return out


def probe() -> dict:
    return {"ticks": cpu_ticks(), "ref_s": reference_s()}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def spawn(args: argparse.Namespace, role: str, slot: int, deadline: float, rundir: Path,
          *extra: str) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed), "--role", role,
        "--slot", str(slot), "--rundir", str(rundir), *extra,
    ]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - t_spawn, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{role} process {slot} passed the run's deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{role} process {slot} exited {proc.returncode}: {proc.stderr[-2000:]}")
    rec = json.loads(lines[-1])
    rec.update(role=role, slot=slot, setup_s=rec["t_ready"] - t_spawn,
               wall_s=time.monotonic() - t_spawn)
    return rec


def untraced_processes(args: argparse.Namespace, deadline: float, rundir: Path) -> list[dict]:
    rounds = WARM_ROUNDS[args.workload]
    t0 = time.monotonic()
    procs = []
    while not procs or time.monotonic() - t0 + procs[-1]["wall_s"] / 2 < args.seconds:
        j = len(procs)
        procs.append(spawn(args, "run", j, deadline, rundir, "--rounds", str(rounds[j % len(rounds)])))
    procs += [spawn(args, "setup", j, deadline, rundir) for j in range(len(procs), FRESH)]
    return procs


def ops_of(procs: list[dict], *phases: str) -> list[dict]:
    return [op for p in procs for op in p.get("ops", []) if op["phase"] in phases]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def speed_scale(procs: list[dict]) -> float:
    """REF_S over the median reference-mix time of the run."""
    refs = [p["ref_s"] for p in procs] + [op["ref_s"] for op in ops_of(procs, "cold", "warm")]
    return REF_S / statistics.median(refs)


def raw_times(procs: list[dict]) -> dict[str, float]:
    runs = [p for p in procs if p["role"] == "run"]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in procs),
        "cold_s": statistics.median(op["seconds"] for op in ops_of(runs, "cold")),
        "warm_s": statistics.median(op["seconds"] for op in ops_of(runs, "warm")),
    }


def end_to_end(procs: list[dict], scale: float) -> dict:
    runs = [p for p in procs if p["role"] == "run"]
    out = {name: (secs * scale, "s") for name, secs in raw_times(procs).items()}
    out["peak_rss_mb"] = (statistics.median(p["peak_rss_kb"] for p in runs) / 1024, "MB")
    return out


def per_layer(main: dict) -> dict:
    """Per-layer metrics of a traced process.

    Table builds are taken from the cold command, where they happen; every
    other metric is a mean per traced warm command.  A traced round repeats
    the same operations, so counts repeat exactly between runs.
    """
    cold, warm = main["trace_cold"], main["trace_warm"]
    traced = ops_of([main], "traced")
    n = len(traced)

    def calls(name):
        return (warm["calls"].get(name, 0) / n, "count")

    def secs(name):
        return (warm["total_s"].get(name, 0.0) / n, "s")

    def count(name):
        return (warm["counts"].get(name, 0) / n, "count")

    untraced = ops_of([main], "warm")
    overhead = statistics.median(op["seconds"] for op in traced) - statistics.median(
        op["seconds"] for op in untraced
    )
    return {
        "propagator.propagate.calls": calls("propagator.propagate"),
        "propagator.propagate.s": secs("propagator.propagate"),
        "propagator.cau_norm.calls": calls("propagator.cau_norm"),
        "dynamics.evolve.s": secs("dynamics.evolve"),
        "dynamics.evolve.steps": count("dynamics.evolve.steps"),
        "dynamics.lagrange_duhamel_V.calls": calls("dynamics.lagrange_duhamel_V"),
        "dynamics.duhamel_residual.calls": calls("dynamics.duhamel_residual"),
        "dynamics.duhamel_residual.s": secs("dynamics.duhamel_residual"),
        "dynamics.trajectory_csv.s": secs("dynamics.trajectory_csv"),
        "symfun.compose_table.builds": (cold["counts"].get("symfun.compose_table.builds", 0), "count"),
        "symfun.compose_table.s": (cold["total_s"].get("symfun.compose_table", 0.0), "s"),
        "symfun.table_mb": (cold["counts"].get("table_bytes", 0) / 2**20, "MB"),
        "symfun.compose_first_slot.calls": calls("symfun.compose_first_slot"),
        "symfun.compose_first_slot.s": secs("symfun.compose_first_slot"),
        "symfun.functional_add.s": secs("symfun.functional_add"),
        "symfun.eval_series.s": secs("symfun.eval_series"),
        "symfun.from_rank_one_sum.calls": calls("symfun.from_rank_one_sum"),
        "symfun.from_rank_one_sum.s": secs("symfun.from_rank_one_sum"),
        "symfun.majorant_of.s": secs("symfun.majorant_of"),
        "chrono.vdot.calls": calls("chrono.vdot"),
        "chrono.vdot.s": secs("chrono.vdot"),
        "chrono.vdot.self_s": (warm["self_s"].get("chrono.vdot", 0.0) / n, "s"),
        "chrono.invariance_scan.s": secs("chrono.invariance_scan"),
        "chrono.truncation_events": count("chrono.truncation_events"),
        "chrono.vertex_tensors.distinct_t": count("chrono.vertex_tensors.distinct_t"),
        "chrono.vertex_tensors.s": secs("chrono.vertex_tensors"),
        "chrono.transport_majorant.s": secs("chrono.transport_majorant"),
        "chrono.certify_window.s": secs("chrono.certify_window"),
        "series.flow.calls": calls("series.flow"),
        "series.flow.s": secs("series.flow"),
        "series.guaranteed_time.s": secs("series.guaranteed_time"),
        "cli.main.s": secs("cli.main"),
        "cli.self_s": (warm["self_s"].get("cli.main", 0.0) / n, "s"),
        "trace.overhead_s": (overhead, "s"),
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still kills and waits for its worker (subprocess.run
    # does so when an exception leaves it)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "chrono_duhamel" / "cli.py").is_file():
        print(f"no chrono_duhamel source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    rundir = RUNS / f"{args.workload}-seed{args.seed}"
    start = probe()
    try:
        if args.trace:
            procs = [spawn(args, "run", 0, deadline, rundir,
                           "--trace", "1", "--seconds", str(args.seconds))]
        else:
            procs = untraced_processes(args, deadline, rundir)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    machine = probe_delta(start, probe())
    if not args.trace:
        machine.update(speed_scale=speed_scale(procs), raw_s=raw_times(procs))

    ops = ops_of(procs, "cold", "warm", "traced")
    failed = sum(op["failed"] for op in ops)
    bad_checks = [op for op in ops if not op["failed"] and "check" in op]
    metrics = per_layer(procs[0]) if args.trace else end_to_end(procs, machine["speed_scale"])
    result = {
        "correct": not bad_checks,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(args=vars(args), machine=machine, result=result, processes=procs)
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for op in bad_checks:
        print(f"check failed: {op['op']} ({op['phase']}): {op['check']}", file=sys.stderr)
    print("probe " + json.dumps(machine))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
