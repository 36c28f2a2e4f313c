"""Seeded operations of the three benchmark workloads.

An operation is one ``chrono_duhamel.cli.main`` call on a config file that
this module writes, together with the check of what the call wrote.  Each
process of a run draws its own *round* of operations from the run's seed
and the process's slot, and repeats that round: the same seed gives the
same inputs, and every process attempts the same operations in the same
proportions however long it runs.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

LX = 2 * math.pi
MASS = 1.0

# The problem of configs/benchmark.ini, restated here so that the benchmark
# keeps measuring the same problem whatever that file later becomes.
BENCHMARK_INI = {
    "grid": {"m": "8", "lx": repr(LX)},
    "dispersion": {"kind": "klein_gordon", "mass": repr(MASS)},
    "nonlinearity": {"3": "1.0"},
    "initial": {"kind": "cosine", "amplitude": "0.05", "mode": "1"},
    "times": {"t1": "0.0", "t2": "0.5", "steps": "40"},
    "functional": {"kind": "point_eval", "t_point": "0.0", "x_index": "0"},
    "caps": {"degree_cap": "5", "tree_order": "2"},
    "tolerances": {
        "s": "0.0",
        "m_ref": "1.0",
        "substeps": "2",
        "certify_radius": "0.2",
        "certify_floor": "0.05",
    },
    "output": {"seed": "0"},
}

# configs/certify_cubic_preset.ini: X(z) = 2 z^3 has a closed-form flow.
CERTIFY_PRESET_INI = {
    "grid": {"m": "8"},
    "times": {"t1": "0.0", "t2": "0.25", "steps": "10"},
    "tolerances": {"x_coeffs": "0,0,0,2", "certify_radius": "1.0", "certify_floor": "0.5"},
}

# transport runs the problem on M = 4 points (dimension 8) instead of 8.
# At M = 8 a cold command takes 10-16 s, so a run held two or three of
# them, and the speed of the shared 2-vCPU VM of the README's figures swung
# by 2-3x in phases of seconds to minutes; at M = 4 a cold command, which
# still builds every degree-5 index table, takes about 0.6 s and a warm one
# (320 vdot calls) about 0.25 s.
TRANSPORT_M = 4

# certify draws its parameters around these fixed points (radius R, floor
# as a share of R, span, cubic coefficient), one per operation of a round,
# scaled by a factor within JITTER of 1.  The cost of a command depends on
# them (0.15-0.35 s), so fixed points keep the cost of a round, and of the
# cold command, the same whatever the seed.
CERTIFY_POINTS = [
    (0.12, 0.25, 0.9, 1.5),
    (0.15, 0.45, 0.3, 0.7),
    (0.2, 0.3, 0.6, 1.0),
    (0.25, 0.4, 0.45, 1.8),
    (0.3, 0.22, 0.75, 0.6),
    (0.35, 0.35, 0.35, 1.2),
    (0.4, 0.48, 1.0, 2.0),
]
JITTER = 0.02

# evolve runs at the CLI defaults: M = 32 on [0, 1] with 100 steps.
EVOLVE_M, EVOLVE_T, EVOLVE_STEPS = 32, 1.0, 100

ROUND_SIZE = {"transport": 1, "certify": len(CERTIFY_POINTS) + 1, "evolve": 1}
# the last certify operation of a round uses the closed-form preset
CERTIFY_PRESET_SLOT = len(CERTIFY_POINTS)


@dataclass
class Op:
    name: str
    config: Path
    out: Path
    command: str
    check: Callable[["Op"], None]

    @property
    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(self.out)]

    def clear(self) -> None:
        """Remove the previous call's output, so a check never reads stale files."""
        shutil.rmtree(self.out, ignore_errors=True)


def write_ini(path: Path, sections: dict[str, dict[str, str]]) -> None:
    text = []
    for sec, vals in sections.items():
        text.append(f"[{sec}]")
        text.extend(f"{k} = {v}" for k, v in vals.items())
        text.append("")
    path.write_text("\n".join(text))


def with_fields(base: dict[str, dict[str, str]], **fields: dict[str, str]) -> dict[str, dict[str, str]]:
    out = {sec: dict(vals) for sec, vals in base.items()}
    for sec, vals in fields.items():
        out.setdefault(sec, {}).update(vals)
    return out


def write_snapshot(path: Path, psi: np.ndarray, chi: np.ndarray) -> None:
    """Initial data in the snapshot format that the ``file`` initial kind reads."""
    m = psi.size
    header = {"M": m, "Lx": LX, "kind": "klein_gordon", "m": MASS, "t": 0.0}
    rows = [f"{j * LX / m!r},{float(psi[j])!r},{float(chi[j])!r}" for j in range(m)]
    path.write_text("# " + json.dumps(header) + "\nx,psi,chi\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# transport: the invariance command
# ---------------------------------------------------------------------------


def transport_op(rng: np.random.Generator, where: Path, name: str) -> Op:
    """Point functional and cosine data whose free-solution value is >= A/4 in size."""
    m = TRANSPORT_M
    while True:
        amplitude = float(rng.uniform(0.03, 0.06))
        mode = int(rng.integers(1, m // 2 + 1))
        x_index = int(rng.integers(0, m))
        t_point = float(rng.uniform(-1.0, 1.0))
        value = checks.free_cosine_value(amplitude, mode, MASS, LX, m, t_point, x_index)
        if abs(value) >= amplitude / 4:
            break
    config = where / f"{name}.ini"
    write_ini(
        config,
        with_fields(
            BENCHMARK_INI,
            initial={"amplitude": repr(amplitude), "mode": str(mode)},
            functional={"t_point": repr(t_point), "x_index": str(x_index)},
            grid={"m": str(m)},
        ),
    )

    def check(op: Op) -> None:
        checks.check_invariance(op.out / "invariance.csv", value)

    return Op(name, config, where / name, "invariance", check)


# ---------------------------------------------------------------------------
# certify: the certify command, drawn parameters or the closed-form preset
# ---------------------------------------------------------------------------


def certify_op(rng: np.random.Generator, where: Path, name: str, point: int) -> Op:
    """Certify around ``CERTIFY_POINTS[point]``, or the preset past the last point."""
    config = where / f"{name}.ini"
    preset = point == CERTIFY_PRESET_SLOT
    if preset:
        write_ini(config, CERTIFY_PRESET_INI)
        floor = float(CERTIFY_PRESET_INI["tolerances"]["certify_floor"])
    else:
        scale = [float(v) for v in rng.uniform(1 - JITTER, 1 + JITTER, 4)]
        radius, share, span, cubic = (p * f for p, f in zip(CERTIFY_POINTS[point], scale))
        floor = radius * share
        write_ini(
            config,
            with_fields(
                BENCHMARK_INI,
                nonlinearity={"3": repr(cubic)},
                times={"t2": repr(span)},
                tolerances={"certify_radius": repr(radius), "certify_floor": repr(floor)},
            ),
        )

    def check(op: Op) -> None:
        row = checks.certify_row(op.out / "certify.csv")
        checks.check_cubic_flow(row, floor)
        if preset:
            checks.check_preset(row)

    return Op(name, config, where / name, "certify", check)


# ---------------------------------------------------------------------------
# evolve: the evolve command on seeded random initial data
# ---------------------------------------------------------------------------


def evolve_op(rng: np.random.Generator, where: Path, name: str) -> Op:
    amplitude = float(rng.uniform(0.02, 0.08))
    psi = amplitude * rng.standard_normal(EVOLVE_M)
    chi = amplitude * rng.standard_normal(EVOLVE_M)
    initial = where / f"{name}_initial.csv"
    write_snapshot(initial, psi, chi)
    config = where / f"{name}.ini"
    write_ini(
        config,
        {
            "initial": {"kind": "file", "file": str(initial)},
            "output": {"snapshots": "1"},
        },
    )

    coeffs = {3: 1.0}
    references: list = []  # computed once per process, then compared with each output

    def reference():
        from chrono_duhamel import dynamics, propagator

        dt = EVOLVE_T / EVOLVE_STEPS
        # the RK4 result at dt/2 gives the Richardson estimate of its own error
        grid = propagator.Grid(EVOLVE_M, LX)
        disp = propagator.DispersionRelation("klein_gordon", MASS)
        data = propagator.CauchyData(grid, psi, chi, 0.0)
        half = dynamics.evolve(data, 0.0, EVOLVE_T, dt / 2, disp, dynamics.NonlinearitySpec(coeffs))
        c = half[-1].current.chart_data
        rk_half = checks.kg_propagate(np.asarray(c.psi), np.asarray(c.chi), EVOLVE_T, MASS, LX)
        st = checks.strang(psi, chi, EVOLVE_T, EVOLVE_STEPS, coeffs, MASS, LX)
        st_half = checks.strang(psi, chi, EVOLVE_T, 2 * EVOLVE_STEPS, coeffs, MASS, LX)
        return rk_half, st, st_half

    def check(op: Op) -> None:
        checks.check_trajectory(op.out / "trajectory.csv", EVOLVE_STEPS + 1)
        header, rk_psi, rk_chi = checks.read_snapshot(op.out / "final_field.csv")
        if not abs(header.get("t", math.nan) - EVOLVE_T) <= 1e-12:
            raise checks.CheckFailed(f"evolve: final field at t = {header.get('t')!r}")
        if not references:
            references.append(reference())
        checks.check_oracle_agreement((rk_psi, rk_chi), *references[0], LX)

    return Op(name, config, where / name, "evolve", check)


def make_round(workload: str, seed: int, slot: int, where: Path) -> list[Op]:
    """Write the configs of the round of process ``slot``, drawn from ``seed``."""
    where.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(ROUND_SIZE).index(workload), slot])
    ops = []
    for i in range(ROUND_SIZE[workload]):
        name = f"p{slot}op{i}"
        if workload == "transport":
            ops.append(transport_op(rng, where, name))
        elif workload == "certify":
            ops.append(certify_op(rng, where, name, point=i))
        else:
            ops.append(evolve_op(rng, where, name))
    return ops
