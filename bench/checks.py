"""Output checks for the benchmark workloads.

Each check reads the CSV files a command wrote and compares them with a
value worked out here, apart from the code that produced them, or with a
property the method must have.  None compares against a stored copy of
earlier output.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Column names and raw cells of a CSV behind ``#`` comment lines."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise CheckFailed(f"{path.name}: no header")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def as_float(cell: str, where: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise CheckFailed(f"{where}: cell {cell!r} is not a number") from None


def float_rows(path: Path) -> tuple[list[str], np.ndarray]:
    """Every cell of every row parsed as a float."""
    header, rows = read_csv(path)
    if not rows:
        raise CheckFailed(f"{path.name}: no rows")
    table = []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise CheckFailed(f"{path.name} row {i}: {len(row)} cells for {len(header)} columns")
        table.append([as_float(c, f"{path.name} row {i}") for c in row])
    return header, np.array(table)


def column(header: list[str], table: np.ndarray, name: str) -> np.ndarray:
    if name not in header:
        raise CheckFailed(f"missing column {name!r}")
    return table[:, header.index(name)]


# ---------------------------------------------------------------------------
# transport: the transported point value is the free solution's value
# ---------------------------------------------------------------------------


def free_cosine_value(amplitude: float, mode: int, mass: float, lx: float, m: int,
                      t_point: float, x_index: int) -> float:
    """A cos(omega t) cos(k x_j): free Klein-Gordon solution from (A cos(k x), 0)."""
    k = 2 * math.pi * mode / lx
    omega = math.sqrt(mass**2 + k**2)
    return amplitude * math.cos(omega * t_point) * math.cos(k * x_index * lx / m)


def check_invariance(path: Path, expected: float, tol: float = 1e-6) -> None:
    """Every ``functional_value`` equals ``expected`` within ``tol``."""
    header, table = float_rows(path)
    values = column(header, table, "functional_value")
    worst = float(np.max(np.abs(values - expected)))
    if not worst <= tol:
        raise CheckFailed(f"invariance: functional value off the free solution by {worst:.3e}")


# ---------------------------------------------------------------------------
# certify: the exact backward flow of X = C z^3
# ---------------------------------------------------------------------------


def certify_row(path: Path) -> dict[str, float]:
    """The numeric cells of certify.csv that the checks use.

    ``f_majorant_at_R`` is not read: it is not used by any check here.
    """
    header, rows = read_csv(path)
    if len(rows) != 1:
        raise CheckFailed(f"certify: {len(rows)} rows, expected 1")
    cells = dict(zip(header, rows[0]))
    keys = ("radius_in", "span", "certified_radius", "window_ok", "guaranteed_time")
    missing = [k for k in keys if k not in cells]
    if missing:
        raise CheckFailed(f"certify: missing columns {missing}")
    return {k: as_float(cells[k], f"certify {k}") for k in keys}


def check_cubic_flow(row: dict[str, float], floor: float, rel_tol: float = 1e-8) -> None:
    """(r'^-2 - R^-2) * tbar == T * (floor^-2 - R^-2) for X = C z^3.

    Along dz/ds = -C z^3 the quantity z^-2 grows at the constant rate
    2C, so the backward flow over T and the time to reach the floor
    satisfy this identity whatever C is.
    """
    R, T = row["radius_in"], row["span"]
    r, tbar = row["certified_radius"], row["guaranteed_time"]
    if not (r > 0 and math.isfinite(tbar) and tbar > 0):
        raise CheckFailed(f"certify: radius {r!r}, guaranteed time {tbar!r}")
    lhs = (r**-2 - R**-2) * tbar
    rhs = T * (floor**-2 - R**-2)
    if not abs(lhs - rhs) <= rel_tol * abs(rhs):
        raise CheckFailed(f"certify: cubic flow identity off by {abs(lhs - rhs) / abs(rhs):.3e} relative")


def check_preset(row: dict[str, float], rel_tol: float = 1e-8) -> None:
    """X = 2 z^3, R = 1, floor 1/2, T = 1/4: tbar = 3/4 and r' = 1/sqrt(2)."""
    for key, exact in (("guaranteed_time", 0.75), ("certified_radius", 1 / math.sqrt(2))):
        if not abs(row[key] - exact) <= rel_tol * exact:
            raise CheckFailed(f"certify preset: {key} = {row[key]!r}, exact {exact!r}")


# ---------------------------------------------------------------------------
# evolve: the RK4 endpoint against Strang splitting
# ---------------------------------------------------------------------------


def kg_propagate(psi: np.ndarray, chi: np.ndarray, s: float, mass: float, lx: float):
    """Exact free Klein-Gordon flow of the Cauchy data (psi, chi) over time s."""
    m = psi.size
    xi = 2 * np.pi * np.fft.fftfreq(m, d=lx / m)
    eps = np.sqrt(mass**2 + xi**2)
    ph, ch = np.fft.fft(psi), np.fft.fft(chi)
    c, sn = np.cos(eps * s), np.sin(eps * s)
    new_ph = c * ph + sn / eps * ch
    new_ch = -eps * sn * ph + c * ch
    return np.fft.ifft(new_ph).real, np.fft.ifft(new_ch).real


def strang(psi, chi, t_end: float, steps: int, coeffs: dict[int, float], mass: float, lx: float):
    """Strang splitting for u_tt - u_xx + m^2 u + N(u) = 0 from t = 0.

    Half-step exact linear flow, full kick chi -= h N(psi), half-step
    linear flow.
    """
    h = t_end / steps
    for _ in range(steps):
        psi, chi = kg_propagate(psi, chi, h / 2, mass, lx)
        chi = chi - h * sum(v * psi**k for k, v in coeffs.items())
        psi, chi = kg_propagate(psi, chi, h / 2, mass, lx)
    return psi, chi


def cauchy_norm(psi: np.ndarray, chi: np.ndarray, lx: float) -> float:
    """L2 norm of psi plus H^-1 norm of chi: the Cauchy norm at s = 0, m_ref = 1."""
    m = psi.size
    xi = 2 * np.pi * np.fft.fftfreq(m, d=lx / m)
    w = np.sqrt(1.0 + xi**2)
    ph, ch = np.fft.fft(psi) / m, np.fft.fft(chi) / m
    return float(np.sqrt(lx * np.sum(np.abs(ph) ** 2)) + np.sqrt(lx * np.sum(np.abs(ch) ** 2 / w**2)))


def read_snapshot(path: Path) -> tuple[dict, np.ndarray, np.ndarray]:
    """(header, psi, chi) of a field snapshot CSV.

    The ``x`` column is not read: the grid is known, and the column is not
    plain float text under NumPy 2.
    """
    first = Path(path).read_text().splitlines()[0]
    header = json.loads(first.lstrip("# "))
    names, rows = read_csv(path)
    fields = []
    for name in ("psi", "chi"):
        if name not in names:
            raise CheckFailed(f"{path.name}: missing column {name!r}")
        j = names.index(name)
        fields.append(np.array([as_float(r[j], f"{path.name} {name}") for r in rows]))
    return header, fields[0], fields[1]


def check_trajectory(path: Path, nodes: int) -> None:
    """Every cell of trajectory.csv parses as a float; one row per node."""
    _, table = float_rows(path)
    if table.shape[0] != nodes:
        raise CheckFailed(f"trajectory: {table.shape[0]} rows, expected {nodes}")


def check_oracle_agreement(rk, rk_half, st, st_half, lx: float) -> None:
    """gap(rk, st) <= 5 (gap(rk, rk_half) / 15 + gap(st, st_half) / 3).

    The Richardson error estimates of a fourth-order and a second-order
    method at step h from their results at h and h/2.
    """
    def gap(a, b):
        return cauchy_norm(a[0] - b[0], a[1] - b[1], lx)

    bound = 5.0 * (gap(rk, rk_half) / 15 + gap(st, st_half) / 3)
    if not gap(rk, st) <= bound:
        raise CheckFailed(f"evolve: RK4 and Strang differ by {gap(rk, st):.3e} > {bound:.3e}")
