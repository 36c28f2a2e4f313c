"""Batch driver: ``chrono-duhamel <command> [--config PATH] [--out DIR] [--seed N]``.

Commands: propagate, evolve, invariance, certify, trees, selftest.  Options go before or after the
command as ``--flag value`` or ``--flag=value``, unabbreviated; the last of a repeated flag wins.
The INI config (defaults in DEFAULTS) is read by stripped lines: blank ones and ``#`` or ``;``
comments are skipped, ``[name]`` opens a section, and ``key = value`` or ``key: value`` splits at
the first ``=`` or ``:`` into a lowercased key and a literal value; no section, nor key within one,
repeats.  Outputs are deterministic for a fixed config+seed, and every CSV carries the resolved
config in its header.  The ``cau_norm`` of ``trajectory.csv`` is the chart norm, the Cauchy norm of
the data pulled back to t = 0 that the certificate's radii bound; ``propagate.csv``'s is the norm at t.
The ``truncation_events`` cell of ``invariance.csv`` counts the degree pairs that ``[caps] degree_cap``
drops times the transport's panel nodes before the next row, so it moves with ``[tolerances] substeps``
while the values do not.
``trees.csv`` has one row per interaction tree, in ``chrono.tree_expand``'s order: ``order``,
``multiplicity``, ``value``, the ``running_total`` of the values added left to right (its last cell is
the series' sum), then ``parent_1`` to ``parent_K``, K = ``[caps] tree_order``, the tree's parents
padded with -1.  Every cell of every CSV is a number: a command builds its table of Python ints and
floats before it writes any file, and one writer, ``_write_csv``, formats and checks every cell: a
non-finite cell is a numerical failure naming the file, column and row, and the command leaves no
file.  Two cells are non-finite by design and pass: ``energy`` is ``nan`` on every row of
``propagate.csv`` and ``trajectory.csv`` for the Schrodinger kind, whose energy is defined for
Klein-Gordon only, and ``certify.csv``'s ``guaranteed_time`` is ``inf`` for a zero field, which never
moves the radius.  A config has one window certificate, shared by ``invariance`` and ``certify``: its
field is ``[tolerances] x_coeffs`` when given, else the transport majorant, and its flow floor is the
fixed ``series.DEFAULT_FLOOR``.  A command checks every field it reads before it builds the chart or
a trajectory.  Every command needs a finite ``[times]`` span ``t2 - t1``; ``propagate``, ``evolve`` and
``invariance`` step over it in ``steps >= 1`` equal steps of at least ``sys.float_info.min``.  Exit
status: 0 success, 1 numerical failure, 2 configuration error (a bad command line or config, an
unreadable input or unwritable output path); each prints one line.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import chrono, dynamics, propagator, series, symfun

DEFAULTS: dict[str, dict[str, str]] = {
    "grid": {"m": "32", "lx": str(2 * math.pi)},
    "dispersion": {"kind": "klein_gordon", "mass": "1.0"},
    "nonlinearity": {"3": "1.0"},
    "initial": {"kind": "cosine", "amplitude": "0.05", "mode": "1", "file": ""},
    "times": {"t1": "0.0", "t2": "1.0", "steps": "100"},
    "functional": {
        "kind": "point_eval",
        "t_point": "0.0",
        "x_index": "0",
        "weights": "",
        "tensor_file": "",
    },
    "caps": {"degree_cap": "5", "tree_order": "2"},
    "tolerances": {
        "s": "0.0",
        "m_ref": "1.0",
        "certify_radius": "0.2",
        "certify_floor": "0.05",
        "x_coeffs": "",
        "substeps": "1",
    },
    "output": {"directory": "out", "seed": "0", "snapshots": "0"},
}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    raw: dict[str, dict[str, str]] = field(default_factory=dict)

    @staticmethod
    def load(path: str | None) -> "RunConfig":
        """DEFAULTS updated by the config file at ``path``, read in the grammar of the module docstring."""
        merged = {sec: dict(vals) for sec, vals in DEFAULTS.items()}
        if not path:
            return RunConfig(merged)
        try:
            with open(path) as fh:
                lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config parse error: {path}: {exc}") from exc
        seen, sec = set(), None  # section names and (section, key) pairs read so far
        for n, line in enumerate(map(str.strip, lines), 1):
            if not line or line[0] in "#;":
                continue
            header = line[0] == "[" and line[-1] == "]"
            cut = len(line.split("=", 1)[0].split(":", 1)[0])  # at the first "=" or ":", if any
            name = line[1:-1] if header else (sec, line[:cut].strip().lower())  # a section, or (section, key)
            if name in seen or not header and (sec is None or cut == len(line) or not name[1]):
                fault = "repeated" if name in seen else "a key before any [section]" if sec is None else (
                    "no '=' or ':'" if cut == len(line) else "an empty key")
                raise ConfigError(f"config parse error: {path} line {n}: {fault} in {line!r}")
            seen.add(name)
            if header:
                if name not in merged:
                    raise ConfigError(f"unknown config section [{name}]")
                sec = name
                if sec == "nonlinearity":  # replaces the default polynomial; other sections update theirs
                    merged[sec] = {}
            elif sec != "nonlinearity" and name[1] not in merged[sec]:
                raise ConfigError(f"unknown field {name[1]!r} in section [{sec}]")
            else:
                merged[sec][name[1]] = line[cut + 1 :].strip()
        return RunConfig(merged)

    # -- typed accessors ----------------------------------------------------

    def _get(self, sec: str, key: str, cast):
        try:
            val = cast(self.raw[sec][key])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad or missing field [{sec}] {key}: {exc}") from exc
        if cast is float and not math.isfinite(val):
            raise ConfigError(f"[{sec}] {key} must be finite, not {val}")
        return val

    def _floats(self, sec: str, key: str) -> np.ndarray:
        """A comma-separated field of finite floats."""
        try:
            vals = np.array([float(v) for v in self.raw[sec][key].split(",")])
        except ValueError as exc:
            raise ConfigError(f"bad [{sec}] {key}: {exc}") from exc
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"[{sec}] {key} must be finite")
        return vals

    @property
    def grid(self) -> propagator.Grid:
        try:
            return propagator.Grid(self._get("grid", "m", int), self._get("grid", "lx", float))
        except ValueError as exc:
            raise ConfigError(f"bad grid: {exc}") from exc

    @property
    def disp(self) -> propagator.DispersionRelation:
        try:
            disp = propagator.DispersionRelation(
                self.raw["dispersion"]["kind"], self._get("dispersion", "mass", float)
            )
        except ValueError as exc:
            raise ConfigError(f"bad dispersion: {exc}") from exc
        # eps = sqrt(m^2 + xi^2) must be finite on the grid
        xi = self.grid.xi_max
        if disp.second_order and not math.isfinite(disp.m * disp.m + xi * xi):
            raise ConfigError(
                f"bad dispersion: m^2 + xi^2 overflows for mass {disp.m!r} and largest frequency {xi!r}"
            )
        return disp

    @property
    def nonlin(self) -> dynamics.NonlinearitySpec:
        try:
            coeffs = {int(k): float(v) for k, v in self.raw["nonlinearity"].items()}
            if not all(map(math.isfinite, coeffs.values())):
                raise ValueError("coefficients must be finite")
            return dynamics.NonlinearitySpec(coeffs)
        except ValueError as exc:
            raise ConfigError(f"bad nonlinearity: {exc}") from exc

    @property
    def times(self) -> tuple[float, float, int]:
        """(t1, t2, steps), with a span ``t2 - t1`` that is finite."""
        t1, t2 = self._get("times", "t1", float), self._get("times", "t2", float)
        if not math.isfinite(t2 - t1):
            raise ConfigError(f"[times] span t2 - t1 overflows for t1 = {t1!r}, t2 = {t2!r}")
        return t1, t2, self._get("times", "steps", int)

    @property
    def norm_weights(self) -> tuple[float, float]:
        """(s, m_ref) of the Sobolev weight <xi>^s, <xi> = sqrt(m_ref^2 + xi^2)."""
        m_ref = self.tol("m_ref")
        if not m_ref > 0:
            raise ConfigError("[tolerances] m_ref must be > 0")
        return self.tol("s"), m_ref

    @property
    def seed(self) -> int:
        seed = self._get("output", "seed", int)
        if seed < 0:
            raise ConfigError("[output] seed must be >= 0")
        return seed

    @property
    def snapshots(self) -> bool:
        flag = self._get("output", "snapshots", int)
        if flag not in (0, 1):
            raise ConfigError("[output] snapshots must be 0 or 1")
        return bool(flag)

    @property
    def out_dir(self) -> str:
        return self.raw["output"]["directory"]

    def tol(self, key: str, cast=float):
        return self._get("tolerances", key, cast)

    def resolved_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True)

    def _input_file(self, sec: str, key: str) -> str:
        """The path of ``[sec] key``, which must name a file."""
        path = self.raw[sec][key]
        if not path:
            raise ConfigError(f"[{sec}] {key} is empty")
        if not os.path.isfile(path):
            raise ConfigError(f"[{sec}] {key} = {path!r} is not a file")
        return path

    def initial_data(self) -> propagator.CauchyData:
        grid, disp = self.grid, self.disp
        kind = self.raw["initial"]["kind"]
        t1 = self.times[0]
        if kind == "file":
            path = self._input_file("initial", "file")
            try:
                snap_disp, data = propagator.load_snapshot(path)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise ConfigError(f"unreadable initial data file {path!r}: {exc}") from exc
            found = {"[grid]": data.grid, "[dispersion]": snap_disp, "[times] t1": data.t}
            for name, want in {"[grid]": grid, "[dispersion]": disp, "[times] t1": t1}.items():
                if found[name] != want:
                    raise ConfigError(
                        f"initial data file {path!r} does not match {name}: {found[name]} != {want}"
                    )
            if (data.chi is None) == disp.second_order:
                raise ConfigError(f"initial data file {path!r} has the wrong traces for {disp.kind}")
            if not all(np.all(np.isfinite(trace)) for trace in (data.psi, data.chi) if trace is not None):
                raise ConfigError(f"initial data file {path!r} has non-finite traces")
            return data
        amp = self._get("initial", "amplitude", float)
        if kind == "cosine":
            mode = self._get("initial", "mode", int)
            psi = amp * np.cos(2 * np.pi * mode * grid.x / grid.Lx)
        elif kind == "random":
            rng = np.random.default_rng(self.seed)
            psi = amp * rng.standard_normal(grid.M)
        else:
            raise ConfigError(f"unknown initial kind {kind!r}")
        chi = np.zeros(grid.M) if disp.second_order else None
        if disp.kind == propagator.SCHRODINGER:
            psi = psi.astype(complex)
        return propagator.CauchyData(grid, psi, chi, t1)

    def functional(self) -> tuple[int, Callable[[chrono.ChartMap], symfun.SymFunctional]]:
        """(degree, form) of the [functional], its fields checked against the grid alone:
        ``form(chart)`` builds the functional in chart coordinates and forms any sampling rows."""
        kind, M = self.raw["functional"]["kind"], self.grid.M
        if kind == "tensor_file":
            path = self._input_file("functional", "tensor_file")
            try:
                tensor = symfun.load_tensor(path)
            except (ValueError, struct.error) as exc:
                raise ConfigError(f"unreadable functional tensor file {path!r}: {exc}") from exc
            if (tensor.dim, tensor.codomain_dim) != (2 * M, 1):
                raise ConfigError(f"functional tensor file {path!r} must be scalar over dim {2 * M}")
            if not np.all(np.isfinite(tensor.coeffs)):
                raise ConfigError(f"functional tensor file {path!r} has non-finite coefficients")
            return tensor.degree, lambda chart: symfun.SymFunctional([tensor])
        if kind == "point_eval":
            x_index = self._get("functional", "x_index", int)
            if not 0 <= x_index < M:
                raise ConfigError(f"[functional] x_index must lie in [0, {M})")
        elif kind == "linear_weights":
            w = self._floats("functional", "weights")
            if w.size != M:
                raise ConfigError("functional weights length must equal the grid size")
        else:
            raise ConfigError(f"unknown functional kind {kind!r}")
        t_pt = self._get("functional", "t_point", float)

        def form(chart: chrono.ChartMap) -> symfun.SymFunctional:
            # rows that overflow are non-finite everywhere, and so is any row built from them
            with np.errstate(over="ignore", invalid="ignore"):
                rows = chart.rows_and_columns(t_pt)[0]
                row = rows[x_index] if kind == "point_eval" else (w * chart.grid.dx) @ rows
            if not np.all(np.isfinite(rows)):
                raise FloatingPointError(f"the sampling rows at [functional] t_point = {t_pt!r} overflow")
            if not np.all(np.isfinite(row)):
                raise FloatingPointError("the sampling rows' sum weighted by [functional] weights overflows")
            return symfun.SymFunctional([symfun.SymTensor(1, chart.dim, row)])

        return 1, form


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _write_csv(
    cfg: RunConfig, out: str, name: str, columns: list[str], rows: list, nonfinite: tuple[str, ...] = ()
) -> None:
    """Write ``out/name``: the resolved config, the ``columns``, then ``rows`` of Python ints and
    floats, each cell by ``repr``.  Before the file is opened, ``FloatingPointError`` names the column
    and row of the first non-finite cell outside the columns ``nonfinite`` by design.  A column is
    checked in one ``map`` pass, with no Python loop over its cells."""
    for column, cells in zip(columns, zip(*rows)):
        if column not in nonfinite and not all(map(math.isfinite, cells)):
            i = list(map(math.isfinite, cells)).index(False)
            raise FloatingPointError(
                f"{name} column {column} is {cells[i]!r} on data row {i + 1} ({columns[0]} = {rows[i][0]!r})"
            )
    lines = [",".join(map(repr, row)) for row in rows]
    with open(os.path.join(out, name), "w") as fh:
        fh.write(f"# config {cfg.resolved_json()}\n{','.join(columns)}\n")
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def _time_grid(cfg: RunConfig, command: str) -> tuple[float, float, int]:
    """(t1, t2, steps) of a command that steps from t1 to t2 in equal intervals, each one a normal
    float: a subnormal step loses the digits that give the step count back."""
    t1, t2, steps = cfg.times
    if steps < 1:
        raise ConfigError(f"{command} needs [times] steps >= 1")
    if t2 == t1:
        raise ConfigError(f"{command} needs [times] t2 != t1")
    step = abs(t2 - t1) / steps
    if step < sys.float_info.min:
        raise ConfigError(
            f"{command} needs a [times] step |t2 - t1| / steps of at least {sys.float_info.min!r}, not {step!r}"
        )
    return t1, t2, steps


def cmd_propagate(cfg: RunConfig, out: str) -> None:
    disp = cfg.disp
    t1, t2, steps = _time_grid(cfg, "propagate")
    data = cfg.initial_data()
    s, m_ref = cfg.norm_weights
    taus = np.linspace(t1, t2, steps + 1).tolist()
    snapshots = [f"field_{tau:.6f}.csv" for tau in taus] if cfg.snapshots else []
    if len(set(snapshots)) < len(snapshots):
        raise ConfigError("propagate snapshot times closer than 1e-6 would share a file name")
    if any(len(name) > 255 for name in snapshots):  # the longest file name of common file systems
        raise ConfigError(
            "propagate snapshot names field_<t>.csv over [times] exceed 255 characters: "
            "shorten the times or set [output] snapshots = 0"
        )
    rows = []
    with np.errstate(all="ignore"):
        for tau in taus:
            snap = propagator.propagate(disp, data, tau)
            en = propagator.energy(disp, snap) if disp.second_order else math.nan
            rows.append((tau, propagator.cau_norm(disp, snap, s, m_ref), en))
    nonfinite = () if disp.second_order else ("energy",)
    _write_csv(cfg, out, "propagate.csv", ["t", "cau_norm", "energy"], rows, nonfinite)
    # each snapshot is propagated again, and only once the table has passed: a failing run leaves no file
    for name, tau in zip(snapshots, taus):
        with np.errstate(all="ignore"):
            snap = propagator.propagate(disp, data, tau)
        propagator.save_snapshot(disp, snap, os.path.join(out, name))


def cmd_evolve(cfg: RunConfig, out: str) -> None:
    t1, t2, steps = _time_grid(cfg, "evolve")
    s, m_ref = cfg.norm_weights
    snapshot = cfg.snapshots
    traj = dynamics.evolve(cfg.initial_data(), t1, t2, abs(t2 - t1) / steps, cfg.disp, cfg.nonlin)
    nonfinite = () if traj[0].disp.second_order else ("energy",)
    _write_csv(cfg, out, "trajectory.csv", *dynamics.trajectory_csv(traj, s, m_ref), nonfinite)
    if snapshot:
        last = traj[-1]
        snap = propagator.propagate(last.disp, last.current.chart_data, last.time)
        propagator.save_snapshot(last.disp, snap, os.path.join(out, "final_field.csv"))


def _window_tolerances(
    cfg: RunConfig, command: str
) -> tuple[float, series.MajorantSeries | dynamics.NonlinearitySpec]:
    """(certify_radius, field) of a command that certifies a window, checked up front: the field
    is x_coeffs when given, else the nonlinearity whose transport majorant ``_certificate`` takes."""
    R = cfg.tol("certify_radius")
    if not R > 0:
        raise ConfigError(f"{command} needs [tolerances] certify_radius > 0")
    if not cfg.raw["tolerances"]["x_coeffs"]:
        return R, cfg.nonlin
    try:
        return R, series.MajorantSeries(cfg._floats("tolerances", "x_coeffs"))
    except ValueError as exc:
        raise ConfigError(f"bad x_coeffs: {exc}") from exc


def _chart(cfg: RunConfig) -> chrono.ChartMap:
    if not cfg.disp.second_order:
        raise ConfigError(f"functional transport needs [dispersion] kind = {propagator.KLEIN_GORDON}")
    return chrono.ChartMap(cfg.grid, cfg.disp, *cfg.norm_weights)


def _certificate(
    cfg: RunConfig,
    R: float,
    X: series.MajorantSeries | dynamics.NonlinearitySpec,
    chart: chrono.ChartMap,
    f: symfun.SymFunctional,
) -> tuple[series.MajorantSeries, chrono.CertificationRecord]:
    """(X, record) of the window certificate of ``f`` over [t1, t2], from the checked
    ``_window_tolerances``: ``X`` is x_coeffs when given, else the transport majorant."""
    t1, t2, _ = cfg.times
    if isinstance(X, dynamics.NonlinearitySpec):
        X = chrono.transport_majorant(X, chart, np.array([t1, t2]))
    return X, chrono.certify_window(symfun.majorant_of(f), X, R, abs(t2 - t1))


def cmd_invariance(cfg: RunConfig, out: str) -> None:
    t1, t2, steps = _time_grid(cfg, "invariance")
    window = _window_tolerances(cfg, "invariance")
    substeps = cfg.tol("substeps", int)
    if substeps < 1:
        raise ConfigError("invariance needs [tolerances] substeps >= 1")
    degree, functional = cfg.functional()
    cap = cfg._get("caps", "degree_cap", int)
    if cap < degree:
        raise ConfigError(f"invariance needs [caps] degree_cap >= {degree}, the functional's degree")
    data, nonlin = cfg.initial_data(), cfg.nonlin
    chart = _chart(cfg)
    f = functional(chart)
    _, rec = _certificate(cfg, *window, chart, f)
    traj = dynamics.evolve(data, t1, t2, abs(t2 - t1) / steps, cfg.disp, nonlin)
    times, values, drift, events = chrono.invariance_scan(f, traj, chart, substeps=substeps, cap=cap)
    running = np.maximum.accumulate(np.abs(values - values[0]))
    radius = [rec.certified_radius] * len(traj)
    rows = list(zip(times.tolist(), values.tolist(), running.tolist(), radius, events.tolist()))
    columns = ["t", "functional_value", "running_drift", "certified_radius", "truncation_events"]
    _write_csv(cfg, out, "invariance.csv", columns, rows)
    print(f"invariance drift: {drift!r}")


def cmd_certify(cfg: RunConfig, out: str) -> None:
    t1, t2, _ = cfg.times
    R, X = _window_tolerances(cfg, "certify")
    floor = cfg.tol("certify_floor")
    if not 0 < floor < R:
        raise ConfigError("certify needs 0 < [tolerances] certify_floor < certify_radius")
    _, functional = cfg.functional()
    chart = _chart(cfg)
    X, rec = _certificate(cfg, R, X, chart, functional(chart))
    t_bar = series.guaranteed_time(X, R, floor)
    row = (R, abs(t2 - t1), rec.certified_radius, int(rec.window_ok), float(rec.f_majorant_at_R), t_bar)
    columns = ["radius_in", "span", "certified_radius", "window_ok", "f_majorant_at_R", "guaranteed_time"]
    nonfinite = ("guaranteed_time",) if X.is_zero else ()
    _write_csv(cfg, out, "certify.csv", columns, [row], nonfinite)


def cmd_trees(cfg: RunConfig, out: str) -> None:
    t1, t2, _ = cfg.times
    nonlin = cfg.nonlin
    K = cfg._get("caps", "tree_order", int)
    if K < 0:
        raise ConfigError("trees needs [caps] tree_order >= 0")
    try:
        trees = chrono.tree_expand(nonlin, K)
    except ValueError as exc:
        raise ConfigError(f"trees: {exc}") from exc
    degree, functional = cfg.functional()
    if degree != 1:
        raise ConfigError("trees: tree expansion starts from a linear functional")
    data = cfg.initial_data()
    chart = _chart(cfg)
    f = functional(chart)
    u = propagator.make_free_solution(cfg.disp, data)
    with np.errstate(all="ignore"):
        values = chrono.evaluate_trees(trees, f, u, t1, t2, nonlin, chart)
    # the running totals add the values left to right, where Python 3.12's sum() would compensate
    totals = list(itertools.accumulate(values, initial=0.0))[1:]
    rows = [
        (tree.order, tree.multiplicity, value, total, *tree.parents, *[-1] * (K - tree.order))
        for tree, value, total in zip(trees, values, totals)
    ]
    columns = ["order", "multiplicity", "value", "running_total"] + [f"parent_{a}" for a in range(1, K + 1)]
    _write_csv(cfg, out, "trees.csv", columns, rows)


def cmd_selftest(cfg: RunConfig, out: str) -> int:
    """Quick pass/fail ledger over the package invariants; exit status 1 when a check fails."""
    rng = np.random.default_rng(cfg.seed)
    grid = propagator.Grid(8, 2 * math.pi)
    disp = propagator.DispersionRelation("klein_gordon", 1.0)
    cubic = dynamics.NonlinearitySpec({3: 1.0})
    chart = chrono.ChartMap(grid, disp)
    checks: list[tuple[str, bool]] = []

    def data(scale=0.05):
        return propagator.CauchyData(
            grid, scale * rng.standard_normal(grid.M), scale * rng.standard_normal(grid.M), 0.0
        )

    d = data()
    back = propagator.propagate(disp, propagator.propagate(disp, d, 1.3), 0.0)
    checks.append(("propagator_time_reversal", float(np.max(np.abs(back.psi - d.psi))) < 1e-12))
    e0 = propagator.energy(disp, d)
    e1 = propagator.energy(disp, propagator.propagate(disp, d, 2.1))
    checks.append(("energy_conservation", abs(e1 - e0) <= 1e-12 * max(e0, 1.0)))

    traj = dynamics.evolve(data(), 0.0, 0.5, 0.05, disp, dynamics.NonlinearitySpec({}))
    fixed = all(
        np.allclose(st.current.chart_data.psi, traj[0].current.chart_data.psi, atol=1e-13)
        for st in traj
    )
    checks.append(("free_dynamics_chart_fixed_point", fixed))

    bench = propagator.CauchyData(
        grid, 0.05 * np.cos(2 * np.pi * grid.x / grid.Lx), np.zeros(grid.M), 0.0
    )
    res_c, _ = dynamics.duhamel_residual(dynamics.evolve(bench, 0, 1, 0.1, disp, cubic))
    res_f, _ = dynamics.duhamel_residual(dynamics.evolve(bench, 0, 1, 0.05, disp, cubic))
    checks.append(("duhamel_residual_order4", res_c / max(res_f, 1e-300) > 8.0))

    f = chrono.point_eval_functional(chart, 0.0, 0)
    traj = dynamics.evolve(bench, 0.0, 0.3, 0.025, disp, cubic)
    _, values, drift, _ = chrono.invariance_scan(f, traj, chart)
    checks.append(("main_invariance_small_drift", drift < 1e-6))

    X = series.MajorantSeries([0, 0, 0, 2.0])
    tbar = series.guaranteed_time(X, 1.0, 0.5)
    checks.append(("guaranteed_time_closed_form", abs(tbar - 0.75) < 1e-6))

    for name, passed in checks:
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    return 0 if all(passed for _, passed in checks) else 1


COMMANDS = {
    "propagate": cmd_propagate,
    "evolve": cmd_evolve,
    "invariance": cmd_invariance,
    "certify": cmd_certify,
    "trees": cmd_trees,
    "selftest": cmd_selftest,
}


def _parse_argv(argv: list[str]) -> tuple[str, dict[str, str]]:
    """(command, {flag: value}) of argv in the grammar of the module docstring; ValueError names a fault."""
    words, opts, rest = [], {}, list(argv)
    while rest:
        arg = rest.pop(0)
        flag, eq, value = arg.partition("=")
        if arg in ("-h", "--help"):
            print("usage: chrono-duhamel <command> [--config PATH] [--out DIR] [--seed N]")
            print(f"commands: {', '.join(COMMANDS)}")
            raise SystemExit(0)
        if flag in ("--config", "--out", "--seed"):
            if not (eq or rest and not rest[0].startswith("--")):
                raise ValueError(f"argument {flag}: expected one argument")
            opts[flag] = value if eq else rest.pop(0)
        elif arg.startswith("-"):
            raise ValueError(f"unrecognized argument {arg!r}")
        else:
            words.append(arg)
    if len(words) != 1 or words[0] not in COMMANDS:
        raise ValueError(f"invalid choice: {' '.join(words)!r} (give one command of {', '.join(COMMANDS)})")
    if "--seed" in opts:
        try:
            opts["--seed"] = str(int(opts["--seed"]))
        except ValueError:
            raise ValueError(f"argument --seed: invalid int value: {opts['--seed']!r}") from None
    return words[0], opts


def main(argv: list[str] | None = None) -> int:
    try:
        command, opts = _parse_argv(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"chrono-duhamel: error: {exc} (see --help)", file=sys.stderr)
        raise SystemExit(2) from None
    try:
        cfg = RunConfig.load(opts.get("--config"))
        cfg.raw["output"]["seed"] = opts.get("--seed", cfg.raw["output"]["seed"])
        out = opts.get("--out") or cfg.out_dir
        os.makedirs(out, exist_ok=True)
        status = COMMANDS[command](cfg, out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, MemoryError, OverflowError) as exc:
        # a MemoryError usually carries no message: name the exception instead
        detail = str(exc) or type(exc).__name__
        print(f"numerical failure in {command}: {detail}", file=sys.stderr)
        return 1
    return status or 0


if __name__ == "__main__":
    sys.exit(main())
