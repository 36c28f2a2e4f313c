"""Batch driver: ``chrono-duhamel <command> [--config PATH] [--out DIR] [--seed N]``.

Commands: propagate, evolve, invariance, certify, trees, selftest.  Options go before or after the
command as ``--flag value`` or ``--flag=value``, unabbreviated; the last of a repeated flag wins.
The INI config (defaults in DEFAULTS) is read by stripped lines: blank ones and ``#`` or ``;``
comments are skipped, ``[name]`` opens a section, and ``key = value`` or ``key: value`` splits at
the first ``=`` or ``:`` into a lowercased key and a literal value; no section, nor key within one,
repeats.  Outputs are deterministic for a fixed config+seed, and every CSV carries the resolved
config in its header.  The ``cau_norm`` of ``trajectory.csv`` is the chart norm, the Cauchy norm of
the data pulled back to t = 0 that the certificate's radii bound; ``propagate.csv``'s is the norm at t.
Two cells are non-finite by design: ``energy`` is ``nan`` on every row of ``propagate.csv`` and
``trajectory.csv`` for the Schrodinger kind, whose energy is defined for Klein-Gordon only, and
``certify.csv``'s ``guaranteed_time`` is ``inf`` for a zero nonlinearity, whose field never moves
the radius.  Exit status: 0 success, 1 numerical failure, 2 configuration error (a bad command
line or config, an unreadable input or unwritable output path); each prints one line.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field

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
        "flow_floor": "1e-12",
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
        return (
            self._get("times", "t1", float),
            self._get("times", "t2", float),
            self._get("times", "steps", int),
        )

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

    def initial_data(self) -> propagator.CauchyData:
        grid, disp = self.grid, self.disp
        kind = self.raw["initial"]["kind"]
        t1 = self.times[0]
        if kind == "file":
            path = self.raw["initial"]["file"]
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

    def functional(self, chart: chrono.ChartMap) -> symfun.SymFunctional:
        kind = self.raw["functional"]["kind"]
        if kind == "tensor_file":
            path = self.raw["functional"]["tensor_file"]
            try:
                tensor = symfun.load_tensor(path)
            except (ValueError, struct.error) as exc:
                raise ConfigError(f"unreadable functional tensor file {path!r}: {exc}") from exc
            if (tensor.dim, tensor.codomain_dim) != (chart.dim, 1):
                raise ConfigError(f"functional tensor file {path!r} must be scalar over dim {chart.dim}")
            if not np.all(np.isfinite(tensor.coeffs)):
                raise ConfigError(f"functional tensor file {path!r} has non-finite coefficients")
            return symfun.SymFunctional([tensor])
        if kind == "point_eval":
            x_index = self._get("functional", "x_index", int)
            if not 0 <= x_index < chart.grid.M:
                raise ConfigError(f"[functional] x_index must lie in [0, {chart.grid.M})")
        elif kind == "linear_weights":
            w = self._floats("functional", "weights")
            if w.size != chart.grid.M:
                raise ConfigError("functional weights length must equal the grid size")
        else:
            raise ConfigError(f"unknown functional kind {kind!r}")
        t_pt = self._get("functional", "t_point", float)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = chart.rows_and_columns(t_pt)[0]
        if not np.all(np.isfinite(rows)):
            raise FloatingPointError(f"the sampling rows at [functional] t_point = {t_pt!r} overflow")
        row = rows[x_index] if kind == "point_eval" else (w * chart.grid.dx) @ rows
        return symfun.SymFunctional([symfun.SymTensor(1, chart.dim, row)])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _write_csv(path: str, header: str, lines: list[str], cfg: RunConfig) -> None:
    with open(path, "w") as fh:
        fh.write(f"# config {cfg.resolved_json()}\n")
        fh.write(header + "\n")
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def _time_grid(cfg: RunConfig, command: str) -> tuple[float, float, int]:
    """(t1, t2, steps) of a command that steps from t1 to t2 in equal intervals."""
    t1, t2, steps = cfg.times
    if steps < 1:
        raise ConfigError(f"{command} needs [times] steps >= 1")
    if t2 == t1:
        raise ConfigError(f"{command} needs [times] t2 != t1")
    return t1, t2, steps


def cmd_propagate(cfg: RunConfig, out: str) -> None:
    grid, disp = cfg.grid, cfg.disp
    t1, t2, steps = _time_grid(cfg, "propagate")
    data = cfg.initial_data()
    s, m_ref = cfg.norm_weights
    taus = np.linspace(t1, t2, steps + 1)
    snapshots = [f"field_{tau:.6f}.csv" for tau in taus] if cfg.snapshots else []
    if len(set(snapshots)) < len(snapshots):
        raise ConfigError("propagate snapshot times closer than 1e-6 would share a file name")
    lines = []
    for i, tau in enumerate(taus):
        with np.errstate(all="ignore"):
            snap = propagator.propagate(disp, data, float(tau))
            nrm = propagator.cau_norm(disp, snap, s, m_ref)
            en = propagator.energy(disp, snap) if disp.second_order else float("nan")
        # the Schrodinger energy column is nan by definition
        if not (math.isfinite(nrm) and (math.isfinite(en) or not disp.second_order)):
            raise FloatingPointError(f"cau_norm {nrm!r} or energy {en!r} at t = {float(tau)!r}")
        lines.append(f"{float(tau)!r},{nrm!r},{en!r}")
        if snapshots:
            propagator.save_snapshot(disp, snap, os.path.join(out, snapshots[i]))
    _write_csv(os.path.join(out, "propagate.csv"), "t,cau_norm,energy", lines, cfg)


def _trajectory(cfg: RunConfig, t1: float, t2: float, steps: int) -> list[dynamics.EvolutionState]:
    """``evolve`` over [t1, t2] in ``steps`` equal steps."""
    return dynamics.evolve(cfg.initial_data(), t1, t2, abs(t2 - t1) / steps, cfg.disp, cfg.nonlin)


def cmd_evolve(cfg: RunConfig, out: str) -> None:
    t1, t2, steps = _time_grid(cfg, "evolve")
    s, m_ref = cfg.norm_weights
    snapshot = cfg.snapshots
    traj = _trajectory(cfg, t1, t2, steps)
    _write_csv(os.path.join(out, "trajectory.csv"), *dynamics.trajectory_csv(traj, s, m_ref), cfg)
    if snapshot:
        last = traj[-1]
        snap = propagator.sample_at(last.disp, last.current, last.time)
        propagator.save_snapshot(last.disp, snap, os.path.join(out, "final_field.csv"))


def _window_tolerances(cfg: RunConfig, command: str) -> tuple[float, float]:
    """(certify_radius, flow_floor) of a command that certifies a window."""
    R, floor = cfg.tol("certify_radius"), cfg.tol("flow_floor")
    if not R > 0:
        raise ConfigError(f"{command} needs [tolerances] certify_radius > 0")
    if not floor > 0:
        raise ConfigError(f"{command} needs [tolerances] flow_floor > 0")
    return R, floor


def _chart(cfg: RunConfig) -> chrono.ChartMap:
    if not cfg.disp.second_order:
        raise ConfigError(f"functional transport needs [dispersion] kind = {propagator.KLEIN_GORDON}")
    return chrono.ChartMap(cfg.grid, cfg.disp, *cfg.norm_weights)


def cmd_invariance(cfg: RunConfig, out: str) -> None:
    t1, t2, steps = _time_grid(cfg, "invariance")
    R, floor = _window_tolerances(cfg, "invariance")
    substeps = cfg.tol("substeps", int)
    if substeps < 1:
        raise ConfigError("invariance needs [tolerances] substeps >= 1")
    chart = _chart(cfg)
    f = cfg.functional(chart)
    cap = cfg._get("caps", "degree_cap", int)
    if cap < f.max_degree:
        raise ConfigError(f"invariance needs [caps] degree_cap >= {f.max_degree}, the functional's degree")
    traj = _trajectory(cfg, t1, t2, steps)
    times, values, drift, events = chrono.invariance_scan(
        f, traj, t1, t2, chart, substeps=substeps, cap=cap
    )
    X = chrono.transport_majorant(cfg.nonlin, chart, np.array([t1, t2]))
    rec = chrono.certify_window(symfun.majorant_of(f), X, R, abs(t2 - t1), floor=floor)
    _write_csv(
        os.path.join(out, "invariance.csv"),
        *chrono.invariance_csv(times, values, rec.certified_radius, events),
        cfg,
    )
    print(f"invariance drift: {drift!r}")


def cmd_certify(cfg: RunConfig, out: str) -> None:
    t1, t2, _ = cfg.times
    R, floor = _window_tolerances(cfg, "certify")
    if not 0 < cfg.tol("certify_floor") < R:
        raise ConfigError("certify needs 0 < [tolerances] certify_floor < certify_radius")
    chart = _chart(cfg)
    f = cfg.functional(chart)
    if cfg.raw["tolerances"]["x_coeffs"]:
        try:
            X = series.MajorantSeries(cfg._floats("tolerances", "x_coeffs"))
        except ValueError as exc:
            raise ConfigError(f"bad x_coeffs: {exc}") from exc
    else:
        X = chrono.transport_majorant(cfg.nonlin, chart, np.array([t1, t2]))
    t_bar = series.guaranteed_time(X, R, cfg.tol("certify_floor"))
    span = abs(t2 - t1)
    rec = chrono.certify_window(symfun.majorant_of(f), X, R, span, floor=floor)
    lines = [
        f"{R!r},{span!r},{rec.certified_radius!r},{int(rec.window_ok)},"
        f"{float(rec.f_majorant_at_R)!r},{t_bar!r}"
    ]
    _write_csv(
        os.path.join(out, "certify.csv"),
        "radius_in,span,certified_radius,window_ok,f_majorant_at_R,guaranteed_time",
        lines,
        cfg,
    )


def cmd_trees(cfg: RunConfig, out: str) -> None:
    t1, t2, _ = cfg.times
    nonlin = cfg.nonlin
    chart = _chart(cfg)
    f = cfg.functional(chart)
    K = cfg._get("caps", "tree_order", int)
    if K < 0:
        raise ConfigError("trees needs [caps] tree_order >= 0")
    try:
        trees, _ = chrono.tree_expand(f, t1, t2, K, cfg.disp, nonlin, chart)
    except ValueError as exc:
        raise ConfigError(f"trees: {exc}") from exc
    u = propagator.make_free_solution(cfg.disp, cfg.initial_data())
    lines, total = [], 0.0
    with np.errstate(all="ignore"):
        for tree, contrib in zip(trees, chrono.evaluate_trees(trees, f, u, t1, t2, nonlin, chart)):
            parents = "-".join(map(str, tree.parents))
            total += contrib
            if not math.isfinite(total):
                raise FloatingPointError(
                    f"order-{tree.order} tree ({parents}) contributes {contrib!r}, total {total!r}"
                )
            lines.append(f"{tree.order},{parents},{tree.multiplicity},{contrib!r}")
    lines.append(f"total,,,{total!r}")
    _write_csv(os.path.join(out, "trees.csv"), "order,parents,multiplicity,value", lines, cfg)


def cmd_selftest(cfg: RunConfig, out: str) -> int:
    """Quick pass/fail ledger over the package invariants; exit status 1 when a check fails."""
    rng = np.random.default_rng(cfg.seed)
    grid = propagator.Grid(8, 2 * math.pi)
    disp = propagator.DispersionRelation("klein_gordon", 1.0)
    cubic = dynamics.NonlinearitySpec.cubic(1.0)
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

    traj = dynamics.evolve(data(), 0.0, 0.5, 0.05, disp, dynamics.NonlinearitySpec.zero())
    fixed = all(
        np.allclose(st.current.chart_data.psi, traj[0].current.chart_data.psi, atol=1e-13)
        for st in traj
    )
    checks.append(("free_dynamics_chart_fixed_point", fixed))

    bench = propagator.CauchyData(
        grid, 0.05 * np.cos(2 * np.pi * grid.x / grid.Lx), np.zeros(grid.M), 0.0
    )
    res_c, _ = dynamics.duhamel_residual(dynamics.evolve(bench, 0, 1, 0.1, disp, cubic), 0, 1)
    res_f, _ = dynamics.duhamel_residual(dynamics.evolve(bench, 0, 1, 0.05, disp, cubic), 0, 1)
    checks.append(("duhamel_residual_order4", res_c / max(res_f, 1e-300) > 8.0))

    f = chrono.point_eval_functional(chart, 0.0, 0)
    traj = dynamics.evolve(bench, 0.0, 0.3, 0.025, disp, cubic)
    _, values, drift, _ = chrono.invariance_scan(f, traj, 0.0, 0.3, chart)
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
    except (dynamics.DivergenceError, FloatingPointError, MemoryError, OverflowError) as exc:
        # a MemoryError usually carries no message: name the exception instead
        detail = str(exc) or type(exc).__name__
        print(f"numerical failure in {command}: {detail}", file=sys.stderr)
        return 1
    return status or 0


if __name__ == "__main__":
    sys.exit(main())
