"""Each output check accepts a correct output and rejects a perturbed one.

    python3 -m pytest -q bench/test_checks.py

The certify and evolve cases perturb files that the program itself wrote;
the transport case builds its CSV by hand, because one cold invariance
command takes about 10 s.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
import worker

cli = worker.import_program()


def run(op) -> None:
    assert cli.main(op.argv) == 0


def set_cell(path: Path, column: str, row: int, text: str) -> None:
    """Replace one CSV cell, counting rows after the header line."""
    lines = path.read_text().splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    j = lines[head].split(",").index(column)
    cells = lines[head + 1 + row].split(",")
    cells[j] = text
    lines[head + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def scale_cell(path: Path, column: str, row: int, factor: float, shift: float = 0.0) -> None:
    header, rows = checks.read_csv(path)
    value = float(rows[row][header.index(column)])
    set_cell(path, column, row, repr(value * factor + shift))


# -- transport ----------------------------------------------------------------


def write_invariance(path: Path, values) -> None:
    rows = [f"{0.0125 * i!r},{v!r},0.0,0.1,0" for i, v in enumerate(values)]
    path.write_text(
        "# config {}\nt,functional_value,running_drift,certified_radius,truncation_events\n"
        + "\n".join(rows) + "\n"
    )


def test_transport_check(tmp_path):
    exact = checks.free_cosine_value(0.05, 1, 1.0, 2 * math.pi, 8, 0.3, 1)
    assert abs(exact) > 0.02
    path = tmp_path / "invariance.csv"
    write_invariance(path, [exact + 1e-9] * 41)
    checks.check_invariance(path, exact)
    for bad in ([exact] * 40 + [exact + 2e-6], [exact] * 20 + [-exact] + [exact] * 20):
        write_invariance(path, bad)
        with pytest.raises(checks.CheckFailed):
            checks.check_invariance(path, exact)
    write_invariance(path, [exact] * 41)
    set_cell(path, "certified_radius", 3, "np.float64(0.1)")
    with pytest.raises(checks.CheckFailed):
        checks.check_invariance(path, exact)


def test_free_cosine_value_is_the_free_solution():
    grid = cli.propagator.Grid(8, 2 * math.pi)
    disp = cli.propagator.DispersionRelation("klein_gordon", 1.0)
    psi = 0.04 * np.cos(3 * grid.x)
    data = cli.propagator.CauchyData(grid, psi, np.zeros(8), 0.0)
    later = checks.kg_propagate(psi, np.zeros(8), 0.7, 1.0, 2 * math.pi)[0]
    assert np.allclose(later, cli.propagator.propagate(disp, data, 0.7).psi, atol=1e-15)
    for j in range(8):
        assert math.isclose(later[j], checks.free_cosine_value(0.04, 3, 1.0, 2 * math.pi, 8, 0.7, j),
                            abs_tol=1e-15)


# -- certify ------------------------------------------------------------------


@pytest.fixture(scope="module")
def certify_ops(tmp_path_factory):
    ops = workloads.make_round("certify", 3, 0, tmp_path_factory.mktemp("certify"))
    return ops[0], ops[workloads.CERTIFY_PRESET_SLOT]


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("column,factor", [("certified_radius", 1 + 1e-6),
                                           ("guaranteed_time", 1 - 1e-6),
                                           ("span", 1 + 1e-6)])
def test_certify_check(certify_ops, which, column, factor):
    op = certify_ops[which]
    op.clear()
    run(op)
    op.check(op)
    scale_cell(op.out / "certify.csv", column, 0, factor)
    with pytest.raises(checks.CheckFailed):
        op.check(op)


def test_preset_check_needs_the_closed_form():
    exact = {"radius_in": 1.0, "span": 0.25, "certified_radius": 1 / math.sqrt(2),
             "window_ok": 1.0, "guaranteed_time": 0.75}
    checks.check_preset(exact)
    checks.check_cubic_flow(exact, 0.5)
    # X = 4 z^3 satisfies the flow identity but not the preset's closed form
    other = dict(exact, certified_radius=1 / math.sqrt(3), guaranteed_time=0.375)
    checks.check_cubic_flow(other, 0.5)
    with pytest.raises(checks.CheckFailed):
        checks.check_preset(other)


# -- evolve -------------------------------------------------------------------


@pytest.fixture(scope="module")
def evolve_op(tmp_path_factory):
    op = workloads.make_round("evolve", 5, 0, tmp_path_factory.mktemp("evolve"))[0]
    run(op)
    return op


def test_evolve_check_accepts_program_output(evolve_op):
    evolve_op.check(evolve_op)


@pytest.mark.parametrize("column,shift", [("psi", 1e-4), ("chi", -1e-4)])
def test_evolve_check_rejects_perturbed_endpoint(evolve_op, column, shift):
    path = evolve_op.out / "final_field.csv"
    saved = path.read_text()
    try:
        scale_cell(path, column, 5, 1.0, shift)
        with pytest.raises(checks.CheckFailed):
            evolve_op.check(evolve_op)
    finally:
        path.write_text(saved)


@pytest.mark.parametrize("text", ["np.float64(0.5)", "nan?", ""])
def test_evolve_check_rejects_unparsable_trajectory(evolve_op, text):
    path = evolve_op.out / "trajectory.csv"
    saved = path.read_text()
    try:
        set_cell(path, "duhamel_residual_running", 50, text)
        with pytest.raises(checks.CheckFailed):
            evolve_op.check(evolve_op)
    finally:
        path.write_text(saved)


def test_evolve_check_rejects_missing_rows(evolve_op):
    path = evolve_op.out / "trajectory.csv"
    saved = path.read_text()
    try:
        path.write_text("\n".join(saved.splitlines()[:-1]) + "\n")
        with pytest.raises(checks.CheckFailed):
            evolve_op.check(evolve_op)
    finally:
        path.write_text(saved)


# -- rounds -------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.ROUND_SIZE))
def test_round_depends_only_on_seed_and_slot(tmp_path, workload):
    def text(seed, slot, where):
        workloads.make_round(workload, seed, slot, tmp_path / where)
        files = sorted((tmp_path / where).iterdir())
        return [f.read_text().replace(str(tmp_path / where), "") for f in files]

    assert text(11, 0, "a") == text(11, 0, "b")
    assert text(11, 0, "a") != text(12, 0, "c")
    assert text(11, 0, "a") != text(11, 1, "d")


def test_certify_rounds_keep_their_points(tmp_path):
    """Every round draws operation i near CERTIFY_POINTS[i], so rounds cost alike."""
    for seed, slot in ((1, 0), (2, 5)):
        ops = workloads.make_round("certify", seed, slot, tmp_path / f"{seed}-{slot}")
        for op, point in zip(ops, workloads.CERTIFY_POINTS):
            ini = configparser.ConfigParser()
            ini.read(op.config)
            radius = ini.getfloat("tolerances", "certify_radius")
            drawn = (radius, ini.getfloat("tolerances", "certify_floor") / radius,
                     ini.getfloat("times", "t2"), ini.getfloat("nonlinearity", "3"))
            for value, centre in zip(drawn, point):
                assert abs(value / centre - 1) <= workloads.JITTER + 1e-12


# -- timing -------------------------------------------------------------------


def test_times_are_scaled_to_reference_speed():
    import run

    def proc(role, setup_s, ref_s, ops=()):
        return {"role": role, "setup_s": setup_s, "ref_s": ref_s, "peak_rss_kb": 2048,
                "ops": [{"phase": ph, "seconds": s, "ref_s": ref_s} for ph, s in ops]}

    # a machine at half the reference speed: every time reads half as long
    slow = 2 * run.REF_S
    procs = [proc("run", 1.0, slow, [("cold", 3.0), ("warm", 2.0), ("warm", 2.0)]),
             proc("setup", 1.0, slow)]
    scale = run.speed_scale(procs)
    assert scale == 0.5
    metrics = run.end_to_end(procs, scale)
    assert metrics["setup_s"] == (0.5, "s") and metrics["cold_s"] == (1.5, "s")
    assert metrics["warm_s"] == (1.0, "s") and metrics["peak_rss_mb"] == (2.0, "MB")


# -- tracer -------------------------------------------------------------------


def test_tracer_counts_repeat_and_uninstall_restores(tmp_path):
    from tracer import Tracer

    op = workloads.make_round("certify", 4, 0, tmp_path)[0]
    flow = cli.chrono.flow
    tracer = Tracer()
    snaps = []
    for _ in range(2):
        tracer.reset()
        tracer.new_operation()
        tracer.install()
        try:
            run(op)
        finally:
            tracer.uninstall()
        snaps.append(tracer.snapshot())
    assert cli.chrono.flow is flow and cli.series.flow is flow
    assert snaps[0]["calls"] == snaps[1]["calls"] and snaps[0]["counts"] == snaps[1]["counts"]
    calls = snaps[0]["calls"]
    assert calls["cli.main"] == 1 and calls["series.guaranteed_time"] == 1
    # guaranteed_time flows inside series, certify_window through chrono's name
    assert calls["series.flow"] > 2
    assert snaps[0]["counts"]["chrono.vertex_tensors.distinct_t"] == 81
    assert "chrono.vdot" not in calls
