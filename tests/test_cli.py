"""CLI behaviour: determinism, exit codes, artifact shapes."""

import os

import numpy as np
import pytest

from chrono_duhamel import chrono, series
from chrono_duhamel.cli import main
from chrono_duhamel.symfun import SymTensor, num_canonical, save_tensor


def write_config(path, body):
    path.write_text(body)
    return str(path)


SMALL = """
[grid]
m = 8

[times]
t1 = 0.0
t2 = 0.25
steps = 10

[caps]
degree_cap = 3
tree_order = 1
"""


def test_evolve_free_dynamics_constant_norms(tmp_path):
    cfg = write_config(
        tmp_path / "c.ini",
        SMALL + "\n[nonlinearity]\n0 = 0.0\n",
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    rows = [l for l in (out / "trajectory.csv").read_text().splitlines() if not l.startswith("#")]
    norms = [float(r.split(",")[1]) for r in rows[1:]]
    assert np.allclose(norms, norms[0], atol=1e-12)


def test_invariance_command_reports_drift(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", SMALL)
    out = tmp_path / "out"
    assert main(["invariance", "--config", cfg, "--out", str(out)]) == 0
    drift_line = capsys.readouterr().out.strip()
    assert drift_line.startswith("invariance drift:")
    assert float(drift_line.split(":")[1]) < 1e-4
    body = (out / "invariance.csv").read_text()
    assert body.splitlines()[1] == "t,functional_value,running_drift,certified_radius,truncation_events"


def test_certify_preset_closed_form(tmp_path):
    cfg = write_config(
        tmp_path / "c.ini",
        SMALL
        + """
[tolerances]
x_coeffs = 0,0,0,2
certify_radius = 1.0
certify_floor = 0.5
""",
    )
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    rows = [l for l in (out / "certify.csv").read_text().splitlines() if not l.startswith("#")]
    vals = rows[1].split(",")
    T = 0.25
    assert float(vals[2]) == pytest.approx((1 + 4 * T) ** -0.5, rel=1e-8)
    assert float(vals[5]) == pytest.approx(0.75, rel=1e-6)  # guaranteed window


def test_certify_honours_flow_floor(tmp_path):
    # the backward flow of X = 2 z^3 from R = 1 over T = 0.25 ends at 1/sqrt(2),
    # below a flow floor of 0.8, so no radius is certified
    cfg = write_config(
        tmp_path / "c.ini",
        SMALL
        + """
[tolerances]
x_coeffs = 0,0,0,2
certify_radius = 1.0
flow_floor = 0.8
""",
    )
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    rows = [l for l in (out / "certify.csv").read_text().splitlines() if not l.startswith("#")]
    vals = rows[1].split(",")
    assert float(vals[2]) == 0.0 and vals[3] == "0"


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["invariance", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
        assert main(["evolve", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    for name in ("invariance.csv", "trajectory.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_csv_headers_embed_config(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SMALL)
    out = tmp_path / "out"
    main(["certify", "--config", cfg, "--out", str(out)])
    first = (out / "certify.csv").read_text().splitlines()[0]
    assert first.startswith("# config {") and '"grid"' in first


def test_trees_command(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SMALL)
    out = tmp_path / "out"
    assert main(["trees", "--config", cfg, "--out", str(out)]) == 0
    rows = [l for l in (out / "trees.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "order,parents,multiplicity,value"
    assert rows[-1].startswith("total")


def test_config_error_exit_code(tmp_path):
    bad = write_config(tmp_path / "bad.ini", "[grid]\nm = 13\n")
    assert main(["evolve", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    missing = str(tmp_path / "nope.ini")
    assert main(["evolve", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    unknown = write_config(tmp_path / "u.ini", "[grid]\nbogus = 1\n")
    assert main(["evolve", "--config", unknown, "--out", str(tmp_path / "o")]) == 2


def test_numerical_failure_exit_code(tmp_path):
    cfg = write_config(
        tmp_path / "c.ini",
        """
[grid]
m = 8

[nonlinearity]
3 = -1.0

[initial]
amplitude = 80.0

[times]
t1 = 0.0
t2 = 4.0
steps = 8
""",
    )
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_shipped_benchmark_config(tmp_path, capsys):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.ini")
    out = tmp_path / "out"
    assert main(["invariance", "--config", cfg, "--out", str(out)]) == 0
    drift = float(capsys.readouterr().out.split(":")[1])
    assert drift < 1e-6
    # the last row's running_drift column is the summary drift
    rows = [l for l in (out / "invariance.csv").read_text().splitlines() if not l.startswith("#")]
    assert float(rows[-1].split(",")[2]) == pytest.approx(drift, rel=1e-12)


def test_shipped_certify_preset(tmp_path):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "certify_cubic_preset.ini")
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    rows = [l for l in (out / "certify.csv").read_text().splitlines() if not l.startswith("#")]
    assert float(rows[1].split(",")[2]) == pytest.approx((1 + 4 * 0.25) ** -0.5, rel=1e-8)


def test_selftest_ledger(tmp_path, capsys):
    assert main(["selftest", "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "main_invariance_small_drift: PASS" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "command, body",
    [
        ("invariance", SMALL.replace("steps = 10", "steps = 0")),
        ("evolve", SMALL.replace("t2 = 0.25\n", "").replace("steps = 10", "steps = 0")),
        ("evolve", SMALL.replace("steps = 10", "steps = -1")),
        ("propagate", SMALL.replace("steps = 10", "steps = -1")),
        ("evolve", SMALL.replace("t2 = 0.25", "t2 = 0.0")),
        ("propagate", SMALL.replace("t2 = 0.25", "t2 = 0.0")),
        ("invariance", SMALL.replace("t2 = 0.25", "t2 = 0.0")),
        ("invariance", SMALL + "\n[dispersion]\nkind = schrodinger\n"),
        ("certify", SMALL + "\n[dispersion]\nkind = schrodinger\n"),
        ("trees", SMALL + "\n[dispersion]\nkind = schrodinger\n"),
        ("trees", SMALL + "\n[nonlinearity]\n2 = 0.5\n3 = 1.0\n"),
        ("certify", SMALL + "\n[tolerances]\ncertify_floor = 0.5\n"),
        ("certify", SMALL + "\n[tolerances]\ncertify_radius = 0\n"),
        ("certify", SMALL + "\n[tolerances]\ncertify_radius = -1\n"),
        ("invariance", SMALL + "\n[tolerances]\ncertify_radius = -1\n"),
        ("certify", SMALL + "\n[tolerances]\ncertify_radius = inf\n"),
        ("certify", SMALL + "\n[tolerances]\nflow_floor = 0\n"),
        ("invariance", SMALL + "\n[tolerances]\nflow_floor = -1e-12\n"),
        ("invariance", SMALL + "\n[tolerances]\nsubsteps = 0\n"),
    ],
    ids=[
        "invariance-zero-steps",
        "evolve-zero-steps",
        "evolve-negative-steps",
        "propagate-negative-steps",
        "evolve-empty-span",
        "propagate-empty-span",
        "invariance-empty-span",
        "invariance-schrodinger",
        "certify-schrodinger",
        "trees-schrodinger",
        "trees-two-monomials",
        "certify-floor-above-radius",
        "certify-zero-radius",
        "certify-negative-radius",
        "invariance-negative-radius",
        "certify-infinite-radius",
        "certify-zero-flow-floor",
        "invariance-negative-flow-floor",
        "invariance-zero-substeps",
    ],
)
def test_unsupported_config_is_a_config_error(tmp_path, capsys, command, body):
    cfg = write_config(tmp_path / "c.ini", body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_unvouched_flow_time_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(series, "quad", lambda f, a, b, **kw: (1.0, 1e-6))
    cfg = write_config(tmp_path / "c.ini", SMALL)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in certify:") and "Traceback" not in err


def test_invariance_majorant_covers_every_rk4_stage_time(tmp_path, monkeypatch):
    # with two substeps RK4 evaluates the vertex tensors at quarter points of
    # each trajectory interval; the majorant must sample each of those times
    scan_times, sampled = [], []
    vertex_tensors = chrono.ChartMap.vertex_tensors
    transport_majorant = chrono.transport_majorant

    def record_vertex(chart, nonlin, t):
        scan_times.append(t)
        return vertex_tensors(chart, nonlin, t)

    def record_majorant(nonlin, chart, times):
        monkeypatch.setattr(chrono.ChartMap, "vertex_tensors", vertex_tensors)
        sampled.extend(times)
        return transport_majorant(nonlin, chart, times)

    monkeypatch.setattr(chrono.ChartMap, "vertex_tensors", record_vertex)
    monkeypatch.setattr(chrono, "transport_majorant", record_majorant)
    cfg = write_config(tmp_path / "c.ini", SMALL + "\n[tolerances]\nsubsteps = 2\n")
    assert main(["invariance", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    nodes = np.array(sampled)
    assert len(nodes) == 2 * 10 * 2 + 1 and len(set(scan_times)) > 2 * 10 + 1
    assert max(np.min(np.abs(nodes - t)) for t in scan_times) <= 1e-12


def test_trees_rejects_a_nonlinear_functional(tmp_path, capsys):
    path = tmp_path / "f.symt"
    save_tensor(SymTensor(2, 16, np.ones((1, num_canonical(16, 2)))), str(path))
    body = SMALL + f"\n[functional]\nkind = tensor_file\ntensor_file = {path}\n"
    cfg = write_config(tmp_path / "c.ini", body)
    assert main(["trees", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def _data_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    names = lines[0].split(",")
    return [dict(zip(names, l.split(","))) for l in lines[1:]]


def test_every_csv_cell_parses_as_a_number(tmp_path):
    kg = write_config(tmp_path / "kg.ini", SMALL + "\n[output]\nsnapshots = 1\n")
    sch = write_config(
        tmp_path / "sch.ini", SMALL + "\n[dispersion]\nkind = schrodinger\n[output]\nsnapshots = 1\n"
    )
    runs = [(c, kg) for c in ("propagate", "evolve", "invariance", "certify", "trees")]
    runs += [(c, sch) for c in ("propagate", "evolve")]
    for command, cfg in runs:
        out = tmp_path / f"{command}-{os.path.basename(cfg)}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    csvs = sorted(tmp_path.glob("*/*.csv"))
    assert {p.name for p in csvs} >= {
        "propagate.csv", "trajectory.csv", "final_field.csv", "invariance.csv", "certify.csv", "trees.csv",
    }
    for path in csvs:
        schrodinger_snapshot = path.parent.name.endswith("sch.ini") and path.name not in (
            "propagate.csv",
            "trajectory.csv",
        )
        for row in _data_rows(path):
            for name, cell in row.items():
                if path.name == "trees.csv" and name == "parents":
                    assert cell == "" or all(p.isdigit() for p in cell.split("-"))
                elif path.name == "trees.csv" and row["order"] == "total" and name != "value":
                    assert cell in ("total", "")
                elif schrodinger_snapshot and name == "chi":
                    assert cell == ""
                elif schrodinger_snapshot and name == "psi":
                    complex(cell)
                else:
                    float(cell)
