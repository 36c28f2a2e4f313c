"""CLI behaviour: determinism, exit codes, artifact shapes."""

import json
import math
import os

import numpy as np
import pytest

from chrono_duhamel import chrono, series
from chrono_duhamel.cli import main
from chrono_duhamel.symfun import SymTensor, num_canonical, save_tensor


def write_config(path, body):
    path.write_text(body)
    return str(path)


def snapshot_text(M=8, Lx=2 * math.pi, kind="klein_gordon", m=1.0, t=0.0):
    """Initial data in the snapshot format, with the given header."""
    header = json.dumps({"M": M, "Lx": Lx, "kind": kind, "m": m, "t": t})
    rows = "".join(f"{j * Lx / M!r},0.01,0.0\n" for j in range(M))
    return f"# {header}\nx,psi,chi\n{rows}"


# snapshot files that the parametrized config-error cases name as {tmp}/<file>
SNAPSHOTS = {
    "t03.csv": snapshot_text(t=0.3),
    "m4.csv": snapshot_text(M=4),
    "m6.csv": snapshot_text(M=6),
    "lx1.csv": snapshot_text(Lx=1.0),
    "mass2.csv": snapshot_text(m=2.0),
    "schrodinger.csv": snapshot_text(kind="schrodinger"),
    "garbage.csv": "not a snapshot\n",
    "no_rows.csv": snapshot_text()[: snapshot_text().index("x,psi")],
}


# functional tensor dumps that the parametrized config-error cases name as {tmp}/<file>
TENSORS = {
    "dim8.bin": SymTensor(1, 8, np.ones(8)),
    "nan.bin": SymTensor(1, 16, np.full(16, np.nan)),
}


def from_file(name):
    return f"\n[initial]\nkind = file\nfile = {{tmp}}/{name}\n"


def tensor_file(name):
    return f"\n[functional]\nkind = tensor_file\ntensor_file = {{tmp}}/{name}\n"


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
    rand = write_config(tmp_path / "r.ini", SMALL + "\n[initial]\nkind = random\n")
    assert main(["evolve", "--config", rand, "--out", str(tmp_path / "o"), "--seed", "-5"]) == 2


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
        ("evolve", SMALL + from_file("t03.csv")),
        ("evolve", SMALL + from_file("m4.csv")),
        ("evolve", SMALL + from_file("m6.csv")),
        ("evolve", SMALL + from_file("lx1.csv")),
        ("evolve", SMALL + from_file("mass2.csv")),
        ("evolve", SMALL + from_file("schrodinger.csv")),
        ("evolve", SMALL + from_file("garbage.csv")),
        ("evolve", SMALL + from_file("no_rows.csv")),
        ("invariance", SMALL + from_file("t03.csv")),
        ("certify", SMALL.replace("t2 = 0.25", "t2 = nan")),
        ("certify", SMALL.replace("t1 = 0.0", "t1 = nan")),
        ("invariance", SMALL.replace("t1 = 0.0", "t1 = nan")),
        ("invariance", SMALL.replace("t2 = 0.25", "t2 = inf")),
        ("invariance", SMALL.replace("t2 = 0.25", "t2 = nan")),
        ("evolve", SMALL.replace("t2 = 0.25", "t2 = inf")),
        ("evolve", SMALL.replace("t2 = 0.25", "t2 = nan")),
        ("certify", SMALL + "\n[tolerances]\ns = nan\n"),
        ("propagate", SMALL + "\n[tolerances]\ns = inf\n"),
        ("certify", SMALL + "\n[tolerances]\nm_ref = 0\n"),
        ("invariance", SMALL + "\n[tolerances]\nm_ref = -1\n"),
        ("propagate", SMALL + "\n[tolerances]\nm_ref = 0\n"),
        ("evolve", SMALL + "\n[tolerances]\nm_ref = 0\n"),
        ("evolve", SMALL + "\n[tolerances]\nm_ref = nan\n"),
        ("certify", SMALL + "\n[nonlinearity]\n-1 = 1.0\n"),
        ("certify", SMALL + "\n[nonlinearity]\n3 = nan\n"),
        ("certify", SMALL + "\n[functional]\nx_index = 100\n"),
        ("certify", SMALL + "\n[functional]\nx_index = -1\n"),
        ("certify", SMALL + tensor_file("garbage.csv")),
        ("certify", SMALL + tensor_file("short.bin")),
        ("certify", SMALL + tensor_file("dim8.bin")),
        ("invariance", SMALL + tensor_file("dim8.bin")),
        ("certify", SMALL + tensor_file("nan.bin")),
        ("certify", SMALL + "\n[functional]\nkind = linear_weights\nweights = 1,1,1,1,1,1,1,nan\n"),
        ("certify", SMALL + "\n[tolerances]\nx_coeffs = 0,0,0,inf\n"),
        ("evolve", SMALL + "\n[initial]\nkind = random\n\n[output]\nseed = -5\n"),
        ("invariance", SMALL.replace("degree_cap = 3", "degree_cap = 0")),
        ("trees", SMALL.replace("tree_order = 1", "tree_order = -1")),
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
        "evolve-snapshot-time-off-t1",
        "evolve-snapshot-smaller-grid",
        "evolve-snapshot-grid-not-power-of-two",
        "evolve-snapshot-other-lx",
        "evolve-snapshot-other-mass",
        "evolve-snapshot-other-kind",
        "evolve-snapshot-unparsable",
        "evolve-snapshot-without-rows",
        "invariance-snapshot-time-off-t1",
        "certify-nan-t2",
        "certify-nan-t1",
        "invariance-nan-t1",
        "invariance-infinite-t2",
        "invariance-nan-t2",
        "evolve-infinite-t2",
        "evolve-nan-t2",
        "certify-nan-s",
        "propagate-infinite-s",
        "certify-zero-m-ref",
        "invariance-negative-m-ref",
        "propagate-zero-m-ref",
        "evolve-zero-m-ref",
        "evolve-nan-m-ref",
        "certify-negative-nonlinearity-degree",
        "certify-nan-nonlinearity",
        "certify-x-index-past-the-grid",
        "certify-negative-x-index",
        "certify-tensor-file-not-a-dump",
        "certify-tensor-file-truncated",
        "certify-tensor-file-wrong-dim",
        "invariance-tensor-file-wrong-dim",
        "certify-tensor-file-nan",
        "certify-nan-weights",
        "certify-infinite-x-coeffs",
        "evolve-negative-seed",
        "invariance-cap-below-functional-degree",
        "trees-negative-tree-order",
    ],
)
def test_unsupported_config_is_a_config_error(tmp_path, capsys, command, body):
    for name, text in SNAPSHOTS.items():
        (tmp_path / name).write_text(text)
    for name, tensor in TENSORS.items():
        save_tensor(tensor, str(tmp_path / name))
    (tmp_path / "short.bin").write_bytes(b"SYMT\x01")
    cfg = write_config(tmp_path / "c.ini", body.replace("{tmp}", str(tmp_path)))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_unvouched_flow_time_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(series, "quad", lambda f, a, b, **kw: (1.0, 1e-6))
    cfg = write_config(tmp_path / "c.ini", SMALL)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in certify:") and "Traceback" not in err


def test_memory_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # an allocation that fails inside the transport exits 1 with a message, not a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(chrono, "vdot", exhausted)
    cfg = write_config(tmp_path / "c.ini", SMALL)
    assert main(["invariance", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in invariance: MemoryError") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, body",
    [
        ("propagate", SMALL + "\n[tolerances]\nm_ref = 1e300\n"),
        ("evolve", SMALL + "\n[tolerances]\nm_ref = 1e300\n"),
        ("invariance", SMALL + "\n[tolerances]\nm_ref = 1e300\n"),
        ("certify", SMALL + "\n[tolerances]\nm_ref = 1e300\n"),
        ("certify", SMALL.replace("t2 = 0.25", "t2 = 1e300")),
    ],
    ids=["propagate-m-ref", "evolve-m-ref", "invariance-m-ref", "certify-m-ref", "certify-t2"],
)
def test_float_overflow_is_a_numerical_failure(tmp_path, capsys, command, body):
    # a finite config float whose square overflows raises OverflowError from Python's **
    cfg = write_config(tmp_path / "c.ini", body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure in {command}:") and "Traceback" not in err


def test_unsettled_picard_sweeps_are_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a linear term keeps the operator from being nilpotent; one sweep cannot settle it
    monkeypatch.setattr(chrono, "PICARD_MAX_SWEEPS", 1)
    cfg = write_config(tmp_path / "c.ini", SMALL + "\n[nonlinearity]\n1 = 0.5\n3 = 1.0\n")
    assert main(["invariance", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in invariance:") and "Traceback" not in err


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


def _final_field(out):
    text = (out / "final_field.csv").read_text().splitlines()
    header = json.loads(text[0][2:])
    rows = np.array([[float(v) for v in l.split(",")] for l in text[2:]])
    return header, rows


def test_evolve_restarts_from_its_own_final_field(tmp_path):
    # [0, 0.5] then [0.5, 1] from the written snapshot agrees with one [0, 1] run
    def run(name, body):
        cfg = write_config(tmp_path / f"{name}.ini", body + "\n[output]\nsnapshots = 1\n")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        return _final_field(tmp_path / name)

    run("first", "[times]\nt1 = 0.0\nt2 = 0.5\nsteps = 50\n")
    snap = tmp_path / "first" / "final_field.csv"
    header, restarted = run(
        "second", f"[times]\nt1 = 0.5\nt2 = 1.0\nsteps = 50\n[initial]\nkind = file\nfile = {snap}\n"
    )
    whole_header, whole = run("whole", "[times]\nt1 = 0.0\nt2 = 1.0\nsteps = 100\n")
    assert header == whole_header and header["t"] == 1.0
    assert np.max(np.abs(restarted - whole)) <= 1e-13
