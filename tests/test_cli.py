"""CLI behaviour: determinism, exit codes, artifact shapes."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import chrono_duhamel
from chrono_duhamel import chrono, series
from chrono_duhamel.cli import main
from chrono_duhamel.propagator import Grid
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
    "no_chi.csv": snapshot_text().replace(",0.0\n", ",\n"),
    "partial_chi.csv": snapshot_text().replace(",0.0\n", ",\n").replace(",\n", ",0.0\n", 1),
    "nan.csv": snapshot_text().replace(",0.01,", ",nan,", 1),
    "inf.csv": snapshot_text().replace(",0.0\n", ",inf\n", 1),
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

# t_point = 1e300 overflows the functional's sampling rows; a [tolerances] line follows
OVERFLOWING_ROWS = "[grid]\nm = 4\nlx = 1e-110\n[functional]\nt_point = 1e300\n[tolerances]\n"


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


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.mark.parametrize(
    "config", ["benchmark.ini", None, "certify_cubic_preset.ini"], ids=["benchmark", "defaults", "preset"]
)
def test_invariance_and_certify_write_one_certified_radius(tmp_path, config):
    # both commands build the one certificate of a config; the preset's x_coeffs = 0,0,0,2
    # from R = 1 over T = 1/4 ends just below 1/sqrt(2) in both
    argv = ["--out", str(tmp_path)] + (["--config", os.path.join(CONFIGS, config)] if config else [])
    for command in ("invariance", "certify"):
        assert main([command, *argv]) == 0
    (certified,) = {row["certified_radius"] for row in _data_rows(tmp_path / "certify.csv")}
    assert {row["certified_radius"] for row in _data_rows(tmp_path / "invariance.csv")} == {certified}
    if config == "certify_cubic_preset.ini":
        assert (1 - 1e-11) / math.sqrt(2) <= float(certified) <= 1 / math.sqrt(2)


def test_certify_over_a_span_past_any_window_certifies_nothing(tmp_path, capsys):
    # t_max^2 would overflow: the block sups still form min(t_max, 1/eps)^2
    for t2 in ("1e300", "1.7e308"):
        cfg = write_config(tmp_path / "c.ini", SMALL.replace("t2 = 0.25", f"t2 = {t2}"))
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        rows = [l for l in (out / "certify.csv").read_text().splitlines() if not l.startswith("#")]
        vals = rows[1].split(",")
        assert float(vals[2]) == 0.0 and vals[3] == "0"
    assert capsys.readouterr().err == ""


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
    # one row per tree of tree_expand, every cell a number: the parents padded with -1 up to tree_order
    shipped = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.ini")
    assert main(["trees", "--config", shipped, "--out", str(tmp_path)]) == 0
    assert _data_lines(tmp_path / "trees.csv") == [
        "order,multiplicity,value,running_total,parent_1,parent_2",
        "0,1,0.05,0.05,-1,-1",
        "1,1,-1.0050977643501357e-05,0.049989949022356504,0,-1",
        "2,3,1.2444556569336148e-09,0.04998995026681216,0,1",
    ]


def test_trees_total_is_the_left_to_right_sum_of_its_values(tmp_path):
    # each running_total cell adds the value cells with += in the order of the rows; on these
    # cells math.fsum and the reversed order each give other bits for the last one
    body = SMALL.replace("tree_order = 1", "tree_order = 4") + "\n[initial]\namplitude = 0.3\n"
    cfg = write_config(tmp_path / "c.ini", body)
    out = tmp_path / "out"
    assert main(["trees", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "trees.csv").read_text().splitlines()[2:]]
    total = 0.0
    for row in rows:
        total += float(row[2])
        assert float(row[3]) == total


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


def test_benchmark_problem_at_m16(tmp_path, capsys):
    # dimension 32 at cap 5: the last Picard sweep is never stored as degree-5 tensors
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.ini")
    with open(path) as fh:
        body = fh.read()
    assert "\nm = 8\n" in body
    cfg = write_config(tmp_path / "c.ini", body.replace("\nm = 8\n", "\nm = 16\n"))
    assert main(["invariance", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert float(capsys.readouterr().out.split(":")[1]) <= 1e-6


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


def test_a_failed_selftest_check_exits_1_after_the_whole_ledger(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(series, "guaranteed_time", lambda *args: 0.0)
    assert main(["selftest", "--out", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6 and out[-1] == "guaranteed_time_closed_form: FAIL"
    assert all(line.endswith(": PASS") for line in out[:-1])


# (command, body) of configs that each exit 2 with one line; {tmp} names the directory of
# SNAPSHOTS, TENSORS and short.bin
CONFIG_ERRORS = [
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
    # the flow floor is fixed: a config that still names the old field is refused
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
    ("certify", SMALL + "\n[functional]\nkind = tensor_file\n"),
    ("evolve", SMALL + "\n[initial]\nkind = file\n"),
    ("certify", SMALL + "\n[functional]\nkind = linear_weights\nweights = 1,1,1,1,1,1,1,nan\n"),
    ("certify", SMALL + "\n[functional]\nkind = linear_weights\nweights = 1,0,0\n"),
    ("certify", SMALL + "\n[tolerances]\nx_coeffs = 0,0,0,inf\n"),
    ("evolve", SMALL + "\n[initial]\nkind = random\n\n[output]\nseed = -5\n"),
    ("invariance", SMALL.replace("degree_cap = 3", "degree_cap = 0")),
    ("trees", SMALL.replace("tree_order = 1", "tree_order = -1")),
    ("evolve", SMALL + "\n[output]\nsnapshots = -3\n"),
    ("propagate", SMALL + "\n[output]\nsnapshots = 2\n"),
    ("certify", SMALL + "\n[solver]\norder = 4\n"),
    ("evolve", SMALL.replace("m = 8", "m = abc")),
    ("certify", SMALL + "\n[functional]\nkind = linear_weights\nweights = a,b\n"),
    ("propagate", SMALL + "\n[dispersion]\nkind = wave\n"),
    ("evolve", SMALL + from_file("no_chi.csv")),
    ("evolve", SMALL + from_file("partial_chi.csv")),
    ("propagate", SMALL + from_file("partial_chi.csv")),
    ("invariance", SMALL + from_file("partial_chi.csv")),
    ("trees", SMALL + from_file("partial_chi.csv")),
    ("evolve", SMALL + from_file("nan.csv")),
    ("invariance", SMALL + from_file("nan.csv")),
    ("evolve", SMALL + from_file("inf.csv")),
    ("propagate", SMALL + from_file("inf.csv")),
    ("invariance", SMALL + "\n[tolerances]\nx_coeffs = 0,-1\n"),
    # the window's fields are checked before the functional's sampling rows overflow
    ("invariance", OVERFLOWING_ROWS + "certify_radius = -1\n"),
    ("certify", OVERFLOWING_ROWS + "x_coeffs = 0,-1\n"),
    # each of these faults is checked before the chart is built and the sampling rows overflow
    ("invariance", OVERFLOWING_ROWS + "[caps]\ndegree_cap = 0\n"),
    ("trees", OVERFLOWING_ROWS + "[caps]\ntree_order = -1\n"),
    ("trees", OVERFLOWING_ROWS + "[nonlinearity]\n3 = 1.0\n5 = 1.0\n"),
    ("evolve", SMALL + "\n[initial]\nkind = sine\n"),
    ("certify", SMALL + "\n[functional]\nkind = foo\n"),
    ("certify", SMALL + "\n[tolerances]\nx_coeffs = 0,-1\n"),
    ("evolve", SMALL + from_file("a%b.csv")),
    ("certify", SMALL + "\n[tolerances]\ncertify_radius = 20%\n"),
    ("evolve", SMALL.replace("m = 8", "m = 8\nlx = 1e-300")),
    ("trees", SMALL.replace("m = 8", "m = 8\nlx = 1e-300")),
    ("invariance", SMALL.replace("m = 8", "m = 8\nlx = 1e-300")),
    ("certify", SMALL.replace("m = 8", "m = 8\nlx = 1e-300")),
    ("propagate", SMALL + "\n[dispersion]\nmass = 1e160\n"),
    ("evolve", SMALL + "\n[dispersion]\nmass = 1e160\n"),
    ("trees", SMALL + "\n[dispersion]\nmass = 1e160\n"),
    ("invariance", SMALL + "\n[dispersion]\nmass = 1e160\n"),
    ("certify", SMALL + "\n[dispersion]\nmass = 1e160\n"),
    ("propagate", SMALL.replace("m = 8", "m = 8\nlx = 2.5e-153") + "\n[dispersion]\nmass = 1.3e154\n"),
    ("evolve", SMALL.replace("m = 8", "m = 8\nlx = 2.5e-153") + "\n[dispersion]\nmass = 1.3e154\n"),
    ("trees", SMALL.replace("m = 8", "m = 8\nlx = 2.5e-153") + "\n[dispersion]\nmass = 1.3e154\n"),
    ("invariance", SMALL.replace("m = 8", "m = 8\nlx = 2.5e-153") + "\n[dispersion]\nmass = 1.3e154\n"),
    ("certify", SMALL.replace("m = 8", "m = 8\nlx = 2.5e-153") + "\n[dispersion]\nmass = 1.3e154\n"),
]
CONFIG_ERROR_IDS = [
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
    "certify-tensor-file-empty",
    "evolve-initial-file-empty",
    "certify-nan-weights",
    "certify-weights-of-the-wrong-length",
    "certify-infinite-x-coeffs",
    "evolve-negative-seed",
    "invariance-cap-below-functional-degree",
    "trees-negative-tree-order",
    "evolve-negative-snapshots",
    "propagate-snapshots-above-one",
    "certify-unknown-section",
    "evolve-non-numeric-grid-size",
    "certify-unparsable-weights",
    "propagate-unknown-dispersion-kind",
    "evolve-klein-gordon-snapshot-without-chi",
    "evolve-snapshot-with-a-partly-empty-chi",
    "propagate-snapshot-with-a-partly-empty-chi",
    "invariance-snapshot-with-a-partly-empty-chi",
    "trees-snapshot-with-a-partly-empty-chi",
    "evolve-snapshot-with-a-nan-cell",
    "invariance-snapshot-with-a-nan-cell",
    "evolve-snapshot-with-an-inf-cell",
    "propagate-snapshot-with-an-inf-cell",
    "invariance-negative-x-coeffs",
    "invariance-negative-radius-and-overflowing-rows",
    "certify-negative-x-coeffs-and-overflowing-rows",
    "invariance-cap-below-functional-degree-and-overflowing-rows",
    "trees-negative-tree-order-and-overflowing-rows",
    "trees-two-monomials-and-overflowing-rows",
    "evolve-unknown-initial-kind",
    "certify-unknown-functional-kind",
    "certify-negative-x-coeffs",
    "evolve-percent-in-a-missing-file-name",
    "certify-percent-in-a-number",
    "evolve-lx-whose-frequencies-overflow",
    "trees-lx-whose-frequencies-overflow",
    "invariance-lx-whose-frequencies-overflow",
    "certify-lx-whose-frequencies-overflow",
    "propagate-mass-whose-square-overflows",
    "evolve-mass-whose-square-overflows",
    "trees-mass-whose-square-overflows",
    "invariance-mass-whose-square-overflows",
    "certify-mass-whose-square-overflows",
    "propagate-mass-and-frequency-whose-squares-sum-past-overflow",
    "evolve-mass-and-frequency-whose-squares-sum-past-overflow",
    "trees-mass-and-frequency-whose-squares-sum-past-overflow",
    "invariance-mass-and-frequency-whose-squares-sum-past-overflow",
    "certify-mass-and-frequency-whose-squares-sum-past-overflow",
]


@pytest.mark.parametrize("command, body", CONFIG_ERRORS, ids=CONFIG_ERROR_IDS)
def test_unsupported_config_is_a_config_error(tmp_path, capsys, command, body):
    _assert_config_error(tmp_path, capsys, command, body)


def _assert_config_error(tmp_path, capsys, command, body):
    for name, text in SNAPSHOTS.items():
        (tmp_path / name).write_text(text)
    for name, tensor in TENSORS.items():
        save_tensor(tensor, str(tmp_path / name))
    (tmp_path / "short.bin").write_bytes(b"SYMT\x01")
    cfg = write_config(tmp_path / "c.ini", body.replace("{tmp}", str(tmp_path)))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def _with_overflowing_m_ref(body):
    """``body`` with m_ref = 1e300, which alone overflows the chart's Sobolev bracket (exit 1)."""
    if "[tolerances]\n" in body:
        return body.replace("[tolerances]\n", "[tolerances]\nm_ref = 1e300\n", 1)
    return body + "\n[tolerances]\nm_ref = 1e300\n"


# the config-error rows of the commands that build a chart, each with an overflowing m_ref
CHART_ROWS = {
    row_id: (command, _with_overflowing_m_ref(body))
    for row_id, (command, body) in zip(CONFIG_ERROR_IDS, CONFIG_ERRORS)
    if command in ("invariance", "certify", "trees") and "m_ref" not in body
}


@pytest.mark.parametrize("command, body", list(CHART_ROWS.values()), ids=list(CHART_ROWS))
def test_a_config_error_comes_before_an_overflowing_chart(tmp_path, capsys, command, body):
    # a command checks every field it reads before it builds the chart, so the row's own
    # fault exits 2 although the chart would overflow
    _assert_config_error(tmp_path, capsys, command, body)


def test_percent_signs_in_values_are_literal(tmp_path, capsys):
    # no interpolation: "%d" and "%%" are written into the output directory's name as they stand
    for name in ("out%d", "a%%b"):
        cfg = write_config(tmp_path / "c.ini", SMALL + f"\n[output]\ndirectory = {tmp_path / name}\n")
        assert main(["evolve", "--config", cfg]) == 0
        assert (tmp_path / name / "trajectory.csv").exists()
    assert capsys.readouterr().err == ""


def test_repeated_main_calls_are_independent(tmp_path, capsys):
    # the argument parser is built once per process; each call still parses its own argv
    cfg = write_config(tmp_path / "c.ini", SMALL + "\n[initial]\nkind = random\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "3"]) == 0
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--config", cfg])
    assert exc.value.code == 2
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "d"), "--seed", "3"]) == 0
    assert sorted(os.listdir(tmp_path / "b")) == ["certify.csv"]
    trajectories = [(tmp_path / name / "trajectory.csv").read_bytes() for name in "acd"]
    assert trajectories[0] == trajectories[2] != trajectories[1]
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def _exit_code(argv):
    """main's return value, or the code of the SystemExit it raised, and which of the two."""
    try:
        return main(argv), "returned"
    except SystemExit as exc:
        return exc.code, "raised"


# config bodies that the config reader rejects, and argv that the argv reader rejects;
# {cfg} is a valid config file
MALFORMED_CONFIGS = {
    "no-delimiter": "[grid]\nm 8\n",
    "key-before-any-section": "m = 8\n[grid]\n",
    "repeated-section": "[grid]\nm = 8\n[grid]\nlx = 1.0\n",
    "repeated-key": "[grid]\nm = 8\nM = 16\n",
    "empty-key": "[grid]\n= 8\n",
    "continuation-line": "[grid]\nm = 8\n    16\n",
    "default-section": "[DEFAULT]\nm = 8\n",
    "text-after-a-header": "[grid] ; the grid\nm = 8\n",
}
MALFORMED_ARGV = {
    "unknown-command": ["bogus", "--config", "{cfg}"],
    "unknown-flag": ["certify", "--config", "{cfg}", "--bogus", "1"],
    "abbreviated-flag": ["certify", "--conf", "{cfg}"],
    "flag-without-a-value": ["certify", "--config"],
    "flag-followed-by-a-flag": ["certify", "--config", "{cfg}", "--out", "--seed=3"],
    "non-integer-seed": ["certify", "--config", "{cfg}", "--seed", "x"],
    "two-commands": ["certify", "evolve", "--config", "{cfg}"],
    "no-command": ["--config", "{cfg}"],
}


@pytest.mark.parametrize("row", sorted(MALFORMED_CONFIGS) + sorted(MALFORMED_ARGV))
def test_malformed_input_exits_2_with_one_stderr_line(tmp_path, capsys, row):
    cfg = write_config(tmp_path / "c.ini", SMALL)
    if row in MALFORMED_CONFIGS:
        argv = ["certify", "--config", write_config(tmp_path / "bad.ini", MALFORMED_CONFIGS[row])]
    else:
        argv = [arg.replace("{cfg}", cfg) for arg in MALFORMED_ARGV[row]]
    argv += ["--out", str(tmp_path / "o")]
    # a config fault is returned from main; an argv fault raises SystemExit
    expected = (2, "returned") if row in MALFORMED_CONFIGS else (2, "raised")
    assert _exit_code(argv) == expected
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err


def test_help_prints_the_usage_and_the_commands_to_stdout(capsys):
    for argv in (["-h"], ["certify", "--help"]):
        assert _exit_code(argv) == (0, "raised")
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: chrono-duhamel <command>") and captured.err == ""
        for command in ("propagate", "evolve", "invariance", "certify", "trees", "selftest"):
            assert command in captured.out


def test_every_option_form_writes_the_same_csv(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SMALL + "\n[initial]\nkind = random\n")
    out = {name: str(tmp_path / name) for name in ("spaced", "joined", "first", "repeated", "unused")}
    runs = {
        "spaced": ["evolve", "--config", cfg, "--out", out["spaced"], "--seed", "3"],
        "joined": ["evolve", f"--config={cfg}", f"--out={out['joined']}", "--seed=3"],
        "first": ["--seed", "3", "--out", out["first"], "--config", cfg, "evolve"],
        # the last of a repeated flag wins
        "repeated": ["evolve", "--out", out["unused"], "--seed", "4", "--config", cfg]
        + ["--seed", "3", "--out", out["repeated"]],
    }
    for argv in runs.values():
        assert main(argv) == 0
    assert not os.path.exists(out["unused"])
    csvs = {name: (tmp_path / name / "trajectory.csv").read_bytes() for name in runs}
    assert len(set(csvs.values())) == 1


def test_every_accepted_config_line_form_reads_the_same(tmp_path):
    # ":" or "=", any case of key, spaces, comments and blank lines give the same resolved config
    plain = write_config(tmp_path / "plain.ini", SMALL + "\n[output]\ndirectory = %d\n")
    other = SMALL.replace("m = 8", "  M:8  ").replace("t2 = 0.25", "; a comment\n\n\tT2=0.25")
    other = other.replace("steps = 10", "# another\nsteps :10") + "[output]\ndirectory=%d"
    other = write_config(tmp_path / "other.ini", other)
    for name, cfg in (("a", plain), ("b", other)):
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "certify.csv").read_bytes() == (tmp_path / "b" / "certify.csv").read_bytes()


# a fresh interpreter that imports the CLI names any stdlib parser module that got loaded
PARSER_PROBE = """
import sys
import chrono_duhamel.cli
print(sorted({"argparse", "configparser"} & set(sys.modules)))
"""


def test_importing_the_cli_loads_no_stdlib_parser():
    src = os.path.dirname(os.path.dirname(chrono_duhamel.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PARSER_PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_propagate_snapshot_names_must_differ(tmp_path, capsys):
    # times 1e-7 apart would all write field_0.000000.csv and the like
    body = SMALL.replace("t2 = 0.25", "t2 = 1e-5").replace("steps = 10", "steps = 100")
    cfg = write_config(tmp_path / "c.ini", body + "\n[output]\nsnapshots = 1\n")
    out = tmp_path / "o"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert os.listdir(out) == []


def test_propagate_snapshot_names_longer_than_a_file_name_are_a_config_error(tmp_path, capsys):
    # field_<t>.csv at t = 5e249 has 267 characters; no file is written, not even field_0.000000.csv
    body = "[grid]\nm = 4\n[times]\nt2 = 1e250\nsteps = 2\n[output]\nsnapshots = 1\n"
    cfg = write_config(tmp_path / "c.ini", body)
    out = tmp_path / "o"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and len(err) < 200
    assert "[times]" in err and "[output] snapshots" in err
    assert os.listdir(out) == []


# (command, --config, --out) of paths that cannot be read or written; {tmp} is
# the directory that _unusable_paths fills
UNUSABLE_PATHS = {
    "config-is-a-directory": ("certify", "{tmp}/dir", "{tmp}/o"),
    "out-is-a-file": ("certify", "{tmp}/c.ini", "{tmp}/file"),
    "out-under-a-file": ("certify", "{tmp}/c.ini", "{tmp}/file/o"),
    "initial-file-is-a-directory": ("evolve", "{tmp}/initial.ini", "{tmp}/o"),
    "tensor-file-is-a-directory": ("certify", "{tmp}/tensor.ini", "{tmp}/o"),
    "config-not-utf8": ("certify", "{tmp}/utf16.ini", "{tmp}/o"),
}


def _unusable_paths(tmp_path, row):
    """The argv of an UNUSABLE_PATHS row, with a directory, a file and the configs it names."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("not a directory\n")
    write_config(tmp_path / "c.ini", SMALL)
    for name, body in {"initial.ini": from_file("dir"), "tensor.ini": tensor_file("dir")}.items():
        write_config(tmp_path / name, (SMALL + body).replace("{tmp}", str(tmp_path)))
    (tmp_path / "utf16.ini").write_bytes(SMALL.encode("utf-16"))
    command, config, out = UNUSABLE_PATHS[row]
    return [command, "--config", config.format(tmp=tmp_path), "--out", out.format(tmp=tmp_path)]


@pytest.mark.parametrize("row", sorted(UNUSABLE_PATHS))
def test_unusable_paths_are_a_config_error(tmp_path, capsys, row):
    assert main(_unusable_paths(tmp_path, row)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


@pytest.mark.parametrize(
    "command, section, key, path",
    [
        ("certify", "functional", "tensor_file", ""),
        ("invariance", "functional", "tensor_file", "{tmp}"),
        ("evolve", "initial", "file", ""),
        ("trees", "initial", "file", "{tmp}"),
    ],
    ids=["empty-tensor-file", "tensor-file-is-a-dir", "empty-initial-file", "initial-file-is-a-dir"],
)
def test_an_input_path_that_is_not_a_file_names_its_field(tmp_path, capsys, command, section, key, path):
    # each file kind is named after its path field
    body = f"\n[{section}]\nkind = {key}\n{key} = {path.format(tmp=tmp_path)}\n"
    cfg = write_config(tmp_path / "c.ini", SMALL + body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [{section}] {key}") and err.count("\n") == 1
    assert "Errno" not in err


def test_module_entry_point_keeps_the_exit_code_contract(tmp_path):
    src = os.path.dirname(os.path.dirname(chrono_duhamel.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "chrono_duhamel.cli"]
    argv += _unusable_paths(tmp_path, "config-is-a-directory")
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300
    )
    assert proc.returncode == 2
    assert proc.stderr.count("config error:") == 1 and "Traceback" not in proc.stderr


# runs one command in a fresh interpreter and reports its exit code and whether SciPy got loaded
SCIPY_PROBE = """
import sys
from chrono_duhamel.cli import main
assert "scipy" not in sys.modules, "importing the CLI loaded SciPy"
code = main(sys.argv[1:])
print(code, "scipy" in sys.modules)
"""


@pytest.mark.parametrize(
    "command, nonlinearity, loads_scipy",
    [
        ("evolve", "3 = 1.0", False),
        ("certify", "3 = 1.0", False),
        ("invariance", "3 = 1.0", False),
        ("certify", "1 = 0.5\n3 = 1.0", True),
    ],
    ids=["evolve", "certify", "invariance", "certify-two-term"],
)
def test_scipy_is_loaded_only_by_a_command_that_needs_it(tmp_path, command, nonlinearity, loads_scipy):
    # a one-term majorant's flow times are closed forms; a two-term one needs quad and brentq
    shipped = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.ini")
    with open(shipped) as fh:
        body = fh.read()
    assert "[nonlinearity]\n3 = 1.0\n" in body
    body = body.replace("[nonlinearity]\n3 = 1.0\n", f"[nonlinearity]\n{nonlinearity}\n")
    cfg = write_config(tmp_path / "c.ini", body)
    src = os.path.dirname(os.path.dirname(chrono_duhamel.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", SCIPY_PROBE, command, "--config", cfg, "--out", str(tmp_path / "o")]
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loads_scipy}"


def test_a_quadrature_that_cannot_vouch_for_its_time_prints_one_line(tmp_path):
    # SciPy warns that quad ran out of subdivisions; the slack check alone reports it
    shipped = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.ini")
    with open(shipped) as fh:
        body = fh.read()
    for old, new in (("3 = 1.0\n", "3 = 1.0\n5 = 1.0\n"), ("certify_floor = 0.05\n", "certify_floor = 1e-107\n")):
        assert body.count(old) == 1
        body = body.replace(old, new)
    cfg = write_config(tmp_path / "c.ini", body)
    src = os.path.dirname(os.path.dirname(chrono_duhamel.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "chrono_duhamel.cli", "certify", "--config", cfg, "--out", str(tmp_path / "o")]
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("numerical failure in certify:") and proc.stderr.count("\n") == 1


def _data_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def test_linear_weights_on_one_node_equal_point_eval(tmp_path):
    # weights (1/dx, 0, ..., 0) pair the field trace with the sampling row of node 0
    grid = Grid(8, 2 * math.pi)
    weights = ",".join([repr(1 / grid.dx)] + ["0"] * (grid.M - 1))
    bodies = {
        "point": SMALL,
        "weights": SMALL + f"\n[functional]\nkind = linear_weights\nweights = {weights}\n",
    }
    for name, body in bodies.items():
        cfg = write_config(tmp_path / f"{name}.ini", body)
        for command in ("invariance", "certify", "trees"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / name)]) == 0
    for csv in ("invariance.csv", "certify.csv", "trees.csv"):
        assert _data_lines(tmp_path / "weights" / csv) == _data_lines(tmp_path / "point" / csv)


def test_random_initial_data_follows_the_seed(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SMALL + "\n[initial]\nkind = random\n")
    for name, seed in (("a", "3"), ("b", "3"), ("c", "4")):
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / name), "--seed", seed]) == 0
    a, b, c = (tmp_path / name / "trajectory.csv" for name in "abc")
    assert a.read_bytes() == b.read_bytes()
    assert _data_lines(a) != _data_lines(c)


def test_trajectory_cau_norm_is_the_chart_norm_and_propagate_s_the_norm_at_t(tmp_path):
    # with no nonlinearity the chart data stays the data at t = 0: trajectory.csv's cau_norm
    # is the norm of that pull-back on every row, propagate.csv's the norm of the data at t
    body = "[grid]\nm = 8\n[nonlinearity]\n[initial]\nkind = random\namplitude = 0.3\n[times]\nt2 = 1\nsteps = 4\n"
    cfg = write_config(tmp_path / "c.ini", body)
    for command in ("evolve", "propagate"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    chart = _data_rows(tmp_path / "o" / "trajectory.csv")
    at_t = _data_rows(tmp_path / "o" / "propagate.csv")
    norm = 0.4952199667224945
    assert len(chart) == 5 and all(abs(float(r["cau_norm"]) - norm) <= math.ulp(norm) for r in chart)
    assert [round(float(r["cau_norm"]), 4) for r in at_t] == [0.4952, 0.6597, 0.6994, 0.6716, 0.6821]
    for row in chart + at_t:
        assert float(row["energy"]) == pytest.approx(0.39707061509596, rel=1e-13)


def test_unvouched_flow_time_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a two-term field: a one-term field's flow time is a closed form and takes no quadrature
    monkeypatch.setattr(series, "quad", lambda f, a, b, **kw: (1.0, 1e-6))
    cfg = write_config(tmp_path / "c.ini", SMALL + "\n[nonlinearity]\n1 = 0.5\n3 = 1.0\n")
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in certify:") and "Traceback" not in err


def test_memory_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # an allocation that fails inside the transport exits 1 with a message, not a traceback;
    # the cubic at cap 3 runs one matrix-free sweep, which builds monomials of the path
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(chrono, "monomials", exhausted)
    cfg = write_config(tmp_path / "c.ini", SMALL)
    assert main(["invariance", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in invariance: MemoryError") and "Traceback" not in err


# the running Duhamel residual's Simpson sums overflow, and the Picard panel has ~1e301 nodes
HUGE_SPAN = "[grid]\nm = 4\n[initial]\namplitude = 1e-300\n[times]\nt2 = 1e300\nsteps = 4\n"
# the certificate's Sobolev weight <xi>^{2(s-r)} = m_ref^-2 overflows at xi = 0
TINY_WEIGHT = SMALL + "\n[tolerances]\nm_ref = 1e-160\n"
# the vertex majorant's ||A||_2^3 overflows, and so do the transport's monomials of the path
HUGE_M_REF = "[grid]\nm = 4\n[tolerances]\nm_ref = 1e154\n"
# ||A||_2^3 is finite, but X_3 = |lam| sqrt(2) ||B||_2 ||A||_2^3 overflows
HUGE_VERTEX = "[grid]\nm = 4\n[nonlinearity]\n3 = 1e40\n[tolerances]\nm_ref = 5e92\n"
# the free propagator's phases eps * t overflow from t1 back to the chart's time 0
HUGE_PHASE = "[grid]\nm = 4\nlx = 1e-110\n[times]\nt1 = -1e300\n[dispersion]\nmass = 0.5\n"
# the functional's sampling rows overflow: the phases eps t_point of its free propagator
HUGE_T_POINT = "[grid]\nm = 4\nlx = 1e-110\n[functional]\nt_point = 1e300\n"
# the sampling rows are finite, but the functional's weighted sum of them overflows
HUGE_WEIGHTS = "[grid]\nm = 4\n[functional]\nkind = linear_weights\nweights = 1e308,1e308,1e308,1e308\n"
# the functional's majorant, its sampling row's l1 norm times R, overflows at certify_radius
HUGE_RADIUS = "[grid]\nm = 4\nlx = 1e-110\n[tolerances]\ncertify_radius = 1e300\n"


@pytest.mark.parametrize(
    "command, body",
    [
        ("propagate", SMALL + "\n[tolerances]\nm_ref = 1e300\n"),
        ("evolve", SMALL + "\n[tolerances]\nm_ref = 1e300\n"),
        ("invariance", SMALL + "\n[tolerances]\nm_ref = 1e300\n"),
        ("certify", SMALL + "\n[tolerances]\nm_ref = 1e300\n"),
        ("propagate", SMALL + "\n[initial]\namplitude = 1e300\n"),
        ("trees", SMALL + "\n[initial]\namplitude = 1e300\n"),
        ("propagate", SMALL + "\n[tolerances]\nm_ref = 1e-300\n"),
        ("trees", SMALL + "\n[tolerances]\nm_ref = 1e-300\n"),
        ("evolve", SMALL + "\n[tolerances]\nm_ref = 1e-300\n"),
        ("certify", SMALL + "\n[tolerances]\nm_ref = 1e-300\n"),
        ("evolve", HUGE_SPAN),
        ("invariance", HUGE_SPAN),
        ("certify", TINY_WEIGHT),
        ("invariance", TINY_WEIGHT),
        ("certify", HUGE_M_REF),
        ("invariance", HUGE_M_REF),
        ("certify", HUGE_VERTEX),
        ("evolve", HUGE_PHASE),
        ("invariance", HUGE_PHASE),
        ("trees", HUGE_PHASE),
        ("certify", HUGE_T_POINT),
        ("invariance", HUGE_T_POINT),
        ("trees", HUGE_T_POINT),
        ("certify", HUGE_WEIGHTS),
        ("invariance", HUGE_WEIGHTS),
        ("trees", HUGE_WEIGHTS),
        ("certify", HUGE_RADIUS),
        ("invariance", HUGE_RADIUS),
    ],
    ids=[
        "propagate-m-ref",
        "evolve-m-ref",
        "invariance-m-ref",
        "certify-m-ref",
        "propagate-huge-amplitude",
        "trees-huge-amplitude",
        "propagate-tiny-m-ref",
        "trees-tiny-m-ref",
        "evolve-tiny-m-ref",
        "certify-tiny-m-ref",
        "evolve-huge-span",
        "invariance-huge-span",
        "certify-sobolev-weight",
        "invariance-sobolev-weight",
        "certify-vertex-majorant",
        "invariance-transport",
        "certify-vertex-majorant-product",
        "evolve-free-phase",
        "invariance-free-phase",
        "trees-free-phase",
        "certify-functional-time",
        "invariance-functional-time",
        "trees-functional-time",
        "certify-functional-weights",
        "invariance-functional-weights",
        "trees-functional-weights",
        "certify-functional-majorant",
        "invariance-functional-majorant",
    ],
)
def test_float_overflow_is_a_numerical_failure(tmp_path, capsys, command, body):
    # a finite config float that makes the Sobolev bracket, a norm, a Sobolev weight, the
    # functional's sampling rows, a tree value or a running Duhamel residual non-finite
    # raises FloatingPointError, so no inf or nan cell is written; a Picard panel too large
    # for any array raises OverflowError before it is built; no row warns, none prints the
    # errno text of Python's **, and the vertex majorant names its coefficient
    cfg = write_config(tmp_path / "c.ini", body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure in {command}:") and err.count("\n") == 1
    assert "(34," not in err
    if command == "certify" and body in (HUGE_M_REF, HUGE_VERTEX):
        assert "X_3" in err
    if body == HUGE_WEIGHTS:
        assert "weighted by [functional] weights overflows" in err and "t_point" not in err
    if body == HUGE_RADIUS:
        assert "majorant overflows at R = 1e+300" in err
    assert not (tmp_path / "o" / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "command, section",
    [
        ("certify", "[tolerances]\ncertify_floor = 1e-110"),
        ("certify", "[nonlinearity]\n3 = 1e-300"),
        ("invariance", "[nonlinearity]\n3 = 1e-300"),
    ],
    ids=["certify-floor", "certify-flow-floor", "invariance-flow-floor"],
)
def test_a_floor_below_the_field_s_underflow_is_a_numerical_failure(tmp_path, capsys, command, section):
    # the config passes its checks, but the cubic field X(z) underflows to 0 above the
    # certify floor 1e-110, or above the fixed flow floor 1e-12 once its coefficient is
    # 1e-300, so the flow time down to that floor cannot be taken
    cfg = write_config(tmp_path / "c.ini", SMALL + f"\n{section}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure in {command}:") and err.count("\n") == 1
    assert "floor" in err and "Traceback" not in err


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


# the cells non-finite by design: the Schrodinger energy, and a zero field's guaranteed time
NON_FINITE_BY_DESIGN = {
    ("propagate.csv", "energy"): "nan",
    ("trajectory.csv", "energy"): "nan",
    ("certify.csv", "guaranteed_time"): "inf",
}


def _assert_every_cell_parses(path):
    """Every data cell is a float, and a finite one outside the columns non-finite by design."""
    for row in _data_rows(path):
        for name, cell in row.items():
            assert math.isfinite(float(cell)) or NON_FINITE_BY_DESIGN.get((path.name, name)) == cell, (path, name)


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
        _assert_every_cell_parses(path)
    # a first-order snapshot splits psi into its real and imaginary parts
    for path in tmp_path.glob("*sch.ini/*.csv"):
        if path.name not in ("propagate.csv", "trajectory.csv"):
            assert path.read_text().splitlines()[1] == "x,psi_re,psi_im"


SCHRODINGER = SMALL + "\n[dispersion]\nkind = schrodinger\n"


@pytest.mark.parametrize(
    "command, body, name, column, cell",
    [
        ("propagate", SCHRODINGER, "propagate.csv", "energy", "nan"),
        ("evolve", SCHRODINGER, "trajectory.csv", "energy", "nan"),
        ("certify", SMALL + "\n[nonlinearity]\n3 = 0.0\n", "certify.csv", "guaranteed_time", "inf"),
        ("certify", SMALL + "\n[tolerances]\nx_coeffs = 0,0,0\n", "certify.csv", "guaranteed_time", "inf"),
    ],
    ids=["schrodinger-propagate-energy", "schrodinger-trajectory-energy", "zero-nonlinearity", "zero-x-coeffs"],
)
def test_the_cells_non_finite_by_design_are_written(tmp_path, command, body, name, column, cell):
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path / "c.ini", body), "--out", str(out)]) == 0
    assert {row[column] for row in _data_rows(out / name)} == {cell}


# field_<t>.csv names of at most 255 characters, but the norm at t = 5e157 is nan
TINY_LX = "[grid]\nm = 4\nlx = 1e-150\n[times]\nt2 = 1e158\nsteps = 2\n[output]\nsnapshots = 1\n"


def _returning_inf(function):
    return lambda *args: math.inf


def _nan_last_value(scan):
    def scanned(*args, **kwargs):
        times, values, drift, events = scan(*args, **kwargs)
        return times, np.append(values[:-1], np.nan), drift, events

    return scanned


@pytest.mark.parametrize(
    "command, body, patch, name, column",
    [
        ("propagate", TINY_LX, None, "propagate.csv", "cau_norm"),
        ("propagate", SMALL + "\n[initial]\namplitude = 1e300\n", None, "propagate.csv", "energy"),
        ("evolve", HUGE_SPAN + "[output]\nsnapshots = 1\n", None, "trajectory.csv", "duhamel_residual_running"),
        ("trees", SMALL + "\n[initial]\namplitude = 1e300\n", None, "trees.csv", "value"),
        ("certify", SMALL, (series, "guaranteed_time", _returning_inf), "certify.csv", "guaranteed_time"),
        ("invariance", SMALL, (chrono, "invariance_scan", _nan_last_value), "invariance.csv", "functional_value"),
    ],
    ids=["propagate-tiny-lx", "propagate-energy", "evolve", "trees", "certify-nonzero-field", "invariance"],
)
def test_a_non_finite_cell_fails_its_table_and_writes_no_file(
    tmp_path, capsys, monkeypatch, command, body, patch, name, column
):
    # the writer checks every cell before it opens the file, and the snapshots of propagate and
    # evolve come after their tables, so a failing run leaves its output directory empty
    if patch:
        module, attr, wrap = patch
        monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path / "c.ini", body), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure in {command}: {name} column {column} is ")
    assert err.count("\n") == 1
    assert os.listdir(out) == []


def test_a_first_order_final_field_restarts_a_run(tmp_path):
    # a Schrodinger snapshot written as float cells is read back as initial data
    sch = SMALL + "\n[dispersion]\nkind = schrodinger\n[output]\nsnapshots = 1\n"
    first = write_config(tmp_path / "a.ini", sch)
    assert main(["evolve", "--config", first, "--out", str(tmp_path / "a")]) == 0
    snap = tmp_path / "a" / "final_field.csv"
    body = sch.replace("t1 = 0.0\nt2 = 0.25", "t1 = 0.25\nt2 = 0.5")
    body += f"\n[initial]\nkind = file\nfile = {snap}\n"
    second = write_config(tmp_path / "b.ini", body)
    assert main(["evolve", "--config", second, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "final_field.csv").read_text().splitlines()[1] == "x,psi_re,psi_im"


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


# the exit-code contract under fuzzed configs: boundary values and wrong kinds, 1-4 fields at a time
CONTRACT_FIELDS = {
    ("times", "steps"): ["0", "-1", "x", "3"],
    ("times", "t2"): ["0.0", "-0.25", "1e300"],
    ("grid", "lx"): ["1e-110", "inf", "0"],
    ("dispersion", "kind"): ["schrodinger", "heat"],
    ("dispersion", "mass"): ["0", "1e200"],
    ("initial", "kind"): ["random", "bogus"],
    ("initial", "amplitude"): ["1e300", "nan", "0"],
    ("functional", "kind"): ["linear_weights", "bogus"],
    ("functional", "t_point"): ["1e300"],
    ("functional", "x_index"): ["{m}", "-1"],
    ("caps", "degree_cap"): ["0", "1", "4"],
    ("caps", "tree_order"): ["-1", "3"],
    ("tolerances", "m_ref"): ["0", "1e-160", "1e300"],
    ("tolerances", "certify_radius"): ["0", "1e300"],
    ("tolerances", "certify_floor"): ["0", "1e-300"],
    ("tolerances", "x_coeffs"): ["-1", "0,0,0,2"],
    ("tolerances", "substeps"): ["0", "2"],
    ("output", "snapshots"): ["2", "1"],
    ("initial", "file"): ["", "{tmp}/missing.csv", "{tmp}"],
    ("functional", "tensor_file"): ["", "{tmp}/missing.symt", "{tmp}"],
}
# a drawn input path is read: its section's kind names it, and a command that reads the section exits 2
INPUT_PATHS = {("initial", "file"), ("functional", "tensor_file")}
READS = {"initial": ("propagate", "evolve", "invariance", "trees"), "functional": ("invariance", "certify", "trees")}
CONTRACT_NONLINEARITIES = [None, {2: 0.3, 3: 0.8}, {1: 0.3, 3: 0.8}, {3: 1e40}, {}]
# Tier-1 draws 60 examples; `pytest --hypothesis-profile cli-contract-long` draws that profile's (conftest.py)
LONG_PROFILE = "cli-contract-long"
CONTRACT_EXAMPLES = settings.default.max_examples if settings.get_current_profile_name() == LONG_PROFILE else 60


def _contract_config(m, fields, nonlinearity, tmp):
    sections = {"grid": {"m": str(m)}, "times": {"t1": "0.0", "t2": "0.25", "steps": "10"}}
    sections["caps"] = {"degree_cap": "3", "tree_order": "1"}
    for (sec, key), value in fields:
        sections.setdefault(sec, {})[key] = value.format(m=m, tmp=tmp)
    for sec, key in INPUT_PATHS & {field for field, _ in fields}:
        sections[sec]["kind"] = key
    if nonlinearity is not None:
        sections["nonlinearity"] = {str(k): repr(v) for k, v in nonlinearity.items()}
    return "".join(
        f"[{sec}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items()) for sec, body in sections.items()
    )


@settings(max_examples=CONTRACT_EXAMPLES, derandomize=True, deadline=None, database=None)
@given(
    command=st.sampled_from(["propagate", "evolve", "invariance", "certify", "trees"]),
    m=st.sampled_from([4, 8]),
    keys=st.permutations(list(CONTRACT_FIELDS)),
    count=st.integers(1, 4),
    nonlinearity=st.sampled_from(CONTRACT_NONLINEARITIES),
    data=st.data(),
)
def test_fuzzed_configs_keep_the_exit_code_contract(command, m, keys, count, nonlinearity, data):
    # exit 0, 1 or 2 with no exception and no warning, and 2 when the command reads a drawn
    # input path; a failure prints one stderr line, and a success writes only finite cells
    # but for those non-finite by design
    fields = [(key, data.draw(st.sampled_from(CONTRACT_FIELDS[key]), label=str(key))) for key in keys[:count]]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(pathlib.Path(tmp) / "c.ini", _contract_config(m, fields, nonlinearity, tmp))
        out, stdout, stderr = pathlib.Path(tmp) / "out", io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout):
            warnings.simplefilter("always")
            with contextlib.redirect_stderr(stderr):
                code = main([command, "--config", cfg, "--out", str(out)])
        assert code in (0, 1, 2)
        event(f"{command} exits {code}")
        assert [str(w.message) for w in caught] == []
        if any(command in READS[sec] for (sec, key), _ in fields if (sec, key) in INPUT_PATHS):
            assert code == 2, stderr.getvalue()
        if code:
            assert len(stderr.getvalue().splitlines()) == 1
        else:
            for path in sorted(out.glob("*.csv")):
                _assert_every_cell_parses(path)
