"""The public surface of each layer: every name in ``__all__`` is pinned here.

A new public name, or one that leaves, has to edit this list.
"""

import ast
import importlib
from pathlib import Path

import pytest

PUBLIC = {
    "propagator": {
        "Grid",
        "DispersionRelation",
        "CauchyData",
        "FreeSolution",
        "propagate",
        "make_free_solution",
        "sample_at",
        "green_apply",
        "cau_norm",
        "energy",
        "save_snapshot",
        "load_snapshot",
    },
    "dynamics": {
        "NonlinearitySpec",
        "EvolutionState",
        "DivergenceError",
        "lagrange_duhamel_V",
        "evolve",
        "strang_evolve",
        "duhamel_residual",
        "trajectory_csv",
    },
    "symfun": {
        "VectorNorm",
        "SymTensor",
        "SymFunctional",
        "eval_homogeneous",
        "coefficient_l1",
        "eval_series",
        "majorant_of",
        "compose_first_slot",
        "monomials",
        "save_tensor",
        "load_tensor",
    },
    "series": {
        "MajorantSeries",
        "FlowResult",
        "eval_series",
        "derivative",
        "gamma_constant",
        "flow",
        "flow_time",
        "guaranteed_time",
        "apply_majorant_operator",
    },
    "chrono": {
        "ChartMap",
        "FeynmanTree",
        "TruncationEvent",
        "CertificationRecord",
        "point_eval_functional",
        "chrono_exp_evolve",
        "tree_expand",
        "evaluate_trees",
        "invariance_scan",
        "transport_majorant",
        "certify_window",
        "invariance_csv",
    },
}


@pytest.mark.parametrize("layer", sorted(PUBLIC))
def test_public_names_are_pinned_and_resolve(layer):
    module = importlib.import_module(f"chrono_duhamel.{layer}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == PUBLIC[layer]
    for name in module.__all__:
        assert hasattr(module, name), f"{layer}.{name}"


def test_the_cli_reads_no_private_name_of_another_layer():
    cli = importlib.import_module("chrono_duhamel.cli")
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in PUBLIC
        and node.attr.startswith("_")
    ]
    private += [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in PUBLIC
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
