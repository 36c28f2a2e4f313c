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


def _reads(tree, skip=None):
    """The bare names and the ``name.attr`` pairs that a module reads outside its node ``skip``."""
    for top in tree.body:
        if top is skip:
            continue
        for sub in ast.walk(top):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                yield f"{sub.value.id}.{sub.attr}"


def _imported_reads(tree, module, name):
    """How ``tree`` reads ``module``'s ``name``: as a name bound by ``from .module import name``,
    or as ``module.name`` through ``from . import module``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        for alias in node.names:
            if node.module == module and alias.name == name:
                yield alias.asname or name
            elif node.module is None and alias.name == module:
                yield f"{alias.asname or module}.{name}"


def test_every_private_function_and_class_has_a_caller_in_src():
    # a module-level _name that a refactor leaves without a caller is dead code: it must be
    # read in its own module outside its definition, or by a module that imports it from there
    package = Path(importlib.import_module("chrono_duhamel").__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not node.name.startswith("_"):
                continue
            read = node.name in set(_reads(tree, skip=node)) or any(
                set(_imported_reads(other, module, node.name)) & set(_reads(other))
                for name, other in trees.items()
                if name != module
            )
            if not read:
                uncalled.append(f"{module}.{node.name}")
    assert uncalled == []
