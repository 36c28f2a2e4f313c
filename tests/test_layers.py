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
        "cau_norm",
        "energy",
        "save_snapshot",
        "load_snapshot",
    },
    "dynamics": {
        "NonlinearitySpec",
        "EvolutionState",
        "evolve",
        "duhamel_residual",
        "trajectory_csv",
    },
    "symfun": {
        "VectorNorm",
        "SymTensor",
        "SymFunctional",
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
        "eval_series",
        "derivative",
        "gamma_constant",
        "flow_time",
        "guaranteed_time",
        "apply_majorant_operator",
    },
    "chrono": {
        "ChartMap",
        "FeynmanTree",
        "CertificationRecord",
        "point_eval_functional",
        "chrono_exp_evolve",
        "tree_expand",
        "evaluate_trees",
        "invariance_scan",
        "transport_majorant",
        "certify_window",
    },
}


@pytest.mark.parametrize("layer", sorted(PUBLIC))
def test_public_names_are_pinned_and_resolve(layer):
    module = importlib.import_module(f"chrono_duhamel.{layer}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == PUBLIC[layer]
    for name in module.__all__:
        assert hasattr(module, name), f"{layer}.{name}"


def _private_reads(path):
    """The underscore names that the module at ``path`` reads from a layer: ``layer._name``
    through a module import, or a ``_name`` in ``from ... layer import``."""
    tree = ast.parse(Path(path).read_text())
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
    return private


def test_the_cli_reads_no_private_name_of_another_layer():
    assert _private_reads(importlib.import_module("chrono_duhamel.cli").__file__) == []


def test_the_oracles_read_no_private_name_of_the_package():
    # an oracle that shares a private kernel with the code it checks is not independent
    assert _private_reads(Path(__file__).with_name("oracles.py")) == []


def test_only_series_loads_scipy_and_reads_its_one_term_helpers():
    # series answers both questions of the backward flow, its time and its radius: no other
    # module imports SciPy for them, or reads the closed forms of a one-term field
    package = Path(importlib.import_module("chrono_duhamel").__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem == "series":
            continue
        assert "scipy" not in path.read_text(), path.name
        assert [name for name in _private_reads(path) if "._single_term" in name] == [], path.name


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


# Public names that no module of the package reads and that stay public all the same: the
# acceptance criteria check them as the program's own functions (criterion 6 VectorNorm,
# compose_first_slot, derivative, gamma_constant and apply_majorant_operator; criteria 4-7 the
# two eval_series; criteria 5 and 8 chrono_exp_evolve), and save_tensor writes the dump format
# beside its reader load_tensor.
UNREAD_BUT_SETTLED = {
    ("symfun", "VectorNorm"),
    ("symfun", "eval_series"),
    ("series", "eval_series"),
    ("symfun", "compose_first_slot"),
    ("symfun", "save_tensor"),
    ("series", "derivative"),
    ("series", "gamma_constant"),
    ("series", "apply_majorant_operator"),
    ("chrono", "chrono_exp_evolve"),
}


def test_every_public_name_is_read_in_src():
    # a public name that no module reads outside its own definition is an API nobody needs:
    # it is deleted, moved to the tests' oracles, or settled above
    package = Path(importlib.import_module("chrono_duhamel").__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    unread = []
    for layer in sorted(PUBLIC):
        tree = trees[layer]
        for name in importlib.import_module(f"chrono_duhamel.{layer}").__all__:
            definition = next(
                (
                    node
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
                ),
                None,
            )
            read = name in set(_reads(tree, skip=definition)) or any(
                set(_imported_reads(other, layer, name)) & set(_reads(other))
                for module, other in trees.items()
                if module != layer
            )
            if not read:
                unread.append((layer, name))
    assert [pair for pair in unread if pair not in UNREAD_BUT_SETTLED] == []


# Public members of a layer's public classes that no module of the package reads: the two
# ambient norms that criterion 6 checks VectorNorm with, the norm they exist for, and
# ChartMap's input builder from coordinates.
UNREAD_BUT_SETTLED_MEMBERS = {
    ("VectorNorm", "euclidean"),
    ("VectorNorm", "two_block"),
    ("VectorNorm", "norm"),
    ("ChartMap", "from_coords"),
}
# members that Python calls on its own, which no module has to read
_PROTOCOL = {"__init__", "__post_init__"}


def test_every_public_member_is_read_in_src():
    # a method or property of a public class that no module reads outside its own definition is
    # an API nobody needs, like an unread public name; an operator method is read through its
    # operator, which no attribute read shows, so a layer's class defines none
    package = Path(importlib.import_module("chrono_duhamel").__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    reads = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    unread = []
    for layer in sorted(PUBLIC):
        public = importlib.import_module(f"chrono_duhamel.{layer}").__all__
        for cls in trees[layer].body:
            if not isinstance(cls, ast.ClassDef) or cls.name not in public:
                continue
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name in _PROTOCOL:
                    continue
                if member.name.startswith("_") and not member.name.endswith("__"):
                    continue
                own = {id(node) for node in ast.walk(member)}
                if not any(node.attr == member.name and id(node) not in own for node in reads):
                    unread.append((cls.name, member.name))
    assert [pair for pair in unread if pair not in UNREAD_BUT_SETTLED_MEMBERS] == []


# The functions of the package that open a file: the config reader, the CLI's one table writer,
# and the readers and writers of the snapshot and tensor dump formats.  A new output goes
# through the table writer, which checks every cell.
FILE_OPENERS = {
    "cli.RunConfig.load",
    "cli._write_csv",
    "propagator.save_snapshot",
    "propagator.load_snapshot",
    "symfun.save_tensor",
    "symfun.load_tensor",
}


def _openers(tree, module):
    """The qualified names of the functions in ``tree`` that call ``open``, ``x.open``, or a
    ``Path`` reader or writer; a call outside every function counts as the module's."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("open", "read_text", "read_bytes", "write_text", "write_bytes"):
                    found.add(scope)
            visit(child, scope)

    visit(tree, module)
    return found


def test_only_the_table_writer_and_the_dump_formats_open_files():
    package = Path(importlib.import_module("chrono_duhamel").__file__).parent
    openers = set()
    for path in sorted(package.glob("*.py")):
        openers |= _openers(ast.parse(path.read_text()), path.stem)
    assert openers == FILE_OPENERS
