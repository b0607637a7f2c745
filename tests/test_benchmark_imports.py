"""The names the benchmark in perfbench/ reads from bhmat all exist.

perfbench imports from the package and from its modules, so code that
moves between modules must leave every one of these names in place.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module: str, name: str):
    """module.name as `from module import name` finds it: an attribute, or
    else a submodule (ImportError when it is neither)."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


def bhmat_reads(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each name that the file imports from bhmat or a
    bhmat module, and for each attribute it reads off a bhmat module it
    binds.  run.py binds the package to `bhmat` by a call, so that name
    always stands for it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {"bhmat": "bhmat"}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bhmat":
            for alias in node.names:
                reads.append((node.module, alias.name))
                if isinstance(_resolve(node.module, alias.name), ModuleType):
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.split(".")[0] == "bhmat":
                    bound[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
        ):
            reads.append((bound[node.value.id], node.attr))
    return reads


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_name_perfbench_reads_exists(path):
    missing = []
    for module, name in bhmat_reads(path):
        try:
            _resolve(module, name)
        except ImportError:
            missing.append(f"{module}.{name}")
    assert missing == []


def test_reads_are_found():
    reads = set(bhmat_reads(PERFBENCH / "workloads.py")) | set(bhmat_reads(PERFBENCH / "run.py"))
    assert {
        ("bhmat", "make_field"),
        ("bhmat", "enumerate_elements"),
        ("bhmat", "latin"),
        ("bhmat.errors", "FormatError"),
        ("bhmat.butson", "dump_matrix"),
        ("bhmat.latin", "parse_latin_set"),
        ("bhmat.cli", "main"),
        ("bhmat", "__version__"),
    } <= reads
