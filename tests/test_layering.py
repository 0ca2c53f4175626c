"""Module layering: each decision on the plan-to-release path sits in one
module, read from the sources with ast; and the package's one export list."""

import ast
from pathlib import Path
from types import ModuleType

import griddp

SRC = Path(griddp.__file__).parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _griddp_imports(path: Path) -> set[str]:
    """The griddp modules a source file imports, relatively or by full name."""
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            module = f"{'griddp' if node.level else ''}.{node.module or ''}".strip(".")
            names = [module] if module != "griddp" else [f"griddp.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found.update(n.removeprefix("griddp.") for n in names if n.startswith("griddp."))
    return found


def test_composition_imports_no_release_layer():
    # composition prices budgets and suppresses users; releasing a plan and
    # drawing randomness belong to mechanisms and rng
    imports = _griddp_imports(SRC / "composition.py")
    assert imports and not imports & {"mechanisms", "rng", "harness", "cli"}


def test_only_mechanisms_names_prepare_clip():
    naming = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(_tree(path))
        if "_prepare_clip" in {getattr(node, a, None) for a in ("id", "attr", "name")}
    }
    assert naming == {"mechanisms.py"}


def test_star_import_binds_every_public_name():
    # __all__ is read from the package's imports, so no public name is left out
    public = {
        name
        for name, value in vars(griddp).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    bound: dict = {}
    exec("from griddp import *", bound)
    assert "levy_release" in public
    assert public == bound.keys() - {"__builtins__"}
