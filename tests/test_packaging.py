"""``pyproject.toml`` declares what the code imports, and one version.

Every import in ``src/repro/`` and ``tests/`` is read with :mod:`ast`.  A
module-level import under ``src/`` runs on ``import repro``, so it must be
the standard library, ``repro`` itself or a runtime dependency.  An import
inside a function runs only when that function is called, and the tests run
only under ``pip install .[test]``: those imports may also come from the
``test`` extra.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"


def _pyproject() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)


def _import_names(requirements: list[str]) -> set[str]:
    """Import names of requirement strings: ``"pytest-benchmark>=4"`` -> ``pytest_benchmark``."""
    return {
        re.match(r"[A-Za-z0-9._-]+", requirement).group().lower().replace("-", "_")
        for requirement in requirements
    }


def _imports(path: Path) -> list[tuple[str, bool, int]]:
    """``(top-level module, at module level, line)`` of every absolute import."""
    found = []

    def visit(node: ast.AST, module_level: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    found.append((alias.name.split(".")[0], module_level, child.lineno))
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.module.split(".")[0], module_level, child.lineno))
            inside_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module_level and not inside_function)

    visit(ast.parse(path.read_text(), filename=str(path)), True)
    return found


def _undeclared(root: Path, allowed: set[str], allowed_in_functions: set[str]):
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(root.rglob("*.py"))
        for name, module_level, line in _imports(path)
        if name not in (allowed if module_level else allowed_in_functions)
    ]


class TestDeclaredDependencies:
    def test_src_imports_are_declared(self):
        project = _pyproject()["project"]
        runtime = set(sys.stdlib_module_names) | {"repro"} | _import_names(
            project["dependencies"]
        )
        test_extra = _import_names(project["optional-dependencies"]["test"])
        assert _undeclared(SRC, runtime, runtime | test_extra) == []

    def test_test_imports_are_declared(self):
        project = _pyproject()["project"]
        allowed = (
            set(sys.stdlib_module_names)
            | {"repro", "tests"}
            | _import_names(project["dependencies"])
            | _import_names(project["optional-dependencies"]["test"])
        )
        assert _undeclared(TESTS, allowed, allowed) == []

    def test_the_walk_sees_function_level_imports(self):
        found = _imports(SRC / "analysis" / "pz.py")
        assert ("numpy", True) in {(name, level) for name, level, _ in found}
        assert ("scipy", False) in {(name, level) for name, level, _ in found}


class TestVersion:
    def test_version_comes_from_the_package(self):
        pyproject = _pyproject()
        assert "version" not in pyproject["project"]
        assert "version" in pyproject["project"]["dynamic"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }

    def test_version_is_a_literal_the_build_reads_without_importing(self):
        # setuptools reads a literal ``__version__`` from the source; any
        # other expression would make the build import repro, and numpy
        # with it, inside an isolated build environment.
        tree = ast.parse((SRC / "__init__.py").read_text())
        literals = [
            node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets]
            == ["__version__"]
            and isinstance(node.value, ast.Constant)
        ]
        assert literals == [repro.__version__]
