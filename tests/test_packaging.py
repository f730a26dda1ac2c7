"""``pyproject.toml`` declares what the code imports, and one version.

Every import in ``src/repro/`` and ``tests/`` is read with :mod:`ast`, at
module and function level alike.  ``src/`` may import only the standard
library, ``repro`` itself and the runtime dependencies (numpy), so every
module of the package runs where ``pip install .`` put nothing else.  The
tests run only under ``pip install .[test]``: their imports may also come
from the ``test`` extra.
"""

import ast
import re
import sys
import textwrap
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


def _imports(path: Path) -> list[tuple[str, int]]:
    """``(top-level module, line)`` of every absolute import, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module.split(".")[0], node.lineno))
    return sorted(found, key=lambda item: item[1])


def _undeclared(root: Path, allowed: set[str]) -> list[str]:
    """``file:line: module`` of every import under ``root`` not in ``allowed``."""
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for path in sorted(root.rglob("*.py"))
        for name, line in _imports(path)
        if name not in allowed
    ]


class TestDeclaredDependencies:
    def test_src_imports_are_declared(self):
        runtime = set(sys.stdlib_module_names) | {"repro"} | _import_names(
            _pyproject()["project"]["dependencies"]
        )
        assert _undeclared(SRC, runtime) == []

    def test_test_imports_are_declared(self):
        project = _pyproject()["project"]
        allowed = (
            set(sys.stdlib_module_names)
            | {"repro", "tests"}
            | _import_names(project["dependencies"])
            | _import_names(project["optional-dependencies"]["test"])
        )
        assert _undeclared(TESTS, allowed) == []

    def test_the_walk_sees_function_level_imports(self, tmp_path):
        (tmp_path / "module.py").write_text(
            textwrap.dedent(
                """\
                import numpy
                from . import sibling


                def solve():
                    import scipy.linalg


                class Graph:
                    def build(self):
                        from networkx import DiGraph
                """
            )
        )
        assert _undeclared(tmp_path, {"numpy"}) == [
            "module.py:6: scipy",
            "module.py:11: networkx",
        ]


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
