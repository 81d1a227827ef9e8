"""Meta-tests: public-API hygiene.

Every public module, class and function in the library carries a
docstring, and the package namespaces export what their ``__all__``
claims.  These are release-quality guards, not behavior tests.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro", "repro.ir", "repro.gpu", "repro.codegen",
            "repro.compilers", "repro.core", "repro.workloads",
            "repro.runtime", "repro.analysis", "repro.serving",
            "repro.tuning", "repro.pipeline"]


def _public_modules():
    modules = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        modules.append(package)
        for info in pkgutil.iter_modules(package.__path__):
            if info.name.startswith("_"):
                continue
            modules.append(importlib.import_module(
                f"{package_name}.{info.name}"))
    return modules


MODULES = _public_modules()


class TestDocstrings:
    @pytest.mark.parametrize("module", MODULES,
                             ids=lambda m: m.__name__)
    def test_module_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize("module", MODULES,
                             ids=lambda m: m.__name__)
    def test_public_callables_documented(self, module):
        undocumented = []
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isfunction(member) or inspect.isclass(member)):
                continue
            if getattr(member, "__module__", None) != module.__name__:
                continue  # re-exports are documented at their source
            if not (member.__doc__ and member.__doc__.strip()):
                undocumented.append(name)
        assert not undocumented, \
            f"{module.__name__}: missing docstrings on {undocumented}"


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.{name}"

    def test_top_level_surface(self):
        for name in ("GraphBuilder", "AStitchCompiler", "XLACompiler",
                     "Engine", "evaluate", "optimize",
                     "append_gradients", "compare_compilers",
                     "reset_caches"):
            assert hasattr(repro, name)

    def test_version(self):
        assert repro.__version__


# Standard-library names newer than Python 3.9, the oldest version
# ``requires-python`` admits: (module, attribute) pairs, and per
# callable the keywords it only accepts later.
NEWER_THAN_39 = {("itertools", "pairwise")}
NEWER_KEYWORDS_THAN_39 = {"zip": {"strict"},
                          "dataclass": {"slots", "kw_only"}}


def _python_sources():
    root = pathlib.Path(__file__).resolve().parents[1]
    return sorted([*(root / "src").rglob("*.py"),
                   *(root / "tests").rglob("*.py")])


def _newer_than_39(tree: ast.AST) -> list[str]:
    """``line N: name`` for every use in ``tree`` of a standard-library
    name or keyword that Python 3.9 lacks."""
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names
                     if (node.module, alias.name) in NEWER_THAN_39]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and (node.value.id, node.attr) in NEWER_THAN_39:
            names = [f"{node.value.id}.{node.attr}"]
        elif isinstance(node, ast.Call):
            func = node.func
            callee = (func.id if isinstance(func, ast.Name)
                      else func.attr if isinstance(func, ast.Attribute)
                      else None)
            newer = NEWER_KEYWORDS_THAN_39.get(callee, set())
            names = [f"{callee}({keyword.arg}=)" for keyword in node.keywords
                     if keyword.arg in newer]
        found += [f"line {node.lineno}: {name}" for name in names]
    return found


class TestPython39:
    def test_detects_newer_names(self):
        source = ("from itertools import pairwise\n"
                  "itertools.pairwise(a)\n"
                  "zip(a, b, strict=True)\n"
                  "@dataclasses.dataclass(slots=True, kw_only=True)\n"
                  "class A: pass\n")
        assert len(_newer_than_39(ast.parse(source))) == 5

    def test_no_stdlib_names_newer_than_39(self):
        offenders = {str(path): found for path in _python_sources()
                     if (found := _newer_than_39(
                         ast.parse(path.read_text(encoding="utf-8"))))}
        assert not offenders


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every binding a module's imports create
    (``from __future__`` excluded; ``import a.b`` binds ``a``)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` loads, including the names inside string
    annotations and the strings of a module-level ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(element.value for element in ast.walk(node.value)
                        if isinstance(element, ast.Constant))
    for annotation in annotations:
        for element in ast.walk(annotation):
            if isinstance(element, ast.Constant) \
                    and isinstance(element.value, str):
                used |= _referenced_names(
                    ast.parse(element.value, mode="eval"))
    return used


def _unused_imports(tree: ast.Module) -> list[str]:
    used = _referenced_names(tree)
    return [f"line {line}: {name}"
            for name, line in _imported_names(tree).items()
            if name not in used]


class TestUnusedImports:
    """No linter runs in CI, so this scan stands in for pyflakes'
    unused-import check on the package (``__init__`` modules re-export
    and are skipped)."""

    def test_detects_unused_names(self):
        source = ("from typing import Optional, Sequence\n"
                  "import os.path\n"
                  "import numpy as np\n"
                  "from repro.ir.graph import Graph\n"
                  "def f(x: 'Optional[Graph]') -> Sequence: ...\n")
        assert _unused_imports(ast.parse(source)) \
            == ["line 2: os", "line 3: np"]

    def test_no_unused_imports_in_src(self):
        root = pathlib.Path(__file__).resolve().parents[1] / "src"
        offenders = {str(path.relative_to(root)): found
                     for path in sorted(root.rglob("*.py"))
                     if path.name != "__init__.py"
                     and (found := _unused_imports(
                         ast.parse(path.read_text(encoding="utf-8"))))}
        assert not offenders
