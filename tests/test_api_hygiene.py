"""Meta-tests: public-API hygiene.

Every public module, class and function in the library carries a
docstring, and the package namespaces export what their ``__all__``
claims.  These are release-quality guards, not behavior tests.
"""

import importlib
import inspect
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
