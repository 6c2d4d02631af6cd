"""Tests of the public package surface (imports, __all__, version)."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

#: Every subpackage, found on disk so a new one is checked without a list.
SUBPACKAGES = sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


class TestTopLevelApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_headline_classes_exported(self):
        assert repro.FastVirtualGateExtractor is not None
        assert repro.HoughBaselineExtractor is not None
        assert repro.DotArrayDevice is not None
        assert repro.ExperimentSession is not None

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"

    def test_exceptions_form_one_hierarchy(self):
        from repro import exceptions

        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
                assert issubclass(obj, exceptions.ReproError)

    def test_docstring_example_runs(self):
        # The usage sketched in the package docstring must actually work.
        device = repro.DotArrayDevice.double_dot(cross_coupling=(0.25, 0.22))
        csd = repro.CSDSimulator(device).simulate(resolution=48, seed=1)
        session = repro.ExperimentSession.from_csd(csd)
        result = repro.FastVirtualGateExtractor().extract(session)
        assert result.success
        assert 0 < result.probe_stats.probe_fraction < 1


#: Modules ``import repro`` must not load.  Every record travels pickled, so
#: no event loop and no shared-memory segment sits on the import path.
NOT_IMPORTED = ("asyncio", "multiprocessing.shared_memory")


class TestImportGraph:
    def test_import_leaves_out_unused_machinery(self):
        # A fresh interpreter: modules this test session already imported
        # must not mask what ``import repro`` itself pulls in.
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(repro.__file__).resolve().parents[1])
        probe = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import repro\n"
            f"print([m for m in {NOT_IMPORTED!r} if m in sys.modules])\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "[]"
