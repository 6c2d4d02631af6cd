"""Tests of the public package surface (imports, __all__, version)."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

#: Every subpackage, found on disk so a new one is checked without a list.
SUBPACKAGES = sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)

#: The package's source root; the AST checks below read every module in it.
PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: Ceiling on the options of the public API, counted by
#: :func:`count_options`.  It may rise only for an option that two existing
#: callers need; lower it when options go.
MAX_OPTIONS = 277

#: Ceiling on the physical lines of the package's modules, counted by
#: :func:`count_src_lines`.  Like :data:`MAX_OPTIONS` it may rise only with
#: a stated reason, and is lowered when code goes.
MAX_SRC_LINES = 19326


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
#: no event loop and no shared-memory segment sits on the import path, and
#: the transition-line fit is solved in closed form, without SciPy's optimizers.
NOT_IMPORTED = (
    "asyncio",
    "multiprocessing.shared_memory",
    "scipy.optimize",
    "scipy.special",
)


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


def _modules():
    """``(path relative to the package, parsed module)`` of every module."""
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        yield path.relative_to(PACKAGE_ROOT).as_posix(), ast.parse(path.read_text())


def _n_defaults(function: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = function.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def count_options() -> int:
    """Defaulted parameters of the public API.

    Counted over public module-level functions, and over the public
    methods and ``__init__`` of public module-level classes; a name is
    public when it does not start with an underscore.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    total = 0
    for _, module in _modules():
        for node in module.body:
            if isinstance(node, functions) and not node.name.startswith("_"):
                total += _n_defaults(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                total += sum(
                    _n_defaults(item)
                    for item in node.body
                    if isinstance(item, functions)
                    and (item.name == "__init__" or not item.name.startswith("_"))
                )
    return total


def count_src_lines() -> int:
    """Physical lines of every module in the package."""
    return sum(len(path.read_bytes().splitlines()) for path in PACKAGE_ROOT.rglob("*.py"))


class TestOneWayToMeasure:
    def test_only_the_session_factory_builds_a_device_backend(self):
        # SessionFactory.make is the one description of a simulated
        # measurement; a procedure that built its own DeviceBackend would
        # skip the factory's faults and retry policy.
        callers = sorted(
            f"{name}:{node.lineno}"
            for name, module in _modules()
            for node in ast.walk(module)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "DeviceBackend"
        )
        assert [site.split(":")[0] for site in callers] == ["instrument/session.py"], callers

    def test_only_the_campaign_loop_submits_to_a_backend(self):
        # TuningCampaign.run is the one loop around a backend's stream:
        # journal, crash markers and progress live nowhere else.  The
        # process pool's own submits to its executor are the other caller.
        callers = sorted(
            {
                name
                for name, module in _modules()
                for node in ast.walk(module)
                if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "submit"
            }
        )
        assert callers == ["campaign/engine.py", "execution/backends.py"], callers

    def test_only_the_campaign_worker_scores_an_extraction(self):
        # run_campaign_job is the one path from an extraction to a verdict
        # against the truth: Table 1, the experiments and every grid get
        # the same record and failure taxonomy from it.
        scorers = sorted(
            {
                name
                for name, module in _modules()
                for node in ast.walk(module)
                if isinstance(node, ast.Call)
                and (
                    getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "accuracy_metrics"
                    or getattr(node.func, "attr", None) == "evaluate"
                )
            }
        )
        assert scorers == ["campaign/worker.py"], scorers

    def test_execution_waits_on_no_wall_clock(self):
        # Every wait in a run is simulated (the meter's probe retries);
        # the execution layer neither sleeps nor keeps a wall-clock budget.
        waits = sorted(
            f"{name}:{node.lineno}"
            for name, module in _modules()
            if name.startswith("execution/")
            for node in ast.walk(module)
            if (
                isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "time"
                and node.attr in {"sleep", "monotonic"}
            )
            or (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and {alias.name for alias in node.names} & {"sleep", "monotonic"}
            )
        )
        assert waits == [], waits

    def test_public_options_stay_under_the_ceiling(self):
        assert count_options() <= MAX_OPTIONS

    def test_source_lines_stay_under_the_ceiling(self):
        assert count_src_lines() <= MAX_SRC_LINES
