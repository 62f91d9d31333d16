"""The suite's own settings: a warning fails its test, a failing property does not end the
session, and the package's export lists and the benchmark's traced names name what exists."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import hpqkit
from hpqkit import fitstack

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """The benchmark's tracer module, loaded from its file (``perfbench`` is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_failing_property_is_reported_and_later_tests_still_run(tmp_path):
    module = tmp_path / "test_property.py"
    module.write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """), encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(module)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed, 1 passed" in run.stdout, output
    assert "INTERNALERROR" not in output


def test_export_lists_name_only_what_exists():
    """Each module's ``__all__`` names existing objects, and the package imports only exported names."""
    missing = []
    for info in pkgutil.iter_modules(hpqkit.__path__):
        module = importlib.import_module(f"hpqkit.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    unexported = []
    for node in ast.parse(Path(hpqkit.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"hpqkit.{node.module}").__all__
            unexported += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert missing == []
    assert unexported == []


def test_no_exported_callable_takes_include_bo():
    """The internal-mode correction is part of the device model: no exported function, class or public
    method takes ``include_bo``. Closed-form checks of the bare series read ``potentials._junction_terms``."""
    takers = []
    for info in pkgutil.iter_modules(hpqkit.__path__):
        module = importlib.import_module(f"hpqkit.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", value) for attr, value in vars(obj).items()
                            if not attr.startswith("_") and callable(value)]
            for qualname, member in members:
                try:
                    parameters = inspect.signature(member).parameters
                except (TypeError, ValueError):  # a builtin base without a signature
                    continue
                if "include_bo" in parameters:
                    takers.append(f"{info.name}.{qualname}")
    assert takers == []


def test_every_name_the_benchmark_tracer_wraps_exists():
    """The benchmark's tracer replaces named package callables and raises on a missing one; a rename in
    the package must fail here, since no test under ``tests/`` runs a traced pass."""
    spans = load_spans()
    missing = [
        f"{module}.{attr}"
        for module, attr in spans.WRAPPED.values()
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    missing += [
        f"{module}.{cls}.{attr}"
        for module, cls, attr in spans.WRAPPED_METHODS.values()
        if not callable(vars(getattr(importlib.import_module(module), cls, object)).get(attr))
    ]
    assert spans.WRAPPED and spans.WRAPPED_METHODS
    assert missing == []


def test_a_solver_result_carries_what_the_tracer_reads():
    """The benchmark's tracer counts ``nfev``, ``njev`` and ``status == 0`` of every
    ``fitstack.least_squares`` result; the solver's result must carry all three."""
    spans = load_spans()
    result = fitstack.least_squares(lambda x: (x - 1.0, None), np.zeros(2), jac=lambda x, _: np.eye(2), max_nfev=1)
    tracer = spans.Tracer()
    spans.ON_RESULT["fitstack.least_squares"](tracer, (), {}, result)
    assert dict(tracer.counters) == {
        "fitstack.least_squares.nfev": 1,
        "fitstack.least_squares.njev": 1,
        "fitstack.least_squares.budget_exhausted": 1,
    }
