"""The suite's own pytest settings: a warning fails its test, and a failing property does not end the session."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
