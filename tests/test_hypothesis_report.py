"""A failing hypothesis test, run under the project's pytest settings, shows its falsifying example.

``filterwarnings = ["error"]`` turns every warning into an error, and one
raised while hypothesis explains a failure ends the run in ``INTERNALERROR``
with no example shown.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_shows_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example: test_fails(" in out
    assert "INTERNALERROR" not in out
