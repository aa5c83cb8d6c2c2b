"""The pytest settings of pyproject.toml keep every failure reportable.

They turn warnings into errors.  A failing Hypothesis test makes the
hypothesis plugin import hypothesis.extra._patching, and so libcst where
it is installed, whose use of mypy_extensions.TypedDict warns: as an
error that warning ended the run with INTERNALERROR, and no test after
the failing one ran.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_next_one_running(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR)
    ran = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in ran.stdout + ran.stderr, ran.stdout
    assert "1 failed, 1 passed" in ran.stdout, ran.stdout
    assert ran.returncode == 1
