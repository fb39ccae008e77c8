import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# hypothesis reports a failing example through libcst, whose import warns
# about mypy_extensions; under filterwarnings = ["error"] that warning must
# not end the session
_INNER = '''\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.just(0))
def test_fails(x):
    assert x


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_inner.py").write_text(_INNER)
    # only the hypothesis plugin: the other installed plugins cost start-up time
    env = dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-p", "_hypothesis_pytestplugin", "-q", "test_inner.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60).stdout
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
