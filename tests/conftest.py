import os
import subprocess
import sys

import pytest

import configcohom


@pytest.fixture
def fresh_python():
    """run(*args, timeout=60): the interpreter on args in a fresh process.

    The child imports configcohom from the source tree this suite tests
    (PYTHONPATH is that tree alone), and its stdout and stderr come back
    as text on the CompletedProcess; a run past timeout seconds raises.
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(configcohom.__file__)))

    def run(*args, timeout=60):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                              timeout=timeout)
    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                rows.append((nodeid.split("::")[-1], outcome.upper()))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, outcome in sorted(rows):
            terminalreporter.write_line("%s: %s" % (name, outcome))
