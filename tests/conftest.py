"""Shared pytest plumbing: the acceptance-criteria summary block and the
hypothesis profile.

With the `CI` environment variable set (GitHub Actions sets it), property
tests draw their examples from a fixed seed, so a failure repeats on every
re-run; local runs keep exploring random examples.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
