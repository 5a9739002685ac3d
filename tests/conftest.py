"""Shared pytest wiring: imports the package from the checkout's ``src``, and
collects per-criterion verdict lines and prints them in a dedicated terminal
section after the run, pass or fail."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

CRITERION_LINES = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)
    print(line)


@pytest.fixture
def criterion():
    """Callable that records one acceptance verdict line for the summary."""
    return record_criterion


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)
