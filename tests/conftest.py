"""Shared helpers: the acceptance suite records one line per criterion here, and
``phase_runs`` counts the phases the bilinear RK4 core integrates."""

import pytest

from nhsteer import dynamics

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> str:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE_LINES.append(line)
    return line


@pytest.fixture
def phase_runs(monkeypatch):
    """One entry per phase that ``dynamics._bilinear_chunks`` starts to integrate from here on."""
    runs, chunks = [], dynamics._bilinear_chunks

    def counted(*args):
        runs.append(args[3])  # the phase's interval
        yield from chunks(*args)

    monkeypatch.setattr(dynamics, "_bilinear_chunks", counted)
    return runs


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.line(line)
