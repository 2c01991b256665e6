import pytest


def pytest_terminal_summary(terminalreporter):
    """Repeat the ACCEPTANCE verdict lines that tests print: output capture
    keeps a passing test's stdout out of the terminal."""
    lines = sorted(
        line
        for reports in terminalreporter.stats.values()
        for report in reports
        if isinstance(report, pytest.TestReport) and report.when == "call"
        for line in report.capstdout.splitlines()
        if line.startswith("ACCEPTANCE ")
    )
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)
