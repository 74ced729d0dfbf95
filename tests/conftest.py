"""Echo the acceptance verdicts (see `acceptance_report`) in the terminal summary."""

from acceptance_report import ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
