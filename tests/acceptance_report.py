"""Shared reporting for the acceptance suite.

Each acceptance test registers exactly one PASS/FAIL line; `conftest.py`
echoes the lines in the terminal summary so the verdicts survive output
capture. The module has its own name, not `conftest`, so that importing it
from a test resolves to this file when other test directories with their own
`conftest.py` are collected in the same session.
"""

ACCEPTANCE_LINES: list[str] = []


def record_criterion(name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"{verdict} {name}: {detail}")
