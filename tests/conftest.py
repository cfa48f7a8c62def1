import os
from pathlib import Path

# pyproject's ``pythonpath`` puts src/ on sys.path for the test process; child
# processes (the CLI entry tests) get it through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance pass/fail lines even when capture is on."""
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "ACCEPTANCE_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
