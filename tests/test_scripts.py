"""The exploratory scripts run end to end and print their pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import oseq

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name):
    src = str(Path(oseq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        timeout=120,
    )


def test_explore_order224_prints_its_pinned_output():
    run = _run_script("explore_order224.py")
    assert run.returncode == 0, run.stderr
    assert hashlib.md5(run.stdout).hexdigest() == "ea772be380eb41da1d16f154f8fdd0b9"


def test_reproduce_tables_runs_every_suite_and_reports_the_known_failure():
    run = _run_script("reproduce_tables.py")
    assert run.returncode == 1, run.stderr
    lines = run.stdout.decode().splitlines()
    assert [line for line in lines if line.startswith("== ")] == [
        f"== {name}: {passed} passed"
        for name, passed in zip(oseq.SUITE_NAMES, ("24/24", "21/21", "15/15", "10/10", "9/9", "14/14", "6/6", "41/42"))
    ]
    assert [line.strip() for line in lines if "FAIL" in line] == [
        "FAIL nilpotent dominates: C2xC6 > Dic12  [computed Incomparable, expected ProperlyDominates]"
    ]
    assert lines[-1] == "total: 140/141 checks passed"
