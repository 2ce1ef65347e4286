"""The exploratory scripts run end to end and print their pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import oseq

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_explore_order224_prints_its_pinned_output():
    src = str(Path(oseq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "explore_order224.py")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        check=True,
        timeout=120,
    )
    assert hashlib.md5(run.stdout).hexdigest() == "ea772be380eb41da1d16f154f8fdd0b9"
