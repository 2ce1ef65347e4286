"""Record the expected exit code and stdout of every pooled query.

    python3 perfbench/make_expected.py

runs each query of ``workloads.pool()`` once against the checkout's ``src``
and writes ``perfbench/expected.json``.  Only rerun it on purpose, when a
change of output is intended; the benchmark counts any other difference as a
failed invocation.  It refuses to write a `verify props` result that does
not keep its one known failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import HERE, ROOT, SRC, run_query

PROPS_KNOWN_FAIL = "nilpotent dominates: C2xC6 > Dic12"


def verify_consistent(argv, code, stdout):
    """Structural check of a verify suite's report, independent of expected.json."""
    lines = stdout.decode(errors="replace").splitlines()
    if not lines:
        return False
    checks, summary = lines[:-1], lines[-1]
    failed = [line[5:].split("  [")[0] for line in checks if line.startswith("FAIL ")]
    passed = sum(line.startswith("PASS ") for line in checks)
    if passed + len(failed) != len(checks) or summary != f"{passed}/{len(checks)} checks passed":
        return False
    if argv[1] == "props":
        return code == 3 and failed == [PROPS_KNOWN_FAIL]
    return code == (3 if failed else 0)


def main():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    expected = {}
    try:
        for argv in workloads.pool():
            cache = work / "cache.txt"
            cache.unlink(missing_ok=True)
            command = [sys.executable, "-m", "oseq", *workloads.bind(argv, str(cache))]
            seconds, _, code, stdout = run_query(command, work, env)
            if argv[0] == "verify" and not verify_consistent(argv, code, stdout):
                raise SystemExit(f"inconsistent verify report for {argv} (props must fail only {PROPS_KNOWN_FAIL!r})")
            expected[workloads.key(argv)] = {"exit": code, "stdout": stdout.decode()}
            print(f"{seconds:7.3f}s exit {code}  {workloads.key(argv)}", file=sys.stderr)
    finally:
        shutil.rmtree(work)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
