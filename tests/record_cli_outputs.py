"""Record the exit code and stdout of each CLI query that Tier-1 replays.

    PYTHONPATH=src python3 tests/record_cli_outputs.py

runs each query in this process through `oseq.cli.main`, in order, and
writes ``tests/cli_outputs.json``, which ``test_cli_outputs.py`` replays.
The queries are those of ``perfbench/expected.json`` and the mid-size and
`poset` ones below.  Rerun it only when an output changes on purpose, and log which
entries moved.
"""

from __future__ import annotations

import io
import json
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from oseq.cli import main

HERE = Path(__file__).resolve().parent
OUTPUTS = HERE / "cli_outputs.json"
CACHE = "{cache}"  # one temporary cache file serves every `os --cache` query

# D(n), Dic(n), wreath squares and products of permutation atoms, of a few
# thousand to a few tens of thousands of elements; each is run with
# `classify` and `os`.
MID_SIZE_EXPRS = (
    "D(20000)", "Dic(20000)", "Wr2(C(100))", "C(2)^12", "C(3)^7", "S(4)^3", "He(23)",
    "Wr2(Cat(SD_72_35))", "Wr2(F7)", "S(3) x D(2000)", "C(7) x Cat(SD_300_23)", "Dic(24) x D(30)",
)
MID_SIZE_QUERIES = (
    *([verb, expr] for expr in MID_SIZE_EXPRS for verb in ("classify", "os")),
    ["os", "Wr2(C(5) x F7)"],
    ["os", "PSL2(49) x C(4)"],
    ["compare", "C(70000)", "D(70000)"],
)
# `poset` over expressions, labelled by their canonical text: the text report,
# the DOT graph, and CSV whose labels hold commas and so are quoted.
POSET_EXPRS = ("C(12)", "C(2) x C(6)", "D(12)", "A(4)", "Dic(12)")
POSET_QUERIES = (
    ["poset", *POSET_EXPRS],
    ["poset", *POSET_EXPRS, "--emit", "dot"],
    ["poset", "Cat(CpxA4, 7)", "Cat(S3xD2p, 7)", "--emit", "csv"],
)


def queries():
    """The argument vectors in run order.  Each `os --cache` query of
    `expected.json` runs twice, a miss and then a hit, and its
    `--check-cache` query, which sorts right after it, runs third."""
    expected = json.loads((HERE.parent / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    argvs = []
    for argv in map(shlex.split, sorted(expected)):
        argvs.append(argv)
        if CACHE in argv and "--check-cache" not in argv:
            argvs.append(argv)
    return [*argvs, *MID_SIZE_QUERIES, *POSET_QUERIES]


def run(argvs, cache):
    """The exit code and stdout of each argument vector, run in order."""
    for argv in argvs:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([cache if a == CACHE else a for a in argv])
        yield code, out.getvalue()


def record():
    argvs = queries()
    with tempfile.TemporaryDirectory() as tmp:
        results = list(run(argvs, str(Path(tmp) / "cache.txt")))
    entries = [{"argv": argv, "exit": code, "stdout": stdout} for argv, (code, stdout) in zip(argvs, results)]
    OUTPUTS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
