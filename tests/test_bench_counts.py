"""The benchmark's count gates hold on the current sources.

`perfbench/run.py --trace 1` marks a run incorrect when a traced pass does not
reproduce `workloads.COUNT_CHECKS`, and the tracer finds what it counts by
module and function name.  Here the gated queries run under
`perfbench/tracer.py` and their traces go through `run.py`'s own
`layer_metrics`, so a rename that the tracer no longer sees fails a test.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _bench(monkeypatch):
    """perfbench's `run` and `workloads` modules, imported as `run.py` imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("run", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("run"), importlib.import_module("workloads")


def _traces(workloads, argvs, work):
    """The trace of each query, run in order under the tracer in `work`, after
    checking its exit code and stdout against `expected.json`."""
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    trace_path = work / "trace.json"
    traces = []
    for argv in argvs:
        args = workloads.bind(argv, str(work / "cache.txt"))
        proc = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), str(trace_path), *args],
                              capture_output=True, text=True, env=env, cwd=work, timeout=120)
        want = expected[workloads.key(argv)]
        assert (proc.returncode, proc.stdout) == (want["exit"], want["stdout"]), argv
        traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
    return traces


def _gated(run, workloads, workload, traces):
    metrics, _ = run.layer_metrics(traces, 0.0)
    return {name: metrics[name] for name in workloads.COUNT_CHECKS[workload]}


def test_simple_groups_enumerates_the_gated_count_of_elements(monkeypatch, tmp_path):
    run, workloads = _bench(monkeypatch)
    traces = _traces(workloads, [("verify", "simple", "--features", "sz8")], tmp_path)
    assert _gated(run, workloads, "simple-groups", traces) == workloads.COUNT_CHECKS["simple-groups"]
    assert workloads.COUNT_CHECKS["simple-groups"] == {"groups.elements_enumerated": 291_209}


def test_catalog_mix_cache_trio_and_props_give_the_gated_counts(monkeypatch, tmp_path):
    run, workloads = _bench(monkeypatch)
    argvs = [*workloads._cache_trio("C(7) x A(4)"), ("verify", "props")]
    traces = _traces(workloads, argvs, tmp_path)
    assert _gated(run, workloads, "catalog-mix", traces) == workloads.COUNT_CHECKS["catalog-mix"]
    assert workloads.COUNT_CHECKS["catalog-mix"] == {
        "cache.get_calls": 3, "cache.hits": 2, "cache.put_calls": 1, "verify.checks_failed": 1,
    }
