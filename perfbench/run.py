"""Benchmark of the `oseq` CLI, run the way a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client runs a closed loop: each
query is a fresh ``python3 -m oseq ...`` process, started after the previous
one has exited, with PYTHONPATH pointing at the checkout's ``src``.  The seed
picks the queries (see ``workloads.py``).  A run repeats whole passes over the
queries until S seconds have passed.  Every invocation's exit code and stdout
are compared with ``expected.json``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` (median pass time), ``query_p50_s`` (median invocation time),
``setup_s`` (median time of a bare ``oseq catalog``: interpreter start and
imports, no group built; these calls are spread over the run, between
queries) and ``peak_rss_mb`` (largest peak RSS of any one query process, read
per child with ``os.wait4``).  With ``--trace 1`` each
query runs under ``tracer.py`` and the last line reports the per-layer
metrics instead; their definitions are in ``README.md``.  The line before it
is a JSON record of the environment, the sample counts and every invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_ARGV = ("catalog",)
SETUP_PERIOD_S = 3.0  # untraced runs make one set-up call per this much run time
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it
RUN_DEADLINE_S = 170  # a run that gets this far stops, killing its child


class Stopped(Exception):
    """The run hit its deadline or was asked to terminate."""


def _stop(signum, frame):
    raise Stopped(f"{signal.Signals(signum).name} after at most {RUN_DEADLINE_S} s")


def run_query(command, work, env):
    """One child process; returns (seconds, peak RSS in bytes, exit code, stdout)."""
    out_path = work / "stdout"
    with open(out_path, "wb") as out, open(work / "stderr", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, env=env, cwd=work)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss * 1024, proc.returncode, out_path.read_bytes()


class Runner:
    """Runs queries of one benchmark run and keeps every invocation's record."""

    def __init__(self, work, expected, trace):
        self.work = work
        self.expected = expected
        self.trace = trace
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.records = []  # [kind, query key, seconds, peak RSS MB, exit code, ok]
        self.next_setup = perf_counter()

    def setup_due(self):
        """Make the set-up calls that are due; returns the time they took.

        Untraced runs spread their set-up calls over the whole run, between
        queries, so that `setup_s` sees the same host speed as the queries.
        """
        spent = 0.0
        while not self.trace and perf_counter() >= self.next_setup:
            spent += self.invoke(SETUP_ARGV, "setup")[0]
            self.next_setup += SETUP_PERIOD_S
        return spent

    def invoke(self, argv, kind, trace=False):
        args = workloads.bind(argv, str(self.work / "cache.txt"))
        trace_path = self.work / "trace.json"
        trace_path.unlink(missing_ok=True)
        if trace:
            command = [sys.executable, str(HERE / "tracer.py"), str(trace_path), *args]
        else:
            command = [sys.executable, "-m", "oseq", *args]
        seconds, rss, code, stdout = run_query(command, self.work, self.env)
        want = self.expected.get(workloads.key(argv))
        ok = want is not None and code == want["exit"] and stdout == want["stdout"].encode()
        self.records.append([kind, workloads.key(argv), seconds, rss / 1e6, code, ok])
        traced = json.loads(trace_path.read_text()) if trace else None
        return seconds, traced

    def run_pass(self, queries):
        """One pass; returns its wall time, set-up calls excluded, and the traces of its processes."""
        (self.work / "cache.txt").unlink(missing_ok=True)
        traces = []
        setup_s = 0.0
        start = perf_counter()
        for argv in queries:
            setup_s += self.setup_due()
            _, traced = self.invoke(argv, "query", self.trace)
            traces.append(traced)
        return perf_counter() - start - setup_s, traces


def layer_metrics(traces, wall):
    """Per-layer metrics of one traced pass, summed over its processes."""
    spans = {}
    edges, counts = Counter(), Counter()
    for t in traces:
        for name, (calls, total, own) in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        edges.update(t["edges"])
        counts.update(t["counts"])

    def span(name, field):
        return spans.get(name, (0, 0.0, 0.0))[field]

    m = {
        f"{name}.self_s": span(name, 2)
        for name in (
            "groups.enumerate_group", "groups.Group.orders", "groups.derived_subgroup",
            "groups.quotient", "groups.subgroup_closure", "finite_field.mat_mul",
            "classify.derived_series", "classify.supersolvable_chain", "classify.is_nilpotent",
            "construct.find_action_by_relations", "construct.validate_action",
            "order_sequence.os_of_group", "poset.build_poset",
        )
    }
    for name in (
        "groups.quotient", "groups.is_normal", "finite_field.mat_mul", "finite_field.mat_inv",
        "classify.prime_order_normal_subgroups", "order_sequence.compare",
    ):
        m[f"{name}.calls"] = span(name, 0)
    for name in (
        "groups.elements_enumerated", "groups.backing_mul.calls",
        "construct.find_action_by_relations.accepted", "construct.lru_hits", "construct.lru_misses",
        "cache.hits", "verify.checks", "verify.checks_failed",
    ):
        m[name] = counts[name]
    candidates = edges["construct.find_action_by_relations>groups.enumerate_group"]
    m["construct.find_action_by_relations.candidates"] = candidates
    m["construct.find_action_by_relations.accept_ratio"] = (
        m["construct.find_action_by_relations.accepted"] / candidates if candidates else 0.0
    )
    m["classify.quotients_built"] = sum(
        n for pair, n in edges.items() if pair.startswith("classify.") and pair.endswith(">groups.quotient")
    )
    m["poset.pairs_compared"] = edges["poset.build_poset>order_sequence.compare"]
    m["expr.parse_s"] = span("expr.parse", 1)
    m["fixtures.load_s"] = span("fixtures.default_fixtures", 1) + span("fixtures.load_fixtures", 1)
    m["cache.get_calls"] = span("cache.cache_get", 0)
    m["cache.put_calls"] = span("cache.cache_put", 0)
    m["cli.import_s"] = median(t["import_s"] for t in traces)
    m["cli.sympy_import_s"] = median(t["sympy_import_s"] for t in traces)
    m["trace.wall_s"] = wall
    return m, spans


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "oseq").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def measure(args, spec, expected, work):
    runner = Runner(work, expected, args.trace)
    queries = workloads.queries(args.workload, args.seed)
    runner.invoke(SETUP_ARGV, "warm-up")  # warm the interpreter's bytecode caches

    walls, pass_traces = [], []
    start = perf_counter()
    while True:
        wall, traces = runner.run_pass(queries)
        walls.append(wall)
        pass_traces.append(traces)
        if perf_counter() - start >= args.seconds:
            break
    runner.setup_due()

    latencies = [r[2] for r in runner.records if r[0] == "query"]
    setup = [r[2] for r in runner.records if r[0] == "setup"]
    failed = sum(not r[5] for r in runner.records)
    correct = failed == 0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "commit": git_commit(),
            "src_sha256": source_digest(),
        },
        "passes": len(walls),
        "pass_walls_s": walls,
        "query_samples": len(latencies),
        "setup_samples": len(setup),
        "failed_ratio": failed / len(runner.records),
        "query_p90_s": (
            quantiles(latencies, n=10)[-1] if len(latencies) >= P90_MIN_SAMPLES else None
        ),
        "invocations": runner.records,
    }

    if args.trace:
        per_pass = [layer_metrics(traces, wall) for traces, wall in zip(pass_traces, walls)]
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        counts = [{n: m[n] for n in names if units[n] == "count"} for m, _ in per_pass]
        detail["counts_repeat"] = all(c == counts[0] for c in counts)
        detail["count_checks"] = {
            name: [want, counts[0][name]]
            for name, want in workloads.COUNT_CHECKS.get(args.workload, {}).items()
        }
        correct = correct and detail["counts_repeat"] and all(
            want == got for want, got in detail["count_checks"].values()
        )
        detail["spans"] = per_pass[0][1]
        values = {n: median(m[n] for m, _ in per_pass) for n in names}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "wall_s": median(walls),
            "query_p50_s": median(latencies),
            "setup_s": median(setup),
            "peak_rss_mb": max(r[3] for r in runner.records if r[0] == "query"),
        }
    result = {
        "correct": correct,
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(detail))
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "oseq" / "cli.py").is_file():
        print(f"error: no oseq sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(RUN_DEADLINE_S)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        measure(args, spec, expected, work)
    finally:
        signal.alarm(0)
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
