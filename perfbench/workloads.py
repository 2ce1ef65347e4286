"""Seeded query lists for the `oseq` CLI benchmark.

A workload is a list of slots.  Each slot lists its options; an option is a
tuple of CLI argument vectors that run in order, one process each.  The seed
picks one option per slot and shuffles the slots, so the same seed always
gives the same queries, and the union of all options is the pool whose
expected outputs ship in ``expected.json``.

The prime pools are narrow on purpose: the primes in one pool cost about the
same, so a seed changes which inputs run without changing how much work a
pass does.
"""

from __future__ import annotations

import random
import shlex
from itertools import combinations

CACHE = "{cache}"  # replaced by a fresh per-pass cache path before running


def _each(*argvs):
    """A slot with one option per argument vector."""
    return [(argv,) for argv in argvs]


def _fixed(*argvs):
    """A slot with one option that runs every argument vector in order."""
    return [tuple(argvs)]


# Groups of `verify.catalog_sample()` that take no prime.
_SAMPLE_NAMED = (
    "C5xA5", "C7xA5", "C13xA5", "C15xA5", "SD_300_23", "SD_72_35", "S3wrC2",
    "C4xF8", "C22xF8", "C24xD14", "D10xF7", "C35xA4", "C5xC7A4",
)
_SAMPLE_PRIMES = (7, 11, 13)

# Prime pools that satisfy each theorem suite's guard.
_THM23_PRIMES = (3, 7, 13)
_THM25_PRIMES = (11, 17, 23)
_THM29_PRIMES = (5, 7, 11)
_EXPR_PRIMES = (7, 11, 13)


def _primes_pairs(suite, pool):
    return _each(*(("verify", suite, "--primes", f"{a},{b}") for a, b in combinations(pool, 2)))


def _cache_trio(expr):
    """Miss, then hit, then a recomputing check, all against one cache file."""
    return (
        ("os", expr, "--cache", CACHE),
        ("os", expr, "--cache", CACHE),
        ("os", expr, "--cache", CACHE, "--check-cache"),
    )


# Derived series and supersolvable quotient recursion on the 16
# classification-sample groups (orders 72 to 900), plus one relator search.
_CLASSIFY_CATALOG = [
    *(_fixed(("classify", f"Cat({name})")) for name in _SAMPLE_NAMED),
    [
        (("classify", f"Cat(CpxA4, {a})"), ("classify", f"Cat(CpxA4, {b})"))
        for a, b in combinations(_SAMPLE_PRIMES, 2)
    ],
    _each(*(("classify", f"Cat(S3xD2p, {p})") for p in _SAMPLE_PRIMES)),
]

# Short invocations where interpreter start-up is a large share, plus the
# only users of the cache, posets and fixture listing.
_CLI_MIX = [
    _fixed(("verify", "table1")),
    _fixed(("verify", "table2")),
    _fixed(("verify", "table3")),
    _primes_pairs("thm23", _THM23_PRIMES),
    _primes_pairs("thm25", _THM25_PRIMES),
    _primes_pairs("thm29", _THM29_PRIMES),
    _fixed(("verify", "props")),
    _each(*(("os", f"C({p}) x A(5)") for p in _EXPR_PRIMES)),
    _each(*(("compare", f"Cat(CpxA4, {p})", f"Cat(S3xD2p, {p})") for p in _THM25_PRIMES)),
    _each(*(("psi", f"D({2 * p}) x S(3)") for p in _EXPR_PRIMES)),
    _each(*(("product", f"C({p})", "A(5)") for p in _EXPR_PRIMES)),
    _fixed(("poset", "--order", "900")),
    _fixed(("poset", "--order", "216", "--emit", "csv")),
    _fixed(("catalog",)),
    _fixed(("fixtures",)),
    _fixed(("catalog", "CpxSD300", "--prime", "7")),
    [_cache_trio(f"C({p}) x A(4)") for p in _EXPR_PRIMES],
]

WORKLOADS = {
    # The two largest groups: PSL(2,64) by permutation BFS and Sz(8) by 4x4
    # matrices over GF(8).  No classification and no relator search.
    "simple-groups": [
        _fixed(("verify", "simple", "--features", "sz8")),
    ],
    # Classification and the short CLI verbs share one workload: on a noisy
    # host a pass of about 45 s is steadier than two passes of about 22 s
    # measured in separate runs, and the time budget allows one pass per run.
    "catalog-mix": _CLASSIFY_CATALOG + _CLI_MIX,
}


def queries(workload, seed):
    """The argument vectors of one pass, in run order."""
    rng = random.Random(seed)
    steps = [rng.choice(slot) for slot in WORKLOADS[workload]]
    rng.shuffle(steps)
    return [argv for step in steps for argv in step]


def pool():
    """Every argument vector any seed of any workload can run."""
    return sorted({argv for slots in WORKLOADS.values() for slot in slots for step in slot for argv in step})


def bind(argv, cache_path):
    """The argument vector with the cache placeholder replaced by a real path."""
    return [cache_path if a == CACHE else a for a in argv]


def key(argv):
    """Stable text key of an argument vector, as stored in expected.json."""
    return shlex.join(argv)


# Counters a traced pass must reproduce exactly, whatever the seed.
COUNT_CHECKS = {
    # `verify simple` enumerates PSL(2,64), Sz(8) and the C3^2 factor of
    # C3^2 x Sz(8), and nothing else.
    "simple-groups": {"groups.elements_enumerated": 262080 + 29120 + 9},
    # The `os --cache` trio is the only cache user: the miss reads and
    # writes, the hit and the check read and find the entry.  The one failed
    # check is the known false claim of `verify props`.
    "catalog-mix": {
        "cache.get_calls": 3,
        "cache.hits": 2,
        "cache.put_calls": 1,
        "verify.checks_failed": 1,
    },
}
