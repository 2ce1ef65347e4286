import importlib
import os
import pkgutil
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from sympy import isprime

import oseq
from oseq import CATALOG, CATALOG_FIXED_NAMES, CATALOG_PRIME_NAMES, SUITE_NAMES, verify
from oseq.cli import _VERBS, main
from oseq.fixtures import (
    MAX_FIXTURE_ORDER,
    FixtureError,
    fixtures_by_label,
    load_fixtures,
    parse_fixture_lines,
)
from oseq.order_sequence import OrderSequence, format_sequence, is_plausible, os_cyclic


def test_default_fixtures_load_and_are_plausible():
    fixtures = load_fixtures()
    assert len(fixtures) >= 40
    for f in fixtures:
        ok, reason = is_plausible(f.seq, f.n)
        assert ok, (f.label, reason)


def test_big_display_totals():
    by_label = fixtures_by_label(load_fixtures())
    assert by_label["L2_64"].seq.total == 262080
    assert by_label["C32xSz8"].seq.total == 262080


def test_identical_rows_both_load():
    by_label = fixtures_by_label(load_fixtures())
    assert by_label["SG780_16"].seq.entries == by_label["SG780_17"].seq.entries


def test_equal_sequences_share_psi():
    from oseq.order_sequence import psi

    by_label = fixtures_by_label(load_fixtures())
    assert psi(by_label["SG72_40"].seq) == psi(by_label["SG72_35"].seq)
    assert psi(by_label["SG216_100"].seq) == psi(by_label["SG216_131"].seq)


def test_verify_suites_are_deterministic():
    from oseq.verify import run_suite

    assert run_suite("table3") == run_suite("table3")
    assert run_suite("thm25", primes=(11,)) == run_suite("thm25", primes=(11,))


def test_malformed_line_reports_number():
    with pytest.raises(FixtureError) as err:
        parse_fixture_lines(["", "bad line with | too few fields"], source="t")
    assert "t:2" in str(err.value)


def test_implausible_fixture_is_hard_error():
    line = "BAD | 6 | (1,1)(2,2)(3,2) | none"
    with pytest.raises(FixtureError) as err:
        parse_fixture_lines([line])
    assert "implausible" in str(err.value)


def test_duplicate_labels_rejected():
    lines = ["A | 2 | (1,1)(2,1) | t", "A | 2 | (1,1)(2,1) | t"]
    with pytest.raises(FixtureError):
        parse_fixture_lines(lines)


def test_load_fixtures_from_file(tmp_path):
    path = tmp_path / "fx.txt"
    path.write_text("# comment\nX | 4 | (1,1)(2,3) | tag\n", encoding="utf-8")
    fixtures = load_fixtures(path)
    assert fixtures[0].label == "X" and fixtures[0].tags == {"tag"}


# -- CLI ------------------------------------------------------------------


def test_cli_os(capsys):
    assert main(["os", "A(4)"]) == 0
    assert capsys.readouterr().out.strip() == "n=12; (1,1)(2,3)(3,8)"


def test_cli_compare(capsys):
    assert main(["compare", "A(4)", "D(12)"]) == 0
    assert capsys.readouterr().out.strip() == "Incomparable"


def test_cli_psi(capsys):
    assert main(["psi", "C(1)"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_product(capsys):
    assert main(["product", "C(2)", "C(3)"]) == 0
    assert capsys.readouterr().out.strip() == "n=6; (1,1)(2,1)(3,2)(6,2)"


def test_cli_classify(capsys):
    assert main(["classify", "D(8)"]) == 0
    out = capsys.readouterr().out
    assert "supersolvable: True" in out and "nilpotent: True" in out


def test_cli_user_error_exit_code(capsys):
    assert main(["os", "C(5"]) == 1
    assert main(["compare", "C(4)", "C(6)"]) == 1


def test_cli_construction_error_exit_code(capsys):
    assert main(["os", "C(2) x Wr2(Sz8)"]) == 2
    assert main(["os", "He(4)"]) == 2


def test_cli_verify_pass(capsys):
    assert main(["verify", "thm25", "--primes", "11"]) == 0
    out = capsys.readouterr().out
    assert "3/3 checks passed" in out


def test_cli_verify_rejects_bad_primes(capsys):
    assert main(["verify", "thm25", "--primes", "7"]) == 1
    assert main(["verify", "thm23", "--primes", "11"]) == 1
    assert main(["verify", "thm29", "--primes", "3"]) == 1


# Each theorem's hypothesis on a prime p as stated; the suite table keeps it
# as a least prime and excluded residues.
_HYPOTHESES = {
    "thm23": lambda p: isprime(p) and p % 2 == 1 and p != 5 and p % 5 != 1,
    "thm25": lambda p: isprime(p) and p >= 11 and p % 3 != 1,
    "thm29": lambda p: isprime(p) and p >= 5,
}


@pytest.mark.parametrize("suite", sorted(_HYPOTHESES))
def test_a_theorem_suite_takes_exactly_the_primes_of_its_hypothesis(monkeypatch, suite):
    monkeypatch.setitem(verify._SUITES, suite, verify._SUITES[suite]._replace(check=list))
    for p in range(-10, 500):
        if _HYPOTHESES[suite](p):
            assert verify.run_suite(suite, primes=(p,)) == [p]
        else:
            with pytest.raises(verify.SuiteUsageError, match=rf"^{suite} requires .*; got {p}$"):
                verify.run_suite(suite, primes=(p,))


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    assert "SD_300_23" in capsys.readouterr().out
    assert main(["catalog", "CpxA4", "--prime", "11"]) == 0
    assert "order: 132" in capsys.readouterr().out
    assert main(["catalog", "NoSuch"]) == 1


def test_cli_fixtures(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "order 300" in out


def test_cli_poset_exprs(capsys):
    code = main(["poset", "C(12)", "A(4)", "D(12)", "Dic(12)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "minimal:" in out


def test_cli_poset_fixture_order_dot(tmp_path, capsys):
    out_path = tmp_path / "poset.dot"
    assert main(["poset", "--order", "300", "--emit", "dot", "--out", str(out_path)]) == 0
    dot = out_path.read_text(encoding="utf-8")
    assert '"SG300_23" -> "SG300_22";' in dot


def test_cli_poset_fixture_csv(capsys):
    assert main(["poset", "--order", "780", "--emit", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("label,")


def test_cli_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache.txt"
    assert main(["os", "A(4)", "--cache", str(cache)]) == 0
    capsys.readouterr()
    # cached result is replayed verbatim
    assert main(["os", "A(4)", "--cache", str(cache)]) == 0
    assert capsys.readouterr().out.strip() == "n=12; (1,1)(2,3)(3,8)"
    # --check-cache recomputes and verifies
    assert main(["os", "A(4)", "--cache", str(cache), "--check-cache"]) == 0
    # poisoned cache entries are detected
    cache.write_text("A(4) | n=12; (1,1)(2,11)\n", encoding="utf-8")
    assert main(["os", "A(4)", "--cache", str(cache), "--check-cache"]) == 3


def test_cache_record_starts_on_a_line_of_its_own(tmp_path, capsys):
    # the last record of a hand-edited file may lack its newline
    cache = tmp_path / "cache.txt"
    cache.write_text("A(4) | n=12; (1,1)(2,3)(3,8)", encoding="utf-8")
    assert main(["os", "C(2)", "--cache", str(cache)]) == 0
    assert cache.read_text(encoding="utf-8") == "A(4) | n=12; (1,1)(2,3)(3,8)\nC(2) | n=2; (1,1)(2,1)\n"
    capsys.readouterr()
    for text, value in (("A(4)", "n=12; (1,1)(2,3)(3,8)"), ("C(2)", "n=2; (1,1)(2,1)")):
        assert main(["os", text, "--cache", str(cache)]) == 0
        assert capsys.readouterr().out == value + "\n"
    assert cache.read_text(encoding="utf-8").count("\n") == 2  # both were hits


# A value is replayed only if it is the text `format_sequence` writes, so a
# sequence spelled with extra spaces or Unicode digits is refused too.
_CACHE_RECORDS = [
    ("C(2)", "garbage", "malformed canonical sequence: 'garbage'"),
    ("C(3)", "n=3;   (1, 1) (3,2)", "not canonical sequence text: 'n=3;   (1, 1) (3,2)'"),
    ("C(5)", "n=\u0665; (\u0661,\u0661)(\u0665,\u0664)",
     "malformed canonical sequence: 'n=\u0665; (\u0661,\u0661)(\u0665,\u0664)'"),
]


@pytest.mark.parametrize(
    "check,record",
    [(check, record) for record in _CACHE_RECORDS for check in ([], ["--check-cache"])],
    ids=["replay", "check-cache", "spaced-replay", "spaced-check-cache", "unicode-digits-replay",
         "unicode-digits-check-cache"],
)
def test_cache_value_that_is_not_a_sequence_is_a_one_line_user_error(tmp_path, capsys, check, record):
    expr, value, message = record
    cache = tmp_path / "cache.txt"
    cache.write_text(f"A(4) | n=12; (1,1)(2,3)(3,8)\n{expr} | {value}\n", encoding="utf-8")
    assert main(["os", expr, "--cache", str(cache), *check]) == 1
    assert capsys.readouterr() == ("", f"error: {cache}:2: {message}\n")


def test_sequence_text_takes_ascii_digits_only(tmp_path, capsys):
    path = tmp_path / "fixtures.txt"
    for line, message in (
        ("X | 2 | (1,1)(\u0662,1) | t", "malformed sequence text: '(1,1)(\u0662,1)'"),
        # and so does a fixture's order
        ("X | \u0662 | (1,1)(2,1) | t", "bad order '\u0662'"),
        ("X | 0_2 | (1,1)(2,1) | t", "bad order '0_2'"),
    ):
        path.write_text(line + "\n", encoding="utf-8")
        assert main(["fixtures", "--fixtures", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}:1: {message}\n")


@pytest.mark.parametrize(
    "args,message",
    [
        (("catalog", "CpxA4"), "catalog entry 'CpxA4' requires a prime argument"),
        (("os", "Cat(CpxA4)"), "catalog entry 'CpxA4' requires a prime argument"),
        (("os", "Cat(C5xA5, 7)"), "catalog entry 'C5xA5' takes no prime argument"),
        (("catalog", "C5xA5", "--prime", "7"), "catalog entry 'C5xA5' takes no prime argument"),
    ],
    ids=["catalog-without-prime", "os-without-prime", "os-fixed-with-prime", "catalog-fixed-with-prime"],
)
def test_a_catalog_prime_missing_or_not_taken_is_a_user_error(capsys, args, message):
    assert main(list(args)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_verify_props_reports_known_failure(capsys):
    # one pair of the order-12 nilpotent-domination sweep is incomparable,
    # so this suite deliberately reports a failure
    assert main(["verify", "props"]) == 3
    out = capsys.readouterr().out
    assert "FAIL nilpotent dominates: C2xC6 > Dic12" in out


def _run_python(*args, **kwargs):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kwargs)


def _run_cli(*args, **kwargs):
    return _run_python("-m", "oseq", *args, **kwargs)


@pytest.mark.parametrize(
    "args,message",
    [
        (("verify", "table1", "--fixtures", "{tmp}/missing.txt"),
         "[Errno 2] No such file or directory: '{tmp}/missing.txt'"),
        # a suite that reads no fixtures refuses --fixtures before it opens the file
        (("verify", "thm25", "--fixtures", "{tmp}/missing.txt"),
         "suite 'thm25' takes no fixtures; table1, table2, table3, simple do"),
        (("os", "C(5)", "--cache", "{tmp}/missing-dir/c.json"),
         "[Errno 2] No such file or directory: '{tmp}/missing-dir/c.json'"),
        (("verify", "thm23", "--primes", "3,x"), "--primes takes comma-separated integers; got '3,x'"),
        # an empty path is a path: only leaving --fixtures out reads the shipped file
        (("fixtures", "--fixtures", ""), "[Errno 2] No such file or directory: ''"),
        (("poset", "--order", "72", "--fixtures", ""), "[Errno 2] No such file or directory: ''"),
    ],
    ids=["missing-fixtures", "missing-fixtures-unread", "cache-in-missing-dir", "non-integer-prime",
         "empty-fixtures-path", "empty-poset-fixtures-path"],
)
def test_cli_bad_path_or_prime_is_a_one_line_user_error(tmp_path, args, message):
    proc = _run_cli(*(a.format(tmp=tmp_path) for a in args))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message.format(tmp=tmp_path)}\n")


@pytest.mark.parametrize("suite,label", [("table1", "SG300_22"), ("simple", "L2_64")])
@pytest.mark.parametrize("content", ["", "X | 2 | (1,1)(2,1) | t\n"], ids=["empty", "one-line"])
def test_a_fixture_file_without_a_label_a_suite_reads_is_a_one_line_user_error(tmp_path, suite, label, content):
    # the shipped fixtures stand in for no file, not for an empty one
    path = tmp_path / "fixtures.txt"
    path.write_text(content, encoding="utf-8")
    proc = _run_cli("verify", suite, "--fixtures", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: no fixture labelled {label!r}\n")


@pytest.mark.parametrize(
    "args",
    [
        ("os", "C(4)", "--cache", "{path}"),
        ("fixtures", "--fixtures", "{path}"),
        ("poset", "--fixtures", "{path}", "--order", "4"),
    ],
    ids=["cache", "fixtures", "poset-fixtures"],
)
def test_a_file_that_is_not_utf8_is_a_one_line_user_error(tmp_path, args):
    path = tmp_path / "latin1.txt"
    path.write_bytes("C(4) | n=4; (1,1)(2,1)(4,2) \xe9\n".encode("latin-1"))
    proc = _run_cli(*(a.format(path=path) for a in args))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {path}: not UTF-8 text\n")


def test_sz8_needs_no_flag_and_the_features_option_is_ignored():
    sz8 = _run_cli("os", "Sz8")
    assert (sz8.returncode, sz8.stdout, sz8.stderr) == (
        0, "n=29120; (1,1)(2,455)(4,3640)(5,5824)(7,12480)(13,6720)\n", "")
    plain = _run_cli("verify", "simple")
    flagged = _run_cli("verify", "simple", "--features", "sz8")
    assert (plain.returncode, plain.stderr) == (flagged.returncode, flagged.stderr) == (0, "")
    assert plain.stdout == flagged.stdout
    assert "PASS os(C3^2 x Sz8) == C32xSz8" in plain.stdout
    assert plain.stdout.endswith("6/6 checks passed\n")


# argv and the start of its one `error:` line; `test_cli_parser.py` also
# reads each with the argparse parser that `oseq.cli._parse` replaced
USAGE_ERRORS = [
    (("os",), "the following arguments are required: expr"),
    (("verify", "nosuch"), "argument suite: invalid choice: 'nosuch'"),
    (("catalog", "--prime", "x"), "argument --prime: invalid int value: 'x'"),
    (("classify", "C(5)", "--bogus"), "unrecognized arguments: --bogus"),
    ((), "the following arguments are required: command"),
    (("catalog", "--prime", "7"), "--prime needs a catalog name"),
    # an option that the verb would ignore is refused
    (("os", "C(2)", "--check-cache"), "--check-cache needs --cache"),
    *((("verify", suite, "--primes", "5"), f"suite {suite!r} takes no primes; thm23, thm25, thm29 do")
      for suite in ("table1", "table2", "table3", "simple", "props")),
    (("verify", "thm23", "--primes", ""), "--primes takes comma-separated integers; got ''"),
    (("verify", "thm23", "--primes", "3,3"), "thm23 takes each prime once; got 3 twice"),
    (("poset", "C(2)", "--order", "12"), "poset over expressions takes no --order or --fixtures"),
    (("poset", "C(2)", "--fixtures", "missing.txt"), "poset over expressions takes no --order or --fixtures"),
    *((("verify", suite, "--fixtures", "{fixtures}"),
       f"suite {suite!r} takes no fixtures; table1, table2, table3, simple do")
      for suite in ("thm23", "thm25", "thm29", "props")),
    # integers are read in ASCII digits only, without underscores
    (("catalog", "CpxA4", "--prime", "\u0667"), "argument --prime: invalid int value: '\u0667'"),
    (("catalog", "CpxA4", "--prime", "1_1"), "argument --prime: invalid int value: '1_1'"),
    (("poset", "--order", "\u0667\u0662"), "argument --order: invalid int value: '\u0667\u0662'"),
    (("verify", "thm29", "--primes", " 5,1_1"), "--primes takes comma-separated integers; got ' 5,1_1'"),
    (("verify", "thm29", "--primes", "\u0665"), "--primes takes comma-separated integers; got '\u0665'"),
    # only verify declares the ignored --features
    (("os", "Sz8", "--features", "sz8"), "unrecognized arguments: --features sz8"),
]


@pytest.mark.parametrize(
    "args,message",
    USAGE_ERRORS,
    ids=["os-without-expr", "unknown-suite", "non-integer-prime", "unknown-option", "no-verb",
         "prime-without-catalog-name", "check-cache-without-cache", "table1-primes", "table2-primes",
         "table3-primes", "simple-primes", "props-primes", "empty-primes", "repeated-prime", "poset-exprs-order",
         "poset-exprs-fixtures", "thm23-fixtures", "thm25-fixtures", "thm29-fixtures", "props-fixtures",
         "unicode-digit-prime", "underscore-prime", "unicode-digit-order", "underscore-primes",
         "unicode-digit-primes", "os-features"],
)
def test_cli_usage_error_is_a_one_line_user_error(tmp_path, args, message):
    fixtures = tmp_path / "one-line.txt"
    fixtures.write_text("X | 2 | (1,1)(2,1) | t\n", encoding="utf-8")
    proc = _run_cli(*(a.format(fixtures=fixtures) for a in args))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1


def test_cli_help_exits_0():
    for args in (("--help",), ("os", "--help")):
        proc = _run_cli(*args)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: oseq") and proc.stderr == ""


def test_readme_cli_block_is_the_usage_that_help_prints(capsys):
    assert main(["--help"]) == 0
    usage = [line for line in capsys.readouterr().out.splitlines() if line.startswith("oseq ")]
    assert [line.split()[1] for line in usage] == list(_VERBS)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    assert block.splitlines() == usage


def test_cli_refuses_a_huge_fixture_order_before_factoring_it(tmp_path):
    # the plausibility filter factors the order, and oseq.arith factors only
    # integers below 10^6: the order is refused before the filter runs
    n = (10**15 + 37) * (3 * 10**15 + 37)
    path = tmp_path / "big.txt"
    path.write_text(f"BIG | {n} | (1,1)({n},{n - 1}) | x\n", encoding="utf-8")
    start = time.perf_counter()
    proc = _run_cli("fixtures", "--fixtures", str(path), timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stderr == f"error: {path}:1: order {n} exceeds {MAX_FIXTURE_ORDER}\n"


def test_fixture_order_at_the_bound_is_parsed():
    n = MAX_FIXTURE_ORDER
    pairs = "".join(f"({o},{m})" for o, m in os_cyclic(n).entries)
    (fixture,) = parse_fixture_lines([f"EDGE | {n} | {pairs} | cyclic"])
    assert fixture.n == n and fixture.seq == os_cyclic(n)
    with pytest.raises(FixtureError, match="exceeds"):
        parse_fixture_lines([f"OVER | {n + 1} | {pairs} | cyclic"])


def test_cli_classify_non_solvable_group_above_quotient_threshold():
    proc = _run_cli("classify", "A(8)")
    assert proc.returncode == 0
    assert proc.stdout == (
        "order: 20160\nnilpotent: False\nsupersolvable: False\nsolvable: False\n"
        "derived series orders: 20160\n"
    )


def test_cli_classify_supersolvable_group_above_quotient_threshold():
    proc = _run_cli("classify", "C(150)xC(150)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "order: 22500\nnilpotent: True\nsupersolvable: True\nsolvable: True\n"
        "chain of prime-order normal subgroups: 5 > 5 > 3 > 2 > 5 > 5 > 3 > 2\n"
        "derived series orders: 22500 > 1\n"
    )


def test_cli_runs_without_importing_sympy():
    code = (
        "import sys, oseq.cli\n"
        "assert 'sympy' not in sys.modules, 'import'\n"
        "assert oseq.cli.main(['catalog']) == 0\n"
        "assert 'sympy' not in sys.modules, 'catalog'\n"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


_CHILD_ADDRESS_SPACE = 1 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize(
    "args",
    [
        ("os", "C(1000000)"),
        ("os", "S(100000)"),
        ("verify", "thm29", "--primes", "1000003"),
        ("os", "Dic(2000000)"),
        ("os", "He(101)"),
    ],
    ids=["C(1000000)", "S(100000)", "thm29-1000003", "Dic(2000000)", "He(101)"],
)
def test_oversized_named_family_fails_before_allocating(args):
    # only the child's address space is capped: an allocation of the group
    # would end in a MemoryError traceback instead of the checked error line
    proc = _run_cli(*args, preexec_fn=_cap_address_space, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("construction error: ") and proc.stderr.count("\n") == 1


def test_oversized_permutation_closure_fails_before_allocating():
    # S12 has 479001600 elements: the coset enumeration refuses it from the
    # orbit lengths of its stabiliser chain, before any stabiliser nears the
    # cap; 500000 degree-12 permutations in a list and an index take over 40 MB
    code = (
        "import tracemalloc\n"
        "from oseq.groups import GroupError, PermBacking, enumerate_group\n"
        "backing = PermBacking(12)\n"
        "gens = [backing.pack((1, 0, *range(2, 12))), backing.pack((*range(1, 12), 0))]\n"
        "tracemalloc.start()\n"
        "try:\n"
        "    enumerate_group(backing, gens)\n"
        "except GroupError as e:\n"
        "    print(e)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    proc = _run_python("-c", code, preexec_fn=_cap_address_space, timeout=30)
    assert proc.returncode == 0, proc.stderr
    message, peak = proc.stdout.splitlines()
    assert message == "closure exceeded cap 500000"
    assert int(peak) < 4 << 20


@pytest.mark.parametrize(
    "args,code,stdout,stderr",
    [
        (("os", "--cache", "{tmp}/c.txt", "A(1)^100000000"), 0, "n=1; (1,1)\n", ""),
        (("poset", "A(1)^100000000", "C(2)"), 1, "", "error: corpus mixes totals [1, 2]\n"),
        (("poset", "C(2)", "Wr2(A(1)^100000)^100"), 2, "",
         "construction error: product order 524288 exceeds closure cap 500000\n"),
        (("os", "--cache", "{tmp}/c.txt", "A(1)^100000"), 0, "n=1; (1,1)\n", ""),
    ],
    ids=["os-cache-A1-power-1e8", "poset-A1-power-1e8", "poset-Wr2-power", "os-cache-A1-power-1e5"],
)
def test_power_keys_and_labels_stay_short(args, code, stdout, stderr, tmp_path):
    # the cache key and the poset labels are the canonical text, which writes
    # a power as BASE^k: spelled out, A(1)^100000000 would be 700 MB of text
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    proc = _run_cli(*args, preexec_fn=_cap_address_space, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)
    if args[0] == "os":
        assert (tmp_path / "c.txt").read_text(encoding="utf-8") == f"{args[-1]} | n=1; (1,1)\n"


def _with_elements_of_order(seq, order, count):
    counts = dict(seq.entries)
    counts[order] = counts.get(order, 0) + count
    return OrderSequence(tuple(sorted(counts.items())))


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("C(100000)", os_cyclic(100000)),
        ("D(200000)", _with_elements_of_order(os_cyclic(100000), 2, 100000)),
        ("Dic(10000)", _with_elements_of_order(os_cyclic(5000), 4, 5000)),
    ],
    ids=["C(100000)", "D(200000)", "Dic(10000)"],
)
def test_large_metacyclic_family_fits_in_memory(expr, expected):
    # D(2m) adds m reflections of order 2 to C(m); Dic(4m) adds 2m elements
    # of order 4 to C(2m)
    proc = _run_cli("os", expr, preexec_fn=_cap_address_space, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == format_sequence(expected) + "\n"


def test_every_exported_name_resolves():
    names = [m.name for m in pkgutil.iter_modules(oseq.__path__) if m.name != "__main__"]
    for name in names:
        module = importlib.import_module(f"oseq.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"oseq.{name}.__all__ names the missing {attr}"


def test_bench_tracer_installs_on_a_fresh_import():
    # the bench tracer wraps every name in each module's __all__
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = (
        f"import sys; sys.path.insert(0, {str(perfbench)!r})\n"
        "import oseq.cli, oseq\n"
        "from tracer import Tracer, install\n"
        "install(Tracer(), oseq)\n"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


# Every submodule with an __all__; `cli` has none.
MODULES = [
    "arith", "cache", "classify", "construct", "expr", "finite_field", "fixtures", "groups", "order_sequence",
    "poset", "verify",
]
SUBMODULES = [*MODULES, "cli"]


def test_catalog_and_classify_import_only_what_they_run(tmp_path):
    # the bare listing prints the names `oseq` itself keeps
    code = (
        "import sys\n"
        "from oseq.cli import main\n"
        "assert main(['catalog']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('oseq')), file=sys.stderr)\n"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "['oseq', 'oseq.cli']\n"
    # `verify simple` and `fixtures` run no classification, build no poset
    # and no catalog entry, so they parse no expression text;
    # `verify thm25` reads no fixtures; an `os --cache` hit builds no group;
    # no verb loads argparse or the gettext and locale it would pull in
    hit = ["os", "C(6)", "--cache", str(tmp_path / "cache.txt")]
    assert _run_cli(*hit).returncode == 0
    for verbs, unwanted in (
        ((["catalog"], ["classify", "C(6)"]),
         ["dataclasses", "oseq.finite_field", "oseq.verify", "oseq.poset", "oseq.fixtures", "oseq.cache"]),
        ((["verify", "simple"], ["fixtures"]), ["oseq.classify", "oseq.poset", "oseq.expr", "csv"]),
        ((["verify", "thm25"],), ["oseq.fixtures"]),
        ((hit,), ["oseq.construct", "oseq.groups"]),
        ((["verify", "table2"], ["poset", "--order", "216", "--emit", "csv"], ["os", "C(2)"], ["compare", "C(2)", "C(2)"],
          ["psi", "C(2)"], ["product", "C(2)", "C(3)"]), ["argparse", "gettext", "locale"]),
    ):
        code = (
            "import sys\n"
            "from oseq.cli import main\n"
            f"assert all(main(argv) == 0 for argv in {verbs!r})\n"
            f"print('loaded:', [m for m in {unwanted!r} if m in sys.modules], file=sys.stderr)\n"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "loaded: []\n", verbs
    # only the PSL(2,q) and Sz(8) builders load the field tables: every
    # C_p^k : H acts by integer matrices; `verify props` exits 3 on its known
    # failing check
    code = (
        "import sys\n"
        "from oseq.cli import main\n"
        "codes = [main(argv) for argv in [['classify', 'Cat(SD_300_23)'], ['classify', 'Cat(C4xF8)'],"
        " ['verify', 'table1'], ['verify', 'props'], ['catalog', 'CpxSD300', '--prime', '7'],"
        " ['os', 'He(5)'], ['os', 'F7'], ['classify', 'Cat(SD_72_35)'], ['classify', 'Cat(C5xC7A4)']]]\n"
        "print(codes, 'oseq.finite_field' in sys.modules, file=sys.stderr)\n"
        "print(main(['os', 'PSL2(7)']), 'oseq.finite_field' in sys.modules, file=sys.stderr)\n"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[0, 0, 0, 3, 0, 0, 0, 0, 0] False\n0 True\n"


def test_fixture_verbs_load_no_resource_or_archive_modules():
    # the shipped fixtures are opened with `open`, like `--fixtures PATH`;
    # -S keeps site hooks, which may load these modules first, out of the child
    code = (
        "import sys\n"
        "from oseq.cli import main\n"
        "codes = [main(argv) for argv in"
        " [['verify', 'simple'], ['verify', 'table1'], ['poset', '--order', '216'], ['fixtures']]]\n"
        "print(codes, [m for m in ('importlib.resources', 'zipfile', 'tempfile') if m in sys.modules],"
        " file=sys.stderr)\n"
    )
    proc = _run_python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[0, 0, 0, 0] []\n"


def test_the_shipped_fixtures_are_the_package_data_beside_the_reader():
    # package-data globs are relative to the package, the folder of oseq/fixtures.py
    package = Path(oseq.fixtures.__file__).resolve().parent
    shipped = package / "data" / "fixtures.txt"
    assert load_fixtures() == load_fixtures(shipped)
    if sys.version_info < (3, 11):
        pytest.skip("reading pyproject.toml needs tomllib, Python 3.11")
    import tomllib

    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    globs = pyproject["tool"]["setuptools"]["package-data"]["oseq"]
    assert any(shipped.relative_to(package).match(glob) for glob in globs), globs


def test_parser_and_error_mapping_load_no_other_module():
    # one argv per verb is read, and help and a usage error are mapped to
    # their exit codes, without argparse and the gettext and locale it loads
    argvs = [
        ["os", "C(2)", "--cache=c.txt", "--check-cache"], ["compare", "C(2)", "C(3)"], ["classify", "C(2)"],
        ["psi", "C(2)"], ["product", "C(2)", "C(3)"], ["poset", "C(2)", "--emit", "csv"],
        ["verify", "thm23", "--primes", "3,7"], ["catalog", "CpxA4", "--prime", "7"], ["fixtures", "--fixtures", "f"],
    ]
    assert sorted(argv[0] for argv in argvs) == sorted(_VERBS)
    code = (
        "import sys\n"
        "from oseq.cli import _parse, main\n"
        f"assert all(_parse(argv)[0].__name__ == 'cmd_' + argv[0] for argv in {argvs!r})\n"
        "assert main(['--help']) == main(['os', '-h']) == 0 and main(['os']) == 1\n"
        "print(sorted(m for m in sys.modules if m.startswith('oseq') or m in ('argparse', 'gettext', 'locale')),"
        " file=sys.stderr)\n"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith("['oseq', 'oseq.cli']\n")


@pytest.mark.parametrize("module", MODULES)
def test_package_exports_are_the_module_objects(module):
    # a public name is read through its module: `oseq` holds no flat copy,
    # only its own names, such as the SUITE_NAMES that `verify` re-exports
    for name in getattr(oseq, module).__all__:
        assert name in oseq.__all__ or not hasattr(oseq, name), name


def test_submodules_resolve_as_attributes_and_unknown_names_do_not():
    for name in SUBMODULES:
        assert getattr(oseq, name) is importlib.import_module(f"oseq.{name}")
    for name in ("no_such_name", "cyclic", "SubgroupSet"):
        assert not hasattr(oseq, name), name


def test_suite_names_have_one_source():
    assert verify.SUITE_NAMES is SUITE_NAMES
    assert tuple(verify._SUITES) == SUITE_NAMES
    assert all(suite.check is getattr(verify, f"suite_{name}") for name, suite in verify._SUITES.items())
    assert _VERBS["verify"][2]["suite"] is SUITE_NAMES


def test_catalog_names_have_one_source(capsys):
    # `oseq catalog` lists `oseq.CATALOG` sorted: first the entries whose
    # text takes no prime, then those whose text holds {p}, {2p} or {5p}
    takes_prime = {name: any(f"{{{k}}}" in text for k in ("p", "2p", "5p")) for name, text in CATALOG.items()}
    fixed = [name for name in sorted(CATALOG) if not takes_prime[name]]
    prime = [name for name in sorted(CATALOG) if takes_prime[name]]
    assert (list(CATALOG_FIXED_NAMES), list(CATALOG_PRIME_NAMES)) == (fixed, prime)
    assert main(["catalog"]) == 0
    assert capsys.readouterr().out.splitlines() == [*fixed, *(f"{name} (takes a prime)" for name in prime)]


# C(2)^k with k = 99999999^600: a 4,800-digit exponent, over Python's limit on
# writing an int as text
_HUGE_EXPONENT = "C(2)" + "^99999999" * 600

# a Mersenne prime of 3,376 digits, far past the 10^6 bound of oseq.arith
_MERSENNE = str(2**11213 - 1)
_PAST_ARITH_BOUND = "construction error: a 11213-bit integer is not below 10^6, the bound of oseq's integer arithmetic\n"


@pytest.mark.parametrize(
    "args,code,stderr",
    [
        (("os", "C("), 1, "error: expected 'int', found end of input (at position 2)\n"),
        (("os", ""), 1, "error: expected a constructor name, found end of input (at position 0)\n"),
        (("os", "PSL2(64)x"), 1, "error: expected a constructor name, found end of input (at position 9)\n"),
        (("compare", "C(2)", "C(3)"), 1, "error: sequences of different totals are not comparable\n"),
        (("verify", "thm23", "--primes", "x"), 1, "error: --primes takes comma-separated integers; got 'x'\n"),
        (("fixtures", "--fixtures", "/nonexistent"), 1,
         "error: [Errno 2] No such file or directory: '/nonexistent'\n"),
        (("fixtures", "--fixtures", "{tmp}/bad.txt"), 1, "error: {tmp}/bad.txt:1: expected 4 '|'-separated fields\n"),
        (("classify", "C(0)"), 2, "construction error: cyclic group order must be >= 1\n"),
        (("os", "C(2)^19"), 2, "construction error: product order 524288 exceeds closure cap 500000\n"),
        # integers past Python's 4,300-digit limit on int <-> text conversion
        (("os", f"C({'7' * 5000})"), 1, "error: an integer of 5000 digits is too long (at position 2)\n"),
        (("os", "--cache", "{tmp}/c.txt", _HUGE_EXPONENT), 1,
         "error: an exponent of the expression has too many digits to print\n"),
        (("poset", _HUGE_EXPONENT, "C(2)"), 1, "error: an exponent of the expression has too many digits to print\n"),
        (("poset", "C(4)", "C(4)"), 1, "error: corpus labels must be unique\n"),
        (("poset", "--order", "5"), 1, "error: no fixtures of order 5\n"),
        (("fixtures", "--fixtures", "{tmp}/long.txt"), 1, "error: {tmp}/long.txt:1: a number of 5000 digits is too long\n"),
        (("catalog", "NoSuch"), 1, "error: unknown catalog name 'NoSuch'\n"),
        (("os", "Cat(NoSuch)"), 1, "error: unknown catalog name 'NoSuch'\n"),
        (("catalog", "CpxA4", "--prime", "12"), 1, "error: 12 is not prime\n"),
        (("os", "Cat(CpxA4, 12)"), 1, "error: 12 is not prime\n"),
        (("os", f"Cat(CpxA4, {_MERSENNE})"), 2, _PAST_ARITH_BOUND),
        (("os", f"He({_MERSENNE})"), 2, _PAST_ARITH_BOUND),
        (("catalog", "CpxA4", "--prime", _MERSENNE), 2, _PAST_ARITH_BOUND),
        (("verify", "thm29", "--primes", _MERSENNE), 2, _PAST_ARITH_BOUND),
    ],
    ids=["ParseError", "ParseError-empty", "ParseError-trailing-x", "SequenceError", "SuiteUsageError", "OSError",
         "FixtureError", "ConstructionError", "GroupError", "ParseError-5000-digits", "InputError-exponent-cache-key",
         "InputError-exponent-poset-label", "SequenceError-poset-repeated-label",
         "InputError-poset-no-fixtures-of-order", "FixtureError-5000-digits", "InputError-catalog-unknown-name", "InputError-os-unknown-catalog-name",
         "InputError-catalog-non-prime", "InputError-os-catalog-non-prime", "ArithError-os-catalog-prime",
         "ArithError-os-He", "ArithError-catalog-prime", "ArithError-verify-primes"],
)
def test_each_error_class_maps_to_its_exit_code(tmp_path, args, code, stderr):
    # FieldError has no case: the CLI builds fields of fixed sizes, and the
    # field of PSL2(q) only after psl2 has checked q
    (tmp_path / "bad.txt").write_text("only | three | fields\n", encoding="utf-8")
    (tmp_path / "long.txt").write_text(f"X | 2 | (1,1)(2,{'9' * 5000}) | t\n", encoding="utf-8")
    start = time.perf_counter()
    proc = _run_cli(*(a.format(tmp=tmp_path) for a in args), timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", stderr.format(tmp=tmp_path))
    # each refusal comes before any work: an integer past 10^6 is not divided at all
    assert elapsed < 1


@pytest.mark.parametrize(
    "args,code,stdout,stderr",
    [
        (("os", "C(1)^100000000"), 0, "n=1; (1,1)\n", ""),
        (("os", "C(1)^100000000 x C(5)"), 0, "n=5; (1,1)(5,4)\n", ""),
        (("classify", "C(1)^100000000"), 0,
         "order: 1\nnilpotent: True\nsupersolvable: True\nsolvable: True\n"
         "chain of prime-order normal subgroups: \nderived series orders: 1\n", ""),
        (("os", "C(2)^1000000000"), 2, "", "construction error: product order 524288 exceeds closure cap 500000\n"),
        (("os", "C(7)^3^100000000"), 2, "", "construction error: product order 823543 exceeds closure cap 500000\n"),
    ],
    ids=["trivial", "trivial-times-C5", "classify-trivial", "C2", "C7-nested"],
)
def test_cyclic_power_is_answered_or_refused_before_it_allocates(args, code, stdout, stderr):
    # only the child's address space is capped: a k-long factor list would
    # end in a MemoryError traceback
    proc = _run_cli(*args, preexec_fn=_cap_address_space, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)


_TRIVIAL_CHAIN = "x".join(["C(1)"] * 20_000)  # under the 128 KiB limit on one argument


@pytest.mark.parametrize(
    "args,code,stdout,stderr",
    [
        (("os", _TRIVIAL_CHAIN), 0, "n=1; (1,1)\n", ""),
        (("os", f"C(2) x {_TRIVIAL_CHAIN} x C(3)"), 0, "n=6; (1,1)(2,1)(3,2)(6,2)\n", ""),
        (("os", "A(1)^100000"), 0, "n=1; (1,1)\n", ""),
        (("os", "A(5)^100000"), 2, "", "construction error: product order 12960000 exceeds closure cap 500000\n"),
        (("os", "A(1)^100000000"), 0, "n=1; (1,1)\n", ""),
        (("os", "A(5)^100000000"), 2, "", "construction error: product order 12960000 exceeds closure cap 500000\n"),
        (("os", "C(2)^100000000^100000000^100000000"), 2, "",
         "construction error: product order 524288 exceeds closure cap 500000\n"),
        (("os", "A(5)^100000000^100000000^100000000"), 2, "",
         "construction error: product order 12960000 exceeds closure cap 500000\n"),
        (("os", "Wr2(" * 3000 + "C(2)" + ")" * 3000), 1, "",
         "error: expression nested deeper than 100 (at position 400)\n"),
    ],
    ids=["C1-chain", "C2-C1-chain-C3", "A1-power", "A5-power", "A1-power-1e8", "A5-power-1e8", "C2-power-1e24",
         "A5-power-1e24", "Wr2-3000-deep"],
)
def test_long_product_chains_answer_without_a_traceback(args, code, stdout, stderr):
    # printing and building walk the product spine in a loop, a trivial
    # factor adds no backing, a power is one node until it is built, and the
    # parser refuses deep nesting, so no stack or list grows with the input
    proc = _run_cli(*args, preexec_fn=_cap_address_space, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)
