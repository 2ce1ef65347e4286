import pytest

from oseq.fixtures import load_fixtures
from oseq.order_sequence import SequenceError, Verdict, os_of_group, parse_pairs
from oseq.poset import build_poset, to_csv, to_dot
from oseq.verify import order12_corpus_groups


def _order12_corpus():
    return [(label, os_of_group(group)) for label, group in order12_corpus_groups()]


def _fixtures_of_order(fixtures, n):
    return [(f.label, f.seq) for f in fixtures if f.n == n]


def _order12_tags(label):
    return {"nilpotent"} if label in ("C12", "C2xC6") else {"nonnilpotent"}


def _dominations(corpus, keep=lambda top, low: True):
    """The (dominator, dominated) label pairs of the corpus's poset that `keep` accepts."""
    result = build_poset(corpus)
    labels = result.labels
    return [
        (labels[i], labels[j])
        for i, row in enumerate(result.verdicts)
        for j, verdict in enumerate(row)
        if verdict is Verdict.PROPERLY_DOMINATES and keep(labels[i], labels[j])
    ]


def test_order12_poset():
    result = build_poset(_order12_corpus())
    assert "A4" in result.minimal
    assert "C12" not in result.minimal and "C2xC6" not in result.minimal
    assert result.maximal == {"C12"}
    assert result.minimal == {"A4", "D12"}


def test_hasse_transitive_closure_reproduces_relation():
    corpus = _order12_corpus()
    result = build_poset(corpus)
    labels = result.labels
    strict = {(labels[i], labels[j])
              for i in range(len(labels)) for j in range(len(labels))
              if result.verdicts[i][j] is Verdict.PROPERLY_DOMINATES}
    closure = set(result.hasse)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    assert closure == strict


def test_singleton_corpus():
    corpus = [("only", os_of_group(order12_corpus_groups()[0][1]))]
    result = build_poset(corpus)
    assert result.minimal == {"only"} == result.maximal
    assert result.hasse == ()


def test_empty_corpus():
    corpus = []
    assert _dominations(corpus) == []


def test_corpus_validation():
    entries = [("a", os_of_group(order12_corpus_groups()[0][1])),
               ("b", os_of_group(order12_corpus_groups()[0][1]))]
    build_poset(entries)  # same total is fine
    with pytest.raises(SequenceError, match="^corpus labels must be unique$"):
        build_poset([("a", os_of_group(order12_corpus_groups()[0][1])),
                     ("a", os_of_group(order12_corpus_groups()[1][1]))])
    with pytest.raises(SequenceError, match=r"^corpus mixes totals \[2, 12\]$"):
        build_poset([("a", os_of_group(order12_corpus_groups()[0][1])), ("b", parse_pairs("(1,1)(2,1)"))])


def test_order300_fixture_pair():
    fixtures = load_fixtures()
    corpus = _fixtures_of_order(fixtures, 300)
    result = build_poset(corpus)
    assert result.minimal == {"SG300_23"}
    assert result.maximal == {"SG300_22"}


def test_order900_domination_pairs():
    fixtures = load_fixtures()
    corpus = _fixtures_of_order(fixtures, 900)
    tags = {f.label: f.tags for f in fixtures}
    pairs = _dominations(corpus, lambda top, low: "nonsolvable" in tags[top] and "solvable" in tags[low])
    assert len(pairs) == 14
    assert all(top == "SG900_88" for top, _ in pairs)


def test_order72_fixture_pairs_are_equal_only():
    corpus = _fixtures_of_order(load_fixtures(), 72)
    assert _dominations(corpus) == []
    result = build_poset(corpus)
    assert result.verdicts[0][1] is Verdict.EQUAL


def test_domination_pairs_with_callable_filter():
    corpus = _order12_corpus()
    pairs = _dominations(corpus, lambda top, low: "nilpotent" in _order12_tags(top))
    assert ("C12", "A4") in pairs and ("C2xC6", "A4") in pairs
    assert all(top in ("C12", "C2xC6") for top, _ in pairs)


def test_dot_output():
    result = build_poset(_order12_corpus())
    dot = to_dot(result)
    assert dot.startswith("digraph domination {")
    # edges run from dominated up to dominator
    assert '"A4" -> "C12";' in dot or '"A4" -> "Dic12";' in dot
    for label, _ in order12_corpus_groups():
        assert f'"{label}";' in dot


def test_dot_output_escapes_quotes_and_backslashes_in_labels():
    # C4 dominates C2^2; unescaped, the label A"x would end its quoted id early
    corpus = [('A"x', parse_pairs("(1,1)(2,1)(4,2)")), ("B\\y", parse_pairs("(1,1)(2,3)"))]
    assert to_dot(build_poset(corpus)) == 'digraph domination {\n  "A\\"x";\n  "B\\\\y";\n  "B\\\\y" -> "A\\"x";\n}\n'


def test_csv_output():
    result = build_poset(_order12_corpus())
    rows = to_csv(result).strip().splitlines()
    assert rows[0].split(",")[0] == "label"
    assert len(rows) == 1 + len(result.labels)
    assert "Incomparable" in to_csv(result)
