import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq.cli import main
from oseq import CATALOG_FIXED_NAMES, CATALOG_PRIME_NAMES, BuildError
from oseq.expr import (
    _CONSTRUCTORS,
    MAX_NESTING,
    Node,
    ParseError,
    build,
    parse,
    print_expr,
)
from oseq.order_sequence import os_of_group


def C(n):
    return Node("C", (n,))


def _product(left, right):
    # a product is one flat node: a product on the left takes the right factor as its last
    return Node("x", (*left.args, right) if left.name == "x" else (left, right))


def test_parse_examples():
    assert parse("C(5)^2") == Node("^", (C(5), 2))
    assert parse("C(5) x A(5)") == _product(C(5), Node("A", (5,)))
    assert parse("Cat(SD_300_23)") == Node("Cat", ("SD_300_23",))
    assert parse("Cat(CpxA4, 11)") == Node("Cat", ("CpxA4", 11))
    assert parse("Wr2(S(3))") == Node("Wr2", (Node("S", (3,)),))
    assert parse("F7") == Node("F7")
    assert parse("PSL2(64)") == Node("PSL2", (64,))
    assert parse("Aff(7, A(4), 4, 2)") == Node("Aff", (7, Node("A", (4,)), 4, 2))
    assert parse("Aff(2, C(3) x C(5))") == Node("Aff", (2, _product(C(3), C(5))))


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("Aff(5)", "expected ',', found ')' (at position 5)"),
        ("Aff(C(2), 1)", "expected 'int', found 'C' (at position 4)"),
        ("Aff(5, 1)", "expected a constructor name, found 1 (at position 7)"),
        ("Aff(5, C(2), F7)", "expected 'int', found 'F7' (at position 13)"),
        ("Aff(5, C(2), 1,)", "expected 'int', found ')' (at position 15)"),
        ("Aff(5, C(2) 1)", "expected ')', found 1 (at position 12)"),
    ],
)
def test_aff_takes_an_int_an_expression_then_ints(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_whitespace_insignificant():
    assert parse("C(5)xA(5)") == parse(" C( 5 )  x  A( 5 ) ")


def test_power_desugars():
    # a non-cyclic power stays one node and prints as itself, not as the product
    d8 = Node("D", (8,))
    assert parse("D(8)^2") == Node("^", (d8, 2))
    assert print_expr(parse("D(8)^2")) == "D(8)^2"
    assert print_expr(_product(d8, d8)) == "D(8) x D(8)"
    assert parse("D(8)^2^3") == Node("^", (d8, 6))
    assert parse("C(2)^4") == Node("^", (C(2), 4))
    assert parse("C(3)^1") == C(3)
    assert parse("A(5)^100000000") == Node("^", (Node("A", (5,)), 100000000))
    assert print_expr(parse("A(5)^100000000")) == "A(5)^100000000"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("C(5) y A(5)")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse("C(5")
    with pytest.raises(ParseError):
        parse("Nope(3)")
    with pytest.raises(ParseError):
        parse("C(5)^0")
    with pytest.raises(ParseError):
        parse("")


def test_each_catalog_name_is_one_word():
    for name in CATALOG_FIXED_NAMES:
        assert parse(f"Cat({name})") == Node("Cat", (name,))
    for name in CATALOG_PRIME_NAMES:
        assert parse(f"Cat({name},5)") == Node("Cat", (name, 5))


# Only ASCII is read: a Unicode digit or letter is refused where it stands.
# The CLI error test pins the messages of `C(` and of a 5,000-digit integer.
@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("C(\u0663)", "unexpected character '\u0663' (at position 2)"),
        ("C(\u00b2)", "unexpected character '\u00b2' (at position 2)"),
        ("\uff23(2)", "unexpected character '\uff23' (at position 0)"),
        ("xC(2)", "expected a constructor name, found 'x' (at position 0)"),
    ],
    ids=["arabic-indic-digit", "superscript-two", "fullwidth-C", "leading-sign"],
)
def test_lexer_refusals(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


# Canonical text is the `os --cache` key and the `poset` label, so it is
# pinned literally rather than only through the round trip.
@pytest.mark.parametrize(
    ("text", "canonical"),
    [
        ("C(5)xA(5)", "C(5) x A(5)"),
        ("Cat(CpxA4,11)", "Cat(CpxA4, 11)"),
        ("C(2)^2^3", "C(2)^6"),
        ("D(8)^2", "D(8)^2"),
        ("F7()", "F7"),
        ("Dic( 12 )", "Dic(12)"),
        ("He(3)xS(3)", "He(3) x S(3)"),
        ("F8", "F8"),
        ("Sz8()", "Sz8"),
        ("PSL2(64)", "PSL2(64)"),
        ("Cat( SD_300_23 )", "Cat(SD_300_23)"),
        ("Wr2(C(2)^2xS(3))^2", "Wr2(C(2)^2 x S(3))^2"),
        # a no-argument name runs into the product sign; an x that starts a word is the sign
        ("F7xF8", "F7 x F8"),
        ("F7xC(2)", "F7 x C(2)"),
        ("Sz8xF7", "Sz8 x F7"),
        ("Sz8xC(3)", "Sz8 x C(3)"),
        ("C(2)xF7", "C(2) x F7"),
        ("Aff(7,A(4),4,2)", "Aff(7, A(4), 4, 2)"),
        ("Aff( 2 ,C(7)xF7 )", "Aff(2, C(7) x F7)"),
    ],
)
def test_canonical_text(text, canonical):
    assert print_expr(parse(text)) == canonical


def test_nesting_is_bounded():
    def nested(depth):
        return "Wr2(" * depth + "C(2)" + ")" * depth

    node = parse(nested(MAX_NESTING))
    for _ in range(MAX_NESTING):
        node = node.args[0]
    assert node == C(2)
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}"):
        parse(nested(MAX_NESTING + 1))
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}"):
        parse(nested(3000))
    # Aff's sub-expression counts as Wr2's does
    mixed = "Aff(2, Wr2(" * (MAX_NESTING // 2) + "C(2)" + "))" * (MAX_NESTING // 2)
    assert parse(mixed).name == "Aff"
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}"):
        parse("Aff(2, " + mixed + ")")
    # side by side is not nested
    assert len(parse(" x ".join([nested(1)] * (MAX_NESTING + 1))).args) == MAX_NESTING + 1


def test_print_parse_roundtrip_examples():
    for text in ("C(5)^2", "C(5) x A(5)", "Cat(SD_300_23)", "Cat(CpxA4, 11)",
                 "Wr2(S(3))", "F7 x F8", "Dic(12) x He(3)", "PSL2(9)"):
        node = parse(text)
        assert parse(print_expr(node)) == node


# One atom per entry of the constructor table (both Cat forms), so a new
# entry without a round-trip case fails test_atoms_cover_the_table.  The
# product "x" is drawn by _exprs: an atom is always a right operand, and a
# right-nested product is not canonical.
_ATOM_LIST = [
    C(3), C(5), Node("D", (8,)), Node("Dic", (12,)), Node("S", (3,)), Node("A", (4,)),
    Node("He", (3,)), Node("PSL2", (5,)), Node("F7"), Node("F8"), Node("Sz8"),
    Node("Wr2", (Node("S", (3,)),)), Node("Aff", (7, Node("A", (4,)), 4, 2)),
    Node("Cat", ("SD_300_23",)), Node("Cat", ("CpxA4", 11)), Node("^", (C(2), 3)),
]
_ATOMS = st.sampled_from(_ATOM_LIST)


def test_atoms_cover_the_table():
    assert {node.name for node in _ATOM_LIST} | {"x"} == set(_CONSTRUCTORS)


_ATOM_ORDERS = [3, 5, 8, 12, 6, 12, 27, 60, 42, 56, 29120, 72, 84, 300, 132, 8]


@pytest.mark.parametrize("node,order", zip(_ATOM_LIST, _ATOM_ORDERS, strict=True), ids=map(print_expr, _ATOM_LIST))
def test_every_atom_builds(node, order):
    # F7 and F8 build their `Aff` text, the rest a `construct` function
    assert len(build(node)) == order


def _exprs(depth):
    # a canonical product is flat, so only extend on the left, with an atom
    if depth == 0:
        return _ATOMS
    sub = _exprs(depth - 1)
    return st.one_of(
        _ATOMS, st.builds(_product, sub, _ATOMS), st.builds(lambda n: Node("Wr2", (n,)), sub)
    )


@settings(max_examples=200)
@given(_exprs(2))
def test_print_parse_roundtrip_property(node):
    assert parse(print_expr(node)) == node


def test_build():
    assert len(build(parse("C(5) x A(5)"))) == 300
    assert len(build(parse("C(2)^4 x D(14)"))) == 224
    assert os_of_group(build(parse("A(4)"))).entries == ((1, 1), (2, 3), (3, 8))
    assert len(build(parse("Wr2(S(3))"))) == 72
    assert len(build(parse("Cat(S3xD2p, 11)"))) == 132


def test_sz8_builds_like_any_atom():
    assert len(build(parse("Sz8"))) == 29120
    with pytest.raises(BuildError, match="^wreath square exceeds the closure cap$"):
        build(parse("C(2) x Wr2(Sz8)"))


def _print_recursively(node):
    """The printer that recursed into both operands of every product."""
    kind = _CONSTRUCTORS[node.name][0]
    args = [_print_recursively(a) if isinstance(a, Node) else str(a) for a in node.args]
    if kind == "none":
        return node.name
    if kind == "product":
        return " x ".join(args)
    if kind == "power":
        return "^".join(args)
    return f"{node.name}({', '.join(args)})"


def _trees(depth):
    # right-nested products and powers of any node too, which the parser never makes
    if depth == 0:
        return _ATOMS
    sub = _trees(depth - 1)
    return st.one_of(
        _ATOMS,
        st.builds(_product, sub, sub),
        st.builds(lambda n: Node("Wr2", (n,)), sub),
        st.builds(lambda n, k: Node("^", (n, k)), sub, st.integers(2, 100000000)),
    )


@settings(max_examples=200)
@given(_trees(3))
def test_print_matches_the_recursive_printer(node):
    assert print_expr(node) == _print_recursively(node)


@pytest.mark.parametrize("text", ["A(4)^3", "Wr2(D(8)^2)^2 x C(5)^3", "Cat(CpxA4, 11)^2 x F7", "S(1)^1000"])
def test_text_length_is_the_printed_length(text):
    # a power of any atom prints as itself, so canonical text is its own print
    assert print_expr(parse(text)) == text


def test_long_products_print_and_build_without_recursion():
    chain = parse("x".join(["C(1)"] * 50_000))
    assert print_expr(chain) == " x ".join(["C(1)"] * 50_000)
    assert len(build(chain)) == 1
    assert len(build(parse("A(1)^100000"))) == 1
    assert os_of_group(build(parse("C(2) x A(1)^50000 x C(3) x S(1)"))).entries == ((1, 1), (2, 1), (3, 2), (6, 2))


def test_equal_long_products_meet_in_the_memo_without_recursion():
    # two parses of one long product are equal nodes, hashed and compared by
    # `build`'s memo; so are the two products under the wreath squares
    chain = "x".join(["C(1)"] * 20_000)
    assert build(parse(chain)) is build(parse(chain))
    wreaths = parse(" x ".join([f"Wr2({chain})"] * 2))
    assert wreaths.args[0] == wreaths.args[1] and wreaths.args[0] is not wreaths.args[1]
    assert len(build(wreaths)) == 4
    err = io.StringIO()
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(err):
        assert main(["compare", chain, chain]) == 0
    assert (out.getvalue(), err.getvalue()) == ("Equal\n", "")


def test_f8_is_built_once_for_both_catalog_entries_that_hold_it(monkeypatch):
    from oseq import construct

    build.cache_clear()
    affine, calls = construct.affine, []

    def spy(p, h, *entries):
        calls.append((p, len(h), entries))
        return affine(p, h, *entries)

    monkeypatch.setattr(construct, "affine", spy)
    c4xf8, c22xf8 = build(parse("Cat(C4xF8)")), build(parse("Cat(C22xF8)"))
    assert calls == [(2, 7, (0, 0, 1, 1, 0, 1, 0, 1, 0))]
    assert c4xf8.backing.right is c22xf8.backing.right is build(parse("F8"))


def test_build_is_the_only_cached_callable():
    # a memo in a constructor would build a group apart from `build`'s own
    import oseq

    modules = [oseq, *(getattr(oseq, name) for name in sorted(oseq._SUBMODULES))]
    cached = {value for module in modules for value in vars(module).values() if hasattr(value, "cache_info")}
    assert cached == {build}


# The grammar's tokens, with small arguments and one far past every cap, and
# a few that the lexer or the parser must refuse; strings of them are mostly
# refused, so well-formed token lists are drawn too.  Those leave out
# SD_300_23, whose wreath square takes seconds to count.
_INTS = ["0", "1", "2", "3", "5", "100000000"]
_TOKENS = st.sampled_from(
    [name for name in _CONSTRUCTORS if name not in "x^"]
    + ["x", "^", "(", ")", ",", "SD_300_23", "CpxA4", "Nope", "@"] + _INTS
)


def _aff(p, h, entries):
    """`Aff(p, h, entries...)` as tokens, h a token list."""
    return ["Aff", "(", p, ",", *h, *(t for m in entries for t in (",", m)), ")"]


_INT_TOKENS = st.sampled_from(_INTS)
_ENTRIES = st.lists(_INT_TOKENS, max_size=5)
_ATOM_TOKENS = st.one_of(
    st.builds(lambda name, n: [name, "(", n, ")"], st.sampled_from(["C", "D", "Dic", "S", "A", "He", "PSL2"]),
              _INT_TOKENS),
    st.sampled_from([["F7"], ["F8"], ["Sz8"]]),
    st.builds(lambda p: ["Cat", "(", "CpxA4", ",", p, ")"], _INT_TOKENS),
    st.builds(_aff, _INT_TOKENS, st.builds(lambda n: ["C", "(", n, ")"], _INT_TOKENS), _ENTRIES),
)
_EXPR_TOKENS = st.recursive(
    _ATOM_TOKENS,
    lambda sub: st.one_of(
        st.builds(lambda a, b: [*a, "x", *b], sub, sub),
        st.builds(lambda a, k: [*a, "^", k], sub, st.sampled_from(_INTS)),
        st.builds(lambda a: ["Wr2", "(", *a, ")"], sub),
        st.builds(_aff, _INT_TOKENS, sub, _ENTRIES),
    ),
    max_leaves=5,
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_EXPR_TOKENS, st.lists(_TOKENS, max_size=14)), st.sampled_from(["", " "]))
def test_cli_answers_any_token_string_without_a_traceback(tokens, sep):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["os", sep.join(tokens)])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()


@settings(max_examples=500)
@given(st.one_of(_EXPR_TOKENS, st.lists(_TOKENS, max_size=14)), st.sampled_from(["", " "]))
def test_canonical_text_round_trips_and_at_most_doubles_the_input(tokens, sep):
    # each power prints as BASE^k, so the text grows only by the spaces around x and
    # after a comma, as in C(2)xF7 -> C(2) x F7
    text = sep.join(tokens)
    try:
        node = parse(text)
    except ParseError:
        return
    printed = print_expr(node)
    assert parse(printed) == node
    assert len(printed) <= 2 * len(text)


@settings(max_examples=300)
@given(_EXPR_TOKENS)
def test_spaces_between_tokens_change_nothing(tokens):
    # `C(2)xF7` and `F7xF8` read as `C(2) x F7` and `F7 x F8`
    def parsed(sep):
        try:
            return parse(sep.join(tokens))
        except ParseError as exc:
            return type(exc)

    assert parsed("") == parsed(" ")
