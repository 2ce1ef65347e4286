"""Expression DSL naming groups: recursive-descent parser, AST, evaluation.

Grammar (ASCII only, whitespace insignificant):

    expr := term ('x' term)*          left-associative direct product
    term := atom ('^' INT)*
    atom := NAME '(' args ')' | NAME

Names: C, D, Dic, S, A, He, F7, F8, PSL2, Sz8, Wr2, Aff, Cat.  ``C(5)^2``
is C5 x C5; ``Aff(p, H, m...)`` is C_p^k : H, the j-th generator of H
acting by the j-th k x k matrix of the integers m, read row by row
(`construct.affine`); ``Cat(name[, prime])`` resolves through the catalog.
The Frobenius groups ``F7`` and ``F8`` are defined as the text
``Aff(7, C(6), 3)`` and ``Aff(2, C(7), 0, 0, 1, 1, 0, 1, 0, 1, 0)``; ``He(p)``
is ``Aff(p, C(p), 1, 0, 1, 1)`` after its own refusals (`construct.heisenberg`).
An ``x`` that starts a word is the product sign, and F7, F8 and Sz8 may be followed
directly by it: ``C(2)xF7`` and ``F7xF8`` are products, ``Cat(C4xF8)`` one name.

Every expression is a ``Node(name, args)``.  A product is one flat
``Node("x", factors)`` of two or more factors, none of them a product, and a
power ``Node("^", (atom, k))``; a power of a power multiplies the exponents.
Every power prints as it is stored, ``BASE^k`` (``D(8)^2`` prints as
``D(8)^2``), so the canonical text is at most about twice as long as the
input; `construct.direct_power` refuses an oversized power at its first
partial product past the cap.
Parsing, printing and building each walk the one ``_CONSTRUCTORS`` table.
A node is only as deep as its `Wr2` and `Aff` nesting, which is refused past
``MAX_NESTING`` while it is parsed, so no product, however long, makes
printing, building, hashing or comparing it recurse.  `build` keeps every
group it builds, keyed by its node: an expression is built once per process.
"""

import re
from collections import namedtuple
from functools import lru_cache, reduce

from . import InputError

__all__ = ["ParseError", "Node", "parse", "print_expr", "build", "MAX_NESTING"]

# Deepest sub-expression nesting the parser takes, through Wr2 and Aff; Wr2
# squares the order, so five levels of it already pass the closure cap.
MAX_NESTING = 100


class ParseError(InputError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


Node = namedtuple("Node", "name args", defaults=((),))
Node.__doc__ = "One constructor applied to its arguments: ints, names or sub-nodes."


# Name -> (argument kind, target).  The kinds are "none" (F7 or F7()),
# "int", "expr" (one sub-expression), "aff" (an int, a sub-expression, then
# any number of ints), "catalog" (a catalog name and an optional prime), and
# the two operators "product" and "power".  A target is either expression
# text, which `build` parses and builds (F7 and F8), or the name of a
# `construct` function, looked up at call time and given the arguments with
# sub-expressions already built.
_CONSTRUCTORS = {
    "C": ("int", "cyclic"),
    "D": ("int", "dihedral"),
    "Dic": ("int", "dicyclic"),
    "S": ("int", "symmetric"),
    "A": ("int", "alternating"),
    "He": ("int", "heisenberg"),
    "PSL2": ("int", "psl2"),
    "F7": ("none", "Aff(7, C(6), 3)"),
    "F8": ("none", "Aff(2, C(7), 0, 0, 1, 1, 0, 1, 0, 1, 0)"),
    "Sz8": ("none", "suzuki8"),
    "Wr2": ("expr", "wreath_square"),
    "Aff": ("aff", "affine"),
    "Cat": ("catalog", "catalog"),
    "x": ("product", "direct_product"),
    "^": ("power", "direct_power"),
}


# One match per token: an ASCII integer, the product sign or a mark, a name,
# or any other non-space character, which is refused; `finditer` skips only
# whitespace.  A word that starts with x starts with the sign (C(2)xF7), and
# a no-argument name ends before an x that follows it (F7xF8).
_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|(?P<mark>[x(),^])|(?P<name>(?:%s)(?=x)|[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>\S)"
    % "|".join(name for name, (kind, _) in _CONSTRUCTORS.items() if kind == "none")
)


def _lex(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, word, at = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", at)
        if kind == "int":
            try:
                word = int(word)
            except ValueError:  # past Python's limit on the digits of an int read from text
                raise ParseError(f"an integer of {len(word)} digits is too long", at) from None
        tokens.append((word if kind == "mark" else kind, word, at))
    tokens.append(("end", None, len(text)))
    return tokens


def _shown(tok):
    return "end of input" if tok[0] == "end" else repr(tok[1])


class _Parser:
    def __init__(self, text):
        self.tokens = _lex(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {_shown(tok)}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        factors = [self.term()]
        while self.peek()[0] == "x":
            self.take()
            factors.append(self.term())
        return factors[0] if len(factors) == 1 else Node("x", tuple(factors))

    def term(self):
        node = self.atom()
        while self.peek()[0] == "^":
            at = self.take()[2]
            k = self.take("int")[1]
            node = self._power(node, k, at)
        return node

    @staticmethod
    def _power(node, k, pos):
        if k < 1:
            raise ParseError("exponent must be >= 1", pos)
        if k == 1:
            return node
        if node.name == "^":
            return Node("^", (node.args[0], node.args[1] * k))
        return Node("^", (node, k))

    def atom(self):
        tok = kind, word, at = self.take()
        if kind != "name":
            raise ParseError(f"expected a constructor name, found {_shown(tok)}", at)
        arg_kind = _CONSTRUCTORS.get(word, (None,))[0]
        if arg_kind == "none":
            if self.peek()[0] == "(":
                self.take()
                self.take(")")
            return Node(word)
        if arg_kind not in ("int", "expr", "aff", "catalog"):
            raise ParseError(f"unknown constructor {word!r}", at)
        self.take("(")
        if arg_kind == "int":
            args = [self.take("int")[1]]
        elif arg_kind == "expr":
            args = [self.nested(at)]
        elif arg_kind == "aff":
            args = [self.take("int")[1]]
            self.take(",")
            args.append(self.nested(at))
            while self.peek()[0] == ",":
                self.take()
                args.append(self.take("int")[1])
        else:
            args = [self.take("name")[1]]
            if self.peek()[0] == ",":
                self.take()
                args.append(self.take("int")[1])
        self.take(")")
        return Node(word, tuple(args))

    def nested(self, at):
        """A sub-expression, refused past `MAX_NESTING` levels."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING}", at)
        node = self.expr()
        self.depth -= 1
        return node


def parse(text):
    return _Parser(text).parse()


def print_expr(node):
    """Canonical text, each power written ``BASE^k`` as it is stored;
    parse(print_expr(e)) == e on canonical forms."""
    kind = _CONSTRUCTORS[node.name][0]
    args = [print_expr(a) if isinstance(a, Node) else _int_text(a) for a in node.args]
    if kind == "none":
        return node.name
    if kind == "product":
        return " x ".join(args)
    if kind == "power":
        return "^".join(args)
    return f"{node.name}({', '.join(args)})"


def _int_text(k):
    try:
        return str(k)
    except ValueError:  # past Python's limit on the digits of an int written as text
        raise InputError("an exponent of the expression has too many digits to print") from None


@lru_cache(maxsize=None)
def build(node):
    """Evaluate an expression to an enumerated group, a product's factors
    multiplied left to right.  This is the one memo of built groups: every
    node, and so every sub-expression and every `Cat` entry, is built once
    per process, and equal nodes give the same group object."""
    from . import construct  # here, so that an `os --cache` hit, which builds nothing, skips the engine

    if node.name == "x":  # lazily: the product so far meets the cap before the next factor is built
        return reduce(construct.direct_product, map(build, node.args))
    target = _CONSTRUCTORS[node.name][1]
    if "(" in target:
        return build(parse(target))
    args = [build(a) if isinstance(a, Node) else a for a in node.args]
    return getattr(construct, target)(*args)
