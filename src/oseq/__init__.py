"""Order-sequence calculus for finite groups.

Enumerated groups, the run-length-encoded order sequence, the domination
partial order, sequence products, nilpotency/supersolvability/solvability,
and the constructors and verification suites behind the ``oseq`` CLI.

Submodules load on first use (PEP 562): ``oseq.construct`` is imported
when it is first read, so a CLI verb pays only for the modules it runs.  The
package keeps no flat copies of their names: ``cyclic`` is
``oseq.construct.cyclic``.
"""

from importlib import import_module

__version__ = "0.1.0"

SUITE_NAMES = ("table1", "table2", "table3", "thm23", "thm25", "thm29", "simple", "props")

# The catalog: each name and the expression text `construct.catalog` builds,
# in the paper's order.  An entry takes a prime p exactly when its text holds
# {p}, {2p} or {5p}.  `oseq catalog` lists the names from here, sorted,
# without loading `construct`.
CATALOG = {
    "C5xA5": "C(5) x A(5)",
    "C7xA5": "C(7) x A(5)",
    "C13xA5": "C(13) x A(5)",
    "C15xA5": "C(15) x A(5)",
    "SD_300_23": "Aff(5, Dic(12), 0, 1, 4, 1, 0, 2, 2, 0)",
    # S3wrC2's order sequence, but supersolvable: D8 acts by -I and I, which
    # fix every line of GF(3)^2
    "SD_72_35": "Aff(3, D(8), 2, 0, 0, 2, 1, 0, 0, 1)",
    "S3wrC2": "Wr2(S(3))",
    "C4xF8": "C(4) x F8",
    "C22xF8": "C(2)^2 x F8",
    "C24xD14": "C(2)^4 x D(14)",
    "D10xF7": "D(10) x F7",
    "C35xA4": "C(35) x A(4)",
    "C5xC7A4": "C(5) x Aff(7, A(4), 4, 2)",
    "C5pxA5": "C({5p}) x A(5)",
    "CpxA4": "C({p}) x A(4)",
    "S3xD2p": "S(3) x D({2p})",
    "CpxSD300": "C({p}) x Cat(SD_300_23)",
    "CpxS3wrC2": "C({p}) x Cat(S3wrC2)",
    "CpxSD72": "C({p}) x Cat(SD_72_35)",
}
CATALOG_FIXED_NAMES = tuple(sorted(name for name, text in CATALOG.items() if "{" not in text))
CATALOG_PRIME_NAMES = tuple(sorted(name for name, text in CATALOG.items() if "{" in text))


class InputError(ValueError):
    """Malformed or inconsistent input; the CLI exits 1."""


class BuildError(ValueError):
    """A group that cannot be built, or not within the caps; the CLI exits 2."""


def ascii_int(text):
    """int(text), refused with a ValueError unless the text is ASCII with no
    underscore: int also reads other Unicode digits and `1_1`."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for int(): {text!r}")
    return int(text)


_SUBMODULES = {"arith", "cache", "classify", "cli", "construct", "expr", "finite_field", "fixtures", "groups",
               "order_sequence", "poset", "verify"}

__all__ = ["SUITE_NAMES", "CATALOG", "CATALOG_FIXED_NAMES", "CATALOG_PRIME_NAMES", "InputError", "BuildError"]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
