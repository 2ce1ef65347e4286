"""Fixture records: labelled printed order sequences with classification tags.

File format, one record per line:

    <label> | <n> | (o,m)(o,m)... | tag,tag

Blank lines and ``#`` comments are skipped.  Every fixture must pass the
plausibility filter; a violation is a hard error so transcription slips
surface immediately.  The shipped file, ``data/fixtures.txt`` beside this
module, is opened like any other path.
"""

import os
from collections import namedtuple

from . import InputError, ascii_int
from .arith import LIMIT
from .order_sequence import SequenceError, is_plausible, parse_pairs

__all__ = ["Fixture", "FixtureError", "parse_fixture_lines", "load_fixtures", "fixtures_by_label"]


class FixtureError(InputError):
    """Malformed or implausible fixture data."""


# The plausibility filter factors each order that divides n, and `arith`
# factors only integers below its LIMIT.
MAX_FIXTURE_ORDER = LIMIT - 1


Fixture = namedtuple("Fixture", "label n seq tags")


def parse_fixture_lines(lines, source="<fixtures>"):
    records = []
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4:
            raise FixtureError(f"{source}:{lineno}: expected 4 '|'-separated fields")
        label, n_text, pairs_text, tags_text = parts
        if not label:
            raise FixtureError(f"{source}:{lineno}: empty label")
        if label in seen:
            raise FixtureError(f"{source}:{lineno}: duplicate label {label!r}")
        seen.add(label)
        try:
            n = ascii_int(n_text)
        except ValueError:
            raise FixtureError(f"{source}:{lineno}: bad order {n_text!r}") from None
        if n > MAX_FIXTURE_ORDER:
            raise FixtureError(f"{source}:{lineno}: order {n} exceeds {MAX_FIXTURE_ORDER}")
        try:
            seq = parse_pairs(pairs_text)
        except SequenceError as exc:
            raise FixtureError(f"{source}:{lineno}: {exc}") from None
        ok, reason = is_plausible(seq, n)
        if not ok:
            raise FixtureError(f"{source}:{lineno}: implausible sequence: {reason}")
        tags = frozenset(t.strip() for t in tags_text.split(",") if t.strip())
        records.append(Fixture(label, n, seq, tags))
    return records


def load_fixtures(path=None):
    """The fixtures in the file at `path`, or in the shipped file when `path` is None."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "fixtures.txt")
    with open(path, encoding="utf-8") as handle:
        try:
            return parse_fixture_lines(handle, source=str(path))
        except UnicodeDecodeError:
            raise FixtureError(f"{path}: not UTF-8 text") from None


class _ByLabel(dict):
    def __missing__(self, label):
        raise FixtureError(f"no fixture labelled {label!r}")


def fixtures_by_label(fixtures):
    """The fixtures by label; reading a label that none has is a FixtureError."""
    return _ByLabel((f.label, f) for f in fixtures)
