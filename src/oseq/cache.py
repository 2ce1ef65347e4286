"""Append-only flat-file cache: canonical expression -> canonical sequence text.

One record per line, ``<key> | <value>``.  Keys are canonical expression
strings (never containing '|'); writes are append-only under a
single-writer contract.  A record is appended on a line of its own, and a
value that is not canonical text, byte for byte as `format_sequence` writes
it, is refused, not replayed.
"""

import os

from . import InputError
from .order_sequence import SequenceError, format_sequence, parse_sequence

__all__ = ["cache_get", "cache_put"]


def cache_get(path, key):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        try:
            for lineno, line in enumerate(handle, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                k, _, v = line.partition(" | ")
                if k == key:
                    try:
                        if format_sequence(parse_sequence(v)) != v:
                            raise SequenceError(f"not canonical sequence text: {v!r}")
                    except SequenceError as exc:
                        raise InputError(f"{path}:{lineno}: {exc}") from None
                    return v
        except UnicodeDecodeError:
            raise InputError(f"{path}: not UTF-8 text") from None
    return None


def cache_put(path, key, value):
    record = f"{key} | {value}\n".encode()
    with open(path, "a+b") as handle:
        if handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                record = b"\n" + record
        handle.write(record)
