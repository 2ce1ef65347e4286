"""Append-only flat-file cache: canonical expression -> canonical sequence text.

One record per line, ``<key> | <value>``.  Keys are canonical expression
strings (never containing '|'); writes are append-only under a
single-writer contract.
"""

from __future__ import annotations

import os

from . import InputError

__all__ = ["cache_get", "cache_put"]


def cache_get(path, key):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        try:
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                k, _, v = line.partition(" | ")
                if k == key:
                    return v
        except UnicodeDecodeError:
            raise InputError(f"{path}: not UTF-8 text") from None
    return None


def cache_put(path, key, value):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{key} | {value}\n")
