"""Domination posets over labelled order sequences of one total."""

import csv
import io
from collections import namedtuple

from .order_sequence import SequenceError, Verdict, compare

__all__ = [
    "PosetResult",
    "build_poset",
    "to_dot",
    "to_csv",
]


# verdicts[i][j] = compare(seq_i, seq_j), four-valued; hasse holds the
# covering pairs (dominator, dominated); minimal and maximal are frozensets.
PosetResult = namedtuple("PosetResult", "labels verdicts hasse minimal maximal")


def build_poset(entries):
    """All-pairs verdict matrix, Hasse reduction, and the extreme elements of
    the (label, sequence) pairs, whose labels must be unique and whose
    sequences must share one total.

    A label is minimal when it properly dominates nothing, maximal when
    nothing properly dominates it.
    """
    labels = tuple(label for label, _ in entries)
    seqs = [seq for _, seq in entries]
    if len(set(labels)) != len(labels):
        raise SequenceError("corpus labels must be unique")
    totals = {s.total for s in seqs}
    if len(totals) > 1:
        raise SequenceError(f"corpus mixes totals {sorted(totals)}")
    k = len(labels)
    verdicts = [[Verdict.EQUAL] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j:
                verdicts[i][j] = compare(seqs[i], seqs[j])
    above = {
        (i, j)
        for i in range(k)
        for j in range(k)
        if verdicts[i][j] is Verdict.PROPERLY_DOMINATES
    }
    hasse = tuple(
        (labels[i], labels[j])
        for i, j in sorted(above)
        if not any((i, t) in above and (t, j) in above for t in range(k))
    )
    minimal = frozenset(labels[i] for i in range(k) if not any((i, j) in above for j in range(k)))
    maximal = frozenset(labels[j] for j in range(k) if not any((i, j) in above for i in range(k)))
    return PosetResult(labels, tuple(tuple(row) for row in verdicts), hasse, minimal, maximal)


def _dot_id(label):
    """The label as a quoted DOT identifier, with its backslashes and quotes escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(result):
    """Hasse diagram; edges run from dominated up to dominator."""
    lines = ["digraph domination {"]
    for label in result.labels:
        lines.append(f"  {_dot_id(label)};")
    for dominator, dominated in result.hasse:
        lines.append(f"  {_dot_id(dominated)} -> {_dot_id(dominator)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_csv(result):
    """Four-valued relation matrix, one row per label."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", *result.labels])
    for label, row in zip(result.labels, result.verdicts):
        writer.writerow([label, *(v.value for v in row)])
    return buf.getvalue()
