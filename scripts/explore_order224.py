#!/usr/bin/env python3
"""Exploratory recipes for the two order-224 constructions with unpinned actions.

The supersolvable order-224 row names C2^4 : D14 and C2^2 x (C7 : D8)
without printing sequences or specifying the actions, so no candidate here
is endorsed as "the" group; this script enumerates the plausible action
classes, prints each candidate's order sequence and classification, and
shows how the candidates compare against the three constructible order-224
groups of the same block.
"""

import itertools
from functools import reduce
from operator import xor

from oseq.classify import classify_group
from oseq.construct import (
    catalog,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    semidirect_product,
)
from oseq.order_sequence import compare, format_sequence, os_of_group


def c7_rtimes_d8_candidates():
    """D8 acting on C7 through each of its three index-2 quotients: the
    rotation r and the reflection s each fix C7 or invert it, and the
    kernel is the index-2 subgroup of the elements that fix it."""
    invert = [(-i) % 7 for i in range(7)]
    ident = list(range(7))
    images = {
        "kernel <r>": [ident, invert],
        "kernel <r2, s>": [invert, ident],
        "kernel <r2, rs>": [invert, invert],
    }
    for name, (r, s) in images.items():
        yield name, semidirect_product(cyclic(7), dihedral(8), [r, s])


def c24_rtimes_d14_candidates():
    """D14 on C2^4: the rotation cannot be inverted by any involution of
    GL(4,2) (the two order-7 rational forms are not conjugate to their
    inverses), so every nontrivial action factors through the C2 quotient;
    one candidate per involution class rank.  The table of C2^4 holds a
    vector (x0, .., x3) as the integer sum of x_i 2^i, a matrix T is its four
    columns, and Tv the XOR of the columns v selects; T is an involution when
    T maps each column back to its unit vector, and it acts as a permutation
    of the table of C2^4.  T + I has rank 4 - log2 |Fix T|, since the fixed
    vectors of T are the kernel of T + I."""
    n = elementary_abelian(2, 4)

    def apply(cols, w):
        return reduce(xor, (c for i, c in enumerate(cols) if w >> i & 1), 0)

    involutions = [
        bytes(n.index[apply(cols, w)] for w in n.table)
        for cols in itertools.product(range(16), repeat=4)
        if cols != (1, 2, 4, 8) and all(apply(cols, c) == 1 << i for i, c in enumerate(cols))
    ]
    by_rank = {}
    for t in involutions:
        fixed = sum(1 for i, j in enumerate(t) if i == j)
        by_rank.setdefault(4 - (fixed.bit_length() - 1), t)
    print(f"GL(4,2): {len(involutions)} involutions in {len(by_rank)} classes "
          f"(rank of T+I: {sorted(by_rank)})")

    ident = range(len(n))  # the rotation acts trivially, the reflection as T
    for rank, t in sorted(by_rank.items()):
        yield f"reflection acts with rank(T+I)={rank}", semidirect_product(n, dihedral(14), [ident, t])


def report(label, group, references):
    seq = os_of_group(group)
    rep = classify_group(group)
    print(f"\n{label}: order {len(group)}")
    print(f"  {format_sequence(seq)}")
    print(f"  supersolvable={rep.supersolvable} solvable={rep.solvable}")
    for ref_name, ref_seq in references:
        print(f"  vs {ref_name}: {compare(ref_seq, seq).value}")


def main():
    print("order-56 candidates for C7 : D8 (three quotient actions)")
    candidates56 = list(c7_rtimes_d8_candidates())
    for name, grp in candidates56:
        print(f"  {name}: {format_sequence(os_of_group(grp))}")

    references = [(name, os_of_group(catalog(name))) for name in ("C4xF8", "C22xF8", "C24xD14")]

    print("\norder-224 candidates C2^2 x (C7 : D8)")
    for name, grp in candidates56:
        big = direct_product(elementary_abelian(2, 2), grp)
        report(f"C2^2 x (C7:D8, {name})", big, references)

    print("\norder-224 candidates C2^4 : D14")
    for name, grp in c24_rtimes_d14_candidates():
        report(f"C2^4 : D14, {name}", grp, references)

    print("\nExploratory output only: no candidate is pinned to a table row.")


if __name__ == "__main__":
    main()
