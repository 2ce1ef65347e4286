"""Constructors for the group zoo: standard families, products, PSL(2,q),
Sz(8), and the named catalog behind the CLI.

Only PSL(2,q) and Sz(8) load `finite_field`; every C_p^k : H, the Frobenius
groups F7 and F8 and He(p) among them, is built by `affine` from the integer
matrices its H acts by.  A constructor builds a new group on every call;
`expr.build` keeps each group it builds, once per expression and process.
"""

from functools import reduce
from itertools import repeat
from math import gcd, isqrt

from . import CATALOG, BuildError, InputError
from .arith import factorint, isprime
from .groups import (
    DEFAULT_CLOSURE_CAP,
    DirectProductBacking,
    Group,
    GroupError,
    MetacyclicBacking,
    PermBacking,
    SemidirectBacking,
    enumerate_group,
)

__all__ = [
    "ConstructionError",
    "cyclic",
    "dihedral",
    "dicyclic",
    "symmetric",
    "alternating",
    "heisenberg",
    "elementary_abelian",
    "direct_product",
    "direct_power",
    "semidirect_product",
    "validate_action",
    "wreath_square",
    "affine",
    "psl2",
    "suzuki8",
    "catalog",
]


class ConstructionError(BuildError):
    """A constructor was given bad parameters or could not be realised."""


# -- standard families -------------------------------------------------------


def _require_under_cap(name, factors):
    """Fail before any generator is built when the group order, the product of
    the factors, passes the closure cap; the product stops growing there."""
    order = 1
    for f in factors:
        order *= f
        if order > DEFAULT_CLOSURE_CAP:
            raise GroupError(f"{name} has more than {DEFAULT_CLOSURE_CAP} elements, the closure cap")


def cyclic(n):
    """C_n as the integers mod n, each its own index: i is the i-th power of
    the generator 1."""
    if n < 1:
        raise ConstructionError("cyclic group order must be >= 1")
    _require_under_cap(f"C{n}", (n,))
    return Group(MetacyclicBacking(n), range(n), [] if n == 1 else [1])


def dihedral(n):
    """Dihedral group of order n (order-subscript convention: D12 has 12 elements)."""
    if n < 4 or n % 2:
        raise ConstructionError("dihedral order must be an even integer >= 4")
    _require_under_cap(f"D{n}", (n,))
    return enumerate_group(MetacyclicBacking(n // 2), [1, n // 2])


def dicyclic(n):
    """Dicyclic group of order n = 4m: <a,b | a^(2m)=1, b^2=a^m, b^-1 a b=a^-1>."""
    if n < 8 or n % 4:
        raise ConstructionError("dicyclic order must be a multiple of 4, at least 8")
    _require_under_cap(f"Dic{n}", (n,))
    return enumerate_group(MetacyclicBacking(n // 2, n // 4), [1, n // 2])


def symmetric(k):
    if k < 1:
        raise ConstructionError("symmetric degree must be >= 1")
    _require_under_cap(f"S{k}", range(2, k + 1))
    backing = PermBacking(k)
    gens = []
    if k >= 2:
        gens.append(backing.pack((1, 0, *range(2, k))))
    if k >= 3:
        gens.append(backing.pack((*range(1, k), 0)))
    return enumerate_group(backing, gens)


def alternating(k):
    if k < 1:
        raise ConstructionError("alternating degree must be >= 1")
    _require_under_cap(f"A{k}", range(3, k + 1))
    backing = PermBacking(k)
    gens = []
    if k >= 3:
        gens.append(backing.pack((1, 2, 0, *range(3, k))))
    if k >= 4:
        if k % 2:
            gens.append(backing.pack((*range(1, k), 0)))
        else:
            gens.append(backing.pack((0, *range(2, k), 1)))
    return enumerate_group(backing, gens)


def heisenberg(p):
    """Non-abelian group of order p^3 and exponent p, as C_p^2 : C_p.

    y acts on the vectors by (u, w) -> (u, w + u); the generators are
    x = (1, 0) and z = (0, 1) in the normal factor and y, in the order of the
    unitriangular matrices I + E12, I - E13 and I + E23 they stand for.  The
    refusals come first and name He(p): at p = 2 the `affine` call gives D8.
    """
    if p == 2 or not isprime(p):
        raise ConstructionError("heisenberg group needs an odd prime")
    _require_under_cap(f"He{p}", (p, p, p))
    return affine(p, cyclic(p), 1, 0, 1, 1)


def elementary_abelian(p, k):
    """GF(p)^k as an additive group, numbered breadth-first from the unit
    vectors.  The table lists each vector v as the integer sum of v_i p^i, as
    `affine` reads it, an element of the backing of C(p)^k."""
    if not isprime(p) or k < 1:
        raise ConstructionError("elementary abelian group needs a prime and k >= 1")
    backing = direct_power(cyclic(p), k).backing
    return enumerate_group(backing, [p**j for j in range(k)])


# -- products ----------------------------------------------------------------


def _row_major(backing, g, h):
    """The product of g and h on `backing`, which multiplies its indices:
    the pair (i, j) of indices into g and h is i * |h| + j.  The generators
    are g's, embedded as (i, 0), then h's, as (0, j)."""
    order = len(g) * len(h)
    if order > DEFAULT_CLOSURE_CAP:
        raise GroupError(f"product order {order} exceeds closure cap {DEFAULT_CLOSURE_CAP}")
    gens = [i * len(h) for i in g.generators] + list(h.generators)
    return Group(backing, range(order), generator_elements=gens)


def direct_product(g, h):
    """Component-wise product, numbered row-major over index pairs.

    A trivial factor (one element, no generators) gives back the other one:
    the product would repeat its indices, generators and products.  So a
    chain of product backings is at most 19 deep: the closure cap admits no
    more non-trivial factors.
    """
    if len(h) == 1:
        return g
    if len(g) == 1:
        return h
    return _row_major(DirectProductBacking(g, h), g, h)


def direct_power(g, k):
    """g x g x ... x g with k factors.  Every power of the trivial group is
    trivial; otherwise the partial products are built one factor at a time,
    each in O(1), and the first past the closure cap (at most 19 factors in,
    as 2^19 passes it) is refused.  So `repeat` is asked for at most 19
    factors: it takes no count past 2^63 - 1."""
    if len(g) == 1:
        return g
    return reduce(direct_product, repeat(g, min(k, DEFAULT_CLOSURE_CAP.bit_length())))


def validate_action(n, images):
    """Check that each image, a permutation of N's indices, is an
    automorphism of N; raises ConstructionError on failure.

    An image is an automorphism when it is a bijection fixing 0 with
    perm(i * s) = perm(i) * perm(s) for every i in N and every generator s
    of N: every element of a finite group is a positive word in its
    generators, so the law extends to all pairs by induction on word length.
    """
    size = len(n)
    for perm in images:
        if sorted(perm) != list(range(size)) or perm[0] != 0:
            raise ConstructionError("generator image is not an identity-fixing permutation")
        for i in range(size):
            for s in n.generators:
                if perm[n.mul(i, s)] != n.mul(perm[i], perm[s]):
                    raise ConstructionError("generator image is not an automorphism")


def _semidirect(n, h, images):
    """N : H, the k-th generator of H acting on N by the permutation
    images[k] of N's indices, each an automorphism of N.

    The action of every element of H is built by one breadth-first walk of H
    from the identity: x * g acts as x after g.  The walk reaches each
    element along one path and checks every other path against it, so an
    element reached twice with two actions is refused: the generator images
    extend to a homomorphism H -> Aut(N) exactly when no such element exists.
    """
    mul, gens = h.mul, h.generators
    if len(images) != len(gens):
        raise ConstructionError(f"{len(images)} generator images for {len(gens)} generators")
    perms = [None] * len(h)
    perms[0] = tuple(range(len(n)))
    walk = [0]
    for x in walk:  # grows while it is walked
        px = perms[x]
        for g, image in zip(gens, images):
            y, py = mul(x, g), tuple(map(px.__getitem__, image))
            if perms[y] is None:
                perms[y] = py
                walk.append(y)
            elif perms[y] != py:
                raise ConstructionError("action is not a homomorphism")
    return _row_major(SemidirectBacking(n, h, tuple(perms)), n, h)


def semidirect_product(n, h, images):
    """N : H through the images of H's generators, in `h.generators` order:
    each is checked by `validate_action`, and the action they extend to by
    `_semidirect`."""
    validate_action(n, images)
    return _semidirect(n, h, images)


def affine(p, h, *entries):
    """C_p^k : H, the j-th of H's g generators acting by the j-th k x k matrix
    of the g * k^2 `entries`, read row by row, mod p on the column vector v
    of each code sum v_i p^i of C_p^k (C(p) itself when k = 1).  The order is
    checked against the cap before anything is built.  An action need not be
    faithful."""
    g = len(h.generators)
    if not g:
        raise ConstructionError("affine group needs an acting group with generators")
    k = isqrt(len(entries) // g)
    if not entries or len(entries) != g * k * k:
        raise ConstructionError(f"affine group needs k x k matrices for the {g} generators; "
                                f"{len(entries)} entries is not {g} * k^2")
    if not isprime(p):
        raise ConstructionError(f"affine group needs a prime; got {p}")
    _require_under_cap(f"C{p}^{k}:H (|H| = {len(h)})", (len(h), *[p] * k))
    n = cyclic(p) if k == 1 else elementary_abelian(p, k)
    vectors = [[t // p**i % p for i in range(k)] for t in n.table]
    rows = [entries[i : i + k] for i in range(0, len(entries), k)]
    matrices = [rows[j : j + k] for j in range(0, g * k, k)]
    images = [[n.index[sum(sum(map(int.__mul__, row, v)) % p * p**i for i, row in enumerate(m))] for v in vectors]
              for m in matrices]
    return semidirect_product(n, h, images)


def wreath_square(g):
    """(G x G) : C2 with the coordinate swap on top.  The swap (a, b) -> (b, a)
    is an automorphism of G x G by construction, so `validate_action` is not
    run on it; `_semidirect` still checks that it squares to the identity."""
    size = len(g)
    if 2 * size * size > DEFAULT_CLOSURE_CAP:
        raise GroupError("wreath square exceeds the closure cap")
    base = direct_product(g, g)
    swap = tuple((t % size) * size + (t // size) for t in range(len(base)))
    return _semidirect(base, cyclic(2), [swap])


# -- matrix-born groups --------------------------------------------------------


def _prime_power(q):
    fac = factorint(q)
    if len(fac) != 1:
        raise ConstructionError(f"{q} is not a prime power")
    ((p, k),) = fac.items()
    return p, k


def _projective_group(name, spec, mats, start, order):
    """The permutations the matrices (row tuples over `spec`) induce, v -> Mv,
    on the orbit of the projective point `start`, each point kept with first
    non-zero entry 1 and numbered in BFS order.  An orbit of over 255 points
    is refused, and the group must have the given order, so that the action
    has no kernel.  Products are taken in log form: each matrix row is held
    as the logarithms of its non-zero entries, and each point's logarithms
    are looked up once for all the matrices."""
    exp, log, add, n = spec._exp, spec._log, spec.add, spec.q - 1
    rows = [[[(j, log[x]) for j, x in enumerate(row) if x] for row in m] for m in mats]

    def point(v):
        lead = log[next(x for x in v if x)]
        return tuple(exp[(log[x] - lead) % n] if x else 0 for x in v)

    points = [point(start)]
    number = {points[0]: 0}
    images = [[] for _ in mats]
    for v in points:  # grows while it is walked
        lv = [log[x] for x in v]  # None at a zero entry
        for m, row in zip(rows, images):
            w = []
            for r in m:
                acc = 0
                for j, e in r:
                    if lv[j] is not None:
                        acc = add(acc, exp[(e + lv[j]) % n])
                w.append(acc)
            w = point(w)
            if w not in number:
                if len(points) == 255:
                    raise ConstructionError(f"{name}: projective orbit has more than 255 points")
                number[w] = len(points)
                points.append(w)
            row.append(number[w])
    backing = PermBacking(len(points))
    grp = enumerate_group(backing, [backing.pack(row) for row in images])
    if len(grp) != order:
        raise ConstructionError(f"{name} closure has order {len(grp)}, expected {order}")
    return grp


def psl2(q):
    """PSL(2,q) as the permutations SL(2,q) induces on the q + 1 points of the projective line."""
    from .finite_field import FieldSpec

    if q < 2 or q > 64:
        raise ConstructionError("psl2 supports 2 <= q <= 64")
    p, k = _prime_power(q)
    spec = FieldSpec(p, k)
    alpha = spec.primitive
    mats = [((1, 1), (0, 1)), ((1, 0), (alpha, 1)), ((alpha, 0), (0, spec.inv(alpha)))]
    return _projective_group(f"PSL(2,{q})", spec, mats, (1, 0), q * (q * q - 1) // gcd(2, q - 1))


def _suzuki8_matrices(spec):
    """The standard generators of Sz(8) as 4x4 row tuples over GF(8), `spec`.

    The unipotent family uses the twist t(x) = x^4 (t(t(x)) = x^2 on GF(8));
    the torus element carries weights (3, 2, -2, -3), and the antidiagonal
    involution swaps the flag.
    """
    th = lambda x: spec.pow(x, 4)
    mul, add = spec.mul, spec.add

    def unipotent(a, b):
        r2 = add(mul(a, th(a)), b)  # a^(1+t) + b
        r3 = add(add(mul(mul(a, a), th(a)), mul(a, b)), th(b))  # a^(2+t) + ab + b^t
        return ((1, 0, 0, 0), (a, 1, 0, 0), (r2, th(a), 1, 0), (r3, b, a, 1))

    diagonal = [spec.pow(spec.primitive, e) for e in (3, 2, -2, -3)]  # the weights
    torus = tuple(tuple(diagonal[i] if i == j else 0 for j in range(4)) for i in range(4))
    tau = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
    return [unipotent(1, 0), unipotent(0, 1), torus, tau]


def suzuki8():
    """Sz(8) on the 65 points of the Suzuki-Tits ovoid in PG(3,8), the orbit of [0:0:0:1]."""
    from .finite_field import FieldSpec

    spec = FieldSpec(2, 3)
    return _projective_group("Sz(8)", spec, _suzuki8_matrices(spec), (0, 0, 0, 1), 29120)


# -- the named catalog ---------------------------------------------------------


def catalog(name, prime=None):
    """Catalog entry by stable name, built from its text in `oseq.CATALOG` by
    `expr.build`, so a name asked for twice gives the same group; parametrized
    names take a prime.

    An unknown name, a prime missing from a parametrized name or given to a
    fixed one, and a prime that is not prime are usage errors (InputError); a
    prime of 10^6 or more is refused by `isprime` with an `ArithError`.
    """
    from .expr import build, parse  # here, so that only a catalog entry loads the parser

    text = CATALOG.get(name)
    if text is None:
        raise InputError(f"unknown catalog name {name!r}")
    if "{" not in text:
        if prime is not None:
            raise InputError(f"catalog entry {name!r} takes no prime argument")
    elif prime is None:
        raise InputError(f"catalog entry {name!r} requires a prime argument")
    elif not isprime(prime):
        raise InputError(f"{prime} is not prime")
    else:
        text = text.format_map({"p": prime, "2p": 2 * prime, "5p": 5 * prime})
    return build(parse(text))
