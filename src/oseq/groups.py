"""Enumerated finite groups: indexed element tables over exchangeable backings.

A Group numbers its elements: an element list (index -> canonical element),
the reverse index, and a backing that multiplies raw elements.  No n-by-n
multiplication table is ever materialised; products go through the backing
and back through the element index.  C(n) numbers a^k as k, and a direct or
semidirect product numbers the pair (i, j) of factor indices as i * w + j, w
the right factor's order; the backing of each multiplies these integers, so
its table and index are `range(n)` and `Group.mul` is the backing's own.
D(n), Dic(n) and C_p^k are integers of such backings too, numbered
breadth-first.  A permutation group is kept as a stabiliser chain, its order
known, and is listed coset by coset of a point stabiliser only when its
table is first read; `Group.order_counts` counts its element orders from the
chain, one coset per suborbit, with no table, and on a coset that the
two-point stabiliser maps onto itself by conjugation, one element per orbit
of that stabiliser.  Every other group is enumerated breadth-first from the
identity with generators applied in declared order (FIFO).  Each way two
runs assign identical indices.
"""

from collections import Counter, namedtuple
from itertools import repeat
from math import gcd, lcm

from . import BuildError

__all__ = [
    "GroupError",
    "Group",
    "PermBacking",
    "MetacyclicBacking",
    "DirectProductBacking",
    "SemidirectBacking",
    "enumerate_group",
    "commutator_subgroup",
    "DEFAULT_CLOSURE_CAP",
]


class GroupError(BuildError):
    """Invalid group construction or query."""


DEFAULT_CLOSURE_CAP = 500_000


class PermBacking:
    """Permutations of a fixed degree 1..255, packed as bytes.

    A product is one `bytes.translate` of the right factor through the left
    one, padded with the fixed points `degree..255` to the 256-entry table
    `translate` takes.
    """

    __slots__ = ("degree", "_tail")

    def __init__(self, degree):
        if not 1 <= degree <= 255:
            raise GroupError("permutation degree must be in 1..255")
        self.degree = degree
        self._tail = bytes(range(degree, 256))

    def pack(self, images):
        images = tuple(images)
        if sorted(images) != list(range(self.degree)):
            raise GroupError(f"not a permutation of 0..{self.degree - 1}")
        return bytes(images)

    def identity(self):
        return bytes(range(self.degree))

    def mul(self, a, b):
        # (a*b)(i) = a(b(i))
        return b.translate(a + self._tail)

    def inv(self, a):
        # the table sending a(i) to i, cut back to the degree
        return bytes.maketrans(a, self.identity())[: self.degree]

    def fast_order(self, a):
        return None



class MetacyclicBacking:
    """a^k b^s, coded as the integer k + s * m, with a^m = 1, b^2 = a^z and
    b^-1 a b = a^-1.

    C(m) uses only s = 0, so its elements are their own exponents; D(2m) has
    z = 0 and Dic(2m) has z = m/2.
    """

    __slots__ = ("m", "z")

    def __init__(self, m, z=0):
        if m < 1 or (2 * z) % m:
            raise GroupError("metacyclic backing needs m >= 1 and a^z central")
        self.m = m
        self.z = z

    def identity(self):
        return 0

    def mul(self, a, b):
        m = self.m
        j, t = b % m, b // m
        if a >= m:  # b a^j = a^-j b
            return (a - j + self.z * t) % m + (1 - t) * m
        return (a + j) % m + t * m

    def inv(self, a):
        m = self.m
        return (a + self.z) % m + m if a >= m else -a % m

    def fast_order(self, a):
        m = self.m
        return 2 * m // gcd(self.z, m) if a >= m else m // gcd(a, m)



class DirectProductBacking:
    """G x H on the indices of its elements: the pair (i, j) is i * w + j, for
    w = |H| and i, j indices into G and H, multiplied component-wise."""

    __slots__ = ("left", "right", "width")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.width = len(right)

    def identity(self):
        return 0

    def mul(self, a, b):
        w = self.width
        return self.left.mul(a // w, b // w) * w + self.right.mul(a % w, b % w)

    def inv(self, a):
        return self.left.inv(a // self.width) * self.width + self.right.inv(a % self.width)

    def fast_order(self, a):
        return lcm(self.left.order_of(a // self.width), self.right.order_of(a % self.width))



class SemidirectBacking:
    """N : H on the indices x * w + h of its pairs (x, h), for w = |H|, with
    (x1, h1)(x2, h2) = (x1 * perms[h1][x2], h1 h2): h permutes N's indices."""

    __slots__ = ("normal", "acting", "perms", "width")

    def __init__(self, normal, acting, perms):
        self.normal = normal
        self.acting = acting
        self.perms = perms
        self.width = len(acting)

    def identity(self):
        return 0

    def mul(self, a, b):
        w = self.width
        h1 = a % w
        return self.normal.mul(a // w, self.perms[h1][b // w]) * w + self.acting.mul(h1, b % w)

    def inv(self, a):
        w = self.width
        hi = self.acting.inv(a % w)
        return self.perms[hi][self.normal.inv(a // w)] * w + hi

    def fast_order(self, a):
        return None



class Group:
    """A finite group with indexed elements; index 0 is the identity.

    `table` lists the elements (index -> element), `index` maps them back
    and `generators` holds the generators' indices.  Given `range(n)` as its
    table, a group's elements are their own indices: the index is the same
    range and `mul` is the backing's.  A permutation group from
    `enumerate_group` keeps its stabiliser chain instead and leaves these
    three slots unset until one of them is first read; `__getattr__` then
    builds all three from the chain.
    """

    __slots__ = (
        "backing", "table", "index", "generators", "mul", "_order", "_chain", "_orders", "_invs",
    )

    def __init__(self, backing, table, generator_elements=(), index=None):
        self.backing = backing
        if type(table) is range:
            index = table
            self.mul = backing.mul
        else:
            table = list(table)
            if index is None:
                index = {e: i for i, e in enumerate(table)}
            self.mul = self._mul
        self.table = table
        if len(index) != len(self.table):
            raise GroupError("duplicate elements in table")
        self.index = index
        if self.table and self.table[0] != backing.identity():
            raise GroupError("identity must sit at index 0")
        self.generators = tuple(dict.fromkeys(self.index[g] for g in generator_elements))
        self._order = len(self.table)
        self._chain = None
        self._orders = None
        self._invs = None

    @classmethod
    def _from_chain(cls, backing, chain):
        group = cls.__new__(cls)
        group.backing = backing
        group._order = len(chain.orbit) * len(chain.stabiliser)
        group._chain = chain
        group.mul = group._mul
        group._orders = None
        group._invs = None
        return group

    def __getattr__(self, attr):
        # Reached only when a slot is unset: the table, index and generators
        # of a group kept as a stabiliser chain, before their first read.
        if attr not in ("table", "index", "generators"):
            raise AttributeError(attr)
        chain = self._chain
        tail = self.backing._tail
        table = []
        for p in chain.orbit:
            table += map(bytes.translate, chain.stabiliser.table, repeat(chain.transversal[p] + tail))
        self.table = table
        self.index = {e: i for i, e in enumerate(table)}
        self.generators = tuple(dict.fromkeys(self.index[g] for g in chain.gens))
        return getattr(self, attr)

    def __len__(self):
        return self._order

    def __repr__(self):
        return f"Group({type(self.backing).__name__}, order={self._order})"

    def _mul(self, i, j):
        return self.index[self.backing.mul(self.table[i], self.table[j])]

    def inv(self, i):
        invs = self._invs
        if invs is None:
            invs = self._invs = [-1] * self._order
        v = invs[i]
        if v < 0:
            v = invs[i] = self.index[self.backing.inv(self.table[i])]
        return v

    def order_of(self, i):
        """Order of element i: the backing's closed form, else a walk of <g>.

        Without a closed form, g, g^2, ..., g^o = 1 are walked once through
        the backing and the index, and every power g^k whose order is not
        yet known gets ord(g^k) = o / gcd(k, o).  A walk that has not met
        the identity after |G| steps is refused: the backing's product is
        then not a group law on the table.
        """
        orders = self._orders
        if orders is None:
            orders = self._orders = [0] * self._order
        o = orders[i]
        if o:
            return o
        g = self.table[i]
        backing = self.backing
        o = backing.fast_order(g)
        if o is not None:
            orders[i] = o
            return o
        # Permutations: g^(k+1) = g * g^k is one translate through g's table.
        gt = g + backing._tail if type(backing) is PermBacking else None
        bmul, index = backing.mul, self.index
        powers = [i]  # powers[k - 1] is the index of g^k; the last is 0
        x, j = g, i
        for _ in repeat(None, self._order):
            if not j:
                break
            x = x.translate(gt) if gt else bmul(x, g)
            j = index[x]
            powers.append(j)
        else:
            raise GroupError(f"element {i} has no power equal to the identity within {self._order} steps")
        o = len(powers)
        for k, j in enumerate(powers, 1):
            if not orders[j]:
                orders[j] = o // gcd(k, o)
        return o

    def orders(self):
        if self._orders is None:
            self._orders = [0] * self._order
        order_of = self.order_of
        return [o or order_of(i) for i, o in enumerate(self._orders)]

    def order_counts(self):
        """How many elements have each order, as a Counter.

        A group kept as a stabiliser chain (b, its orbit, u_p, H = G_b) is
        counted without its table.  Conjugation by h in H carries the coset
        u_p H onto u_h(p) H and keeps orders, so all cosets over one
        H-orbit (a suborbit) hold the same orders: the count is that of H
        plus, for each suborbit other than {b}, its length times the count of
        one of its cosets.  The suborbit holding c, the base of H's own
        chain, is counted on u_c H, which K = H_c maps onto itself by
        conjugation: k^-1 (u_c h) k = u_c (k'^-1 h k), k' = u_c^-1 k u_c in
        H.  A breadth-first walk over K's generators splits the coset into
        K-orbits, and one element per orbit is counted, times the orbit's
        length; every other coset is walked the same way with K trivial.  For
        x in the coset, x^l fixes b for l the length of b's cycle under x,
        and ord(x) = l * ord(x^l), the second found in H.  Every other group
        counts `orders()`.
        """
        chain = self._chain
        if chain is None:
            return Counter(self.orders())
        b, stab, kept = chain.base, chain.stabiliser, chain.kept
        counts = stab.order_counts()
        table, index, order_of = stab.table, stab.index, stab.order_of
        tail = self.backing._tail
        full = self.backing.identity() + tail
        c = stab._chain.base if stab._chain else None
        seen = {b}
        for p in chain.orbit:
            if p in seen:
                continue
            seen.add(p)
            suborbit = [p]
            for q in suborbit:  # grows while it is walked
                for s in kept:
                    if s[q] not in seen:
                        seen.add(s[q])
                        suborbit.append(s[q])
            if c in suborbit:
                p = c
            ut = chain.transversal[p] + tail
            conj = ()  # (k, the table of k'^-1) for each generator k of K, on u_c H only
            if p == c:
                uinv = bytes.maketrans(ut, full)
                conj = [(k, ut.translate(bytes.maketrans(k + tail, full)).translate(uinv)) for k in stab._chain.kept]
            coset = Counter()
            visited = bytearray(len(stab))
            for i, h in enumerate(table):
                if visited[i]:
                    continue
                visited[i] = 1
                orbit = [h]
                for v in orbit:  # grows while it is walked
                    vt = v + tail
                    for k, kt in conj:
                        z = k.translate(vt).translate(kt)
                        j = index[z]
                        if not visited[j]:
                            visited[j] = 1
                            orbit.append(z)
                x = h.translate(ut)
                xt = x + tail
                y, l = x, 1
                while y[b] != b:
                    y = y.translate(xt)
                    l += 1
                coset[l * order_of(index[y])] += len(orbit)
            for o, m in coset.items():
                counts[o] += m * len(suborbit)
        return counts


_Chain = namedtuple("_Chain", "gens base orbit transversal stabiliser kept")


def _perm_group(backing, gens, cap):
    """The permutation group <gens> kept as a stabiliser chain, or None when
    it has more than `cap` elements.

    With b the least point a generator moves and u_p a product of generators
    that maps b to p, G is the disjoint union of the cosets u_p H over the
    orbit of b, H the stabiliser of b; H is generated by the Schreier
    generators u_g(p)^-1 g u_p (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, ch. 4).  One already in the part of H
    built so far is skipped, the rest are kept, and H is built the same way
    from them, under the cap cap // |orbit| that |G| = |orbit| |H| <= cap
    allows.  G's table, [u_p h for p in the orbit, in BFS order, for h in H],
    is built only when first read: one `bytes.translate` of H through u_p's
    table per coset, with no product looked up.
    """
    ident = backing.identity()
    b = min((i for g in gens for i, j in enumerate(g) if i != j), default=None)
    if b is None:
        return Group(backing, [ident], generator_elements=gens)
    tail = backing._tail
    tables = [g + tail for g in gens]
    u = {b: ident}
    orbit = [b]
    for p in orbit:  # grows while it is walked
        for g, gt in zip(gens, tables):
            if g[p] not in u:
                u[g[p]] = u[p].translate(gt)
                orbit.append(g[p])
    if len(orbit) > cap:
        return None
    inverse = {p: bytes.maketrans(up, ident) for p, up in u.items()}
    kept, stab = [], Group(backing, [ident])
    for p in orbit:
        for g, gt in zip(gens, tables):
            s = u[p].translate(gt).translate(inverse[g[p]])
            if s not in stab.index:
                kept.append(s)
                stab = _perm_group(backing, tuple(kept), cap // len(orbit))
                if stab is None:
                    return None
    return Group._from_chain(backing, _Chain(tuple(gens), b, orbit, u, stab, tuple(kept)))


def enumerate_group(backing, generators, cap=DEFAULT_CLOSURE_CAP):
    """The closure of the generators; deterministic indexing, identity first.

    A PermBacking group is kept as a stabiliser chain by `_perm_group`, with
    no `mul` call, and numbered coset by coset when its table is first read;
    every other backing is closed breadth-first, each x * g through `mul`.
    Either way more than `cap` elements are refused.
    """
    generators = list(generators)
    if type(backing) is PermBacking:
        group = _perm_group(backing, generators, cap)
        if group is None:
            raise GroupError(f"closure exceeded cap {cap}")
        return group
    ident = backing.identity()
    table = [ident]
    index = {ident: 0}
    bmul = backing.mul
    head = 0
    while head < len(table):
        x = table[head]
        head += 1
        for g in generators:
            y = bmul(x, g)
            if y not in index:
                if len(table) >= cap:
                    raise GroupError(f"closure exceeded cap {cap}")
                index[y] = len(table)
                table.append(y)
    return Group(backing, table, generator_elements=generators, index=index)


def _grow(group, members, gens, s):
    """Enlarge the subgroup `members`, generated by `gens`, to <members, s>.

    Dimino's step: the new subgroup is a union of right cosets H*r of the old
    one H, found by multiplying each coset representative by every generator.
    """
    mul = group.mul
    base = list(members)
    gens.append(s)
    reps = [s]
    members.update(mul(h, s) for h in base)
    for r in reps:  # grows while it is walked
        for g in gens:
            y = mul(r, g)
            if y not in members:
                members.update(mul(h, y) for h in base)
                reps.append(y)


def commutator_subgroup(group, a_gens, b_gens):
    """[A, B] for A = <a_gens> and B = <b_gens>, as a frozenset of member
    indices, and the generators collected.

    [A, B] is the normal closure in <A, B> of the generator commutators
    [a, b] = a^-1 b^-1 a b (Holt, Eick & O'Brien, Handbook of Computational
    Group Theory, 2005).  A conjugate of a collected generator by a generator
    of <A, B> joins the generators whenever it falls outside the subgroup
    built so far; the returned generators generate [A, B].
    """
    mul, inv = group.mul, group.inv
    members, gens = {0}, []
    for a in a_gens:
        for b in b_gens:
            c = mul(mul(inv(a), inv(b)), mul(a, b))
            if c not in members:
                _grow(group, members, gens, c)
    conjugators = tuple(dict.fromkeys((*a_gens, *b_gens)))
    for x in gens:  # grows while it is walked
        for g in conjugators:
            y = mul(mul(inv(g), x), g)
            if y not in members:
                _grow(group, members, gens, y)
    return frozenset(members), tuple(gens)
