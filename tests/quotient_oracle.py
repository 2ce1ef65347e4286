"""Subgroup closure, normality test and coset groups: the slow references of
the tests.

The runtime forms no quotient group.  `supersolvable_chain` finds its chain
inside G, and C7 : A4 gives only the images of A4's two generators; these
are the oracles they are checked against.
"""

from oseq.groups import Group, GroupError


def subgroup_closure(group, seed):
    """The smallest subgroup holding the seed indices: a breadth-first walk
    from the identity by right products with the seed, which in a finite
    group reaches every element of <seed>.  Returns the sorted member indices."""
    seed = tuple(set(seed))
    members, walk = {0}, [0]
    for x in walk:  # grows while it is walked
        for s in seed:
            y = group.mul(x, s)
            if y not in members:
                members.add(y)
                walk.append(y)
    return tuple(sorted(members))


class CosetBacking:
    """Cosets of a normal subgroup; elements are least-index representatives."""

    __slots__ = ("parent", "coset_of", "reps")

    def __init__(self, parent, coset_of, reps):
        self.parent = parent
        self.coset_of = coset_of
        self.reps = reps

    def identity(self):
        return self.reps[0]

    def mul(self, a, b):
        return self.reps[self.coset_of[self.parent.mul(a, b)]]

    def inv(self, a):
        return self.reps[self.coset_of[self.parent.inv(a)]]

    def fast_order(self, a):
        return None


def is_normal(group, sub):
    """Conjugation check against the group's generators; `sub` holds the
    member indices of a subgroup of `group`."""
    members = set(sub)
    for g in group.generators:
        gi = group.inv(g)
        for h in members:
            if group.mul(group.mul(g, h), gi) not in members:
                return False
    return True


def quotient(group, sub):
    """Coset group of a normal subgroup; representatives are least indices."""
    if not is_normal(group, sub):
        raise GroupError("cannot form the quotient by a non-normal subgroup")
    n = len(group)
    coset_of = [-1] * n
    reps = []
    for i in range(n):
        if coset_of[i] < 0:
            cid = len(reps)
            reps.append(i)
            for h in sub:
                coset_of[group.mul(i, h)] = cid
    backing = CosetBacking(group, coset_of, reps)
    gen_elems = [reps[coset_of[g]] for g in group.generators]
    return Group(backing, reps, generator_elements=gen_elems)
