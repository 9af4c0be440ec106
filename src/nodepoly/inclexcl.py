"""Modified cardinalities on the subset lattice of a finite set system.

Given finite sets A_0 .. A_{k-1}, the modified cardinality of an
intersection over an index set I counts the elements lying in no strictly
finer intersection.  That is exactly the number of union elements whose
membership signature -- the set of indices of the sets containing them --
is I.  So one pass over the elements builds a histogram of signatures
(bitmasks, bit i for A_i), which is the modified table; a superset-sum
(zeta) transform over the 2^k masks, k * 2^k additions, turns it into the
plain intersection sizes:

    |inter_I| = sum of modified(J) over all J containing I

The backward induction over the lattice (largest index sets first,
modified(I) = |inter_I| - sum of modified(J) over J strictly containing I)
is the same identity solved the other way round; it costs O(4^k) and is
kept in the tests as the reference implementation.

The modified values decompose the union additively, with no alternating
signs; the classical alternating inclusion-exclusion sum is kept alongside
as a second route to the same union count.

Index sets are 0-based throughout, matching the input list positions.
"""

from collections import namedtuple
from itertools import combinations

MAX_SETS = 10


class SetSystem(namedtuple("SetSystem", "sets")):
    """A finite list of finite sets of nonnegative integers.

    Elements must be of type ``int`` exactly: ``bool`` (and so JSON
    ``true``/``false``) is rejected, since ``True`` would silently count as
    the element 1.
    """
    __slots__ = ()

    def __new__(cls, sets):
        frozen = []
        for s in sets:
            s = tuple(s)
            for x in s:
                if type(x) is not int or x < 0:
                    raise ValueError(
                        "set elements must be nonnegative integers")
            frozen.append(frozenset(s))
        if not frozen:
            raise ValueError("a set system needs at least one set")
        if len(frozen) > MAX_SETS:
            raise ValueError(
                f"{len(frozen)} sets exceed the bound {MAX_SETS}: the "
                f"lattice has 2^k - 1 index sets")
        return super().__new__(cls, tuple(frozen))

    @property
    def k(self):
        return len(self.sets)

    def union(self):
        return frozenset().union(*self.sets)


def nonempty_index_sets(k):
    """All nonempty subsets of {0..k-1}, as frozensets, smallest first."""
    for size in range(1, k + 1):
        for combo in combinations(range(k), size):
            yield frozenset(combo)


def intersection_table(system):
    """Exact intersections over every nonempty index set."""
    table = {}
    for index_set in nonempty_index_sets(system.k):
        it = iter(index_set)
        acc = set(system.sets[next(it)])
        for i in it:
            acc &= system.sets[i]
        table[index_set] = frozenset(acc)
    return table


def modified_cardinalities(system):
    """Map from index set I to (plain, modified) cardinality.

    modified(I) counts the union elements whose membership signature is
    exactly I; plain(I) = |inter_I| is the sum of modified(J) over J >= I.
    Keys come in ``nonempty_index_sets`` order.
    """
    signature = {}
    for i, s in enumerate(system.sets):
        bit = 1 << i
        for x in s:
            signature[x] = signature.get(x, 0) | bit
    size = 1 << system.k
    modified = [0] * size
    for mask in signature.values():
        modified[mask] += 1
    plain = modified[:]
    for i in range(system.k):
        bit = 1 << i
        for mask in range(size):
            if not mask & bit:
                plain[mask] += plain[mask | bit]
    table = {}
    bits = [1 << i for i in range(system.k)]
    for r in range(1, system.k + 1):
        for combo, combo_bits in zip(combinations(range(system.k), r),
                                     combinations(bits, r)):
            mask = sum(combo_bits)
            table[frozenset(combo)] = (plain[mask], modified[mask])
    return table


def union_via_modified(system, table=None):
    """Union size as the plain sum of all modified cardinalities.

    ``table`` is a ``modified_cardinalities(system)`` result to reuse.
    """
    if table is None:
        table = modified_cardinalities(system)
    return sum(mod for _, mod in table.values())


def union_via_alternating(system, table=None):
    """Union size by the classical alternating inclusion-exclusion sum.

    ``table`` is a ``modified_cardinalities(system)`` result to reuse.
    """
    if table is None:
        table = modified_cardinalities(system)
    return sum((-1) ** (len(i) + 1) * plain for i, (plain, _) in table.items())
