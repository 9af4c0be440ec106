"""Modified cardinalities on the subset lattice of a finite set system.

Given finite sets A_0 .. A_{k-1}, the modified cardinality of an
intersection over an index set I counts the elements lying in no strictly
finer intersection.  That is exactly the number of union elements whose
membership signature -- the set of indices of the sets containing them --
is I.  A :class:`SetSystem` is stored as that signature map (element ->
bitmask, bit i for A_i), built in a list or a dict (the rule is stated in
:class:`SetSystem`) by one loop over the input that checks each element
and ORs its bit in, so the union is the key set.  The list route keeps
its list, indexed by element and grown by doubling as the loop meets
larger elements, as the map: at most max(64, 2 * (top + 1)) slots for the
largest element top, and never more than 2 * total + 65 for total listed
elements, held for the life of the system.  The histogram of the masks is
the modified table; a superset-sum (zeta) transform over the 2^k masks
turns it into the plain intersection sizes:

    |inter_I| = sum of modified(J) over all J containing I

The transform takes one bit per pass, k passes of two whole-list steps: an
unshuffle that brings the bit to the top of every index, then the upper
half of the list added into the lower half.

The backward induction over the lattice (largest index sets first,
modified(I) = |inter_I| - sum of modified(J) over J strictly containing I)
is the same identity solved the other way round; it costs O(4^k) and is
kept in the tests as the reference implementation.

The modified values decompose the union additively, with no alternating
signs; the classical alternating inclusion-exclusion sum, one signed block
sum per index-set size, is kept as a second route to the union count.

Index sets are 0-based throughout, matching the input list positions.
"""

from collections import defaultdict, namedtuple
from collections.abc import ItemsView, Mapping, ValuesView
from itertools import chain, combinations, compress, count, islice, repeat
from math import comb
from operator import add

MAX_SETS = 10
_BAD_ELEMENT = "set elements must be nonnegative integers"


class _ReadOnly:
    """What the two signature maps share: each hashes over its items, reads
    as the sorted dict it equals and refuses every change."""
    __slots__ = ()

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __repr__(self):
        return repr(dict(sorted(self.items())))

    def _read_only(self, *args, **kwargs):
        raise TypeError("the signature map is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


class _Signatures(_ReadOnly, dict):
    """The dict route's element -> mask map."""
    __slots__ = ()

    def __reduce__(self):
        # copy and pickle through the constructor: the default route
        # replays the items through the __setitem__ this map refuses
        return (type(self), (dict(self),))


class _MaskList(_ReadOnly, Mapping):
    """The list route's element -> mask map: a view of the list indexed by
    element, whose nonzero slots are the union elements."""
    __slots__ = ("_masks",)

    def __init__(self, masks):
        self._masks = masks

    def __getitem__(self, x):
        # as in a dict, x finds the int key i when hash(x) == i and i == x,
        # so True and 1.0 find 1; an int in 0..2**61 - 2 is its own hash
        i = hash(x)
        masks = self._masks
        if 0 <= i < len(masks) and masks[i] and i == x:
            return masks[i]
        raise KeyError(x)

    def __iter__(self):
        return compress(count(), self._masks)

    def __len__(self):
        return len(self._masks) - self._masks.count(0)

    def items(self):
        return _MaskItems(self)

    def values(self):
        return _MaskValues(self)


class _MaskItems(ItemsView):
    """``_MaskList.items()``, read off the list, not by one lookup per key."""
    __slots__ = ()

    def __iter__(self):
        masks = self._mapping._masks
        return compress(enumerate(masks), masks)


class _MaskValues(ValuesView):
    """``_MaskList.values()``, read off the list, not by one lookup per key."""
    __slots__ = ()

    def __iter__(self):
        return filter(None, self._mapping._masks)


class SetSystem(namedtuple("SetSystem", "k signatures")):
    """A finite list of k finite sets of nonnegative integers, held as its
    membership signatures: each union element maps to the bitmask of the
    sets containing it (bit i for the i-th set).

    Two systems are equal exactly when k and the signatures are, so element
    order and duplicates inside a set do not matter but the order of the
    sets does.  ``sets`` and ``union()`` rebuild the frozensets.

    Elements must be of type ``int`` exactly: ``bool`` (and so JSON
    ``true``/``false``) is rejected, since ``True`` would silently count as
    the element 1.  Every element is checked before the bound on k, and no
    mask grows past ``MAX_SETS`` bits.

    The masks go in one of two containers, and one loop fills either: one
    check and one ``masks[x] |= bit`` per listed element.  A list of lists
    starts a list of 64 slots indexed by element, kept as the signature map
    behind a read-only view whose keys are its nonzero slots; no
    per-element dict is built.  An element past its end grows it to
    max(x + 1, twice its length) slots, capped at 2 * total + 65 for total
    listed elements, so the list route holds every input whose elements
    are all at most 2 * total + 64, in a list of at most
    max(64, 2 * (top + 1)) slots for its largest element top, for the life
    of the system.  An element past that cap moves the masks into a
    ``defaultdict(int)`` and the loop goes on there; so does any other
    input -- an iterator, Python sets, sparse or huge elements such as
    10**30 -- the route whose memory is bounded by the input alone.  The
    checks and the errors are the same on both, and so are the two maps'
    lookups, equality, hash and repr.
    """
    __slots__ = ()

    def __new__(cls, sets):
        if type(sets) is list and not set(map(type, sets)) - {list}:
            bound = 2 * sum(map(len, sets)) + 65
            masks = [0] * 64
        else:
            masks = defaultdict(int)
        k = 0
        for s in sets:
            # past the bound: checks only
            bit = 1 << k if k < MAX_SETS else 0
            for x in s:
                # checked before the index: masks[-1] is the last slot
                if type(x) is not int or x < 0:
                    raise ValueError(_BAD_ELEMENT)
                try:
                    masks[x] |= bit
                except IndexError:
                    # only a list raises, and only past its end
                    if x < bound:
                        masks += repeat(0, min(max(x + 1, 2 * len(masks)),
                                               bound) - len(masks))
                    else:
                        masks = defaultdict(int, zip(compress(count(), masks),
                                                     filter(None, masks)))
                    masks[x] |= bit
            k += 1
        signatures = (_MaskList if type(masks) is list else _Signatures)(masks)
        if not k:
            raise ValueError("a set system needs at least one set")
        if k > MAX_SETS:
            raise ValueError(
                f"{k} sets exceed the bound {MAX_SETS}: the "
                f"lattice has 2^k - 1 index sets")
        return super().__new__(cls, k, signatures)

    def __getnewargs__(self):
        return ([list(s) for s in self.sets],)

    @property
    def sets(self):
        return tuple(frozenset(x for x, mask in self.signatures.items()
                               if mask >> i & 1)
                     for i in range(self.k))

    def union(self):
        return frozenset(self.signatures)


def nonempty_combinations(items):
    """The nonempty combinations of the sequence ``items`` by size, each size
    in ``itertools.combinations`` order: the order of every index-set list."""
    return chain.from_iterable(map(combinations, repeat(items),
                                   range(1, len(items) + 1)))


def nonempty_index_sets(k):
    """All nonempty subsets of {0..k-1}, as frozensets, smallest first."""
    return map(frozenset, nonempty_combinations(range(k)))


def intersection_table(system):
    """Exact intersections over every nonempty index set."""
    sets = system.sets
    return {ix: frozenset.intersection(*map(sets.__getitem__, ix))
            for ix in nonempty_index_sets(system.k)}


def modified_cardinalities(system):
    """The lists ``(plain, modified)`` over the nonempty index sets, in
    ``nonempty_index_sets(system.k)`` order.

    modified(I) counts the union elements whose membership signature is
    exactly I, a histogram of ``system.signatures``; plain(I) = |inter_I|
    is the sum of modified(J) over J >= I.
    """
    size = 1 << system.k
    modified = [0] * size
    for mask in system.signatures.values():
        modified[mask] += 1
    # superset sums, one bit per pass: the unshuffle rotates every index
    # right by one, so the bit just taken is the top one and the masks that
    # hold it are the upper half, added into the lower half.  After k passes
    # every index is back in place; the first unshuffle copies modified.
    plain, half = modified, size >> 1
    for _ in range(system.k):
        plain = plain[::2] + plain[1::2]
        plain[:half] = map(add, plain[:half], plain[half:])
    bits = [1 << i for i in range(system.k)]
    masks = list(map(sum, nonempty_combinations(bits)))
    return [plain[m] for m in masks], [modified[m] for m in masks]


def union_via_modified(system, table=None):
    """Union size as the plain sum of all modified cardinalities.

    ``table`` is a ``modified_cardinalities(system)`` result to reuse.
    """
    if table is None:
        table = modified_cardinalities(system)
    return sum(table[1])


def union_via_alternating(system, table=None):
    """Union size by the classical alternating inclusion-exclusion sum.

    The plain values of the index sets of size r are one block of C(k, r),
    whose sum enters with sign (-1)^(r+1).
    ``table`` is a ``modified_cardinalities(system)`` result to reuse.
    """
    if table is None:
        table = modified_cardinalities(system)
    plain = iter(table[0])
    return sum((-1) ** (r + 1) * sum(islice(plain, comb(system.k, r)))
               for r in range(1, system.k + 1))
