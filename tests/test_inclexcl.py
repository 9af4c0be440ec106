"""Modified cardinalities against two independent oracles.

The signature oracle partitions the union by the exact index set of
containing sets, one frozenset per element.  The backward-induction oracle
builds every intersection and settles the lattice from the largest index
sets down.  The histogram kernel must agree with both; its (plain, modified)
lists are keyed by ``nonempty_index_sets`` to compare.  ``SetSystem``
builds its signatures in an element-indexed list, kept as the map, or, for
sparse or malformed input, a dict; a per-element dict update is the oracle
for both, and the dict route's map is the oracle for how the list route's
map reads.
"""

import random
import tracemalloc
from itertools import count

import pytest

from nodepoly.inclexcl import (SetSystem, _dense_top, intersection_table,
                               modified_cardinalities, nonempty_index_sets,
                               union_via_alternating, union_via_modified)


def keyed(system):
    """modified_cardinalities(system) as a map index set -> (plain, mod)."""
    plain, modified = modified_cardinalities(system)
    return dict(zip(nonempty_index_sets(system.k), zip(plain, modified)))


def backward_induction_oracle(system):
    """(plain, modified) per index set by the O(4^k) lattice recursion:
    modified(I) = |inter_I| - sum of modified(J) over J strictly above I."""
    inter = intersection_table(system)
    modified = {}
    for index_set in sorted(inter, key=len, reverse=True):
        correction = sum(modified[j] for j in modified if j > index_set)
        modified[index_set] = len(inter[index_set]) - correction
    return {i: (len(inter[i]), modified[i]) for i in inter}


def signature_oracle(system):
    """Map from index set to how many union elements have that signature."""
    counts = {}
    for x in system.union():
        signature = frozenset(i for i, s in enumerate(system.sets) if x in s)
        counts[signature] = counts.get(signature, 0) + 1
    return counts


def per_element_signatures(sets):
    """Element -> mask by one dict update per listed element."""
    signatures = {}
    for i, s in enumerate(sets):
        for x in s:
            signatures[x] = signatures.get(x, 0) | 1 << i
    return signatures


def random_system(rng, max_k=5, universe=12):
    k = rng.randint(1, max_k)
    return SetSystem([
        [x for x in range(universe) if rng.random() < 0.4]
        for _ in range(k)])


def shaped_systems(rng, k):
    """Random, sparse, dense, empty-set, identical and disjoint systems."""
    for p in (0.1, 0.5, 0.9):
        yield SetSystem([[x for x in range(40) if rng.random() < p]
                         for _ in range(k)])
    sets = [[x for x in range(20) if rng.random() < 0.5] for _ in range(k)]
    sets[rng.randrange(k)] = []
    yield SetSystem(sets)
    yield SetSystem([[]] * k)
    yield SetSystem([[1, 5, 9]] * k)
    yield SetSystem([[3 * i, 3 * i + 1] for i in range(k)])


def test_two_set_example():
    system = SetSystem([{1, 2}, {2, 3}])
    assert modified_cardinalities(system) == ([2, 2, 1], [1, 1, 1])
    table = keyed(system)
    assert table[frozenset({0})] == (2, 1)
    assert table[frozenset({1})] == (2, 1)
    assert table[frozenset({0, 1})] == (1, 1)
    assert union_via_modified(system) == 3
    assert union_via_alternating(system) == 2 + 2 - 1


def test_intersection_table():
    system = SetSystem([{1, 2}, {2, 3}])
    inter = intersection_table(system)
    assert inter[frozenset({0, 1})] == frozenset({2})
    disjoint = SetSystem([{1}, {2}])
    assert intersection_table(disjoint)[frozenset({0, 1})] == frozenset()
    single = SetSystem([{4, 5}])
    assert intersection_table(single)[frozenset({0})] == frozenset({4, 5})


def test_identical_sets_concentrate_in_finest_intersection():
    system = SetSystem([{1, 2, 3}] * 4)
    table = keyed(system)
    full = frozenset(range(4))
    for index_set, (plain, modified) in table.items():
        assert plain == 3
        assert modified == (3 if index_set == full else 0)
    assert union_via_modified(system) == 3


def test_disjoint_sets_add_up():
    system = SetSystem([{0, 1}, {2}, {3, 4, 5}])
    assert union_via_modified(system) == 6
    assert union_via_alternating(system) == 6


def test_single_set():
    system = SetSystem([{7, 9}])
    assert union_via_alternating(system) == 2
    assert union_via_modified(system) == 2


def test_full_index_modified_equals_plain():
    rng = random.Random(3)
    for _ in range(20):
        system = random_system(rng)
        table = keyed(system)
        full = frozenset(range(system.k))
        plain, modified = table[full]
        assert plain == modified


def test_recursion_matches_signature_oracle():
    rng = random.Random(13)
    for _ in range(100):
        system = random_system(rng)
        table = keyed(system)
        oracle = signature_oracle(system)
        for index_set, (_, modified) in table.items():
            assert modified == oracle.get(index_set, 0)
            assert modified >= 0


def test_kernel_matches_both_oracles_up_to_ten_sets():
    rng = random.Random(101)
    for k in range(1, 11):
        for system in shaped_systems(rng, k):
            plain, modified = modified_cardinalities(system)
            assert len(plain) == len(modified) == 2 ** k - 1
            table = dict(zip(nonempty_index_sets(k), zip(plain, modified)))
            induction = backward_induction_oracle(system)
            assert table == induction
            oracle = signature_oracle(system)
            for index_set, (_, mod) in table.items():
                assert mod == oracle.get(index_set, 0)
            # the size-block alternating sum against the oracle's union
            assert union_via_alternating(system) == \
                sum(mod for _, mod in induction.values())


def naive_superset_sums(values):
    """The k * 2^k loop: values[m] += values[m | bit] for m without bit."""
    values = values[:]
    k = len(values).bit_length() - 1
    for i in range(k):
        bit = 1 << i
        for mask in range(len(values)):
            if not mask & bit:
                values[mask] += values[mask | bit]
    return values


def test_slice_transform_matches_naive_loop():
    # A seeded histogram over the 2^k masks, realised as a set system with
    # counts[m] elements of signature m; the plain list must equal the naive
    # superset sums read in nonempty_index_sets order.  Every k = 1..10
    # runs k unshuffle-and-halve passes, k = 1 the one where the unshuffle
    # leaves the list as it is.
    rng = random.Random(71)
    for k in range(1, 11):
        counts = [0] + [rng.choice((0, 0, 1, 2, 5)) for _ in range(1, 2 ** k)]
        sets = [[] for _ in range(k)]
        x = 0
        for mask, count in enumerate(counts):
            for _ in range(count):
                for i in range(k):
                    if mask >> i & 1:
                        sets[i].append(x)
                x += 1
        masks = [sum(1 << i for i in index_set)
                 for index_set in nonempty_index_sets(k)]
        expected = naive_superset_sums(counts)
        plain, modified = modified_cardinalities(SetSystem(sets))
        assert modified == [counts[m] for m in masks]
        assert plain == [expected[m] for m in masks]


def test_union_routes_reuse_a_table():
    rng = random.Random(53)
    for k in range(1, 11):
        for system in shaped_systems(rng, k):
            table = modified_cardinalities(system)
            expected = len(system.union())
            assert union_via_modified(system, table) == expected
            assert union_via_alternating(system, table) == expected


def test_lemma_identity_holds_for_every_index_set():
    # modified(I) + sum over strict supersets J of modified(J) = plain(I)
    rng = random.Random(29)
    for _ in range(50):
        system = random_system(rng)
        table = keyed(system)
        for index_set, (plain, modified) in table.items():
            finer = sum(mod for j, (_, mod) in table.items()
                        if j > index_set)
            assert modified + finer == plain


def test_union_routes_agree():
    rng = random.Random(37)
    for _ in range(100):
        system = random_system(rng)
        expected = len(system.union())
        assert union_via_modified(system) == expected
        assert union_via_alternating(system) == expected


def test_index_set_enumeration():
    sets = list(nonempty_index_sets(3))
    assert len(sets) == 7
    assert frozenset({0, 1, 2}) in sets


class Contrary:
    """Compares as both greater and less than anything: max() over
    [20, Contrary(), 10] returns 10, and the list path meets 20 past it."""

    def __gt__(self, other):
        return True

    __lt__ = __gt__


REJECTED_ELEMENTS = [
    [{-1}], [{0.5}], [[[1]]], [["1"]], [[None]],
    [[2, -1]],  # on the list path a missing x < 0 check writes masks[-1]
    [[1]] * 10 + [[True]], [[1]] * 20 + [[-5]], [[20, Contrary(), 10]],
    # bool is an int subclass: True would otherwise count as the element 1
    [[True, 2], [1]], [[1, True]], [[False]]]


def with_huge(sets):
    """``sets`` with 10**30 added to the first set, which sends any input
    down the dict path."""
    if not sets:
        return sets
    first = sets[0]
    first = first | {10**30} if isinstance(first, set) else first + [10**30]
    assert _dense_top([first] + sets[1:]) is None
    return [first] + sets[1:]


def test_validation():
    # every element is checked before the bound on the number of sets, as
    # given and again on the dict path
    element = "^set elements must be nonnegative integers$"
    for spread in (list, with_huge):
        for sets in REJECTED_ELEMENTS:
            with pytest.raises(ValueError, match=element):
                SetSystem(spread(sets))
        with pytest.raises(ValueError, match="^a set system needs at least "
                           "one set$"):
            SetSystem(spread([]))
        for sets in ([{1}] * 11, [[1]] * 11):
            with pytest.raises(ValueError,
                               match="^11 sets exceed the bound 10: "):
                SetSystem(spread(sets))
    assert SetSystem([[10**30]]).signatures == {10**30: 1}
    assert SetSystem([[]]).k == 1 and SetSystem([[]]).union() == frozenset()


def assert_reads_as(signatures, oracle):
    """``signatures`` reads as the dict-route map ``oracle``: length, repr,
    keys, items, and membership, ``get`` and ``[]`` on a present element,
    the first absent one (a gap, or one past the top), -1 and -2 (-1 hashes
    as -2), one past the top, an int that hashes as the present element,
    and the keys a dict would match with 1 or miss."""
    assert len(signatures) == len(oracle)
    assert repr(signatures) == repr(oracle)
    assert set(signatures) == set(oracle)
    assert dict(signatures.items()) == oracle
    assert sorted(signatures.values()) == sorted(oracle.values())
    top = max(oracle, default=0)
    present = min(oracle, default=0)
    absent = next(x for x in count() if x not in oracle)
    # ints are hashed modulo the prime 2**61 - 1
    alias = present + 2**61 - 1
    assert hash(alias) == hash(present)
    for x in (present, absent, -1, -2, top + 1, alias, True, 1.0, "1"):
        assert (x in signatures) == (x in oracle), x
        assert signatures.get(x) == oracle.get(x), x
        if x in oracle:
            assert signatures[x] == oracle[x], x
        else:
            with pytest.raises(KeyError):
                signatures[x]


def test_signatures_match_per_element_oracle_on_both_paths():
    # seeded dense systems take the list path, the same spread by a 10**12
    # stride the dict path; duplicates, empty sets and element order vary
    rng = random.Random(61)
    for stride in (1, 10**12):
        for k in range(1, 11):
            for p in (0.5, 0.9):
                universe = rng.randrange(50, 200)
                sets = [[x * stride for x in range(universe)
                         if rng.random() < p] for _ in range(k)]
                for s in sets:
                    s += rng.sample(s, len(s) // 4)
                    rng.shuffle(s)
                if k > 1:
                    sets[rng.randrange(k)] = []
                assert (_dense_top(sets) is None) == (stride > 1)
                system = SetSystem(sets)
                assert system.signatures == per_element_signatures(sets)
                as_sets = SetSystem([set(s) for s in sets])
                assert system == as_sets and hash(system) == hash(as_sets)
                assert_reads_as(system.signatures, as_sets.signatures)


def test_sparse_elements_allocate_no_element_indexed_list():
    # One element at 10**6 would need an 8 MB list indexed by element (at
    # 10**9, 8 GB); the dict path holds one entry.
    tracemalloc.start()
    try:
        system = SetSystem([[10**6]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak
    assert system.signatures == {10**6: 1}


def test_dense_elements_allocate_no_per_element_dict():
    # The list path keeps its list indexed by element, 8 bytes a slot (156
    # KB here), as the signature map; a dict read off it would add an entry
    # and a 2-tuple per union element, 1.3 MB.
    rng = random.Random(43)
    sets = [[x for x in range(20000) if rng.random() < 0.5]
            for _ in range(6)]
    tracemalloc.start()
    try:
        system = SetSystem(sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 1024, peak
    assert system.signatures == per_element_signatures(sets)


def test_too_many_sets_rejected_with_narrow_masks():
    # Masks stop at MAX_SETS bits, so each set past the bound costs only its
    # element checks.  A mask with a bit per set would be n bits wide (12.5
    # kB at n = 10**5) and make the rejection quadratic in n.
    for n in (10_000, 100_000):
        sets = [[0]] * n
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{n} sets exceed"):
                SetSystem(sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096, peak
