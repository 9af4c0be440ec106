"""Modified cardinalities against two independent oracles.

The signature oracle partitions the union by the exact index set of
containing sets, one frozenset per element.  The backward-induction oracle
builds every intersection and settles the lattice from the largest index
sets down.  The histogram kernel must agree with both.
"""

import random

import pytest

from nodepoly.inclexcl import (SetSystem, intersection_table,
                               modified_cardinalities, nonempty_index_sets,
                               union_via_alternating, union_via_modified)


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
    table = modified_cardinalities(system)
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
    table = modified_cardinalities(system)
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
        table = modified_cardinalities(system)
        full = frozenset(range(system.k))
        plain, modified = table[full]
        assert plain == modified


def test_recursion_matches_signature_oracle():
    rng = random.Random(13)
    for _ in range(100):
        system = random_system(rng)
        table = modified_cardinalities(system)
        oracle = signature_oracle(system)
        for index_set, (_, modified) in table.items():
            assert modified == oracle.get(index_set, 0)
            assert modified >= 0


def test_kernel_matches_both_oracles_up_to_ten_sets():
    rng = random.Random(101)
    for k in range(1, 11):
        for system in shaped_systems(rng, k):
            table = modified_cardinalities(system)
            assert list(table) == list(nonempty_index_sets(k))
            assert table == backward_induction_oracle(system)
            oracle = signature_oracle(system)
            for index_set, (_, modified) in table.items():
                assert modified == oracle.get(index_set, 0)


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
        table = modified_cardinalities(system)
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


def test_validation():
    with pytest.raises(ValueError):
        SetSystem([])
    with pytest.raises(ValueError):
        SetSystem([{1}] * 11)
    with pytest.raises(ValueError):
        SetSystem([{-1}])
    with pytest.raises(ValueError):
        SetSystem([{0.5}])
    # bool is an int subclass: True would otherwise count as the element 1
    for sets in ([[True, 2], [1]], [[1, True]], [[False]]):
        with pytest.raises(ValueError):
            SetSystem(sets)
