"""
Modified cardinalities on a set system
======================================

The finite-set model of the correction hierarchy: for each index set I the
modified cardinality counts elements of the intersection over I lying in
no strictly finer intersection.  Summing the modified values over the
lattice gives the union size with no alternating signs; the classical
alternating formula is computed alongside as a second route.
"""

from nodepoly import (SetSystem, modified_cardinalities,
                      union_via_alternating, union_via_modified)
from nodepoly.inclexcl import nonempty_index_sets

system = SetSystem([{1, 2, 3, 4}, {3, 4, 5}, {4, 5, 6, 7}])
for i, s in enumerate(system.sets):
    print(f"A{i} = {sorted(s)}")
print()

# both lists run over the index sets by size, in nonempty_index_sets order
plain_sizes, modified_sizes = modified_cardinalities(system)
print("index set   |intersection|   modified")
for index_set, plain, modified in zip(nonempty_index_sets(system.k),
                                      plain_sizes, modified_sizes):
    label = "{" + ",".join(str(i) for i in sorted(index_set)) + "}"
    print(f"{label:>9}   {plain:^14d}   {modified:^8d}")

print()
print("sum of modified values  =", union_via_modified(system))
print("alternating sum         =", union_via_alternating(system))
print("direct union size       =", len(system.union()))
