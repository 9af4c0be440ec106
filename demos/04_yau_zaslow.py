"""
Yau-Zaslow counts on K3
=======================

On a K3 surface the rational nodal curve counts n_delta (with the class
chosen so the linear subsystem has dimension delta, i.e. L2 = 2*delta - 2)
are generated by the 24th power of the partition series.  Both sides are
computed here exactly: the left from the universal polynomials, the right
by expanding prod (1-q^k)^(-24).
"""

from nodepoly import partition_power_series, yau_zaslow_check

print("prod (1-q^k)^(-24) =", partition_power_series(24, 5))
print()

triples = yau_zaslow_check(5)
print("delta   T_delta on K3    partition coefficient")
for delta, node, partition in triples:
    mark = "==" if node == partition else "!="
    print(f"{delta:5d}   {node!s:>13}  {mark}  {partition}")
print()
print("exact agreement for all delta <= 5:",
      all(node == partition for _, node, partition in triples))
