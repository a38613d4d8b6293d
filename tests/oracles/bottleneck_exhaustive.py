"""Exhaustive bottleneck distance between small barcodes.

Enumerates every partial matching between two lists of (birth, death) bars:
each bar is matched to a bar of the other barcode (injectively) or to the
diagonal at cost (death - birth) / 2. Cost of a matching is the max over
matched pairs of Linf distance and over unmatched bars of their diagonal
cost. Bottleneck distance is the min over all matchings. Feasible for a
handful of bars; used to freeze unit-test values.
"""

from itertools import permutations, combinations


def _linf(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _diag(a):
    return (a[1] - a[0]) / 2.0


def bottleneck(bars1, bars2):
    n, m = len(bars1), len(bars2)
    best = float("inf")
    # choose the subset of bars1 that gets matched, the subset of bars2 it
    # maps onto, and the bijection between them; everything else hits the
    # diagonal
    for k in range(0, min(n, m) + 1):
        for s1 in combinations(range(n), k):
            rest1 = max((_diag(bars1[i]) for i in range(n) if i not in s1), default=0.0)
            for s2 in combinations(range(m), k):
                rest2 = max((_diag(bars2[j]) for j in range(m) if j not in s2), default=0.0)
                base = max(rest1, rest2)
                if base >= best:
                    continue
                for perm in permutations(s2):
                    cost = base
                    for i, j in zip(s1, perm):
                        cost = max(cost, _linf(bars1[i], bars2[j]))
                        if cost >= best:
                            break
                    best = min(best, cost)
    return best


if __name__ == "__main__":
    print("{(0,4)} vs {}:", bottleneck([(0, 4)], []))
    print("{(0,4)} vs {(0,3)}:", bottleneck([(0, 4)], [(0, 3)]))
    print("{(1,4),(2,3)} vs {(1,4)}:", bottleneck([(1, 4), (2, 3)], [(1, 4)]))
    print("{(0,10),(3,4)} vs {(1,9)}:", bottleneck([(0, 10), (3, 4)], [(1, 9)]))
    print("empty vs empty:", bottleneck([], []))
    print("{(0,2),(0,2)} vs {(0,2)}:", bottleneck([(0, 2), (0, 2)], [(0, 2)]))

    # a bar (b, d) is (d - b) / 2 from the diagonal
    assert bottleneck([(0, 4)], []) == 2.0
    assert bottleneck([(0, 4)], [(0, 3)]) == 1.0
    assert bottleneck([(1, 4), (2, 3)], [(1, 4)]) == 0.5
    assert bottleneck([(0, 10), (3, 4)], [(1, 9)]) == 1.0
    assert bottleneck([], []) == 0.0
    assert bottleneck([(0, 2), (0, 2)], [(0, 2)]) == 1.0
    print("expected values: ok")
