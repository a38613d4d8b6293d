"""The library's earlier four-point kernel: every pair of point-pairs.

Each upper-triangle pair (i, j) is compared, as one numpy row, with every
pair after it in ``np.triu_indices`` order, so all C(m, 2) pairs of the
m = C(n, 2) pairs are visited. The pruned kernel must return a result
``==`` to this one on every symmetric matrix: it evaluates a subset of the
same quadruples with the same float operations.

Run as a script, it checks itself against hand-derived values.
"""

import numpy as np


def hyperbolicity(D) -> float:
    """Four-point hyperbolicity constant of a finite metric.

    Max over quadruples of (largest pair-sum - second largest)/2, computed
    over all unordered pairs of point-pairs: the split of a quadruple with
    the largest sum is the only one with a positive gap, and quadruples with
    repeated points contribute nothing positive.
    """
    D = np.ascontiguousarray(D, dtype=np.float64)
    if not np.isfinite(D).all():
        raise ValueError("distance matrix must be finite")
    n = D.shape[0]
    if n < 4:
        return 0.0
    iu, ju = np.triu_indices(n, k=1)
    s = D[iu, ju]
    m = len(iu)
    best = 0.0
    for a in range(m - 1):
        i, j = int(iu[a]), int(ju[a])
        kk, ll = iu[a + 1:], ju[a + 1:]
        sums = s[a] + s[a + 1:]
        c1 = D[i, kk] + D[j, ll]
        c2 = D[i, ll] + D[j, kk]
        gap = sums - np.maximum(c1, c2)
        g = float(gap.max(initial=0.0))
        if g > best:
            best = g
    return best / 2.0


if __name__ == "__main__":
    # the unit 4-cycle: pair sums 2, 2 and 4, so delta = (4 - 2) / 2
    c4 = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    # four points at mutual distance 2: every pair sum is 4
    flat = [[0 if i == j else 2 for j in range(4)] for i in range(4)]
    assert hyperbolicity(c4) == 1.0
    assert hyperbolicity(flat) == 0.0
    print("expected values: ok")
