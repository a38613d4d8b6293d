"""Exhaustive Gromov-Hausdorff distance between tiny finite metric spaces.

Ground truth by brute force: d_GH(X, Y) = 1/2 min over covering relations
R of X x Y of dis(R), dis(R) = max |dX(x,x') - dY(y,y')| over pairs in R.

Two enumerations are provided and cross-checked:
  * all_relations: every subset of X x Y that covers both factors
    (2^(n*m) masks, feasible for n*m <= 16), optionally only those that
    contain a given pair
  * function_pairs: R = graph(f) u graph(g) over all f: X->Y, g: Y->X.
    Every covering relation contains such a sub-relation, and dis is
    monotone under inclusion, so the minima agree.
"""

from itertools import product


def dis(R, DX, DY):
    out = 0.0
    for i, (x1, y1) in enumerate(R):
        for x2, y2 in R[i:]:
            v = abs(DX[x1][x2] - DY[y1][y2])
            if v > out:
                out = v
    return out


def dgh_all_relations(DX, DY, pointed=None):
    """With pointed=(i0, j0), only relations that contain (i0, j0)."""
    n, m = len(DX), len(DY)
    assert n * m <= 16
    pairs = [(i, j) for i in range(n) for j in range(m)]
    need = 0 if pointed is None else 1 << pairs.index(tuple(pointed))
    best = float("inf")
    for mask in range(1, 1 << (n * m)):
        if mask & need != need:
            continue
        R = [pairs[k] for k in range(n * m) if mask >> k & 1]
        if len({x for x, _ in R}) < n or len({y for _, y in R}) < m:
            continue
        best = min(best, dis(R, DX, DY))
    return best / 2.0


def dgh_function_pairs(DX, DY):
    n, m = len(DX), len(DY)
    best = float("inf")
    for f in product(range(m), repeat=n):
        for g in product(range(n), repeat=m):
            R = list({(i, f[i]) for i in range(n)} | {(g[j], j) for j in range(m)})
            best = min(best, dis(R, DX, DY))
    return best / 2.0


def _metric_from_points(pts):
    n = len(pts)
    return [
        [sum((a - b) ** 2 for a, b in zip(pts[i], pts[j])) ** 0.5 for j in range(n)]
        for i in range(n)
    ]


if __name__ == "__main__":
    import random

    one = [[0.0]]
    seg = [[0.0, 5.0], [5.0, 0.0]]
    print("pt vs {0,5}:", dgh_all_relations(one, seg), "(diam/2 = 2.5)")
    seg2 = [[0.0, 3.0], [3.0, 0.0]]
    print("{0,5} vs {0,3}:", dgh_all_relations(seg, seg2), "(|5-3|/2 = 1)")
    tri = _metric_from_points([(0, 0), (4, 0), (0, 3)])
    print("pt vs 3-4-5 triangle:", dgh_all_relations(one, tri), "(diam/2 = 2.5)")
    print("triangle vs itself:", dgh_all_relations(tri, tri))
    tri2 = _metric_from_points([(0, 0), (5, 0), (0, 12)])
    print("3-4-5 vs 5-12-13:", dgh_all_relations(tri, tri2))

    rng = random.Random(7)
    for trial in range(30):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        DX = _metric_from_points([(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(n)])
        DY = _metric_from_points([(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(m)])
        a = dgh_all_relations(DX, DY)
        b = dgh_function_pairs(DX, DY)
        assert abs(a - b) < 1e-12, (trial, a, b)
    print("30 random trials: all-relations minimum == function-pair minimum")

    for trial in range(10):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        DX = _metric_from_points([(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(n)])
        DY = _metric_from_points([(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(m)])
        a = dgh_all_relations(DX, DY)
        b = min(dgh_all_relations(DX, DY, pointed=(0, j)) for j in range(m))
        assert a == b, (trial, a, b)
    print("10 random trials: minimum == minimum over the pointed pairs (0, j)")
