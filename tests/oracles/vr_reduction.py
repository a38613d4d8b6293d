"""Independent Vietoris-Rips H1 oracle via Betti-number scans.

Computes H1 barcodes of the 2-skeleton VR filtration WITHOUT the standard
column-reduction pairing algorithm: for each candidate scale r it computes
beta1(r) = dim ker d1 - rank d2 at that scale by GF(2) Gaussian elimination.
Bars are recovered by watching beta1 jump between consecutive critical scales,
matching births and deaths multiset-style (H1 classes born at a scale where
beta1 increases, die where it decreases; with distinct critical values and
the elder rule this pins the multiset of (birth, death) pairs whenever each
scale changes beta1 by at most any mixture -- we track the full multiset by
computing, for every pair (b, d), the persistent Betti number
rank(H1(b) -> H1(d)), which determines bar counts exactly).

Persistent Betti via rank formula over GF(2):
  rank(H1(K_b) -> H1(K_d)) = dim Z1(K_b) - rank d2(K_d) restricted-sum form,
computed as: dim Z1(b) - rank( [B1(d) | Z1(b)] ) + rank B1(d)
where Z1(b) = cycles at b, B1(d) = boundaries at d. Then
  #bars spanning [b, d) pairs are extracted by inclusion-exclusion on the
  persistent Betti table (standard k-triangle lemma).

Only feasible for small point sets; used to freeze acceptance values.
"""

import math
from itertools import combinations


def _rank_gf2(rows):
    rows = [r for r in rows if r]
    rank = 0
    pivots = {}
    for r in rows:
        m = r
        while m:
            p = m.bit_length() - 1
            if p in pivots:
                m ^= pivots[p]
            else:
                pivots[p] = m
                rank += 1
                break
    return rank


def _complex_at(D, r, eps=1e-12):
    n = len(D)
    edges = [(i, j) for i, j in combinations(range(n), 2) if D[i][j] <= r + eps]
    eidx = {e: k for k, e in enumerate(edges)}
    tris = [
        (i, j, k)
        for i, j, k in combinations(range(n), 3)
        if max(D[i][j], D[i][k], D[j][k]) <= r + eps
    ]
    return edges, eidx, tris


def _z1_dim(D, r, n):
    # dim Z1 = #edges - rank d1; rank d1 = n - #components of edge graph
    edges, _, _ = _complex_at(D, r)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comp = n
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            comp -= 1
    return len(edges) - (n - comp)


def _boundary_rows(D, r_tri, r_edge):
    # d2 columns of triangles present at r_tri, in the edge basis at r_edge
    edges, eidx, _ = _complex_at(D, r_edge)
    _, _, tris = _complex_at(D, r_tri)
    rows = []
    for i, j, k in tris:
        m = (1 << eidx[(i, j)]) | (1 << eidx[(i, k)]) | (1 << eidx[(j, k)])
        rows.append(m)
    return rows, eidx


def _cycle_basis_rows(D, r, eidx_full):
    # basis of Z1 at scale r, expressed in the (larger) edge index eidx_full
    edges, _, _ = _complex_at(D, r)
    n = 1 + max((max(i, j) for i, j in edges), default=0)
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent.setdefault(i, i)
        parent.setdefault(j, j)
    adj = {}
    tree = set()
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree.add((i, j))
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
    rows = []
    for i, j in edges:
        if (i, j) in tree:
            continue
        # path i..j in tree as edge mask
        stack = [(i, None, 0)]
        seen = {i}
        mask_path = 0
        while stack:
            node, prev, mask = stack.pop()
            if node == j:
                mask_path = mask
                break
            for nxt in adj.get(node, []):
                if nxt != prev and nxt not in seen:
                    seen.add(nxt)
                    e = (min(node, nxt), max(node, nxt))
                    stack.append((nxt, node, mask ^ (1 << eidx_full[e])))
        rows.append(mask_path ^ (1 << eidx_full[(i, j)]))
    return rows


def persistent_beta1(D, b, d):
    """rank of H1(K_b) -> H1(K_d); b <= d.

    Image of Z1(b) in Z1(d)/B1(d) is (Z1(b)+B1(d))/B1(d), so its dimension is
    rank([B1(d) | Z1(b)]) - rank(B1(d)).
    """
    _, eidx_d, _ = _complex_at(D, d)
    zb = _cycle_basis_rows(D, b, eidx_d)
    bd, _ = _boundary_rows(D, d, d)
    return _rank_gf2(bd + zb) - _rank_gf2(bd)


def h1_barcode(D):
    """Multiset of finite (birth, death) H1 bars of the 2-skeleton VR filtration."""
    n = len(D)
    vals = sorted({D[i][j] for i in range(n) for j in range(i + 1, n)})
    vals = [0.0] + vals
    # betti table via persistent ranks; k-triangle / inclusion-exclusion:
    # bars born at vals[bi] (first index present) dying at vals[di]
    m = len(vals)
    P = [[0] * m for _ in range(m)]
    for bi in range(m):
        for di in range(bi, m):
            P[bi][di] = persistent_beta1(D, vals[bi], vals[di])
    bars = []
    for bi in range(m):
        for di in range(bi + 1, m):
            prev_b = P[bi - 1][di] if bi else 0
            prev_b_prevd = P[bi - 1][di - 1] if bi else 0
            count = (P[bi][di - 1] - P[bi][di]) - (prev_b_prevd - prev_b)
            for _ in range(count):
                bars.append((vals[bi], vals[di]))
    return sorted(bars)


def circle_points(n_pts, circ):
    """Geodesic distance matrix of n_pts equally spaced points on a circle."""
    step = circ / n_pts
    D = [[0.0] * n_pts for _ in range(n_pts)]
    for i in range(n_pts):
        for j in range(n_pts):
            k = abs(i - j)
            D[i][j] = min(k, n_pts - k) * step
    return D


if __name__ == "__main__":
    # 4-cycle, unit steps (geodesic): bar (1, 2)
    c4 = circle_points(4, 4.0)
    print("C4 geodesic:", h1_barcode(c4))
    # 3 points pairwise 1: triangle fills instantly, no H1
    D3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    print("3 points:", h1_barcode(D3))
    # 12 equally spaced points on circumference-12 circle: single bar (1, ~death)
    c12 = circle_points(12, 12.0)
    print("12 pts on C12:", h1_barcode(c12))
    # 6 points, circumference 12
    print("6 pts on C12:", h1_barcode(circle_points(6, 12.0)))

    # 48-point net on the circumference-12 circle (spacing 0.25). Full barcode
    # is too slow here; beta1 at key scales pins the single bar instead.
    def beta1_at(D, r):
        edges, _, _ = _complex_at(D, r)
        bd, _ = _boundary_rows(D, r, r)
        return _z1_dim(D, r, len(D)) - _rank_gf2(bd)

    c48 = circle_points(48, 12.0)
    for r in (0.25, 2.0, 3.75, 4.0):
        print(f"48 pts on C12, beta1({r}) =", beta1_at(c48, r))
    print("48 pts on C12, persistent rank (0.25 -> 3.75) =",
          persistent_beta1(c48, 0.25, 3.75))

    # each circle has one bar, born at the point spacing; on C12 it dies at
    # a third of the circumference, on C4 when the diagonals fill the square
    assert h1_barcode(c4) == [(1.0, 2.0)]
    assert h1_barcode(D3) == []
    assert h1_barcode(c12) == [(1.0, 4.0)]
    assert h1_barcode(circle_points(6, 12.0)) == [(2.0, 4.0)]
    assert [beta1_at(c48, r) for r in (0.25, 2.0, 3.75, 4.0)] == [1, 1, 1, 0]
    assert persistent_beta1(c48, 0.25, 3.75) == 1
    print("expected values: ok")
