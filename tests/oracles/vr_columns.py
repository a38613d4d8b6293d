"""Vietoris-Rips H1 barcode by plain homology column reduction.

This is the library's earlier implementation. It sorts every edge by
(D[i,j], i, j) and every triangle by (max of its three upper-triangle
entries, i, j, k), with i < j < k, and reduces each triangle's boundary
column, held as a Python-int bitmask over the edge order, until its lowest
edge is new. The pair (lowest edge, triangle) is a bar (D[i,j], triangle
value) when it is longer than REL_TOL of the length unit of D's largest
entry. Like the library it reads only the upper triangle of D, so the
coboundary reduction must agree with it exactly (==) even on a matrix that
is asymmetric by an ulp.

It costs O(n^3) triangles as Python tuples, so keep n small.

Run as a script, it checks itself against hand-derived barcodes.
"""

from typing import Dict, List, Tuple

import numpy as np

from metricgraph import Barcode
from metricgraph.metric_graph import REL_TOL, length_unit


def h1_barcode(D) -> Barcode:
    D = np.asarray(D, dtype=np.float64)
    n = D.shape[0]
    if n < 3:
        return Barcode(degree=1, bars=())

    tol = REL_TOL * length_unit(float(np.abs(D).max()))
    edges = sorted(((D[i, j], i, j) for i in range(n) for j in range(i + 1, n)),
                   key=lambda t: (t[0], t[1], t[2]))
    eidx = {(i, j): k for k, (_, i, j) in enumerate(edges)}

    tris = sorted(((max(D[i, j], D[i, k], D[j, k]), i, j, k)
                   for i in range(n) for j in range(i + 1, n)
                   for k in range(j + 1, n)),
                  key=lambda t: (t[0], t[1], t[2], t[3]))

    pivots: Dict[int, int] = {}
    bars: List[Tuple[float, float]] = []
    paired = 0
    for (val, i, j, k) in tris:
        col = (1 << eidx[(i, j)]) | (1 << eidx[(i, k)]) | (1 << eidx[(j, k)])
        while col:
            low = col.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                paired += 1
                birth = edges[low][0]
                if val - birth > tol:
                    bars.append((birth, val))
                break
            col ^= other

    # the complete 2-skeleton has no H1 left at the top of the filtration
    if paired != len(edges) - (n - 1):
        raise AssertionError("VR reduction left unkilled cycles")
    return Barcode(degree=1, bars=tuple(bars))


if __name__ == "__main__":
    # the unit n-cycle's loop is born with its edges at 1. In the 4-cycle
    # the diagonals and every triangle enter at 2. In the 6-cycle the
    # complex at 2 is the octahedron's surface, whose H1 is 0, and 3 kills
    # only its H2.
    for n in (4, 6):
        cycle = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
        assert h1_barcode(cycle).bars == ((1.0, 2.0),)
    print("expected values: ok")
