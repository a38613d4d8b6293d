"""Finite metric of graph points by four gathers of a vertex-distance table.

This is the library's earlier ``finite_metric``. For each of the four pairs
of exits (ka, kb) it gathers VD[exit_a, exit_b] for all point pairs and sums
c_a + VD + c_b left to right. It rebuilds VD on every call from the
``G._vertex_dists`` rows of the exit vertices, symmetrised column by column
in vertex order, so each entry comes from the row of the lower-index root.
The point-to-vertex kernel in the library must agree with it exactly.
"""

from typing import Dict, List, Sequence

import numpy as np


def finite_metric(G, points: Sequence):
    """Pairwise distance matrix of the given points (numpy array).

    Duplicate points are fine; the result is then a pseudometric.
    """
    pts = [G.canonical(p) for p in points]
    n = len(pts)
    vidx = {v: i for i, v in enumerate(G.vertices)}
    need = sorted({v for p in pts for (v, _) in G._exits(p)})
    vd = {v: G._vertex_dists(v) for v in need}

    # exit representation: up to two (vertex, cost) rows per point
    exit_v = np.zeros((n, 2), dtype=np.int64)
    exit_c = np.zeros((n, 2), dtype=np.float64)
    for i, p in enumerate(pts):
        ex = G._exits(p)
        if len(ex) == 1:
            ex = [ex[0], ex[0]]
        for k, (v, c) in enumerate(ex):
            exit_v[i, k] = vidx[v]
            exit_c[i, k] = c

    nv = len(G.vertices)
    VD = np.zeros((nv, nv), dtype=np.float64)
    for v in need:
        row = vd[v]
        VD[vidx[v], :] = [row[w] for w in G.vertices]
    for v in need:  # symmetrize the rows we filled
        VD[:, vidx[v]] = VD[vidx[v], :]

    D = np.full((n, n), np.inf)
    for ka in range(2):
        for kb in range(2):
            cand = (exit_c[:, ka][:, None] + VD[np.ix_(exit_v[:, ka], exit_v[:, kb])]
                    + exit_c[:, kb][None, :])
            np.minimum(D, cand, out=D)

    # direct along a shared edge can beat every exit route
    by_edge: Dict[str, List[int]] = {}
    for i, p in enumerate(pts):
        if not p.is_vertex():
            by_edge.setdefault(p.edge, []).append(i)
    for eid, idxs in by_edge.items():
        off = np.array([pts[i].offset for i in idxs])
        direct = np.abs(off[:, None] - off[None, :])
        sub = np.ix_(idxs, idxs)
        D[sub] = np.minimum(D[sub], direct)

    np.fill_diagonal(D, 0.0)
    # c_a + VD + c_b is summed in another order for (i, j) than for (j, i),
    # so the two can differ by an ulp; both are lengths of real paths
    return np.minimum(D, D.T)
