"""Exhaustive minimum-cycle-basis oracle for small multigraphs.

The cycle space of a connected graph with E edges and V vertices has dimension
beta1 = E - V + 1. It is spanned by the fundamental cycles of any spanning tree,
so enumerating all 2^beta1 - 1 nonzero GF(2) combinations lists every element of
the cycle space. A minimum-weight basis of a matroid is found by the greedy
algorithm over ALL elements sorted by weight, which is exact. Feasible for
beta1 <= ~8.

Graphs are given as (vertices, edges) with edges = [(edge_id, u, v, length), ...].
Self-loops and parallel edges are fine.
"""

from itertools import combinations


def _spanning_tree(vertices, edges):
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree, rest = [], []
    for idx, (_, u, v, _) in enumerate(edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append(idx)
        else:
            rest.append(idx)
    return tree, rest


def _fundamental_cycles(vertices, edges):
    tree_idx, rest_idx = _spanning_tree(vertices, edges)
    adj = {v: [] for v in vertices}
    for idx in tree_idx:
        _, u, v, _ = edges[idx]
        adj[u].append((v, idx))
        adj[v].append((u, idx))

    def tree_path_mask(a, b):
        # DFS through the spanning tree; returns the GF(2) mask of the a..b path
        stack = [(a, None, 0)]
        seen = {a}
        while stack:
            node, via, mask = stack.pop()
            if node == b:
                return mask
            for nxt, idx in adj[node]:
                if nxt not in seen or (idx != via and nxt == b):
                    seen.add(nxt)
                    stack.append((nxt, idx, mask ^ (1 << idx)))
        return 0

    cycles = []
    for idx in rest_idx:
        _, u, v, _ = edges[idx]
        cycles.append((1 << idx) ^ tree_path_mask(u, v))
    return cycles


def minimum_cycle_basis_lengths(vertices, edges):
    """Sorted (ascending) lengths of a minimum-weight GF(2) cycle basis."""
    fund = _fundamental_cycles(vertices, edges)
    beta = len(fund)
    if beta == 0:
        return []
    space = []
    for bits in range(1, 1 << beta):
        mask = 0
        for i in range(beta):
            if bits >> i & 1:
                mask ^= fund[i]
        w = sum(edges[i][3] for i in range(len(edges)) if mask >> i & 1)
        space.append((w, mask))
    space.sort(key=lambda t: (t[0], t[1]))

    chosen, pivots = [], {}
    for w, mask in space:
        m = mask
        while m:
            p = m.bit_length() - 1
            if p in pivots:
                m ^= pivots[p]
            else:
                pivots[p] = m
                chosen.append(w)
                break
        if len(chosen) == beta:
            break
    return sorted(chosen)


if __name__ == "__main__":
    theta = (["u", "v"], [("e1", "u", "v", 1.0), ("e2", "u", "v", 2.0), ("e3", "u", "v", 3.0)])
    print("theta(1,2,3):", minimum_cycle_basis_lengths(*theta))
    c12 = (["c", "m"], [("a", "c", "m", 6.0), ("b", "m", "c", 6.0)])
    print("C12 (split loop):", minimum_cycle_basis_lengths(*c12))
    k4 = (
        list("abcd"),
        [("ab", "a", "b", 1.0), ("ac", "a", "c", 1.0), ("ad", "a", "d", 1.0),
         ("bc", "b", "c", 1.0), ("bd", "b", "d", 1.0), ("cd", "c", "d", 1.0)],
    )
    print("K4 unit lengths:", minimum_cycle_basis_lengths(*k4))

    assert minimum_cycle_basis_lengths(*theta) == [3.0, 4.0]
    assert minimum_cycle_basis_lengths(*c12) == [12.0]
    assert minimum_cycle_basis_lengths(*k4) == [3.0, 3.0, 3.0]
    print("expected values: ok")
