"""The two finite-metric kernels as plain loops.

``four_point_delta`` visits every quadruple i < j < k < l once and takes the
largest of its three pair-sums minus the second largest. ``relation_distortion``
visits every pair of related pairs once. Both do the same float additions and
subtractions as the vectorised library code, so on a symmetric matrix the
results agree exactly, not only closely.

Run as a script, it checks itself against hand-derived values.
"""


def four_point_delta(D) -> float:
    n = len(D)
    best = 0.0
    for i in range(n - 3):
        for j in range(i + 1, n - 2):
            for k in range(j + 1, n - 1):
                for l in range(k + 1, n):
                    s1 = D[i][j] + D[k][l]
                    s2 = D[i][k] + D[j][l]
                    s3 = D[i][l] + D[j][k]
                    if s1 >= s2:
                        m1, m2 = s1, s2
                    else:
                        m1, m2 = s2, s1
                    if s3 > m1:
                        m1, m2 = s3, m1
                    elif s3 > m2:
                        m2 = s3
                    if m1 - m2 > best:
                        best = m1 - m2
    return best / 2.0


def relation_distortion(DX, DY, pairs) -> float:
    best = 0.0
    for a in range(len(pairs)):
        for b in range(a, len(pairs)):
            diff = abs(DX[pairs[a][0]][pairs[b][0]] - DY[pairs[a][1]][pairs[b][1]])
            if diff > best:
                best = diff
    return best


if __name__ == "__main__":
    # the unit 4-cycle: pair sums 2, 2 and 4, so delta = (4 - 2) / 2
    c4 = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    # four points at mutual distance 2: every pair sum is 4
    flat = [[0 if i == j else 2 for j in range(4)] for i in range(4)]
    assert four_point_delta(c4) == 1.0
    assert four_point_delta(flat) == 0.0
    # the identity relation between the two: |1 - 2| on the cycle's edges,
    # |2 - 2| on its diagonals
    assert relation_distortion(c4, flat, [(i, i) for i in range(4)]) == 1.0
    print("expected values: ok")
