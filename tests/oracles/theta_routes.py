"""Route-enumeration oracle for the theta graph (two vertices u, v; parallel edges
of lengths 1, 2, 3).

Everything here is derived from first principles: a point at offset t from u on an
edge of length L is reached either directly from u (cost f(u)+t) or around through v
(cost f(v)+L-t), so f = d(u, .) is min of the two affine routes.
"""

from fractions import Fraction

LENGTHS = {"e1": Fraction(1), "e2": Fraction(2), "e3": Fraction(3)}


def vertex_distance():
    # routes u->v: each parallel edge directly
    return min(LENGTHS.values())


def f_on_edge(edge, t):
    # distance from u to the point at offset t (measured from u) on `edge`
    L = LENGTHS[edge]
    f_u, f_v = Fraction(0), vertex_distance()
    return min(f_u + t, f_v + (L - t))


def peak(edge):
    # interior maximum of f along `edge`: where the two routes meet
    L = LENGTHS[edge]
    f_u, f_v = Fraction(0), vertex_distance()
    t_star = (L + f_v - f_u) / 2
    if 0 < t_star < L:
        return t_star, f_on_edge(edge, t_star)
    return None


def profile_v_e2_u_e3_v(steps=2400):
    """f sampled along the closed path v -(e2)-> u -(e3)-> v; returns the list of
    strict local extrema of the profile (endpoints included)."""
    samples = []
    for k in range(steps + 1):  # e2 walked from v (offset 2) down to u (offset 0)
        t = LENGTHS["e2"] - Fraction(k, steps) * LENGTHS["e2"]
        samples.append(f_on_edge("e2", t))
    for k in range(1, steps + 1):  # e3 walked from u (offset 0) to v (offset 3)
        t = Fraction(k, steps) * LENGTHS["e3"]
        samples.append(f_on_edge("e3", t))
    extrema = [samples[0]]
    for i in range(1, len(samples) - 1):
        if (samples[i] - samples[i - 1]) * (samples[i + 1] - samples[i]) < 0:
            extrema.append(samples[i])
    extrema.append(samples[-1])
    return extrema


def monotone_segment_count_and_variation():
    ext = profile_v_e2_u_e3_v()
    segments = len(ext) - 1
    variation = sum(abs(ext[i + 1] - ext[i]) for i in range(segments))
    return segments, variation


def gromov_product_v_peak3():
    # g_u(v, w) with w the peak of e3: (f(v) + f(w) - d(v, w)) / 2.
    # d(v, w): w sits at offset 2 from u on e3, so 1 from the v end of e3;
    # alternative route via u costs d(v,u) + 2 = 3. Direct along e3 wins: 1.
    f_v = vertex_distance()
    _, f_w = peak("e3")
    d_vw = min(LENGTHS["e3"] - 2, f_v + 2)
    return (f_v + f_w - d_vw) / 2


def cycle_space_lengths():
    # all nonzero GF(2) cycle vectors: pairwise symmetric differences of the edges
    pairs = [("e1", "e2"), ("e1", "e3"), ("e2", "e3")]
    return sorted(LENGTHS[a] + LENGTHS[b] for a, b in pairs)


def minimum_cycle_basis():
    # greedy over the 3 cycle vectors in weight order; any two of them are
    # independent and the third is their sum, so the two lightest win
    return cycle_space_lengths()[:2]


if __name__ == "__main__":
    print("d(u,v) =", vertex_distance())
    print("f(v) =", f_on_edge("e1", LENGTHS["e1"]))
    for e in ("e1", "e2", "e3"):
        print(f"peak({e}) =", peak(e))
    segs, var = monotone_segment_count_and_variation()
    print("path v-e2-u-e3-v: segments =", segs, " f-variation =", var)
    print("g_u(v, peak of e3) =", gromov_product_v_peak3())
    print("cycle space lengths =", cycle_space_lengths())
    print("minimum cycle basis lengths =", minimum_cycle_basis())
    print("persistence sequence =", sorted((x / 3 for x in minimum_cycle_basis()), reverse=True))

    # theta(1, 2, 3) from u: d(u, v) = 1; f peaks at t = 1.5 on e2 and t = 2
    # on e3; the loop v-e2-u-e3-v moves f by 0.5 + 1.5 + 2 + 1 = 5
    assert vertex_distance() == 1 and f_on_edge("e1", LENGTHS["e1"]) == 1
    assert peak("e1") is None
    assert peak("e2") == (Fraction(3, 2), Fraction(3, 2))
    assert peak("e3") == (2, 2)
    assert monotone_segment_count_and_variation() == (4, 5)
    assert gromov_product_v_peak3() == 1
    assert sorted(cycle_space_lengths()) == [3, 4, 5]
    assert sorted(minimum_cycle_basis()) == [3, 4]
    print("expected values: ok")
