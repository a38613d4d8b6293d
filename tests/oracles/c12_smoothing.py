"""Numerical oracle for basepoint smoothings of a circle of circumference 12.

Parametrize the circle by theta in [-6, 6] (endpoints glued), base p at 0,
f(theta) = |theta|. For a smoothing parameter eps, points at level t are
identified iff they lie in the same component of the band f^{-1}([t-eps, t]).

This script scans levels on a fine net of the circle and counts band
components with a union-find over adjacent net points. Because |f'| = 1 on
each monotone arc, a strand of the smoothed graph spanning a level interval
has length equal to that interval, so component-count profiles determine the
smoothed graph's shape:

  count 1 on [0, eps), 2 on (eps, 6), merge at 6
    -> stem of length eps, cycle of length 2*(6 - eps), beta1 = 1

Closed form checked: beta1 = 1 iff eps < 6; cycle length 2*(6 - eps).
"""

N = 9600
H = 12.0 / N


def in_band(theta, t, eps):
    return t - eps - 1e-12 <= abs(theta) <= t + 1e-12


def band_component_count(t, eps):
    pts = [-6.0 + j * H for j in range(N)]
    idx = [j for j, th in enumerate(pts) if in_band(th, t, eps)]
    if not idx:
        return 0
    pos = {j: k for k, j in enumerate(idx)}
    parent = list(range(len(idx)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j in idx:
        nxt = (j + 1) % N
        if nxt in pos:
            a, b = find(pos[j]), find(pos[nxt])
            if a != b:
                parent[a] = b
    return len({find(k) for k in range(len(idx))})


def profile(eps, step=0.01):
    """List of (t_start, t_end, component count) over levels [0, 6]."""
    runs = []
    t = step / 2
    while t < 6.0:
        c = band_component_count(t, eps)
        if runs and runs[-1][2] == c:
            runs[-1] = (runs[-1][0], t, c)
        else:
            runs.append((t, t, c))
        t += step
    return runs


if __name__ == "__main__":
    for eps in (0.0, 1.0, 2.0, 5.9, 6.0):
        runs = profile(eps)
        two = sum(b - a + 0.01 for a, b, c in runs if c == 2)
        one = sum(b - a + 0.01 for a, b, c in runs if c == 1)
        beta1 = 1 if any(c == 2 for _, _, c in runs) else 0
        print(f"eps={eps}: beta1={beta1}  strand-interval~{two:.2f} "
              f"(cycle~{2 * two:.2f})  stem-interval~{one:.2f}")
        print("   runs:", [(round(a, 3), round(b, 3), c) for a, b, c in runs])
        # the cycle survives below eps = 6 and shrinks to length 12 - 2 eps
        assert beta1 == (1 if eps < 6.0 else 0)
        assert abs(two - max(0.0, 6.0 - eps)) < 0.02
    print("expected values: ok")
