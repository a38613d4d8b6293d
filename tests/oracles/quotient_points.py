"""The smoothing quotient's location and representation, one point at a time.

``metricgraph.reeb_smoothing`` locates and represents whole nets at once,
with arrays. This oracle keeps the per-point path it replaced: ``_locate``
takes one canonical point of G to its class in S, ``_represent`` one
canonical point of S to a point of G whose column meets its class, and
``_class`` and ``_rep_at`` read the sweep's breakpoint lists of one element
or one class by bisection. ``correspondence_parts`` builds the quotient
correspondence from them as ``quotient_correspondence`` once did; the array
path must give the same points and matrices, ``==``.

Run as a script, it checks itself against hand-derived values on the theta
graph (parallel edges of lengths 1, 2, 3 between u and v) from u at eps =
0.5.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from typing import Dict, List, Tuple

from metricgraph.metric_graph import (
    GraphPoint,
    MetricGraph,
    _from_model_point,
    _model_f,
    _to_model_point,
    epsilon_net,
    finite_metric,
)
from metricgraph.reeb_smoothing import SmoothedGraph

_Elem = Tuple[str, str]  # ("v", vertex) or ("e", edge id) of the model


def _at(breaks, s: int):
    """The value a breakpoint list gives at slot s: that of the last entry
    at or before s."""
    slots, values = breaks
    return values[bisect_right(slots, s) - 1]


@functools.lru_cache(maxsize=16)
def numbering(S: SmoothedGraph) -> Tuple[List[_Elem], Dict[_Elem, int]]:
    """The model's elements in sorted order, the sweep's numbering, and the
    number of each."""
    H = S._model.graph
    elems = sorted([("v", v) for v in H.vertices] + [("e", e.id) for e in H.edges])
    return elems, {x: k for k, x in enumerate(elems)}


def _class(S: SmoothedGraph, s: int, x: _Elem) -> str:
    """The S vertex or S edge holding the class of band element x at slot s."""
    return _at(S._names[_at(S._log[numbering(S)[1][x]], s)], s)


def _rep_at(S: SmoothedGraph, name: str, s: int) -> _Elem:
    """The smallest model element of the class of S vertex or S edge
    ``name`` at a slot s that it spans."""
    return numbering(S)[0][_at(S._reps[name], s)]


def _locate(S: SmoothedGraph, x: GraphPoint) -> GraphPoint:
    """Class of (x, 0) in the quotient, as a canonical point of S.graph, for
    a canonical point x of the source graph."""
    model, crit = S._model, S._criticals
    mp = _to_model_point(model, x)
    lvl = _model_f(model, mp)

    # snap to the first critical level within the merge gap, else take the
    # open interval that holds lvl
    gap = 100.0 * model.graph._tol
    k = bisect_left(crit, lvl)
    if k > 0 and abs(lvl - crit[k - 1]) <= gap:
        s = 2 * k - 2
    elif k < len(crit) and abs(lvl - crit[k]) <= gap:
        s = 2 * k
    else:
        s = 2 * k - 1
    elem: _Elem = ("v", mp.vertex) if mp.is_vertex() else ("e", mp.edge)
    name = _class(S, s, elem)
    if name in S.level:
        return GraphPoint(vertex=name)
    t = crit[s // 2] if s % 2 == 0 else lvl
    # S's tolerance can exceed the slot gap, so t may lie within it of an end
    return S.graph.canonical(
        GraphPoint(edge=name, offset=t - S.level[S.graph.edge(name).u]))


def _represent(S: SmoothedGraph, cs: GraphPoint) -> GraphPoint:
    """A point x of the source graph whose column {x} x [0, eps] meets the
    class of the canonical point cs of S.graph."""
    model, crit = S._model, S._criticals
    f = model.f
    if cs.is_vertex():
        lvl = S.level[cs.vertex]
        elem = _rep_at(S, cs.vertex, 2 * bisect_left(crit, lvl))
    else:
        lvl = S.level[S.graph.edge(cs.edge).u] + cs.offset
        # the first interval whose closure, widened by the tolerance that
        # put cs inside its edge, holds lvl
        elem = _rep_at(S, cs.edge, 2 * bisect_left(crit, lvl - S.graph._tol) - 1)
    if elem[0] == "v":
        return _from_model_point(model, GraphPoint(vertex=elem[1]))
    e = model.graph.edge(elem[1])
    lo, hi = min(f[e.u], f[e.v]), max(f[e.u], f[e.v])
    target = max(min(hi, lvl), lo)
    off = target - f[e.u] if f[e.v] >= f[e.u] else f[e.u] - target
    # a clamped offset may lie within the model's tolerance of an end
    return _from_model_point(model, model.graph.canonical(GraphPoint(edge=e.id, offset=off)))


def correspondence_parts(G: MetricGraph, S: SmoothedGraph, mesh: float):
    """(left, right, DX, DY) of the quotient correspondence, point by point."""
    net_g = epsilon_net(G, mesh)
    net_s = epsilon_net(S.graph, mesh)
    left = list(net_g) + [_represent(S, q) for q in net_s]
    right = [_locate(S, x) for x in net_g] + list(net_s)
    return left, right, finite_metric(G, left), finite_metric(S.graph, right)


if __name__ == "__main__":
    from metricgraph import epsilon_smoothing, quotient_correspondence

    # From u, f(v) = 1 and the model cuts e2 at 1.5 and e3 at 2 (the points
    # farthest from u), so the criticals at eps = 0.5 are 0, 0.5, 1, 1.5,
    # 2, 2.5 (slots 0, 2, ..., 10). The star around u is born at 0 (n0) and
    # splits into one S edge per edge of G when u leaves at 0.5 (n1); the
    # model's edges sort e1 < e2|0 < e3|0, so their S edges are s1, s2, s3.
    theta = MetricGraph(["u", "v"], [("e1", "u", "v", 1.0), ("e2", "u", "v", 2.0),
                                     ("e3", "u", "v", 3.0)])
    S = epsilon_smoothing(theta, GraphPoint(vertex="u"), 0.5)
    assert S._criticals == (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    assert (S.level["n0"], S.level["n1"]) == (0.0, 0.5)
    assert S.graph.betti1 == 2  # both basis cycles live until eps = 1.5
    # u is the class born at level 0
    assert _locate(S, GraphPoint(vertex="u")) == GraphPoint(vertex="n0")
    # v (f = 1, slot 4) passes through on e1's S edge: 0.5 above n1
    assert _class(S, 4, ("v", "v")) == "s1"
    assert _locate(S, GraphPoint(vertex="v")) == GraphPoint(edge="s1", offset=0.5)
    # e2 at 0.75 lies in the open slot 3 on e2's S edge
    assert _locate(S, GraphPoint(edge="e2", offset=0.75)) == GraphPoint(edge="s2", offset=0.25)
    # n0's class at slot 0 holds u and the first pieces of the three edges;
    # its smallest element is e1, clamped to level 0: its end u
    assert _rep_at(S, "n0", 0) == ("e", "e1")
    assert _represent(S, GraphPoint(vertex="n0")) == GraphPoint(vertex="u")
    # level 0.75 on s2 is represented on e2|0, which starts at u
    assert _rep_at(S, "s2", 3) == ("e", "e2|0")
    assert _represent(S, GraphPoint(edge="s2", offset=0.25)) == GraphPoint(edge="e2", offset=0.75)
    # the array path gives this oracle's correspondence
    for mesh in (0.25, 0.5, 1.0):
        corr = quotient_correspondence(theta, S, mesh)
        left, right, DX, DY = correspondence_parts(theta, S, mesh)
        assert list(corr.left) == left and list(corr.right) == right
        assert (corr.DX == DX).all() and (corr.DY == DY).all()
    print("expected values: ok")
