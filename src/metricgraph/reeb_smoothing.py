"""Epsilon-smoothings of a pointed metric graph.

The smoothing S of (G, p) at scale eps is the Reeb quotient of
F(x, s) = d(p, x) + s on the l1 product G x [0, eps], the smoothing of
de Silva, Munch and Patel ("Categorified Reeb graphs", DCG 2016). Its level-t
classes are the components of the band {x : t - eps <= d(p, x) <= t} of the
monotone subdivision, so S is read off a sweep of the band across the
critical levels {f(v)} and {f(v) + eps}.

The sweep runs on integer slots. Critical values closer than 100 times the
model graph's tolerance merge into one level, so the merging scales with G;
slot 2k is the k-th merged level and slot 2k + 1 the open interval above
it. Each critical value is mapped to its slot once and no float is compared
after that: a model vertex or edge lies in the band from the slot of its
lowest f to the slot of its highest f + eps, so the band moves by per-slot
enter and leave lists, all at even slots. Each component at an even slot is
a vertex of S unless it is a pass-through, one component just below and one
just above; each component at an odd slot lies on an edge of S.

The band's components persist from slot to slot, and only the ones that
change are touched, not the whole band (compare Parsa, "A deterministic
O(m log m) time algorithm for the Reeb graph", SoCG 2012). An entering
element merges the components it meets, the smaller relabelled into the
largest, and a component that loses an element is re-explored, each piece
that splits off taking a fresh id. A component that nothing enters, merges
into or leaves keeps its S edge and costs nothing; S vertices arise only at
births, deaths, merges and splits. Each element logs the slots at which its
component id changed, each component the slots at which its class in S
changed, and each class of S the slots at which its smallest element
changed, so a class or a representative is two bisections away.

Levels run from 0 to max f + eps: the quotient keeps growing above the
highest point of G, which contributes a hanging tail.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Set, Tuple

from .metric_graph import (
    GraphPoint,
    MetricGraph,
    MonotoneModel,
    _build_monotone_model,
    _from_model_point,
    _model_f,
    _to_model_point,
    check_positive,
    distance,
    epsilon_net,
    finite_metric,
    is_real,
    per_graph,
)
from .gh_bounds import Correspondence

_Elem = Tuple[str, str]  # ("v", vertex) or ("e", edge id) of the model


@dataclass(frozen=True, eq=False)
class SmoothedGraph:
    """The epsilon-smoothing S of (G, p), as the band sweep leaves it.

    ``level`` is the value of the quotient function on S's vertices, in name
    order, and ``base_class`` the vertex holding the class of the basepoint
    (level 0). ``graph`` is S as a metric graph, built on first read. Edge
    lengths equal the level difference of their endpoints, and the distance
    from ``base_class`` to any point equals its level.

    One smoothing is built per (G, canonical p, float(eps)) in G's memo and
    shared by every later call, so it and its lists must not be mutated.
    """

    level: Dict[str, float]
    base_class: str
    eps: float
    # G, held weakly: S lives in G's memo, and a strong reference back would
    # leave G to the cycle collector instead of freeing it with its last user
    _source: weakref.ref = field(repr=False)
    # the sweep's monotone model, critical levels and model elements, in
    # sorted order, and the number of each element
    _model: MonotoneModel = field(repr=False)
    _criticals: Tuple[float, ...] = field(repr=False)
    _elems: List[_Elem] = field(repr=False)
    _num: Dict[_Elem, int] = field(repr=False)
    # per element (slots, component ids): from each listed slot on, until
    # the next, the element's band component has that id
    _log: List[Tuple[List[int], List[int]]] = field(repr=False)
    # per component id (slots, names): from each listed slot on, the
    # component's class is that S vertex or S edge
    _names: List[Tuple[List[int], List[str]]] = field(repr=False)
    # per S vertex or S edge (slots, elements): from each listed slot on,
    # the smallest element of its class; a vertex has one entry, its slot
    _reps: Dict[str, Tuple[List[int], List[int]]] = field(repr=False)
    _edges: List[Tuple[str, str, str, float]] = field(repr=False)  # S edges in name order

    @cached_property
    def graph(self) -> MetricGraph:
        return MetricGraph(list(self.level), self._edges)

    def to_json_obj(self) -> dict:
        from .metric_graph import graph_to_json_obj
        obj = graph_to_json_obj(self.graph)
        obj["level"] = {v: self.level[v] for v in sorted(self.level)}
        obj["base"] = self.base_class
        return obj


def _at(breaks: Tuple[List, List], s: int):
    """The value a breakpoint list gives at slot s: that of the last entry
    at or before s."""
    slots, values = breaks
    return values[bisect_right(slots, s) - 1]


def _class(S: SmoothedGraph, s: int, x: _Elem) -> str:
    """The S vertex or S edge holding the class of band element x at slot s."""
    return _at(S._names[_at(S._log[S._num[x]], s)], s)


def _rep_at(S: SmoothedGraph, name: str, s: int) -> _Elem:
    """The smallest model element of the class of S vertex or S edge
    ``name`` at a slot s that it spans."""
    return S._elems[_at(S._reps[name], s)]


def _sweep(G: MetricGraph, p: GraphPoint, eps: float) -> SmoothedGraph:
    """The smoothing of (G, p) at scale eps, swept once per (G, canonical p,
    float(eps))."""
    if not is_real(eps) or not 0 <= eps < math.inf:
        raise ValueError(f"eps must be a finite number >= 0, not {eps!r}")
    return _sweep_at(G, G.canonical(p), float(eps))


@per_graph
def _sweep_at(G: MetricGraph, cp: GraphPoint, eps: float) -> SmoothedGraph:
    model = _build_monotone_model(G, cp)
    H, f = model.graph, model.f

    # a critical value within gap of the first value of a run joins its slot
    gap = 100.0 * H._tol
    criticals: List[float] = []
    slot: Dict[float, int] = {}  # critical value -> its even slot
    for x in sorted({x for v in H.vertices for x in (f[v], f[v] + eps)}):
        if not criticals or x - criticals[-1] > gap:
            criticals.append(x)
        slot[x] = 2 * len(criticals) - 2
    n_slots = 2 * len(criticals) - 1

    # model elements numbered in sorted order, so a component's smallest
    # element is its smallest number; an edge is adjacent to its two ends
    elems = sorted([("v", v) for v in H.vertices] + [("e", e.id) for e in H.edges])
    num = {x: i for i, x in enumerate(elems)}
    adj: List[List[int]] = [[] for _ in elems]
    enter: List[List[int]] = [[] for _ in range(n_slots)]
    leave: List[List[int]] = [[] for _ in range(n_slots)]
    for v in H.vertices:
        enter[slot[f[v]]].append(num[("v", v)])
        leave[slot[f[v] + eps]].append(num[("v", v)])
    for e in H.edges:
        i, a, b = num[("e", e.id)], num[("v", e.u)], num[("v", e.v)]
        lo, hi = sorted((f[e.u], f[e.v]))
        enter[slot[lo]].append(i)
        leave[slot[hi + eps]].append(i)
        adj[i] += (a, b)
        adj[a].append(i)
        adj[b].append(i)

    # the band's components, kept from slot to slot: each element's log of
    # (slot, component id) changes, and each component's log of classes
    comp: Dict[int, int] = {}       # band element -> component id
    members: Dict[int, Set[int]] = {}
    low: Dict[int, int] = {}        # component id -> smallest element
    log: List[Tuple[List[int], List[int]]] = [([], []) for _ in elems]
    names: List[Tuple[List[int], List[str]]] = []
    cur: Dict[int, int] = {}        # component id -> its S edge, between slots

    def fresh() -> int:
        names.append(([], []))
        return len(names) - 1

    def label(x: int, c: int, s: int) -> None:
        # a later entry at the same slot overrides, as the lookup bisects right
        comp[x] = c
        log[x][0].append(s)
        log[x][1].append(c)

    def name(c: int, s: int, n: str) -> None:
        names[c][0].append(s)
        names[c][1].append(n)

    # S as it grows: vertex levels, and per S edge its ends and its log of
    # smallest elements
    level: Dict[str, float] = {}
    bottom: List[str] = []
    top: List[str] = []
    reps: Dict[str, Tuple[List[int], List[int]]] = {}

    # elements enter and leave at even slots only, so the band is constant
    # from the slot after one even slot to the next
    for s in range(0, n_slots, 2):
        # an entering element merges the components it meets into the
        # largest; ins lists the S edges that flow into each component
        # touched, none for a component born here
        ins: Dict[int, List[int]] = {}
        for x in enter[s]:
            touched = {comp[y] for y in adj[x] if y in comp}
            for d in touched - ins.keys():
                ins[d] = [cur.pop(d)]
            c = max(touched, key=lambda d: len(members[d]), default=None)
            if c is None:
                c = fresh()
                members[c], low[c], ins[c] = set(), x, []
            for d in touched - {c}:
                for y in members[d]:
                    label(y, c, s)
                members[c] |= members.pop(d)
                low[c] = min(low[c], low.pop(d))
                ins[c] += ins.pop(d)
            members[c].add(x)
            low[c] = min(low[c], x)
            label(x, c, s)

        # the components that change at slot s, by their smallest element
        hit = {comp[x] for x in leave[s]}
        changed = sorted((low[c], c) for c in ins.keys() | hit)

        # after slot s the leaving elements go; a component that lost one
        # is re-explored, and each piece but its largest gets a fresh id
        for x in leave[s]:
            members[comp.pop(x)].discard(x)
        out: Dict[int, List[int]] = {}  # component -> its pieces after slot s
        for c in hit:
            rest = members.pop(c)
            del low[c]
            pieces: List[Set[int]] = []
            while rest:
                x = rest.pop()
                piece, stack = {x}, [x]
                while stack:
                    for y in adj[stack.pop()]:
                        if y in rest:
                            rest.remove(y)
                            piece.add(y)
                            stack.append(y)
                pieces.append(piece)
            pieces.sort(key=len, reverse=True)
            out[c] = []
            for k, piece in enumerate(pieces):
                d = c if k == 0 else fresh()
                members[d], low[d] = piece, min(piece)
                out[c].append(d)
                if k:
                    for y in piece:
                        label(y, d, s + 1)

        # one S edge in and one out: a pass-through, which stays on its S
        # edge; any other change is an S vertex, whose pieces start S edges
        starts: List[Tuple[int, int, str]] = []
        for lo, c in changed:
            into = ins[c] if c in ins else [cur.pop(c)]
            pieces_c = out.get(c, [c])
            if len(into) == 1 and len(pieces_c) == 1:
                e = into[0]
                if not names[c][0]:  # born here, holding one older component
                    name(c, s, f"s{e}")
                cur[c] = e
                rs, rx = reps[f"s{e}"]
                if rx[-1] != low[c]:
                    rs.append(s + 1)
                    rx.append(low[c])
                continue
            v = f"n{len(level)}"
            level[v] = criticals[s // 2]
            reps[v] = ([s], [lo])
            name(c, s, v)
            for e in into:
                top[e] = v
            starts += [(low[d], d, v) for d in pieces_c]
        for lo, d, v in sorted(starts):
            e = f"s{len(bottom)}"
            cur[d] = len(bottom)
            bottom.append(v)
            top.append("")
            reps[e] = ([s + 1], [lo])
            name(d, s + 1, e)

    edges = [(f"s{j}", u, v, level[v] - level[u]) for j, (u, v) in enumerate(zip(bottom, top))]
    base = num[("v", model.p_vertex)]
    return SmoothedGraph(level, _at(names[_at(log[base], 0)], 0), eps, weakref.ref(G), model,
                         tuple(criticals), elems, num, log, names, reps, edges)


def epsilon_smoothing(G: MetricGraph, p: GraphPoint, eps: float) -> SmoothedGraph:
    """Smooth (G, p) at scale eps: a finite number >= 0. Every call with the
    same canonical p and float(eps) returns the same shared smoothing."""
    return _sweep(G, p, eps)


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
    # a point of a model element snaps no lower than the element's first
    # slot and no higher than its last, so the lookup cannot miss
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


def smoothed_distance(S: SmoothedGraph, x: GraphPoint, y: GraphPoint) -> float:
    """Shortest-path distance between two classes of the smoothing."""
    return distance(S.graph, x, y)


def betti_after_smoothing(G: MetricGraph, p: GraphPoint, eps: float) -> int:
    """First Betti number of the smoothing of (G, p) at scale eps, read
    from the sweep without building S as a graph: S is connected, so it is
    (S edges) - (S vertices) + 1."""
    S = _sweep(G, p, eps)
    return len(S._edges) - len(S.level) + 1


def quotient_correspondence(G: MetricGraph, S: SmoothedGraph, mesh: float) -> Correspondence:
    """Correspondence between nets of G and of its smoothing S, pairing each
    source net point with its class and each smoothed net point with a
    representative column. Errors on mismatched provenance."""
    if S._source() is not G:
        raise ValueError("mismatched provenance: the smoothing was not built from this graph")
    check_positive("mesh", mesh)
    net_g = epsilon_net(G, mesh)
    net_s = epsilon_net(S.graph, mesh)
    left = list(net_g) + [_represent(S, q) for q in net_s]
    right = [_locate(S, x) for x in net_g] + list(net_s)
    DX = finite_metric(G, left)
    DY = finite_metric(S.graph, right)
    pairs = tuple((i, i) for i in range(len(left)))
    return Correspondence(left=tuple(left), right=tuple(right),
                          DX=DX, DY=DY, pairs=pairs)
