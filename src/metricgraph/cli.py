"""Command line interface.

Every subcommand reads graphs from JSON files, writes JSON (or CSV where a
row format makes sense) to stdout or --out, and exits 0 on success, 1 when a
verification check fails, 2 on usage or I/O errors.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

import click

from .gh_bounds import delta_n_bounds, dgh_bounds, hyp_graph
from .gromov_tree import build_merge_tree
from .harness import EnsembleSpec, load_graph, verify
from .metric_graph import (
    GraphPoint,
    MetricGraph,
    diameter,
    distance,
    epsilon_net,
    finite_metric,
    point_from_json_obj,
    point_to_json_obj,
)
from .persistence import persistence_sequence, vr_h1_barcode
from .reeb_smoothing import epsilon_smoothing

_CSV_COMMANDS = ("verify", "net", "barcode", "seq")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(x) for x in obj]
    return obj


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _emit_json(obj, out: Optional[str]) -> None:
    _emit(json.dumps(_round_floats(obj), indent=2) + "\n", out)


def _graph(path: str) -> MetricGraph:
    try:
        return load_graph(path)
    except (OSError, ValueError) as exc:
        raise click.UsageError(str(exc))


def _point(G: MetricGraph, text: str) -> GraphPoint:
    try:
        pt = point_from_json_obj(json.loads(text))
        return G.canonical(pt)
    except (ValueError, KeyError) as exc:
        raise click.UsageError(f"bad point {text!r}: {exc}")


def _basepoint(G: MetricGraph, text: Optional[str]) -> GraphPoint:
    if text is None:
        return GraphPoint(vertex=G.vertices[0])
    return _point(G, text)


def _default_mesh(G: MetricGraph, mesh: Optional[float]) -> float:
    if mesh is not None:
        if not mesh > 0:
            raise click.UsageError("--mesh must be > 0")
        return mesh
    d = diameter(G)
    return 0.05 * d if d > 0 else 1.0


def _check_format(fmt: str, command: str) -> None:
    if fmt == "csv" and command not in _CSV_COMMANDS:
        raise click.UsageError(
            f"csv output is only available for: {', '.join(_CSV_COMMANDS)}")


def _csv_lines(header, rows) -> str:
    import csv as _csv
    import io
    buf = io.StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        w.writerow(r)
    return buf.getvalue()


def _f(x: float) -> str:
    return f"{float(x):.12g}"


@click.group()
def main() -> None:
    """Computations on finite metric graphs: smoothings, merge trees,
    persistence, hyperbolicity, and Gromov-Hausdorff bounds."""


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--out", type=click.Path())
def info(graph_path: str, out: Optional[str]) -> None:
    """Basic graph invariants."""
    G = _graph(graph_path)
    _emit_json({
        "vertices": len(G.vertices),
        "edges": len(G.edges),
        "betti1": G.betti1,
        "total_length": G.total_length,
        "diameter": diameter(G),
    }, out)


@main.command(name="distance")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--point", "points", multiple=True,
              help="point JSON; give exactly twice")
@click.option("--out", type=click.Path())
def distance_cmd(graph_path: str, points, out: Optional[str]) -> None:
    """Geodesic distance between two points."""
    G = _graph(graph_path)
    if len(points) != 2:
        raise click.UsageError("give exactly two --point values")
    a, b = (_point(G, t) for t in points)
    _emit_json({"distance": distance(G, a, b)}, out)


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--mesh", type=float, help="covering radius (default 0.05 x diameter)")
@click.option("--out", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def net(graph_path: str, mesh: Optional[float], out: Optional[str], fmt: str) -> None:
    """Epsilon-net of the graph."""
    _check_format(fmt, "net")
    G = _graph(graph_path)
    pts = epsilon_net(G, _default_mesh(G, mesh))
    if fmt == "csv":
        rows = []
        for pt in pts:
            if pt.vertex is not None:
                rows.append(["vertex", pt.vertex, ""])
            else:
                rows.append(["edge", pt.edge, _f(pt.offset)])
        _emit(_csv_lines(["kind", "id", "offset"], rows), out)
    else:
        _emit_json({"points": [point_to_json_obj(pt) for pt in pts]}, out)


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--mesh", type=float)
@click.option("--out", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def barcode(graph_path: str, mesh: Optional[float], out: Optional[str], fmt: str) -> None:
    """Degree-1 Vietoris-Rips barcode of a mesh-net of the graph."""
    _check_format(fmt, "barcode")
    G = _graph(graph_path)
    m = _default_mesh(G, mesh)
    try:
        D = finite_metric(G, epsilon_net(G, m))
        bc = vr_h1_barcode(D)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "csv":
        _emit(_csv_lines(["birth", "death"],
                         [[_f(b), _f(d)] for (b, d) in bc.bars]), out)
    else:
        obj = bc.to_json_obj()
        obj["mesh"] = m
        _emit_json(obj, out)


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--out", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def seq(graph_path: str, out: Optional[str], fmt: str) -> None:
    """Persistence sequence (sorted cycle lengths / 3)."""
    _check_format(fmt, "seq")
    G = _graph(graph_path)
    s = persistence_sequence(G)
    if fmt == "csv":
        _emit(_csv_lines(["n", "a"],
                         [[i + 1, _f(v)] for i, v in enumerate(s.entries)]), out)
    else:
        _emit_json(s.to_json_obj(), out)


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--basepoint", help="point JSON (default: first vertex)")
@click.option("--epsilon", type=float, required=True)
@click.option("--out", type=click.Path())
def smooth(graph_path: str, basepoint: Optional[str], epsilon: float,
           out: Optional[str]) -> None:
    """Epsilon-smoothing of the graph at a basepoint."""
    G = _graph(graph_path)
    p = _basepoint(G, basepoint)
    try:
        S = epsilon_smoothing(G, p, epsilon)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    obj = S.to_json_obj()
    obj["betti1"] = S.graph.betti1
    _emit_json(obj, out)


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--basepoint", help="point JSON (default: first vertex)")
@click.option("--out", type=click.Path())
def tree(graph_path: str, basepoint: Optional[str], out: Optional[str]) -> None:
    """Merge tree of the distance function from the basepoint."""
    G = _graph(graph_path)
    p = _basepoint(G, basepoint)
    T = build_merge_tree(G, p)
    obj = T.to_json_obj()
    obj["root"] = T.root
    _emit_json(obj, out)


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--mesh", type=float)
@click.option("--out", type=click.Path())
def hyp(graph_path: str, mesh: Optional[float], out: Optional[str]) -> None:
    """Four-point hyperbolicity of a mesh-net, with approximation error."""
    G = _graph(graph_path)
    try:
        value, err = hyp_graph(G, _default_mesh(G, mesh))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit_json({"value": value, "error": err}, out)


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--other", "other_path", required=True, type=click.Path())
@click.option("--mesh", type=float)
@click.option("--out", type=click.Path())
def gh(graph_path: str, other_path: str, mesh: Optional[float],
       out: Optional[str]) -> None:
    """Gromov-Hausdorff bounds between two graphs."""
    G = _graph(graph_path)
    H = _graph(other_path)
    try:
        rep = dgh_bounds(G, H, mesh)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit_json(rep.to_json_obj(), out)


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--basepoint", help="point JSON (default: first vertex)")
@click.option("--n", type=int, required=True)
@click.option("--mesh", type=float)
@click.option("--out", type=click.Path())
def delta(graph_path: str, basepoint: Optional[str], n: int, mesh: Optional[float],
          out: Optional[str]) -> None:
    """Bounds on the distance to graphs with first Betti number at most n."""
    G = _graph(graph_path)
    p = _basepoint(G, basepoint)
    try:
        rep = delta_n_bounds(G, n, p, _default_mesh(G, mesh))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit_json(rep.to_json_obj(), out)


@main.command(name="verify")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=100, show_default=True)
@click.option("--mesh", type=float, help="override the per-instance default")
@click.option("--out", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--self-test-corrupt", is_flag=True, default=False,
              help="append a deliberately failing row (harness self-test)")
def verify_cmd(seed: int, count: int, mesh: Optional[float], out: Optional[str],
               fmt: str, self_test_corrupt: bool) -> None:
    """Run the inequality verification suite on a seeded ensemble."""
    if count < 0:
        raise click.UsageError("--count must be >= 0")
    if mesh is not None and not mesh > 0:
        raise click.UsageError("--mesh must be > 0")
    spec = EnsembleSpec(seed=seed, count=count)
    report = verify(spec, mesh=mesh, corrupt=self_test_corrupt)
    if fmt == "csv":
        _emit(report.to_csv(), out)
    else:
        _emit_json(report.to_json_obj(), out)
    counts = report.counts
    click.echo(f"{len(report.rows)} checks: {counts['pass']} passed, "
               f"{counts['fail']} failed, {counts['skipped']} skipped", err=True)
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
