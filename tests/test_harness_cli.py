import hashlib
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

from metricgraph import cli, graph_to_json_obj, save_graph
from metricgraph.cli import main
from metricgraph.harness import (
    EnsembleSpec,
    load_graph,
    random_graph,
    verify,
)

from conftest import BUDGET_SPEC, OUTSIDE_FLOAT_WINDOW, forbid_net_work


class TestRandomGraph:
    def test_deterministic(self):
        spec = EnsembleSpec(seed=5, count=10)
        for i in (0, 3, 7):
            a = random_graph(spec, i)
            b = random_graph(spec, i)
            assert graph_to_json_obj(a) == graph_to_json_obj(b)

    def test_betti_in_requested_range(self):
        spec = EnsembleSpec(seed=9, count=20, beta1_range=(1, 3))
        for i in range(20):
            G = random_graph(spec, i)
            assert 1 <= G.betti1 <= 3

    def test_trees_when_beta_zero(self):
        spec = EnsembleSpec(seed=12, count=10, beta1_range=(0, 0))
        for i in range(10):
            G = random_graph(spec, i)
            assert G.betti1 == 0
            assert len(G.edges) == len(G.vertices) - 1

    def test_euler_count(self):
        spec = EnsembleSpec(seed=15, count=30, vertex_range=(6, 6),
                            beta1_range=(3, 3))
        G = random_graph(spec, 0)
        # self-loops are split on construction, adding one vertex and one
        # edge each, so the Euler relation E = V - 1 + beta holds either way
        assert len(G.edges) == len(G.vertices) - 1 + 3

    def test_lengths_in_range(self):
        spec = EnsembleSpec(seed=21, count=5, length_range=(0.5, 2.0))
        for i in range(5):
            G = random_graph(spec, i)
            for e in G.edges:
                assert 0.25 <= e.length <= 2.0 + 1e-12


class TestEnsembleSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            EnsembleSpec(count=-1)
        with pytest.raises(ValueError, match="vertex range"):
            EnsembleSpec(vertex_range=(0, 4))
        with pytest.raises(ValueError, match="beta1"):
            EnsembleSpec(beta1_range=(3, 1))
        with pytest.raises(ValueError, match="length range"):
            EnsembleSpec(length_range=(0.0, 1.0))
        # bools and fractions once ran (count=True as one graph) or failed
        # deep inside range()
        for bad in (True, 2.5):
            with pytest.raises(ValueError, match="count"):
                EnsembleSpec(count=bad)
        with pytest.raises(ValueError, match="vertex range"):
            EnsembleSpec(vertex_range=(3, 8.5))
        with pytest.raises(ValueError, match="beta1"):
            EnsembleSpec(beta1_range=(0, 2.5))
        for bad in (1.5, True):
            with pytest.raises(ValueError, match="seed"):
                EnsembleSpec(seed=bad)
        with pytest.raises(ValueError, match="length range"):
            EnsembleSpec(length_range=(True, 2.0))

    def test_json_obj(self):
        spec = EnsembleSpec(seed=3, count=7)
        obj = spec.to_json_obj()
        assert obj["seed"] == 3
        assert obj["count"] == 7


class TestGraphIO:
    def test_round_trip(self, tmp_path, theta):
        path = tmp_path / "theta.json"
        save_graph(theta, str(path))
        back = load_graph(str(path))
        assert graph_to_json_obj(back) == graph_to_json_obj(theta)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_graph(str(path))

    def test_schema_errors(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "u": "a", "v": "b", "length": 0.0}],
        }))
        with pytest.raises(ValueError, match="length must be > 0"):
            load_graph(str(path))
        path2 = tmp_path / "disc.json"
        path2.write_text(json.dumps({
            "vertices": ["a", "b", "c"],
            "edges": [{"id": "e", "u": "a", "v": "b", "length": 1.0}],
        }))
        with pytest.raises(ValueError, match="not connected"):
            load_graph(str(path2))
        # wrong JSON types are schema errors too: ValueError in the
        # library, exit code 2 in the CLI
        for k, obj in enumerate([{"vertices": ["a"], "edges": [5]},
                                 {"vertices": 5, "edges": []},
                                 {"vertices": ["a"], "edges": {}}]):
            bad = tmp_path / f"malformed{k}.json"
            bad.write_text(json.dumps(obj))
            with pytest.raises(ValueError):
                load_graph(str(bad))
            result = CliRunner().invoke(main, ["info", "--graph", str(bad)])
            assert result.exit_code == 2, result.output

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_graph(str(tmp_path / "absent.json"))


class TestVerify:
    def test_small_ensemble_passes(self):
        spec = EnsembleSpec(seed=2, count=6)
        report = verify(spec)
        assert report.passed
        assert report.failures() == []
        assert len(report.rows) > 50

    def test_corrupt_self_test_fails(self):
        spec = EnsembleSpec(seed=2, count=2)
        report = verify(spec, corrupt=True)
        assert not report.passed
        bad = report.failures()
        assert len(bad) == 1
        assert bad[0].check == "self-test-corrupted"

    def test_tree_rows_are_tight(self):
        spec = EnsembleSpec(seed=6, count=4, beta1_range=(0, 0))
        report = verify(spec)
        assert report.passed
        rows = [r for r in report.rows
                if r.check == "tree pseudometric below distance"]
        assert rows
        for r in rows:
            assert abs(r.slack) < 1e-7

    def test_csv_deterministic(self):
        spec = EnsembleSpec(seed=4, count=3)
        a = verify(spec).to_csv()
        b = verify(spec).to_csv()
        assert a == b
        header = a.splitlines()[0]
        assert header == "check,anchor,instance,left,right,slack,pass"

    # the unit-scale reports, byte for byte, as the absolute tolerances
    # gave them less the "merge tree lca is bottleneck" rows, which could
    # not fail (recorded with numpy 2.4)
    @pytest.mark.parametrize("seed, digest", [
        (10, "a2e425ea767a91acb52040b130cdac9f7cbf4a83229976532de488f33ff4b5bc"),
        (11, "d254366d394b7bb8e2f6046be34ce347f71584ddf13d58f4ae37a2afe7df9f62"),
        (12, "f5dffbac780922a78c544370dc4d6994f7e0904fd6d02ada47afffb95dc5d1cd"),
        (13, "5b95d940950ac3326d45d007ba3920cf7e2ef3c75d68bce5644de923507afeb2"),
        (14, "05be139c5e67485f8364952addf2194e13ab1613821502be2fa890d8d5a17306"),
        (15, "e88c157ef166542c01fe7452458cd4ca9bd28dce2402f7b7607e963342b609f7"),
        (16, "0679b230510410d411c3b10650ae221efd5e2817e8d909d8671ad1b7ad56ccde"),
        (17, "95f39c028e2e96b1017fd801ecc97f1bc87eb3d9b31bf0f6dd386a0a78a111a7"),
        (18, "2e51e17f01b4a4fc3008a9baa015004e6d600d1c77bd0ff203ab5eaccadc82b2"),
        (19, "8cd9849e2827c943176c4e3695f32e05dc17f3d86cc1a0953dcdcb3007f695c1"),
        (20, "0528435da11aea9a14ea60b8e390f1ef01963e50499b1ba1530e4f2cdec95ad5"),
        (21, "15b42fba960a1abeebc551c7d1d07a261e220a9e4046e85258c974573fda0613"),
        (22, "2e083d886e3ef60f684d877cc5c184323ca757da7ef3ded1aa0319f4fdaf5cc0"),
        (23, "9ca04b5bb8db6a1de256a1241fbfc982ea2c572f0d18ed1f33f262d6077fc901"),
        (24, "41aeb570d08073b43c34a88281b07889d222dfcce7238867f974dad2c3ff1d3b"),
        (25, "f72b574306333eb2427df85157956c431523cbe52ac83fdb9cf1eafc19faf711"),
        (26, "ba2d402a68a29f73881cee970e70150f5d3565cf91d2c67687c3e3987c30ebd8"),
        (27, "3f336deed48c35ee31b7e67ad5f320ac3c0327300fb0653a0301c798d69cd8b6"),
        (28, "ccbb6db83d5ebd18480a79fad6f730ca344955b98055b5cd0c50922e9975843b"),
        (29, "ed017c954cc4e5afdd280f9356cf1464c8cd87b6146e1965a4bf48742c2901cd"),
    ])
    def test_csv_pinned(self, seed, digest):
        csv = verify(EnsembleSpec(seed=seed, count=10)).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == digest

    def test_json_obj_shape(self):
        spec = EnsembleSpec(seed=4, count=2)
        obj = verify(spec).to_json_obj()
        assert obj["passed"] is True
        assert obj["counts"]["fail"] == 0
        assert obj["rows"]
        sample = obj["rows"][0]
        for key in ("check", "anchor", "instance", "left", "right",
                    "slack", "pass"):
            assert key in sample
        assert sample["pass"] == "true"


def _write_json_graph(tmp_path, vertices, edges):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": [
        {"id": e, "u": u, "v": v, "length": length} for (e, u, v, length) in edges]}))
    return str(path)


def _write_graph(tmp_path, G, name):
    path = tmp_path / name
    save_graph(G, str(path))
    return str(path)


class TestCli:
    def test_info(self, tmp_path, theta):
        path = _write_graph(tmp_path, theta, "theta.json")
        runner = CliRunner()
        result = runner.invoke(main, ["info", "--graph", path])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["betti1"] == 2
        assert obj["total_length"] == pytest.approx(6.0)

    def test_distance(self, tmp_path, theta):
        path = _write_graph(tmp_path, theta, "theta.json")
        runner = CliRunner()
        result = runner.invoke(main, [
            "distance", "--graph", path,
            "--point", json.dumps({"vertex": "u"}),
            "--point", json.dumps({"edge": "e2", "offset": 0.5}),
        ])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["distance"] == pytest.approx(0.5)

    def test_distance_needs_two_points(self, tmp_path, theta):
        path = _write_graph(tmp_path, theta, "theta.json")
        runner = CliRunner()
        result = runner.invoke(main, [
            "distance", "--graph", path,
            "--point", json.dumps({"vertex": "u"}),
        ])
        assert result.exit_code == 2

    def test_bad_point_json(self, tmp_path, theta):
        path = _write_graph(tmp_path, theta, "theta.json")
        runner = CliRunner()
        for text in ("{oops", "{}", '"edge"', "[1]", '{"edge": 3}',
                     '{"vertex": ["u"]}'):
            result = runner.invoke(main, [
                "distance", "--graph", path,
                "--point", text, "--point", json.dumps({"vertex": "u"}),
            ])
            assert result.exit_code == 2, (text, result.output)

    @pytest.mark.parametrize("text", ['{"edge": "e3", "offset": NaN}',
                                      '{"edge": "e3", "offset": true}',
                                      '{"edge": "e3", "offset": null}',
                                      '{"edge": "e3", "offset": [1]}',
                                      '{"edge": "e3", "offset": "1"}'])
    def test_bad_point_offset(self, tmp_path, theta, text):
        path = _write_graph(tmp_path, theta, "theta.json")
        runner = CliRunner()
        for args in (["distance", "--point", text,
                      "--point", json.dumps({"vertex": "u"})],
                     ["smooth", "--basepoint", text, "--epsilon", "0.5"]):
            result = runner.invoke(main, args + ["--graph", path])
            assert result.exit_code == 2, result.output
            assert "offset" in result.output

    def test_non_finite_output_rejected(self, tmp_path):
        # every length is finite but their sum is not; the total length once
        # came out as the JSON-invalid token Infinity, with exit 0 (no graph
        # object can hold these lengths now, so the file is written by hand)
        path = _write_json_graph(tmp_path, *OUTSIDE_FLOAT_WINDOW["triangle-1e308"])
        result = CliRunner().invoke(main, ["info", "--graph", path])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""

    @pytest.mark.parametrize("args", [["info"], ["tree"], ["smooth", "--epsilon", "0.5"]],
                             ids=["info", "tree", "smooth"])
    @pytest.mark.parametrize("name", sorted(OUTSIDE_FLOAT_WINDOW))
    def test_outside_float_window(self, tmp_path, name, args):
        # tree and smooth on the triangle once ended in an AssertionError
        # from the monotone subdivision, with exit 1
        path = _write_json_graph(tmp_path, *OUTSIDE_FLOAT_WINDOW[name])
        result = CliRunner().invoke(main, args + ["--graph", path])
        assert result.exit_code == 2, result.output
        assert "float window" in result.output
        assert result.stdout == ""

    def test_missing_graph_file(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["info", "--graph",
                                      str(tmp_path / "none.json")])
        assert result.exit_code == 2

    def test_unwritable_out(self, tmp_path, theta):
        # an I/O error once left a FileNotFoundError traceback and exit 1
        path = _write_graph(tmp_path, theta, "theta.json")
        result = CliRunner().invoke(main, ["info", "--graph", path, "--out",
                                           str(tmp_path / "absent" / "x.json")])
        assert result.exit_code == 2, result.output
        assert "absent" in result.output

    def test_seq_csv(self, tmp_path, theta):
        path = _write_graph(tmp_path, theta, "theta.json")
        runner = CliRunner()
        result = runner.invoke(main, ["seq", "--graph", path,
                                      "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,a"
        assert lines[1].startswith("1,")
        assert float(lines[1].split(",")[1]) == pytest.approx(4.0 / 3.0)

    def test_csv_rejected_for_scalar_commands(self, tmp_path, theta):
        path = _write_graph(tmp_path, theta, "theta.json")
        runner = CliRunner()
        result = runner.invoke(main, ["info", "--graph", path,
                                      "--format", "csv"])
        assert result.exit_code == 2

    def test_smooth_and_tree(self, tmp_path, c12):
        path = _write_graph(tmp_path, c12, "c12.json")
        runner = CliRunner()
        result = runner.invoke(main, ["smooth", "--graph", path,
                                      "--epsilon", "6.0"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["betti1"] == 0
        result = runner.invoke(main, ["tree", "--graph", path])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        levels = [node["level"] for node in obj["nodes"]]
        assert max(levels) == pytest.approx(6.0)

    def test_hyp_and_gh(self, tmp_path, c12):
        path = _write_graph(tmp_path, c12, "c12.json")
        other = _write_graph(tmp_path, c12, "c12b.json")
        runner = CliRunner()
        result = runner.invoke(main, ["hyp", "--graph", path,
                                      "--mesh", "0.1"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert 2.9 <= obj["value"] <= 3.1
        assert obj["error"] == pytest.approx(0.4)
        result = runner.invoke(main, ["gh", "--graph", path,
                                      "--other", other])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["lower"] <= obj["upper"] + 1e-9

    def test_delta(self, tmp_path, c12_decorated):
        path = _write_graph(tmp_path, c12_decorated, "dec.json")
        runner = CliRunner()
        result = runner.invoke(main, [
            "delta", "--graph", path, "--n", "0", "--mesh", "0.1",
            "--basepoint", json.dumps({"vertex": "p"}),
        ])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["lower"] == pytest.approx(1.0)
        assert obj["upper"] == pytest.approx(3.2)

    def test_verify_passes(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "report.csv"
        result = runner.invoke(main, [
            "verify", "--seed", "2", "--count", "3",
            "--format", "csv", "--out", str(out),
        ])
        assert result.exit_code == 0
        text = out.read_text()
        assert text.startswith("check,anchor,instance,")
        assert ",false," not in text

    def test_verify_self_test_corrupt_fails(self):
        runner = CliRunner()
        result = runner.invoke(main, [
            "verify", "--seed", "2", "--count", "2", "--self-test-corrupt",
        ])
        assert result.exit_code == 1

    def test_verify_bad_count(self):
        runner = CliRunner()
        result = runner.invoke(main, ["verify", "--count", "-3"])
        assert result.exit_code == 2

    def test_barcode_cap_before_the_matrix(self, tmp_path, monkeypatch):
        # on the gh-nets 100-vertex graph mesh 0.1 gives a net of about
        # 1,400 points, past the VR cap: no distance matrix may be built
        G = random_graph(EnsembleSpec(seed=1, vertex_range=(100, 100),
                                      beta1_range=(15, 15)), 0)
        path = _write_graph(tmp_path, G, "g100.json")

        def no_matrix(*args):
            raise AssertionError("_net_metric called on a net past the VR cap")

        monkeypatch.setattr(cli, "_net_metric", no_matrix)
        result = CliRunner().invoke(main, ["barcode", "--graph", path, "--mesh", "0.1"])
        assert result.exit_code == 2, result.output
        assert "too many points for VR persistence: 14" in result.output


class TestNetBudget:
    """The commands that read a mesh-net exit 2 on one past the budget,
    before any of its points, trees or blocks is built."""

    @pytest.mark.parametrize("args", [["net"], ["barcode"], ["hyp"], ["delta", "--n", "0"]],
                             ids=lambda args: args[0])
    def test_over_budget_exits_2(self, tmp_path, monkeypatch, args):
        path = _write_graph(tmp_path, random_graph(BUDGET_SPEC, 0), "g100.json")
        forbid_net_work(monkeypatch)
        result = CliRunner().invoke(main, args + ["--graph", path, "--mesh", "0.02"])
        assert result.exit_code == 2, result.output
        assert "too many points for an epsilon-net: 6891 > 5000" in result.output
        assert result.stdout == ""

    def test_small_betti_reads_no_net(self, tmp_path, monkeypatch):
        # beta = 15 <= n: delta returns before it lays out a net
        path = _write_graph(tmp_path, random_graph(BUDGET_SPEC, 0), "g100.json")
        forbid_net_work(monkeypatch)
        result = CliRunner().invoke(main, ["delta", "--graph", path, "--n", "20",
                                           "--mesh", "0.02"])
        assert result.exit_code == 0, result.output
        assert "first betti number already small" in result.output

    def test_over_budget_delta_in_1_gib(self, tmp_path):
        # the refused net's δ call died of a MemoryError (exit 1) in a 1 GiB
        # address space; now it exits 2 in a child process with that limit
        resource = pytest.importorskip("resource")
        path = _write_graph(tmp_path, random_graph(BUDGET_SPEC, 0), "g100.json")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        code = "import sys; from metricgraph.cli import main; sys.exit(main())"
        proc = subprocess.run([sys.executable, "-c", code, "delta", "--graph", path,
                               "--n", "0", "--mesh", "0.02"],
                              capture_output=True, text=True, preexec_fn=limit,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 2, proc.stderr
        assert "6891 > 5000" in proc.stderr


@pytest.mark.parametrize("args, name", [
    (["smooth", "--epsilon", "nan"], "eps"),
    (["net", "--mesh", "nan"], "--mesh"),
    (["delta", "--n", "0", "--mesh", "nan"], "--mesh"),
])
def test_cli_nan_scale(tmp_path, theta, args, name):
    path = _write_graph(tmp_path, theta, "theta.json")
    result = CliRunner().invoke(main, args + ["--graph", path])
    assert result.exit_code == 2
    assert f"{name} must be" in result.output


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("args", [["net"], ["barcode"], ["hyp"], ["delta", "--n", "0"]],
                         ids=lambda args: args[0])
def test_cli_mesh_must_be_finite(tmp_path, theta, args, value):
    # inf once reached the JSON writer (hyp, barcode, delta) or exited 0 (net)
    path = _write_graph(tmp_path, theta, "theta.json")
    result = CliRunner().invoke(main, args + ["--graph", path, "--mesh", value])
    assert result.exit_code == 2, result.output
    assert "--mesh must be a finite number > 0" in result.output
    assert result.stdout == ""


@pytest.mark.parametrize("args", [["hyp"], ["delta", "--n", "0"]], ids=lambda args: args[0])
def test_cli_mesh_with_infinite_net_term(tmp_path, theta, args):
    # 4 * 1e308 overflows: the inf bounds once reached the JSON writer,
    # which alone refused them
    path = _write_graph(tmp_path, theta, "theta.json")
    result = CliRunner().invoke(main, args + ["--graph", path, "--mesh", "1e308"])
    assert result.exit_code == 2, result.output
    assert "mesh must be at most" in result.output
    assert "Out of range float values" not in result.output


# every command that reads a graph file, with the arguments it needs
_FUZZ_COMMANDS = (
    ["info"], ["seq"], ["tree"], ["smooth", "--epsilon", "0.5"], ["delta", "--n", "1"],
    ["hyp"], ["barcode"], ["net"],
    ["distance", "--point", '{"vertex": "a"}', "--point", '{"edge": "e0", "offset": 0.25}'],
)
_ODD_VALUES = (None, True, False, 0, 7, -1.5, "NaN", "1.0", "", [], {}, ["a"], float("nan"))
_FUZZ_LENGTHS = (1.0, 0.5, 3, 1e308, 1e-300, 5e307, float("nan"))


def _json_text(x) -> str:
    """JSON text where a tuple is an object given as (key, value) pairs, so
    that a key can occur twice (the parser keeps the last)."""
    if isinstance(x, tuple):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in x) + "}"
    if isinstance(x, list):
        return "[" + ", ".join(map(_json_text, x)) + "]"
    return json.dumps(x)


@st.composite
def odd_graph_files(draw):
    """The text of a graph file with odd fields: an empty graph, a path, a
    triangle, a theta or a disconnected graph, on lengths from 1e-300 to
    1e308 and NaN (all equal, or each its own), then up to three edits: a
    field dropped, replaced by an odd value, or given twice with an odd
    value first or last; an edge given twice; an odd vertex entry."""
    shape = draw(st.sampled_from(["empty", "path", "triangle", "theta", "disconnected"]))
    ends = {"empty": [], "path": ["ab", "bc"], "triangle": ["ab", "bc", "ca"],
            "theta": ["ab", "ab", "ab"], "disconnected": ["ab"]}[shape]
    vertices = [] if shape == "empty" else ["a", "b", "c"]
    length = st.sampled_from(_FUZZ_LENGTHS)
    same = draw(length)
    edges = [[("id", f"e{k}"), ("u", u), ("v", v),
              ("length", same if draw(st.booleans()) else draw(length))]
             for k, (u, v) in enumerate(ends)]
    top = {"vertices": vertices, "edges": edges}
    odd = st.sampled_from(_ODD_VALUES)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["drop", "odd", "twice", "twin", "vertex", "top"]))
        if edit == "twin" and edges:
            edges.append(list(draw(st.sampled_from(edges))))
        elif edit == "vertex":
            vertices.append(draw(odd))
        elif edit == "top":
            top[draw(st.sampled_from(sorted(top)))] = draw(odd)
        elif edges:
            fields = draw(st.sampled_from(edges))
            k = draw(st.integers(0, len(fields) - 1)) if fields else None
            if edit == "drop" and fields:
                del fields[k]
            elif edit == "odd" and fields:
                fields[k] = (fields[k][0], draw(odd))
            elif edit == "twice" and fields:
                extra = (fields[k][0], draw(odd))
                fields.insert(k + draw(st.integers(0, 1)), extra)
    return _json_text(tuple((key, [tuple(e) for e in value] if value is edges else value)
                            for key, value in top.items()))


class TestCliFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(odd_graph_files())
    @example('{"vertices": [], "edges": []}')
    @example('{"vertices": ["a", "b", "c"], "edges": [{"id": "e0", "u": "a", "v": "b", "length": 1}]}')
    @example(json.dumps({"vertices": ["a", "b", "c"], "edges": [
        {"id": f"e{k}", "u": u, "v": v, "length": 5e307} for k, (u, v) in enumerate(["ab", "bc", "ca"])]}))
    @example('{"vertices": [1, "1"], "edges": [{"id": "e", "u": 1, "v": "1", "length": 1.0}]}')
    @example('{"vertices": ["a", "a", "b"], "edges": [{"id": "e", "u": "a", "v": "b", "length": 1.0}]}')
    @example('{"vertices": [true, null, 1.5], "edges": [{"id": 1.5, "u": true, "v": null, "length": 1.0}]}')
    def test_odd_graph_files(self, tmp_path_factory, text):
        # bad input is a usage error (exit 2) where it enters; nothing else
        # escapes, and whatever exits 0 printed strict JSON
        path = tmp_path_factory.mktemp("fuzz") / "graph.json"
        path.write_text(text)
        for args in _FUZZ_COMMANDS:
            result = CliRunner().invoke(main, [args[0], "--graph", str(path)] + args[1:])
            assert result.exit_code in (0, 2), (args, text, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), \
                (args, text, result.exception)
            if result.exit_code == 0:
                json.loads(result.stdout)

    @pytest.mark.parametrize("args", _FUZZ_COMMANDS, ids=lambda args: args[0])
    def test_triangle_5e307_every_command(self, tmp_path, args):
        # its total length is finite, but nets and sums of two distances
        # once overflowed deep inside the commands, with other messages
        path = _write_json_graph(tmp_path, *OUTSIDE_FLOAT_WINDOW["triangle-5e307"])
        result = CliRunner().invoke(main, [args[0], "--graph", path] + args[1:])
        assert result.exit_code == 2, result.output
        assert "outside the float window" in result.output
        assert result.stdout == ""
