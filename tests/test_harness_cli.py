import json

import pytest
from click.testing import CliRunner

from metricgraph import graph_to_json_obj, save_graph
from metricgraph.cli import main
from metricgraph.harness import (
    EnsembleSpec,
    load_graph,
    random_graph,
    verify,
)


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
        result = runner.invoke(main, [
            "distance", "--graph", path,
            "--point", "{oops", "--point", "{}",
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text", ['{"edge": "e3", "offset": NaN}',
                                      '{"edge": "e3", "offset": true}'])
    def test_bad_point_offset(self, tmp_path, theta, text):
        path = _write_graph(tmp_path, theta, "theta.json")
        runner = CliRunner()
        result = runner.invoke(main, [
            "distance", "--graph", path,
            "--point", text, "--point", json.dumps({"vertex": "u"}),
        ])
        assert result.exit_code == 2
        assert "offset" in result.output

    def test_missing_graph_file(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["info", "--graph",
                                      str(tmp_path / "none.json")])
        assert result.exit_code == 2

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
                                      "--other", other, "--mesh", "0.2"])
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


@pytest.mark.parametrize("args, name", [
    (["smooth", "--epsilon", "nan"], "eps"),
    (["net", "--mesh", "nan"], "--mesh"),
    (["delta", "--n", "0", "--mesh", "nan"], "--mesh"),
    (["verify", "--count", "1", "--mesh", "nan"], "--mesh"),
    (["gh", "--mesh", "nan"], "mesh"),
    (["gh", "--mesh", "0"], "mesh"),
    (["gh", "--mesh", "-1"], "mesh"),
])
def test_cli_nan_scale(tmp_path, theta, args, name):
    path = _write_graph(tmp_path, theta, "theta.json")
    graph = [] if args[0] == "verify" else ["--graph", path]
    if args[0] == "gh":
        graph += ["--other", path]
    result = CliRunner().invoke(main, args + graph)
    assert result.exit_code == 2
    assert f"{name} must be" in result.output
