"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main, parse_gpu_spec, parse_graph_spec
from repro.graphs import kronecker, save_npz, write_dimacs_gr, write_edge_list


class TestGraphSpecParser:
    def test_kron(self):
        g = parse_graph_spec("kron:8,4")
        assert g.num_vertices == 256

    def test_kron_default_edgefactor(self):
        g = parse_graph_spec("kron:7")
        assert g.num_vertices == 128

    def test_road(self):
        g = parse_graph_spec("road:8,6")
        assert g.num_vertices == 48

    def test_road_square_default(self):
        g = parse_graph_spec("road:8")
        assert g.num_vertices == 64

    def test_pa_and_er(self):
        assert parse_graph_spec("pa:100,3").num_vertices == 100
        assert parse_graph_spec("er:50,200").num_vertices == 50

    def test_dataset_name(self):
        g = parse_graph_spec("Amazon")
        assert g.name == "Amazon"

    def test_unknown_kind(self):
        with pytest.raises(SystemExit):
            parse_graph_spec("torus:3")

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            parse_graph_spec("does/not/exist.txt")

    def test_file_loading(self, tmp_path):
        g = kronecker(5, 3, seed=1)
        npz = tmp_path / "g.npz"
        save_npz(g, npz)
        assert parse_graph_spec(str(npz)).num_edges == g.num_edges
        gr = tmp_path / "g.gr"
        write_dimacs_gr(g, gr)
        assert parse_graph_spec(str(gr)).num_edges == g.num_edges
        txt = tmp_path / "g.txt"
        write_edge_list(g, txt)
        loaded = parse_graph_spec(str(txt))
        # edge-list files don't record isolated trailing vertices, so
        # compare the edge set size (the CLI reader symmetrizes, but the
        # file is already symmetric so dedup collapses it back)
        assert loaded.num_edges == g.num_edges

    def test_seed_changes_graph(self):
        a = parse_graph_spec("kron:7,4", seed=1)
        b = parse_graph_spec("kron:7,4", seed=2)
        assert not np.array_equal(a.adj, b.adj)


class TestGpuSpecParser:
    def test_known(self):
        s = parse_gpu_spec("t4", 1 / 64)
        assert s.num_sms == 40

    def test_unknown(self):
        with pytest.raises(SystemExit):
            parse_gpu_spec("h100", 1.0)


class TestCommands:
    def test_solve(self, capsys):
        assert main(["solve", "kron:8,4", "--method", "rdbs"]) == 0
        out = capsys.readouterr().out
        assert "validated against scipy" in out
        assert "GTEPS" in out

    def test_solve_explicit_source(self, capsys):
        assert main(["solve", "road:6,6", "--source", "0"]) == 0
        assert "source    : 0" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "kron:8,4", "--methods", "bl,rdbs"]) == 0
        out = capsys.readouterr().out
        assert "bl" in out and "rdbs" in out

    def test_compare_unknown_method(self):
        with pytest.raises(SystemExit):
            main(["compare", "kron:6,4", "--methods", "warp-drive"])

    def test_profile(self, capsys):
        assert main(["profile", "kron:8,4", "--method", "rdbs"]) == 0
        out = capsys.readouterr().out
        assert "kernels (" in out and "bottlenecks:" in out
        assert "per-primitive host time" in out

    def test_profile_json_schema(self, tmp_path, capsys):
        """The --json report's per-primitive breakdown: one entry per
        primitive family with accumulated seconds and call counts."""
        import json

        path = tmp_path / "prof.json"
        assert main(["profile", "kron:8,4", "--method", "rdbs",
                     "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert {"graph", "method", "time_ms", "primitives",
                "regions", "total_seconds"} <= set(doc)
        assert doc["method"] == "rdbs"
        prims = doc["primitives"]
        # rdbs exercises all three primitive families
        assert {"sort", "scan", "multisplit"} <= set(prims)
        for name, row in prims.items():
            assert set(row) == {"seconds", "calls"}
            assert row["seconds"] >= 0 and row["calls"] >= 1
            # the breakdown mirrors the raw region table
            assert doc["regions"][f"primitive:{name}"]["calls"] \
                == row["calls"]
        out = capsys.readouterr().out
        assert "multisplit" in out

    def test_profile_cpu_method_rejected(self):
        with pytest.raises(SystemExit, match="timeline"):
            main(["profile", "kron:6,4", "--method", "dijkstra"])

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "road-TX" in out and "stands in for" in out

    def test_list_methods(self, capsys):
        assert main(["--list-methods"]) == 0
        assert "rdbs" in capsys.readouterr().out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_delta_override(self, capsys):
        assert main(["solve", "kron:7,4", "--delta", "500"]) == 0

    def test_no_validate(self, capsys):
        assert main(["solve", "kron:7,4", "--no-validate"]) == 0
        assert "validated" not in capsys.readouterr().out

    def test_parser_builds(self):
        assert build_parser().prog == "repro"

    def test_sanitize_json_format(self, capsys):
        import json

        assert main([
            "sanitize", "kron:7,4", "--method", "rdbs", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "rdbs"
        assert payload["kernels_checked"] > 0
        assert payload["errors"] == 0
        assert isinstance(payload["findings"], list)

    def test_sanitize_json_includes_warnings_when_asked(self, capsys):
        import json

        assert main([
            "sanitize", "kron:7,4", "--method", "rdbs", "--format", "json",
            "--warnings",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["findings"]) >= payload["errors"]


class TestBench:
    @pytest.fixture()
    def tiny_quick_suite(self, monkeypatch):
        """Shrink the quick suite to one cheap cell for CLI round trips."""
        from repro.bench import suites

        monkeypatch.setitem(
            suites.SUITES,
            "quick",
            suites.SuiteSpec(
                name="quick",
                datasets=("Amazon",),
                methods=("rdbs",),
                num_sources=1,
            ),
        )

    def test_bench_run_writes_trajectory(
        self, tmp_path, tiny_quick_suite, capsys
    ):
        out = tmp_path / "BENCH_quick.json"
        assert main(["bench", "run", "--suite", "quick",
                     "--out", str(out)]) == 0
        from repro.bench import load_trajectory

        meta, records = load_trajectory(out)
        assert meta["suite"] == "quick"
        assert [r.key[:2] for r in records] == [("Amazon", "rdbs")]
        assert "wrote 1 record(s)" in capsys.readouterr().out

    def test_bench_check_round_trip_and_regression(
        self, tmp_path, tiny_quick_suite, capsys
    ):
        import json

        out = tmp_path / "BENCH_quick.json"
        assert main(["bench", "run", "--suite", "quick",
                     "--out", str(out)]) == 0
        # unchanged tree: re-running the suite matches the baseline exactly
        assert main(["bench", "check", "--baseline", str(out),
                     "--no-wall"]) == 0
        assert "clean against baseline" in capsys.readouterr().out
        # perturb one deterministic cell -> the gate must fail
        doc = json.loads(out.read_text())
        doc["records"][0]["counters"]["inst_executed_atomics"] += 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["bench", "check", "--baseline", str(out),
                     "--current", str(bad)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_check_rejects_schema_mismatch(self, tmp_path):
        import json

        bad = tmp_path / "old.json"
        bad.write_text(json.dumps({"schema_version": 999, "records": []}))
        with pytest.raises(SystemExit, match="schema_version"):
            main(["bench", "check", "--baseline", str(bad)])

    def test_bench_diff(self, tmp_path, capsys):
        from repro.bench import BenchRecord, write_trajectory

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_trajectory(
            a, [BenchRecord("g", "rdbs", time_ms=1.0)], suite="t"
        )
        write_trajectory(
            b, [BenchRecord("g", "rdbs", time_ms=2.0)], suite="t"
        )
        assert main(["bench", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "bench diff" in out
        assert "DRIFT" in out


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "validated against scipy" in out
        assert "rdbs" in out and "pq-delta*" in out
