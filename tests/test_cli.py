"""Tests for the repro-optimize CLI."""

import json

import pytest

from repro.cli import main
from repro.io import save_query
from repro.workload.generator import generate_query


class TestGeneratedQueries:
    def test_text_output(self, capsys):
        assert main(["--family", "chain", "--relations", "5", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        # GOO's bound leaves this query nothing to prune: the Haas route
        # serves it with DPccp, and the label names what ran.
        assert "DPccp" in output
        assert "cost" in output
        assert "Scan" in output

    def test_json_output(self, capsys):
        assert main(
            ["--family", "cycle", "--relations", "5", "--seed", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        # A 5-cycle has 21 connected sets, under HAAS_CSG_CAP: the Haas
        # route serves it with DPccp, and the label names what ran.
        assert payload["algorithm"] == "DPccp"
        assert payload["cost"] > 0
        assert "plan" in payload and "stats" in payload

    def test_verification_flag(self, capsys):
        assert main(
            [
                "--family", "acyclic", "--relations", "6", "--seed", "3",
                "--verify", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified_against_dpccp"] is True

    @pytest.mark.parametrize("pruning", ["none", "apcb", "apcbi_opt"])
    def test_pruning_choices(self, capsys, pruning):
        assert main(
            [
                "--family", "chain", "--relations", "5", "--seed", "4",
                "--pruning", pruning,
            ]
        ) == 0

    @pytest.mark.parametrize("heuristic", ["quickpick", "ikkbz"])
    def test_heuristic_choices(self, capsys, heuristic):
        assert main(
            [
                "--family", "cyclic", "--relations", "6", "--seed", "5",
                "--heuristic", heuristic, "--verify",
            ]
        ) == 0


class TestRoutingLabels:
    """The printed algorithm is the one that ran, on every CLI path."""

    ARGV = ["--family", "clique", "--relations", "6", "--seed", "1", "--json"]

    @pytest.mark.parametrize("path", [[], ["--resilient"], ["--via-service"]])
    def test_a_routed_query_is_labelled_dpccp(self, capsys, path):
        assert main(self.ARGV + path) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"].startswith("DPccp")


class TestQueryDocuments:
    def test_optimizes_a_document(self, tmp_path, capsys):
        query = generate_query("cyclic", 6, seed=11)
        path = tmp_path / "query.json"
        save_query(query, path)
        assert main(["--query", str(path), "--verify"]) == 0
        assert "verified against DPccp: OK" in capsys.readouterr().out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["--query", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_document_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"relations": [], "joins": []}))
        assert main(["--query", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestViaService:
    def test_text_output_reports_serving_metadata(self, capsys):
        assert main(
            [
                "--family", "chain", "--relations", "5", "--seed", "1",
                "--via-service",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "[via service]" in output
        assert "service    :" in output
        assert "retries" in output

    def test_json_output_carries_service_section(self, capsys):
        assert main(
            [
                "--family", "cycle", "--relations", "5", "--seed", "2",
                "--via-service", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["service"]["attempts"] == 1
        assert payload["service"]["retries"] == 0
        assert payload["cost"] > 0

    def test_service_plan_matches_direct_run(self, capsys):
        argv = ["--family", "acyclic", "--relations", "6", "--seed", "9", "--json"]
        assert main(argv) == 0
        direct = json.loads(capsys.readouterr().out)
        assert main(argv + ["--via-service"]) == 0
        served = json.loads(capsys.readouterr().out)
        assert served["plan"] == direct["plan"]
        got = repr(served["cost"])
        want = repr(direct["cost"])
        assert got == want

    def test_deadline_flows_through_the_service(self, capsys):
        assert main(
            [
                "--family", "chain", "--relations", "5", "--seed", "1",
                "--via-service", "--deadline-ms", "60000",
            ]
        ) == 0
        assert "[via service]" in capsys.readouterr().out

    def test_sharded_service_matches_direct_run(self, capsys):
        argv = ["--family", "star", "--relations", "5", "--seed", "4", "--json"]
        assert main(argv) == 0
        direct = json.loads(capsys.readouterr().out)
        assert main(argv + ["--via-service", "--shards", "2"]) == 0
        served = json.loads(capsys.readouterr().out)
        assert served["plan"] == direct["plan"]
        assert repr(served["cost"]) == repr(direct["cost"])
        assert served["service"]["shard"] in (0, 1)
