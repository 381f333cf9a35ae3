"""Tests for the run ledger (repro.obs.ledger)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.ledger import (
    LEDGER_ENV,
    RunLedger,
    RunRecord,
    env_snapshot,
    fingerprint_graph,
    record_from_result,
    resolve_ledger,
)


class TestFingerprint:
    def test_carries_sizes_and_digest(self, two_cliques):
        fp = fingerprint_graph(two_cliques)
        assert fp["vertices"] == 8
        assert fp["edges"] == two_cliques.num_directed_edges
        assert len(fp["digest"]) == 16  # blake2b(digest_size=8) hex

    def test_deterministic(self, two_cliques):
        assert fingerprint_graph(two_cliques) == fingerprint_graph(two_cliques)

    def test_distinguishes_graphs(self, two_cliques, path_graph):
        a = fingerprint_graph(two_cliques)["digest"]
        b = fingerprint_graph(path_graph)["digest"]
        assert a != b

    def test_topology_changes_digest(self, random_graph_factory):
        a = fingerprint_graph(random_graph_factory(50, 120, seed=1))
        b = fingerprint_graph(random_graph_factory(50, 120, seed=2))
        assert a["vertices"] == b["vertices"]
        assert a["digest"] != b["digest"]

    def test_duck_typed_without_arrays(self):
        class Bare:
            num_vertices = 10
            num_edges = 4

        fp = fingerprint_graph(Bare())
        assert fp["vertices"] == 10 and fp["edges"] == 4
        assert fp["digest"]


class TestEnvSnapshot:
    def test_has_the_reproducibility_facts(self):
        env = env_snapshot()
        for key in ("python", "numpy", "platform", "machine", "cpu_count"):
            assert key in env


class TestRunRecord:
    def test_dict_round_trip(self):
        rec = RunRecord(
            run_id="rdeadbeef-0001",
            timestamp=123.5,
            kind="bench",
            algorithm="sv",
            backend="process",
            workers=4,
            graph={"vertices": 10, "edges": 9, "digest": "ab"},
            seconds=0.25,
            phase_seconds={"H1": 0.1, "total": 0.25},
            counters={"rounds_skipped": 2},
            gauges={"label_dtype_bits": 32.0},
            label_dtype_bits=32,
            num_components=3,
            meta={"dataset": "lattice"},
        )
        back = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back.to_dict() == rec.to_dict()

    def test_from_dict_tolerates_missing_and_extra_keys(self):
        rec = RunRecord.from_dict({"run_id": "r1", "unknown_key": [1, 2]})
        assert rec.run_id == "r1"
        assert rec.seconds == 0.0
        assert rec.workers is None
        assert rec.counters == {}

    def test_label_prefers_dataset_then_digest(self):
        rec = RunRecord(algorithm="sv", backend="vectorized")
        rec.meta["dataset"] = "lattice-70x70"
        assert rec.label() == "sv/lattice-70x70/vectorized"
        rec.meta.clear()
        rec.graph = {"digest": "ff00"}
        assert rec.label() == "sv/ff00/vectorized"


class _FakeResult:
    """Duck-typed stand-in for CCResult."""

    algorithm = "sv"
    backend = "vectorized"
    num_components = 2
    counters = {"rounds_skipped": 1}
    phase_seconds = {"H1": 0.01, "total": 0.02}
    trace = None


class TestRecordFromResult:
    def test_builds_self_contained_record(self, two_cliques):
        rec = record_from_result(
            _FakeResult(),
            graph=two_cliques,
            kind="bench",
            seconds=0.5,
            meta={"dataset": "cliques"},
        )
        assert rec.kind == "bench"
        assert rec.run_id.startswith("r")
        assert rec.algorithm == "sv"
        assert rec.seconds == 0.5
        assert rec.graph["vertices"] == 8
        assert rec.counters == {"rounds_skipped": 1}
        assert rec.meta["dataset"] == "cliques"
        assert rec.env["python"]

    def test_seconds_defaults_to_phase_total(self):
        rec = record_from_result(_FakeResult())
        assert rec.seconds == pytest.approx(0.02)

    def test_unique_run_ids(self):
        a = record_from_result(_FakeResult())
        b = record_from_result(_FakeResult())
        assert a.run_id != b.run_id


@pytest.fixture
def ledger(tmp_path):
    return RunLedger(tmp_path / "ledger.jsonl")


def _record(run_id: str, seconds: float = 0.1) -> RunRecord:
    return RunRecord(run_id=run_id, seconds=seconds, algorithm="sv")


class TestRunLedger:
    def test_missing_file_reads_empty(self, ledger):
        assert ledger.records() == []

    def test_append_then_read(self, ledger):
        ledger.append(_record("r-aa"))
        ledger.append(_record("r-bb"))
        ids = [r.run_id for r in ledger.records()]
        assert ids == ["r-aa", "r-bb"]

    def test_append_creates_parent_dirs(self, tmp_path):
        ledger = RunLedger(tmp_path / "deep" / "nested" / "ledger.jsonl")
        ledger.append(_record("r-aa"))
        assert [r.run_id for r in ledger.records()] == ["r-aa"]

    def test_one_line_per_record(self, ledger):
        ledger.append(_record("r-aa"))
        ledger.append(_record("r-bb"))
        lines = ledger.path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["run_id"] for line in lines)

    def test_malformed_lines_are_skipped(self, ledger):
        ledger.append(_record("r-aa"))
        with open(ledger.path, "a") as fh:
            fh.write("{torn wri\n")
            fh.write("[1, 2, 3]\n")
        ledger.append(_record("r-bb"))
        assert [r.run_id for r in ledger.records()] == ["r-aa", "r-bb"]

    def test_last(self, ledger):
        for i in range(5):
            ledger.append(_record(f"r-{i}"))
        assert [r.run_id for r in ledger.last(2)] == ["r-3", "r-4"]

    def test_resolve_latest_and_negative(self, ledger):
        for i in range(3):
            ledger.append(_record(f"r-{i}"))
        assert ledger.resolve("latest").run_id == "r-2"
        assert ledger.resolve("-1").run_id == "r-2"
        assert ledger.resolve("-3").run_id == "r-0"

    def test_resolve_prefix(self, ledger):
        ledger.append(_record("rabc123"))
        ledger.append(_record("rxyz456"))
        assert ledger.resolve("rxyz").run_id == "rxyz456"

    def test_resolve_ambiguous_prefix_raises(self, ledger):
        ledger.append(_record("rab1"))
        ledger.append(_record("rab2"))
        with pytest.raises(ConfigurationError, match="ambiguous"):
            ledger.resolve("rab")

    def test_resolve_unknown_raises(self, ledger):
        ledger.append(_record("r-aa"))
        with pytest.raises(ConfigurationError, match="no ledger record"):
            ledger.resolve("nope")

    def test_resolve_out_of_range_raises(self, ledger):
        ledger.append(_record("r-aa"))
        with pytest.raises(ConfigurationError, match="only 1 record"):
            ledger.resolve("-5")

    def test_resolve_empty_ledger_raises(self, ledger):
        with pytest.raises(ConfigurationError, match="no records"):
            ledger.resolve("latest")


class TestResolveLedger:
    def test_none_without_env_is_off(self, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        assert resolve_ledger(None) is None

    def test_none_with_env_records_there(self, monkeypatch, tmp_path):
        target = tmp_path / "env-ledger.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(target))
        ledger = resolve_ledger(None)
        assert ledger is not None and ledger.path == target

    def test_false_forces_off_even_with_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "x.jsonl"))
        assert resolve_ledger(False) is None

    def test_path_and_instance(self, tmp_path):
        path = tmp_path / "a.jsonl"
        assert resolve_ledger(str(path)).path == path
        ledger = RunLedger(path)
        assert resolve_ledger(ledger) is ledger
