"""Failure injection: corrupted state, hostile inputs, safety caps.

The library's contract is that invalid state fails *loudly* — either a
typed exception from a validation layer or a ConvergenceError from a
safety cap — never a hang or a silently wrong answer.
"""

import numpy as np
import pytest

import repro
from repro import engine
from repro.constants import VERTEX_DTYPE
from repro.core.compress import compress, compress_all
from repro.core.link import link, link_batch
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    GraphFormatError,
    InvariantViolationError,
)
from repro.graph.csr import CSRGraph
from repro.unionfind import ParentArray


class TestCorruptedParentArray:
    """Cycles in π (impossible under Invariant 1) must never hang:
    ``link`` walks detect them via the iteration cap; the ``compress``
    family happens to terminate anyway (pointer doubling collapses small
    cycles) — what matters is bounded behaviour either way."""

    def test_compress_all_terminates_on_cycle(self):
        pi = np.array([1, 0], dtype=VERTEX_DTYPE)
        passes = compress_all(pi)  # garbage in, bounded garbage out
        assert passes <= 2

    def test_scalar_compress_terminates_on_cycle(self):
        pi = np.array([1, 2, 0, 3], dtype=VERTEX_DTYPE)
        steps = compress(pi, 0)
        assert steps <= 4

    def test_scalar_link_detects_cycle(self):
        pi = np.array([1, 2, 0], dtype=VERTEX_DTYPE)
        with pytest.raises(ConvergenceError):
            link(pi, 0, 1)

    def test_link_batch_detects_unconverging_state(self):
        pi = np.array([1, 2, 0], dtype=VERTEX_DTYPE)
        with pytest.raises(ConvergenceError):
            link_batch(
                pi,
                np.array([0], dtype=VERTEX_DTYPE),
                np.array([1], dtype=VERTEX_DTYPE),
            )

    def test_parent_array_refuses_out_of_range(self):
        with pytest.raises(InvariantViolationError):
            ParentArray(np.array([0, 99]))


class TestHostileGraphInputs:
    def test_truncated_indptr(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 5]), np.array([0, 0]))

    def test_corrupt_npz(self, tmp_path):
        from repro.graph.io import load_npz

        path = tmp_path / "bad.npz"
        np.savez(path, indptr=np.array([0, 2]), indices=np.array([7, 8]))
        with pytest.raises(GraphFormatError):
            load_npz(path)

    def test_corrupt_metis_neighbor_ids(self, tmp_path):
        from repro.graph.io import read_metis

        path = tmp_path / "bad.graph"
        path.write_text("2 1\n9\n1\n")  # vertex 9 does not exist
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_edge_list_with_garbage_line(self, tmp_path):
        from repro.graph.io import read_edge_list

        path = tmp_path / "bad.el"
        path.write_text("0 1\nxyzzy plugh\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)


class TestConfigurationRejection:
    """Every user-tunable knob validates its domain."""

    def test_afforest_knobs(self, mixed_graph):
        with pytest.raises(ConfigurationError):
            engine.run("afforest", mixed_graph, neighbor_rounds=-2)
        with pytest.raises(ConfigurationError):
            engine.run("afforest", mixed_graph, sample_size=0)
        with pytest.raises(ConfigurationError):
            engine.run("afforest", mixed_graph, sampling="psychic")

    @pytest.fixture
    def no_phase(self, monkeypatch):
        """Fail the test if an algorithm reaches its first phase."""

        def init_labels(self, n, **kwargs):
            raise AssertionError("a phase ran before the check")

        monkeypatch.setattr(engine.VectorizedBackend, "init_labels", init_labels)

    @pytest.mark.parametrize(
        "value", [2.0, "2", None, True], ids=["float", "str", "none", "bool"]
    )
    def test_neighbor_rounds_must_be_an_integer(
        self, mixed_graph, no_phase, value
    ):
        # A float, string or None surfaced as a bare TypeError from range()
        # or a comparison; True ran one round.
        with pytest.raises(
            ConfigurationError, match="neighbor_rounds must be an integer"
        ):
            engine.run("afforest", mixed_graph, neighbor_rounds=value)

    @pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
    def test_sample_size_must_be_an_integer(self, mixed_graph, no_phase, value):
        # 2.5 surfaced as a TypeError from the probe draw, after the
        # sampling phase had run; True drew one probe.
        with pytest.raises(
            ConfigurationError, match="sample_size must be an integer"
        ):
            engine.run("afforest", mixed_graph, sample_size=value)

    def test_sample_size_zero_rejected_on_simulated(self, mixed_graph):
        # The simulated probe phase took the mode of zero probes, a bare
        # ValueError raised after the sampling phase had run.
        with pytest.raises(ConfigurationError, match="sample_size must be >= 1"):
            engine.run(
                "afforest", mixed_graph, backend="simulated", sample_size=0
            )

    def test_numpy_integer_counts_accepted(self, mixed_graph):
        result = engine.run(
            "afforest",
            mixed_graph,
            neighbor_rounds=np.int64(1),
            sample_size=np.int32(8),
        )
        assert result.neighbor_rounds == 1

    def test_machine_knobs(self):
        from repro.parallel import SimulatedMachine

        with pytest.raises(ConfigurationError):
            SimulatedMachine(-3)
        with pytest.raises(ConfigurationError):
            SimulatedMachine(2, interleave="chaotic")
        m = SimulatedMachine(2, schedule="nonsense")
        with pytest.raises(ConfigurationError):
            m.parallel_for(4, lambda ctx, item: iter(()))

    def test_distributed_knobs(self):
        from repro.distributed import SimulatedComm
        from repro.engine import DistributedBackend

        with pytest.raises(ConfigurationError):
            DistributedBackend(ranks=0)
        with pytest.raises(ConfigurationError):
            DistributedBackend(ranks=4, comm=SimulatedComm(2))

    def test_bad_partitioner_detected(self):
        from repro.engine import DistributedBackend

        with pytest.raises(ConfigurationError, match="partition"):
            DistributedBackend(ranks=3, partition="psychic")


class TestRecoveryAfterFailure:
    def test_library_usable_after_convergence_error(self):
        """A trapped ConvergenceError leaves no global state behind."""
        pi = np.array([1, 2, 0], dtype=VERTEX_DTYPE)
        with pytest.raises(ConvergenceError):
            link(pi, 0, 1)
        # Fresh computations work normally afterwards.
        g = repro.from_edge_list([(0, 1), (1, 2)])
        labels = repro.connected_components(g)
        assert len(set(labels.tolist())) == 1

    def test_scalar_link_on_fresh_state_after_corruption(self):
        pi_bad = np.array([1, 2, 0], dtype=VERTEX_DTYPE)
        with pytest.raises(ConvergenceError):
            link(pi_bad, 0, 1)
        pi_good = np.arange(3, dtype=VERTEX_DTYPE)
        assert link(pi_good, 0, 2)
