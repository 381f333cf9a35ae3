"""Tests for algorithm-name resolution: the name table and ``sequential``."""

import pytest

from repro import engine
from repro.engine.traversal import DEFAULT_ALPHA
from repro.errors import ConfigurationError
from repro.generators.powerlaw import barabasi_albert_graph

EXPECTED_BUILTINS = [
    "afforest",
    "afforest-noskip",
    "bfs",
    "dobfs",
    "lp",
    "sequential",
    "sv",
]

BACKEND_KINDS = ("vectorized", "simulated", "distributed")


class TestAvailability:
    def test_all_builtins_registered(self):
        assert engine.available_algorithms() == EXPECTED_BUILTINS

    def test_names_sorted(self):
        names = engine.available_algorithms()
        assert names == sorted(names)


class TestMetadata:
    def test_afforest_supports_both_backends(self, mixed_graph):
        for kind in ("vectorized", "simulated"):
            assert engine.supports_backend("afforest", kind)
            result = engine.run("afforest", mixed_graph, backend=kind, workers=2)
            assert result.backend == kind

    def test_noskip_default_disables_skipping(self):
        assert engine.ALGORITHMS["afforest-noskip"].params == {
            "skip_largest": False
        }
        graph = barabasi_albert_graph(400, edges_per_vertex=4, seed=3)
        skip = engine.run("afforest", graph)
        noskip = engine.run("afforest-noskip", graph)
        assert skip.edges_skipped > 0
        assert noskip.edges_skipped == 0
        assert noskip.largest_label is None
        assert (noskip.labels == skip.labels).all()

    def test_fixed_params_read_only(self, mixed_graph):
        # The table and its entries are shared: editing either must not
        # change later runs.
        with pytest.raises(TypeError):
            engine.ALGORITHMS["dobfs"].params["alpha"] = 1  # type: ignore[index]
        with pytest.raises(TypeError):
            engine.ALGORITHMS["magic"] = engine.ALGORITHMS["sv"]  # type: ignore[index]
        assert engine.run("dobfs", mixed_graph).params["alpha"] == DEFAULT_ALPHA

    def test_frontier_family_supports_every_backend(self):
        for name in ("lp", "bfs", "dobfs"):
            for kind in BACKEND_KINDS:
                assert engine.supports_backend(name, kind), (name, kind)

    def test_reference_algorithms_are_vectorized_only(self, mixed_graph):
        assert engine.supports_backend("sequential", "vectorized")
        for kind in ("simulated", "distributed"):
            assert not engine.supports_backend("sequential", kind)
            with pytest.raises(ConfigurationError, match="does not support"):
                engine.run("sequential", mixed_graph, backend=kind)

    def test_fixed_params_merged_under_caller_params(self, mixed_graph):
        assert engine.run("dobfs", mixed_graph, beta=7).params == {
            "alpha": DEFAULT_ALPHA,
            "beta": 7,
        }
        assert engine.run("dobfs", mixed_graph, alpha=3, beta=7).params == {
            "alpha": 3,
            "beta": 7,
        }

    def test_pipelines_marked_instrumented(self, mixed_graph):
        # The parallel algorithms time their own phases; the sequential
        # reference reports only the whole-run ``total``.
        for name in ("afforest", "sv", "lp"):
            phases = engine.run(name, mixed_graph, profile=True).phase_seconds
            assert set(phases) - {"total"}, name
        sequential = engine.run("sequential", mixed_graph, profile=True)
        assert set(sequential.phase_seconds) == {"total"}


class TestLookup:
    def test_unknown_name_raises(self, mixed_graph):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            engine.run("magic", mixed_graph)

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigurationError, match="afforest"):
            engine.supports_backend("magic", "vectorized")

    def test_unknown_plan_phase_raises(self, mixed_graph):
        with pytest.raises(ConfigurationError, match="unknown"):
            engine.run("magic+sv", mixed_graph)
        with pytest.raises(ConfigurationError, match="unknown"):
            engine.supports_backend("magic+sv", "vectorized")

    @pytest.mark.parametrize("entry", ["engine.run", "cli"])
    @pytest.mark.parametrize(
        "name", ["auto", "distributed", "ldd+fastsv", "bfs+settle", "subgraph+sv"]
    )
    def test_removed_names_rejected(self, name, entry, mixed_graph, capsys):
        """Deleted algorithms and sampling phases fail loudly, listing
        what does resolve, rather than silently running something else."""
        if entry == "cli":
            from repro.cli import main

            assert main(["solve", "dataset:road:tiny", "-a", name]) == 1
            err = capsys.readouterr().err
        else:
            with pytest.raises(ConfigurationError) as exc_info:
                engine.run(name, mixed_graph)
            err = str(exc_info.value)
        assert "unknown algorithm" in err
        assert "available" in err
        assert "'afforest'" in err

    @pytest.mark.parametrize("entry", ["make_backend", "engine.run", "cli"])
    def test_process_backend_kind_rejected(self, entry, mixed_graph, capsys):
        kinds = ("vectorized", "simulated", "distributed")
        if entry == "cli":
            from repro.cli import main

            with pytest.raises(SystemExit) as exit_info:
                main(["solve", "dataset:road:tiny", "--backend", "process"])
            assert exit_info.value.code != 0
            err = capsys.readouterr().err
        else:
            with pytest.raises(ConfigurationError) as exc_info:
                if entry == "make_backend":
                    engine.make_backend("process")
                else:
                    engine.run("afforest", mixed_graph, backend="process")
            err = str(exc_info.value)
        assert "process" in err
        assert all(kind in err for kind in kinds)

    @pytest.mark.parametrize(
        "kind, size, message",
        [
            ("distributed", "ranks", "ranks must be >= 1, got 0"),
            ("simulated", "workers", "num_workers must be >= 1, got 0"),
        ],
    )
    def test_zero_size_rejected(self, kind, size, message, mixed_graph, capsys):
        """An explicit 0 reaches the constructor, not the default of 4."""
        from repro.cli import main

        with pytest.raises(ConfigurationError, match=message):
            engine.make_backend(kind, **{size: 0})
        with pytest.raises(ConfigurationError, match=message):
            engine.run("afforest", mixed_graph, backend=kind, **{size: 0})
        argv = ["solve", "dataset:kron:tiny", "--backend", kind, f"--{size}", "0"]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

