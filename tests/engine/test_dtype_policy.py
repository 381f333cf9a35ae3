"""Label-dtype narrowing policy: int32 must be a pure representation change.

The ``auto`` policy runs the parent array in ``int32`` whenever every
vertex id (including the BFS sentinel value ``n``) fits; the engine
widens labels back to :data:`~repro.constants.VERTEX_DTYPE` before
returning.  These tests pin the two guarantees that make the narrowing
safe to leave on by default: the widened labels are **bit-identical** to
a wide-policy run on every substrate, and the overflow guard falls back
to ``int64`` without ever allocating a too-narrow array.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import engine
from repro.constants import NARROW_LABEL_LIMIT, VERTEX_DTYPE
from repro.engine import make_backend, resolve_label_dtype
from repro.errors import ConfigurationError
from repro.generators import uniform_random_graph


class TestResolveLabelDtype:
    def test_auto_narrows_small_problems(self):
        assert resolve_label_dtype(10_000, "auto") == np.dtype(np.int32)

    def test_wide_policy_never_narrows(self):
        assert resolve_label_dtype(10, "wide") == np.dtype(VERTEX_DTYPE)

    def test_auto_overflow_fallback(self):
        # The sentinel value n itself must fit in int32, so anything past
        # the limit must come back wide. Pure dtype arithmetic: no
        # 2^31-element array is ever allocated.
        assert (
            resolve_label_dtype(NARROW_LABEL_LIMIT + 5, "auto")
            == np.dtype(VERTEX_DTYPE)
        )

    def test_boundary_is_inclusive(self):
        assert resolve_label_dtype(NARROW_LABEL_LIMIT, "auto") == np.dtype(
            np.int32
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="label dtype policy"):
            resolve_label_dtype(10, "narrow")

    def test_unknown_policy_rejected_at_backend_construction(self):
        with pytest.raises(ConfigurationError, match="label dtype policy"):
            make_backend("vectorized", label_dtype="int32")


def _run_both(kind: str, size: int | None, algorithm: str, graph):
    """(auto labels, wide labels) for one backend/algorithm combination;
    ``size`` is the simulated worker count or the distributed rank count."""
    out = []
    for policy in ("auto", "wide"):
        backend = make_backend(
            kind, workers=size, ranks=size, label_dtype=policy
        )
        try:
            out.append(engine.run(algorithm, graph, backend=backend).labels)
        finally:
            backend.close()
    return out


class TestBitIdentity:
    """auto (int32) runs must match wide (int64) runs bit for bit."""

    @pytest.mark.parametrize("kind", ["vectorized", "simulated"])
    @pytest.mark.parametrize("algorithm", ["afforest", "sv", "lp"])
    def test_single_process_substrates(self, kind, algorithm):
        g = uniform_random_graph(300, edge_factor=4, seed=11)
        auto, wide = _run_both(kind, 2, algorithm, g)
        assert auto.dtype == np.dtype(VERTEX_DTYPE)
        assert wide.dtype == np.dtype(VERTEX_DTYPE)
        assert np.array_equal(auto, wide)

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_distributed_backend(self, ranks):
        # The narrowed dtype also sets the exchange's wire item size;
        # every rank count must agree bit for bit.
        g = uniform_random_graph(200, edge_factor=4, seed=3)
        auto, wide = _run_both("distributed", ranks, "afforest", g)
        assert np.array_equal(auto, wide)

    def test_engine_always_returns_wide_labels(self, mixed_graph):
        for kind in ("vectorized", "simulated"):
            backend = make_backend(kind, workers=2, label_dtype="auto")
            try:
                result = engine.run("sv", mixed_graph, backend=backend)
            finally:
                backend.close()
            assert result.labels.dtype == np.dtype(VERTEX_DTYPE)

    def test_label_dtype_bits_gauge_recorded(self, mixed_graph):
        from repro.obs import Tracer

        tracer = Tracer(True)
        backend = make_backend("vectorized", label_dtype="auto")
        engine.run("sv", mixed_graph, backend=backend, trace=tracer)
        assert tracer.metrics.gauges_snapshot().get("label_dtype_bits") == 32

    def test_wide_policy_gauge_reports_64_bits(self, mixed_graph):
        from repro.obs import Tracer

        tracer = Tracer(True)
        backend = make_backend("vectorized", label_dtype="wide")
        engine.run("sv", mixed_graph, backend=backend, trace=tracer)
        assert tracer.metrics.gauges_snapshot().get("label_dtype_bits") == 64
