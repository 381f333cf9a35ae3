"""Seed plumbing shared by all generators."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nputil import require_int


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalise a seed argument into a :class:`numpy.random.Generator`.

    Passing an existing generator threads one RNG through composite
    generators; passing an int (or None) creates a fresh PCG64 stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def require_positive(name: str, value: int) -> None:
    """Raise ConfigurationError unless ``value`` is an integer >= 1."""
    require_int(name, value, 1)


def require_nonnegative(name: str, value: int | float) -> None:
    """Raise ConfigurationError unless ``value`` >= 0."""
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")


def require_probability(name: str, value: float, *, allow_zero: bool = True) -> None:
    """Raise ConfigurationError unless ``value`` is a probability."""
    lo_ok = value >= 0 if allow_zero else value > 0
    if not (lo_ok and value <= 1):
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
