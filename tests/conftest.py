"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.core.instance import Instance

# Hermeticity: an ambient REPRO_CACHE_DIR would attach the persistent
# store tier to every env-following session and leak state between
# runs; tests that exercise the store opt in explicitly with
# Session(store_path=...) or monkeypatched environments.
os.environ.pop("REPRO_CACHE_DIR", None)

# Re-exported for backwards compatibility: the reference oracles now
# live in an importable regular module (tests/helpers.py).
from tests.helpers import brute_force_max_throughput, brute_force_min_busy

__all__ = ["brute_force_min_busy", "brute_force_max_throughput"]


@pytest.fixture
def session():
    """A fresh store-less Session: private LRU, no persistent tier."""
    from repro.api import Session

    with Session(store_path=None) as s:
        yield s


@pytest.fixture
def tiny_general_instance() -> Instance:
    return Instance.from_spans([(0, 4), (1, 5), (2, 8), (3, 9), (7, 12)], g=2)


@pytest.fixture
def tiny_clique_instance() -> Instance:
    return Instance.from_spans(
        [(-3, 2), (-1, 4), (-2, 1), (-5, 3), (-1, 1)], g=2
    )


@pytest.fixture
def tiny_proper_clique_instance() -> Instance:
    return Instance.from_spans(
        [(-5, 1), (-4, 2), (-3, 3), (-2, 4), (-1, 5)], g=2
    )
