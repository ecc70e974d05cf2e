"""Benchmark configuration.

Every benchmark regenerates one table/figure of the paper at the scale
given by ``$REPRO_SCALE`` (default: ``small``) and shares one on-disk
training cache (``$REPRO_CACHE``, default ``.repro_cache``): the first
benchmark that needs a model trains it, later ones load it.  Run with

    pytest benchmarks/ --benchmark-only -s

(-s shows the regenerated tables).  The benchmarks run at the 'small'
scale.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import Workspace, get_scale


@pytest.fixture(scope="session")
def scale():
    return get_scale(os.environ.get("REPRO_SCALE"))


@pytest.fixture(scope="session")
def workspace():
    return Workspace(os.environ.get("REPRO_CACHE", ".repro_cache"))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
