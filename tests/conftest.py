"""Shared fixtures."""
from __future__ import annotations

import re
import tracemalloc
from contextlib import contextmanager

# the node routes' first hermgauss call imports numpy.polynomial; loaded here,
# that one-time import is not counted in the tracemalloc peak of the routes
import numpy.polynomial  # noqa: F401
import pytest

from berezin import (ModelConfig, RepresentationContext, default_L,
                     schroedinger)


def _refuse_table(self):
    raise AssertionError("the coherent table was built")


@pytest.fixture
def no_table():
    """`with no_table(): ...` fails the test if anything inside it builds the
    coherent table; calls outside the block (the table oracles) still work."""
    @contextmanager
    def refused():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RepresentationContext, "coherent_table", _refuse_table)
            yield
    return refused


# (n, M, G) at which the node routes' guards are measured: each term of the
# count is the largest at one of them at least
@pytest.fixture(params=[(1, 2, 128), (1, 16, 128), (1, 16, 1024), (1, 24, 8),
                        (2, 3, 24), (2, 5, 40), (2, 10, 4), (2, 12, 16),
                        (3, 3, 10), (3, 4, 4)],
                ids=lambda c: "n%d-M%d-G%d" % c)
def guard_ctx(request):
    n, M, G = request.param
    return RepresentationContext(ModelConfig(
        n=n, lam=1.0, M=M, L=default_L(1.0, M), G=G, tol_identity=1e-6,
        tol_quadrature=0.9))


@pytest.fixture
def need_and_peak(monkeypatch):
    """`need_and_peak(call)`: the complex entries that call()'s size guard
    counts, read from the MemoryError it raises under a guard of 0, and the
    tracemalloc peak in bytes of call() with the node caches cleared."""
    def measure(call):
        with monkeypatch.context() as mp:
            mp.setattr(schroedinger, "_TABLE_LIMIT", 0)
            with pytest.raises(MemoryError) as exc:
                call()
        need = int(re.search(r"needs (\d+) complex", str(exc.value)).group(1))
        for cache in (schroedinger._hermite_nodes, schroedinger._node_table,
                      schroedinger._laguerre_coefficients,
                      schroedinger._interpolation_matrix):
            cache.cache_clear()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return need, peak
    return measure
