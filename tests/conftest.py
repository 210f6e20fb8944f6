"""Shared fixtures."""
from __future__ import annotations

from contextlib import contextmanager

import pytest

from berezin import RepresentationContext


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
