"""The per-layer counts of ``perfbench/layers.py`` must stay resolvable.

A count whose function can no longer be found reports ``null`` in the
benchmark output instead of failing, so a kernel refactor that renames or
moves a counted function would silently blank its metric.  This test
loads ``layers.py`` read-only and checks every count still resolves.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(PERFBENCH)


def test_every_count_resolves(layers):
    missing = [c.name for c in layers.COUNTS
               if layers.func_key(c.module, c.qualname) is None]
    assert not missing
