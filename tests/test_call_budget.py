"""The Python calls of the per-decision path, counted without timers.

Until the decisions of a graph or a Monte Carlo chunk are made in one
array pass, every decision is one public edge test, and what it costs is
the Python calls around its comparison.  These tests count, with
``sys.setprofile``, the calls whose code lives in the package during one
warm call of each entry point, and hold each count at or below what the
code makes today, so the per-decision path cannot gain calls back
unnoticed.  A change that lowers a count should lower its budget.
"""

import os
import sys

import numpy as np
import pytest

import concgraph
from concgraph import (
    PrecisionSpec,
    SymmetricMatrix,
    TestConfig,
    estimate_size,
    sample_gaussian,
    select_graph,
)

PACKAGE = os.path.dirname(concgraph.__file__) + os.sep


def package_calls(call) -> int:
    """Python calls into the package during ``call()``, after one call
    that fills every cache and makes every lazy import."""
    call()
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


def chain(dim: int, n: int):
    """n draws from a unit-diagonal precision with -0.4 between neighbours."""
    k = np.eye(dim)
    idx = np.arange(dim - 1)
    k[idx, idx + 1] = k[idx + 1, idx] = -0.4
    return sample_gaussian(PrecisionSpec(SymmetricMatrix(k)), n, seed=1)


def size_run():
    estimate_size(PrecisionSpec.identity(5), 25, 0.05, "umpu", 1000, 3)


CHAIN30 = chain(30, 120)


def holm_graph():
    select_graph(CHAIN30, TestConfig(0.05), "holm")


# entry point: (call, calls it makes today); a size run makes 1000
# decisions, the N = 30 graph 435
BUDGETS = {"size_run": (size_run, 17_153), "holm_graph": (holm_graph, 6_142)}


@pytest.mark.parametrize("name", BUDGETS)
def test_calls_within_budget(name):
    call, budget = BUDGETS[name]
    assert package_calls(call) <= budget


def test_count_is_repeatable():
    assert package_calls(size_run) == package_calls(size_run)
