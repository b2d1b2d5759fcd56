"""Every entry point that takes a level, a sample size, a method, an
edge, a spec or a seed rejects a bad one with one exception type and one message, and when
two arguments are bad, the same one wins every time.

Each entry point lists the arguments it checks in the order it checks
them; the expected error of a call is that of the first bad argument in
its list.  The messages are written out here, not read from the package.
"""

import itertools
import math

import numpy as np
import pytest

from concgraph import (
    Dataset,
    DomainError,
    InsufficientSample,
    PrecisionSpec,
    SymmetricMatrix,
    TestConfig,
    estimate_power,
    estimate_size,
    fisher_test,
    partial_correlation_test,
    random_covariance_instances,
    run_edge_test,
    select_graph,
    umpu_raw_thresholds,
    umpu_test,
    verify_equivalence,
)

DIM = 3
S = SymmetricMatrix([[2.0, 0.5, 0.3], [0.5, 2.0, 0.4], [0.3, 0.4, 2.0]])
SPEC = PrecisionSpec.identity(DIM)
# A Monte Carlo run probes the edge (0, 1), which one variable lacks.
ONE_VARIABLE = PrecisionSpec(SymmetricMatrix([[1.0]]))
GOOD = {
    "alpha": 0.05, "n": 10, "method": "partial_corr", "edge": (0, 1), "spec": SPEC, "seed": 0,
}
BAD = {
    "alpha": (0, 1, math.nan, True, "0.05", 5e-324),
    "n": (DIM, 2.0, True, np.int64(10)),
    "method": ("wald", (), ("umpu", "umpu")),
    "edge": ((1, 1), (0, DIM), (0.0, 1), (True, 1), (-1, 1), (0, np.int64(DIM))),
    "spec": (ONE_VARIABLE,),
    "seed": (-1,),
}


def _level_error(alpha):
    if alpha == 5e-324:
        return DomainError, "significance level 5e-324 is too small: alpha / 2 rounds to 0"
    return DomainError, f"significance level must lie in (0, 1), got {alpha!r}"


def _method_error(method):
    return (
        DomainError,
        f"unknown method {method!r}; expected one of ('umpu', 'partial_corr', 'fisher')",
    )


def _run_method_error(method):
    # a Monte Carlo run takes a method name or a sequence of them
    if method == ():
        return DomainError, "need at least one method"
    if method == ("umpu", "umpu"):
        return DomainError, "methods must be distinct"
    return _method_error(method)


def _edge_error(edge):
    # i is checked before j; each bad j here is an index out of range
    i, j = edge
    if type(i) is not int:
        return DomainError, f"index must be an integer, got {i!r}"
    if not 0 <= i < DIM:
        return DomainError, f"index {i} out of range for dimension {DIM}"
    if i == j:
        return DomainError, "edge indices must name an off-diagonal entry"
    return DomainError, f"index {j} out of range for dimension {DIM}"


def _spec_error(spec):
    return DomainError, "index 1 out of range for dimension 1"


def _seed_error(seed):
    return DomainError, f"seed must be a non-negative integer, got {seed!r}"


def _test_n_error(n):
    if type(n) is int:
        return InsufficientSample, f"insufficient sample: need n > N, got n = {n}, N = {DIM}"
    return DomainError, f"sample size must be an integer, got {n!r}"


def _run_n_error(n):
    return DomainError, f"sample size must be an integer > dim, got n = {n!r}, dim = {DIM}"


def _select_n_error(n):
    # a Dataset's n counts its rows, so only n <= N can be bad
    if type(n) is not int:
        return None
    return InsufficientSample, f"insufficient sample: need n > N, got n = {n}, N = {DIM}"


def _select(a):
    config = TestConfig(a["alpha"], a["method"])
    values = np.random.default_rng(1).standard_normal((a["n"], DIM))
    return select_graph(Dataset(values=values, names=("x", "y", "z")), config)


def _test_entry(test):
    return (
        lambda a: test(S, *a["edge"], a["n"], a["alpha"]),
        {"edge": _edge_error, "alpha": _level_error, "n": _test_n_error},
    )


def _run_entry(estimate):
    return (
        lambda a: estimate(a["spec"], a["n"], a["alpha"], a["method"], 1000, a["seed"]),
        {
            "method": _run_method_error,
            "spec": _spec_error,
            "alpha": _level_error,
            "n": _run_n_error,
            "seed": _seed_error,
        },
    )


# name: (call on the arguments, {argument: its error} in checking order)
ENTRIES = {
    "TestConfig": (
        lambda a: TestConfig(a["alpha"], a["method"]),
        {"alpha": _level_error, "method": _method_error},
    ),
    "umpu_test": _test_entry(umpu_test),
    "partial_correlation_test": _test_entry(partial_correlation_test),
    "fisher_test": _test_entry(fisher_test),
    "run_edge_test": (
        lambda a: run_edge_test(a["method"], S, *a["edge"], a["n"], a["alpha"]),
        {
            "method": _method_error,
            "edge": _edge_error,
            "alpha": _level_error,
            "n": _test_n_error,
        },
    ),
    "verify_equivalence": _test_entry(verify_equivalence),
    "umpu_raw_thresholds": _test_entry(umpu_raw_thresholds),
    "select_graph": (
        _select,
        {"alpha": _level_error, "method": _method_error, "n": _select_n_error},
    ),
    "estimate_size": _run_entry(estimate_size),
    "estimate_power": _run_entry(estimate_power),
}


def bad_cases():
    """Every single bad argument, and every pair of bad arguments."""
    singles = [{field: value} for field, values in BAD.items() for value in values]
    pairs = [
        {f: u, g: v}
        for f, g in itertools.combinations(BAD, 2)
        for u in BAD[f]
        for v in BAD[g]
    ]
    return singles + pairs


def expected_error(checks, case):
    for field, error_of in checks.items():
        if field in case:
            error = error_of(case[field])
            if error is not None:
                return error
    return None


def test_table_covers_singles_and_pairs():
    assert len(bad_cases()) == 21 + 171


@pytest.mark.parametrize("name", ENTRIES)
def test_bad_arguments_raise_the_first_checked_error(name):
    call, checks = ENTRIES[name]
    checked = 0
    for case in bad_cases():
        want = expected_error(checks, case)
        if want is None:
            continue
        with pytest.raises(Exception) as info:
            call(GOOD | case)
        got = type(info.value), str(info.value)
        assert got == want, case
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", ENTRIES)
def test_good_arguments_pass(name):
    call, _ = ENTRIES[name]
    call(GOOD)


def test_instance_count_is_checked_before_the_settings():
    with pytest.raises(DomainError) as info:
        next(random_covariance_instances(0, 1))
    assert str(info.value) == "instance count must be a positive integer, got 0"
