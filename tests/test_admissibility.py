"""Every entry point that takes a level, a sample size, a method or an
edge rejects a bad one with one exception type and one message, and when
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
GOOD = {"alpha": 0.05, "n": 10, "method": "partial_corr", "edge": (0, 1)}
BAD = {
    "alpha": (0, 1, math.nan, True, "0.05"),
    "n": (DIM, 2.0, True),
    "method": ("wald",),
    "edge": ((1, 1), (0, DIM)),
}
S = SymmetricMatrix([[2.0, 0.5, 0.3], [0.5, 2.0, 0.4], [0.3, 0.4, 2.0]])
SPEC = PrecisionSpec.identity(DIM)


def _level_error(alpha):
    return DomainError, f"significance level must lie in (0, 1), got {alpha!r}"


def _method_error(method):
    return (
        DomainError,
        f"unknown method {method!r}; expected one of ('umpu', 'partial_corr', 'fisher')",
    )


def _edge_error(edge):
    if edge[0] == edge[1]:
        return DomainError, "edge indices must name an off-diagonal entry"
    return DomainError, f"index {edge[1]} out of range for dimension {DIM}"


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
        lambda a: estimate(SPEC, a["n"], a["alpha"], a["method"], 1000, 0, a["edge"]),
        {
            "method": _method_error,
            "edge": _edge_error,
            "alpha": _level_error,
            "n": _run_n_error,
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
    assert len(bad_cases()) == 11 + 41


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


# random_covariance_instances: bad settings, each with its error; the
# count is checked first, then dims, max_n and alphas
INSTANCE_CASES = {
    "no dims": (
        {"dims": ()},
        "dims must be non-empty integers >= 2, got ()",
    ),
    "a dim of one": (
        {"dims": (1, 3)},
        "dims must be non-empty integers >= 2, got (1, 3)",
    ),
    "max_n below the largest dim + 2": (
        {"max_n": 5},
        "max_n must be an integer >= max(dims) + 2 = 8, got 5",
    ),
    "max_n one short": (
        {"dims": (3,), "max_n": 4},
        "max_n must be an integer >= max(dims) + 2 = 5, got 4",
    ),
    "max_n a float": (
        {"max_n": 50.0},
        "max_n must be an integer >= max(dims) + 2 = 8, got 50.0",
    ),
    "no alphas": (
        {"alphas": ()},
        "alphas must be non-empty levels in (0, 1), got ()",
    ),
    "alpha above one": (
        {"alphas": (1.5,)},
        "alphas must be non-empty levels in (0, 1), got (1.5,)",
    ),
    "alpha of zero among good ones": (
        {"alphas": (0.05, 0)},
        "alphas must be non-empty levels in (0, 1), got (0.05, 0)",
    ),
    "dims before max_n and alphas": (
        {"dims": (), "max_n": 2, "alphas": ()},
        "dims must be non-empty integers >= 2, got ()",
    ),
    "max_n before alphas": (
        {"max_n": 2, "alphas": ()},
        "max_n must be an integer >= max(dims) + 2 = 8, got 2",
    ),
}


@pytest.mark.parametrize("case", INSTANCE_CASES)
def test_bad_instance_settings_raise_on_the_first_instance(case):
    settings, message = INSTANCE_CASES[case]
    instances = random_covariance_instances(3, 1, **settings)
    with pytest.raises(DomainError) as info:
        next(instances)
    assert str(info.value) == message


def test_instance_count_is_checked_before_the_settings():
    with pytest.raises(DomainError) as info:
        next(random_covariance_instances(0, 1, dims=(), max_n=2, alphas=()))
    assert str(info.value) == "instance count must be a positive integer, got 0"


def test_smallest_admissible_instance_settings():
    for s, i, j, n, alpha in random_covariance_instances(20, 1, dims=(2,), max_n=4, alphas=(0.5,)):
        assert s.dim == 2 and (i, j) == (0, 1) and n == 4 and alpha == 0.5
