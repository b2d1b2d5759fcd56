import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def edge_test_calls(monkeypatch):
    """Every call of a public edge test, as (method, i, j), wherever the
    package binds the test: in ``independence`` and in its ``_TESTS``
    dispatch.  A benchmark's coverage guard counts the same calls."""
    from concgraph import independence

    calls = []
    for method, test in list(independence._TESTS.items()):

        def counted(s, i, j, n, alpha, _test=test, _method=method):
            calls.append((_method, i, j))
            return _test(s, i, j, n, alpha)

        monkeypatch.setitem(independence._TESTS, method, counted)
        monkeypatch.setattr(independence, test.__name__, counted)
    return calls
