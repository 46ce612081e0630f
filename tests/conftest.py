import threading

import pytest

from condana import condition, sampling


@pytest.fixture(params=[2, 3], ids=["2-workers", "3-workers"])
def workers(request, monkeypatch):
    """The worker count of every parallel scope the test opens, whatever
    the CPU count of the machine."""
    monkeypatch.setattr(sampling, "_cpus", lambda: request.param)
    return request.param


@pytest.fixture
def splits(monkeypatch):
    """Calls of ``_split`` from ``condition``, the one module that hands work
    to the pool; a call from a pool worker, which would submit work to its
    own pool, fails."""
    counts = {"condition": 0}
    inner = sampling._split

    def counted(*args):
        assert not threading.current_thread().name.startswith("condana")
        counts["condition"] += 1
        return inner(*args)

    monkeypatch.setattr(condition, "_split", counted)
    return counts
