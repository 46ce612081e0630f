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
    """Calls of ``_split`` from ``sampling`` and from ``condition``; a call
    from a pool worker, which would submit work to its own pool, fails."""
    counts = {"sampling": 0, "condition": 0}
    inner = sampling._split

    for module in (sampling, condition):
        name = module.__name__.rsplit(".", 1)[-1]

        def counted(*args, name=name):
            assert not threading.current_thread().name.startswith("condana")
            counts[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, "_split", counted)
    return counts
