import pytest

from ncal.nn import parallel


@pytest.fixture
def split_calls(monkeypatch):
    """Counts the calls of parallel.on_both_cores, through the module
    attribute that the pullback and adam_step look it up by; each call is
    recorded as the length of its first (fn, *args) tuple, so that the count
    keeps no stage alive."""
    counted = []
    both = parallel.on_both_cores

    def counting(first, second):
        counted.append(len(first))
        return both(first, second)

    monkeypatch.setattr(parallel, "on_both_cores", counting)
    return counted
