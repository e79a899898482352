import importlib

import pytest

# the package exports the function ``interval``, which hides the submodule
interval_module = importlib.import_module("bruhatcubes.interval")


@pytest.fixture
def built_intervals(monkeypatch):
    """The (u, v) of every ``Interval`` built in the test, in build order.

    Every memo of ``hcd``, ``doubles`` and ``appendix`` and the interval
    factory are cleared first, so that no result computed by an earlier test
    hides a build.
    """
    for name in ("hcd", "doubles", "appendix"):
        module = importlib.import_module(f"bruhatcubes.{name}")
        for memo in vars(module).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()
    interval_module.interval.cache_clear()
    built = []
    init = interval_module.Interval.__init__

    def counted(self, u, v):
        built.append((u, v))
        init(self, u, v)

    monkeypatch.setattr(interval_module.Interval, "__init__", counted)
    return built
