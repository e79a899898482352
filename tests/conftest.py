import gc
import importlib
import os

import pytest
from hypothesis import Phase, settings

# the package exports the function ``interval``, which hides the submodule
interval_module = importlib.import_module("bruhatcubes.interval")

# BRUHAT_TEST_PROFILE=no-shrink reports a failing property test with the
# example that first failed, without shrinking it: a shrink through the
# brute-force oracles can run for many minutes
settings.register_profile(
    "no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target]
)
if os.environ.get("BRUHAT_TEST_PROFILE"):
    settings.load_profile(os.environ["BRUHAT_TEST_PROFILE"])


def _clear_memos() -> None:
    """Clear every memo of ``hcd``, ``doubles`` and ``appendix``, the
    interval factory and the per-bottom memos of every rank index built."""
    for name in ("hcd", "doubles", "appendix"):
        module = importlib.import_module(f"bruhatcubes.{name}")
        for memo in vars(module).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()
    interval_module.interval.cache_clear()
    for obj in gc.get_objects():
        if isinstance(obj, interval_module.RankIndex):
            obj.memos.clear()


@pytest.fixture
def clear_memos():
    """The function that clears every memo of ``hcd``, ``doubles`` and
    ``appendix``, the interval factory and the per-bottom memos."""
    return _clear_memos


@pytest.fixture
def built_intervals(monkeypatch):
    """The (u, v) of every ``Interval`` built in the test, in build order.

    Every memo of ``hcd``, ``doubles`` and ``appendix``, the interval
    factory and the per-bottom memos are cleared first, so that no result
    computed by an earlier test hides a build.
    """
    _clear_memos()
    built = []
    init = interval_module.Interval.__init__

    def counted(self, u, v):
        built.append((u, v))
        init(self, u, v)

    monkeypatch.setattr(interval_module.Interval, "__init__", counted)
    return built
