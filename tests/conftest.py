import pytest
from hypothesis import HealthCheck, settings

from bclab import pnt

settings.register_profile(
    "bclab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("bclab")


@pytest.fixture(autouse=True)
def empty_window_cache(monkeypatch):
    """Every test starts with an empty prime-window cache, so a sieve test
    sieves instead of reading windows an earlier test left behind."""
    monkeypatch.setattr(pnt, "_WINDOWS",
                        pnt._WindowCache(pnt.WINDOW_CACHE_BYTES))
