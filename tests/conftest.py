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
def empty_prime_table(monkeypatch):
    """Every test starts with an empty prime table, so a sieve test sieves
    instead of reading primes an earlier test left behind."""
    monkeypatch.setattr(pnt, "_TABLE", pnt._EMPTY_TABLE)
