"""Shared test fixtures."""

import pytest


def _record(bus) -> list:
    """Install an interceptor on ``bus`` that keeps every message it passes.

    Returns the list the messages go to, in publish order. Install it
    before the traffic of interest: it sees nothing published earlier,
    and sees each message as the interceptors installed before it left it.
    """
    seen = []
    bus.add_interceptor(lambda message: seen.append(message) or message)
    return seen


@pytest.fixture
def record_traffic():
    """``record_traffic(bus)`` -> the list of messages ``bus`` carries from now on."""
    return _record
