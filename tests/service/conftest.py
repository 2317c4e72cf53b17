"""Shared fixtures for the service tests."""

import asyncio
import threading

import pytest


@pytest.fixture
def parked_close(monkeypatch):
    """Park every connection handler in ``StreamWriter.wait_closed``.

    A handler that answered and closed its writer then waits there, so
    a shutdown's cancel lands in that wait.  Yields an event set once a
    handler has parked.
    """
    real_wait_closed = asyncio.StreamWriter.wait_closed
    parked = threading.Event()

    async def parked_wait_closed(writer):
        parked.set()
        await asyncio.sleep(30)
        await real_wait_closed(writer)

    monkeypatch.setattr(
        asyncio.StreamWriter, "wait_closed", parked_wait_closed
    )
    yield parked
