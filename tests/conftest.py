"""Checks that every test in this directory runs under."""

import threading

import pytest


@pytest.fixture(autouse=True)
def scatter_workers_joined():
    """Fail the test if a solve's ``ktseg-scatter`` worker thread outlives it."""
    yield
    running = []
    for thread in threading.enumerate():
        if thread.name.startswith("ktseg-scatter"):
            thread.join(timeout=10)
            if thread.is_alive():
                running.append(thread.name)
    assert not running, f"worker threads still running after the test: {running}"
