import threading

import pytest

from gramphase import blocks


@pytest.fixture
def started_pool():
    """A function of a worker count: start every thread of
    ``blocks._pool(workers)`` and return ``threading.active_count()``.

    The pool is kept for the process, so a call that leaves no thread of
    its own ends at that count.  Each thread waits at one barrier, so the
    barrier breaks (and the test fails) if a thread is still held by an
    earlier call."""

    def start(workers):
        barrier = threading.Barrier(workers)
        list(blocks._pool(workers).map(lambda _: barrier.wait(timeout=30), range(workers)))
        return threading.active_count()

    return start
