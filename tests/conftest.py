import faulthandler
import os
import sys
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


@pytest.fixture
def join_or_dump(pytestconfig):
    """A function of a daemon thread: start it, and fail unless it ends
    within 60 s.

    A deadlock in the pool fails the test, but its held pool threads would
    then hang the next test that needs the pool, or the process at exit,
    where ``concurrent.futures`` joins every pool thread.  So a watchdog,
    started first and stopped once the thread has ended, writes every
    thread's traceback to the terminal and ends the process 90 s after the
    start.  It is a thread of its own rather than
    ``faulthandler.dump_traceback_later``, whose timer pytest cancels
    when it reports a failure."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def dump():
        if capman is not None:  # to the terminal, not to a test's captured output
            capman.suspend_global_capture(in_=True)
        faulthandler.dump_traceback(file=sys.__stderr__, all_threads=True)
        os._exit(1)

    def join(runner):
        watchdog = threading.Timer(90, dump)
        watchdog.daemon = True
        watchdog.start()
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "deadlocked: the process ends with every traceback"
        watchdog.cancel()
        watchdog.join()

    return join
