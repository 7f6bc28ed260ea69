"""Shared test set-up: Hypothesis profiles and the pool-hang guard.

Property tests run under the derandomized ``tier1`` profile by default:
every run draws the same examples and no example database is read or
written, so the suite passes or fails the same way each time.  The
``explore`` profile draws fresh random examples and keeps the usual
``.hypothesis/`` database; select it with
``pytest tests/property --hypothesis-profile=explore``.

Fault-injection tests drive real worker kills through a
``ProcessPoolExecutor``; a recovery bug could leave the parent blocked
in ``future.result()`` forever and stall the whole suite (and CI).
``@pytest.mark.timeout_guard(seconds)`` arms a SIGALRM that turns such
a hang into an ordinary test failure instead.
"""

from __future__ import annotations

import signal

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", parent=settings.get_profile("default"), print_blob=True)
# the --hypothesis-profile option, applied after this import, overrides it
settings.load_profile("tier1")

DEFAULT_GUARD_S = 120


@pytest.fixture(autouse=True)
def _pool_timeout_guard(request):
    """Fail (not hang) any ``timeout_guard``-marked test that stalls."""
    marker = request.node.get_closest_marker("timeout_guard")
    if marker is None:
        yield
        return
    seconds = marker.args[0] if marker.args else DEFAULT_GUARD_S

    def _alarm(signum, frame):  # pragma: no cover - only fires on a hang
        raise TimeoutError(
            f"{request.node.nodeid} exceeded its {seconds}s timeout guard "
            "(hung pool?)"
        )

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
