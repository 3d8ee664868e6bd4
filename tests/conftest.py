import tracemalloc

import pytest


def _peak_bytes(fn) -> int:
    """The most memory that fn() allocated and held at once, in bytes, as
    tracemalloc counts it: deterministic, with no clock involved."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    """The memory gates' one measure: `peak_bytes(fn)`."""
    return _peak_bytes
