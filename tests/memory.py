"""Peak traced memory of one call, for the tests that bound it."""

import tracemalloc


def traced_peak(call, *args, **kwargs):
    """`call(*args, **kwargs)`'s result and the most bytes tracemalloc saw
    allocated at once during it, as `(result, peak)`."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
