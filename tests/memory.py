"""Memory probes for the tests that bound what a call holds."""

import gc
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


def live_instances(cls) -> int:
    """How many instances of `cls` are alive once the cyclic garbage is collected."""
    gc.collect()
    return sum(isinstance(obj, cls) for obj in gc.get_objects())
