"""Probes for the tests that bound what a call holds or how often it runs."""

import functools
import gc
import sys
import tracemalloc


def _traced(which, call, args, kwargs):
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[which]
    finally:
        tracemalloc.stop()


def traced_peak(call, *args, **kwargs):
    """`call(*args, **kwargs)`'s result and the most bytes tracemalloc saw
    allocated at once during it, as `(result, peak)`."""
    return _traced(1, call, args, kwargs)


def traced_held(call, *args, **kwargs):
    """`call(*args, **kwargs)`'s result and the bytes it allocated that
    are still allocated when it returns, what the result holds, as
    `(result, held)`."""
    return _traced(0, call, args, kwargs)


def live_instances(cls) -> int:
    """How many instances of `cls` are alive once the cyclic garbage is collected."""
    gc.collect()
    return sum(isinstance(obj, cls) for obj in gc.get_objects())


def count_calls(monkeypatch, fn) -> list[tuple]:
    """Replace `fn` at every binding of it in the loaded modules of its
    package (the defining module's and each `from ... import`'s) with a
    wrapper that records each call's positional arguments; returns the list
    they are appended to. `monkeypatch` restores the bindings."""
    calls: list[tuple] = []

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    package = fn.__module__.partition(".")[0]
    for name, module in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls
