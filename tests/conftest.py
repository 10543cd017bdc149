"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc traced while it ran; tracing
    stops even if fn raises."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
