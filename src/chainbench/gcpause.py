"""Run a call with CPython's cyclic garbage collector paused.

The harness builds millions of small acyclic objects (rows, index sets,
parsed statements, undo closures). Reference counting frees them; the cyclic
collector only rescans them, again and again, and finds almost nothing. The
entry points therefore run with it paused. The caller's state comes back when
the call returns or raises, so a paused call inside another leaves the
collector off until the outer call ends.
"""

from __future__ import annotations

import functools
import gc
from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


def collector_paused(fn: F) -> F:
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
            else:
                gc.disable()

    return paused  # type: ignore[return-value]
