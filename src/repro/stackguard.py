"""One process-wide guard for deep Python recursion.

The interpreter, the generating extensions and emitted residual code
all recurse as deeply as the object program does, so each raises the
interpreter's recursion limit around a run.  That limit is global to
the process, and the serve daemon runs requests on several threads: a
guard that saved the limit on entry and put it back on exit would, when
two calls interleave, restore the low limit under a call that is still
running (which then dies with ``RecursionError``) and leave the raised
limit behind when the earlier call exits last.

:class:`deep_stack` instead counts the calls inside it under one lock:
the first entry saves the limit, every entry raises it to at least its
own ceiling, and only the last exit restores the saved value.
"""

import sys
import threading

__all__ = ["deep_stack"]

_LOCK = threading.Lock()
_depth = 0  # guarded calls currently running, all threads
_saved = None  # the limit before the first of them entered


class deep_stack:
    """Context manager running its body with the recursion limit at
    least ``limit`` (never lowering it)."""

    __slots__ = ("limit",)

    def __init__(self, limit=100_000):
        self.limit = limit

    def __enter__(self):
        global _depth, _saved
        with _LOCK:
            if _depth == 0:
                _saved = sys.getrecursionlimit()
            _depth += 1
            if sys.getrecursionlimit() < self.limit:
                sys.setrecursionlimit(self.limit)
        return self

    def __exit__(self, exc_type, exc, tb):
        global _depth
        with _LOCK:
            _depth -= 1
            if _depth == 0:
                sys.setrecursionlimit(_saved)
        return False
