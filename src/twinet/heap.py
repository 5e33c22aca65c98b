"""glibc's heap controls, loaded once; each call is a no-op off glibc."""

from __future__ import annotations

import ctypes

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, malloc.h

try:
    _libc = ctypes.CDLL(None)
    _mallopt = _libc.mallopt
except (AttributeError, OSError, TypeError):  # not glibc
    _mallopt = None
else:
    _mallopt.argtypes, _mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int


def keep_freed_heap(nbytes: int) -> None:
    """Serve every block of up to ``nbytes`` from the heap, not from a
    mapping of its own, and hand no free heap top of up to ``nbytes`` back to
    the OS (``M_MMAP_THRESHOLD`` and ``M_TRIM_THRESHOLD``). A block allocated
    and freed per message then reuses heap pages that are already faulted in.
    glibc takes an mmap threshold of at most 32 MiB on 64-bit hosts."""
    if _mallopt is not None:
        _mallopt(_M_MMAP_THRESHOLD, nbytes)
        _mallopt(_M_TRIM_THRESHOLD, nbytes)
