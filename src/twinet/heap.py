"""glibc's heap controls, loaded once; each call is a no-op off glibc."""

from __future__ import annotations

import ctypes

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, malloc.h

try:
    _libc = ctypes.CDLL(None)
    _malloc_trim, _mallopt = _libc.malloc_trim, _libc.mallopt
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = _mallopt = None
else:
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    _mallopt.argtypes, _mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int


def release_free_heap() -> None:
    """Hand the free pages of every malloc arena back to the OS, wherever a
    free block lies (``malloc_trim(0)``)."""
    if _malloc_trim is not None:
        _malloc_trim(0)


def keep_freed_heap(nbytes: int) -> None:
    """Serve every block of up to ``nbytes`` from the heap, not from a
    mapping of its own, and hand no free heap top of up to ``nbytes`` back to
    the OS (``M_MMAP_THRESHOLD`` and ``M_TRIM_THRESHOLD``). A block allocated
    and freed per message then reuses heap pages that are already faulted in.
    glibc takes an mmap threshold of at most 32 MiB on 64-bit hosts."""
    if _mallopt is not None:
        _mallopt(_M_MMAP_THRESHOLD, nbytes)
        _mallopt(_M_TRIM_THRESHOLD, nbytes)
