"""glibc's heap policy, set once for the whole process when this module is
imported; a no-op off glibc. ``twinet.client`` imports it, so the policy is
in place before a client, a broker or a service starts a thread."""

from __future__ import annotations

import ctypes

from .mqtt import MAX_FRAME_BYTES

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # mallopt, malloc.h

try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):  # not glibc
    _mallopt = None
else:
    _mallopt.argtypes, _mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # Every block of up to two frames comes from the heap, not from a mapping
    # of its own, and no free heap top of up to that size goes back to the OS:
    # a frame-sized block allocated and freed per message then reuses pages
    # that are already faulted in. glibc takes an mmap threshold of at most
    # 32 MiB on 64-bit hosts.
    _mallopt(_M_MMAP_THRESHOLD, 2 * MAX_FRAME_BYTES)
    _mallopt(_M_TRIM_THRESHOLD, 2 * MAX_FRAME_BYTES)
    # One arena for every thread, so what one thread frees serves the next
    # allocation on any other. Set before any thread exists: glibc never moves
    # a thread off an arena it has already taken.
    _mallopt(_M_ARENA_MAX, 1)
