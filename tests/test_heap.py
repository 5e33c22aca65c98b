import os
import subprocess
import sys

import pytest

import twinet
from twinet import heap

# Allocates, fills and frees a 24 MiB block twice on the main thread and once
# more on a new thread, and prints the minor page faults of each round. With
# argv[1] == "pin" it first imports twinet.heap, which sets the heap policy.
_ROUNDS = """
import resource, sys, threading
if sys.argv[1] == "pin":
    import twinet.heap

def round_faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    block = bytearray(24 << 20)  # zero-filled, so every page is touched
    del block
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

round_faults()
round_faults()
thread = threading.Thread(target=round_faults)
thread.start()
thread.join()
"""

BLOCK_PAGES = (24 << 20) // os.sysconf("SC_PAGE_SIZE")


def _round_faults(mode: str) -> list[int]:
    # a fresh interpreter: this one imported twinet.heap, so it is pinned
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(twinet.__file__))}
    out = subprocess.run([sys.executable, "-c", _ROUNDS, mode], env=env,
                         capture_output=True, text=True, check=True).stdout
    return [int(line) for line in out.split()]


@pytest.mark.skipif(heap._mallopt is None, reason="needs glibc mallopt")
def test_pinned_heap_keeps_a_freed_block_faulted_in():
    first, second, on_thread = _round_faults("pin")
    assert first >= BLOCK_PAGES * 9 // 10
    assert second < BLOCK_PAGES // 10
    # one arena: a new thread reuses the pages the main thread freed
    assert on_thread < BLOCK_PAGES // 10
    # the control: unpinned, glibc maps the first block and unmaps it on
    # free, and the second one comes from heap pages that are new. A new
    # thread's round is not steady there, so it is not checked.
    first, second, _ = _round_faults("plain")
    assert first >= BLOCK_PAGES * 9 // 10 and second >= BLOCK_PAGES * 9 // 10
