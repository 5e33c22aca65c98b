import os
import subprocess
import sys

import pytest

import twinet
from twinet import heap

# Allocates, fills and frees a 24 MiB block twice, and prints the minor page
# faults of each round. With argv[1] == "pin" it first pins the heap as
# MqttClient.connect does.
_ROUNDS = """
import resource, sys
from twinet import heap
from twinet.mqtt import MAX_FRAME_BYTES
if sys.argv[1] == "pin":
    heap.keep_freed_heap(2 * MAX_FRAME_BYTES)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    block = bytearray(24 << 20)  # zero-filled, so every page is touched
    del block
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

BLOCK_PAGES = (24 << 20) // os.sysconf("SC_PAGE_SIZE")


def _round_faults(mode: str) -> list[int]:
    # a fresh interpreter: an earlier client may have pinned this one
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(twinet.__file__))}
    out = subprocess.run([sys.executable, "-c", _ROUNDS, mode], env=env,
                         capture_output=True, text=True, check=True).stdout
    return [int(line) for line in out.split()]


@pytest.mark.skipif(heap._mallopt is None, reason="needs glibc mallopt")
def test_pinned_heap_keeps_a_freed_block_faulted_in():
    first, second = _round_faults("pin")
    assert first >= BLOCK_PAGES * 9 // 10
    assert second < BLOCK_PAGES // 10
    # the control: unpinned, glibc maps the first block and unmaps it on
    # free, and the second one comes from heap pages that are new
    assert all(faults >= BLOCK_PAGES * 9 // 10 for faults in _round_faults("plain"))
