"""Self-tests for the benchmark's helpers: python3 -m pytest perfbench"""

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
from spans import Span, Tracer, self_times, size_bucket  # noqa: E402
from summary import (  # noqa: E402
    percentile,
    quartile_spread,
    samples_beyond,
    tail_name,
    tail_percentile,
)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (1000, 99),   # exactly ten beyond p99
    (999, 95),    # nine beyond p99, so fall back
    (200, 95),
    (199, 90),
    (100, 90),
    (99, None),   # not even p90 has ten beyond it
    (0, None),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10
        values = list(range(n))
        assert sum(v > percentile(values, expected) for v in values) >= 10


def test_tail_name():
    assert tail_name(99) == "p99"
    assert tail_name(99.9) == "p99.9"


def test_quartile_spread():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5)


def test_self_time_subtracts_children_once():
    spans = [
        Span(0, "root", 0, 100, -1, 1, "main", None),
        Span(1, "child", 10, 30, 0, 1, "main", None),
        Span(2, "child", 30, 50, 0, 1, "main", None),
        Span(3, "grandchild", 12, 18, 1, 1, "main", None),
        Span(4, "other", 40, 60, -1, 1, "worker", None),  # not a child of root
    ]
    own = self_times(spans)
    assert own == {0: 60, 1: 14, 2: 20, 3: 6, 4: 20}


def test_size_bucket_rounds_to_nearest_decade():
    assert [size_bucket(n) for n in (0, 70, 1_100, 13_400, 133_000, 1_333_400)] == \
        ["1B", "100B", "1kB", "10kB", "100kB", "1MB"]


def test_tracer_wraps_records_parents_and_restores():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x * 2
    ns.outer = lambda x: ns.inner(x) + 1
    ns.fails = lambda: 1 / 0
    original = ns.inner
    tracer = Tracer()
    tracer.wrap(ns, "inner", "inner", tag=lambda args, result: f"r{result}")
    tracer.wrap(ns, "outer", "outer",
                after=lambda t, args, result: t.count("outer_calls"))
    tracer.wrap(ns, "fails", "fails")
    tracer.op = 7
    assert ns.outer(3) == 7
    with pytest.raises(ZeroDivisionError):
        ns.fails()
    worker = threading.Thread(target=ns.inner, args=(1,), name="worker-1")
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    tracer.uninstall()
    assert ns.inner is original

    by_name = {s.name: s for s in tracer.spans if s.thread != "worker-1"}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent == -1
    assert by_name["inner"].tag == "r6"
    assert by_name["fails"].tag == "error"
    assert all(s.op == 7 for s in tracer.spans)
    threaded = [s for s in tracer.spans if s.thread == "worker-1"]
    assert len(threaded) == 1 and threaded[0].parent == -1
    assert tracer.counts["outer_calls"] == 1


def test_speed_track_gives_each_block_the_mean_of_its_two_samples(monkeypatch):
    speeds = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(hostspeed, "host_speed", lambda: next(speeds))
    track = hostspeed.SpeedTrack()
    track.after_step(1, 1)  # sooner than REF_EVERY_S: no sample yet
    track.after_step(2, 5, force=True)
    track.after_step(3, 6, force=True)
    assert track.step_speeds == [2.0, 2.0, 2.5]
    assert track.op_speeds == [2.0] * 5 + [2.5]
    assert track.samples == [1.0, 3.0, 2.0]
