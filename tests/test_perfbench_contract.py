"""The benchmark in ``perfbench/`` imports and wraps twinet's public names.
Installing its tracer checks that every one of them still exists, so a
rename fails here and not only in a traced benchmark run. Sending envelopes,
building a model and detecting over frames with the tracer installed checks
that the publish, factory and detection paths still call the wrapped names,
so a traced run does not read n=0 for a layer. One step of each workload
covers the names the workloads call without the tracer."""

import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from twinet import pilotguard as pg
from twinet.broker import Broker
from twinet.link import LinkEndpoint

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def perfbench_path():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield
    finally:
        sys.path.remove(str(PERFBENCH))


def test_perfbench_imports_and_wraps_twinet(perfbench_path):
    import layers
    import workloads
    from spans import Tracer

    assert set(workloads.WORKLOADS) >= {"link-bulk", "sadr-gated",
                                        "pilot-redeploy"}
    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.uninstall()


def _traced(run) -> Counter:
    """Call ``run`` with the tracer installed; the spans recorded, by
    (name, tag)."""
    import layers
    from spans import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        run()
    finally:
        tracer.uninstall()
    return Counter((span.name, span.tag) for span in tracer.spans)


def _traced_exchange(payload: bytes) -> Counter:
    """Send ``payload`` once each way with the tracer installed; the spans
    recorded, by (name, tag)."""
    def exchange():
        with Broker(port=0) as broker, \
             LinkEndpoint("trace-real", broker.host, broker.port) as real, \
             LinkEndpoint("trace-twin", broker.host, broker.port) as twin:
            real.subscribe("bench/ping/dt2rw")
            twin.subscribe("bench/ping/rw2dt")
            for sender, receiver, topic in ((real, twin, "bench/ping/rw2dt"),
                                            (twin, real, "bench/ping/dt2rw")):
                sender.publish_envelope(topic, "BenchPing", payload)
                received = receiver.poll_envelope(timeout=5.0)
                assert received is not None and received.payload == payload

    return _traced(exchange)


def _assert_publish_path(spans: Counter, bucket: str) -> None:
    # per message: the client's publish and the broker's forward
    assert spans["mqtt.encode", bucket] >= 4
    # per message: the broker's receive and the subscriber's
    assert spans["mqtt.decode", bucket] >= 4
    assert spans["broker.route", None] >= 2
    assert spans["link.encode", bucket] == 2
    assert spans["link.decode", bucket] == 2


def test_wrapped_layers_see_the_publish_path(perfbench_path):
    _assert_publish_path(_traced_exchange(bytes(range(256)) * 40), "10kB")  # 10 240 B


@pytest.mark.parametrize("size", [
    102_400,  # read whole into the client's buffer
    300_032,  # above SPLIT_READ_BYTES: the client reads its payload apart
])
def test_wrapped_layers_see_a_100kb_publish_path(perfbench_path, size):
    _assert_publish_path(_traced_exchange(bytes(range(256)) * (size // 256)), "100kB")


def test_wrapped_layers_see_a_factory_build(perfbench_path):
    factory = pg.ModelFactoryService(types.SimpleNamespace(subscribe=lambda topic: None),
                                     n_train=300, n_test=60)
    pilots = pg.PilotConfig.for_scenario("10 MHz", 5)
    spans = _traced(lambda: factory.build_model(pilots, 5))
    # the training set's draw and the test set's
    assert spans["pilotguard.collect", None] == 2
    assert spans["pilotguard.process", None] == 1
    assert spans["pilotguard.train", None] == 1


def test_wrapped_layers_see_each_detected_frame(perfbench_path):
    pilots = pg.PilotConfig.for_scenario("10 MHz", 5)
    factory = pg.ModelFactoryService(types.SimpleNamespace(subscribe=lambda topic: None),
                                     n_train=300, n_test=60)
    station = pg.BaseStation(factory.build_model(pilots, 5)[0])
    rng = np.random.default_rng(5)
    frames = [pg.generate_frame(pilots, 1, rng) for _ in range(7)]
    spans = _traced(lambda: station.detect_loop(frames))
    assert spans["pilotguard.predict", None] == len(frames)


@pytest.mark.parametrize("name", ["mirror", "link-bulk", "sadr-gated", "pilot-redeploy"])
def test_one_step_of_each_workload_verifies(perfbench_path, name):
    # The workloads also call twinet names that the tracer does not wrap
    # (``tick_log``, ``from_actions``, ``twin_sim_for`` ...), so a deletion
    # that breaks them would otherwise fail only in a benchmark run.
    from workloads import WORKLOADS, Samples

    cls = WORKLOADS[name]
    workload, out = cls(cls.make_inputs(7), 0), Samples()
    workload.setup()
    try:
        workload.step(out)
    finally:
        workload.quiesce()
        workload.teardown()
    workload.verify(out)
    assert out.work > 0 and out.attempted > 0 and not out.failures, out.failures
