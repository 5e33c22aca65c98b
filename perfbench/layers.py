"""Which public twinet calls the traced run wraps, and the per-layer metrics
computed from the spans and counts recorded there.

Each entry of ``PER_LAYER`` names the end-to-end metric it should move in
``README.md``. Durations are medians per call; counts are totals over the
traced sessions; every ratio is reported with its numerator and denominator.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

from twinet import broker as broker_mod
from twinet import client as client_mod
from twinet import link as link_mod
from twinet import netsim
from twinet import pilotguard as pg
from twinet import sadr as sadr_mod
from twinet.mqtt import Publish, codec

from spans import Tracer, self_times, size_bucket

BUCKETS = ("100B", "1kB", "10kB", "100kB", "1MB")

# name -> (span name or None, unit, better); bucketed variants are added below.
_LAYER_SPECS = {
    "mqtt.encode_us": ("mqtt.encode", "us", "lower"),
    "mqtt.decode_us": ("mqtt.decode", "us", "lower"),
    "mqtt.packets_per_envelope": (None, "1", "lower"),
    "broker.route_ms": ("broker.route", "ms", "lower"),
    "broker.wire_bytes_per_payload_byte": (None, "1", "lower"),
    "broker.deliveries_per_publish": (None, "1", "higher"),
    "broker.stop_s": ("broker.stop", "s", "lower"),
    "client.publish_ms": ("client.publish", "ms", "lower"),
    "client.queue_wait_us": (None, "us", "lower"),
    "client.connects": (None, "count", "lower"),
    "link.encode_us": ("link.encode", "us", "lower"),
    "link.decode_us": ("link.decode", "us", "lower"),
    "link.wire_ms": (None, "ms", "lower"),
    "link.seq_gaps": (None, "count", "lower"),
    "netsim.tick_us": ("netsim.tick", "us", "lower"),
    "netsim.ticks": (None, "count", "higher"),
    "netsim.mirror_apply_us": ("netsim.mirror_apply", "us", "lower"),
    "netsim.stale_updates": (None, "count", "lower"),
    "sadr.reward_us": ("sadr.reward", "us", "lower"),
    "sadr.twin_eval_ms": ("sadr.twin_eval", "ms", "lower"),
    "sadr.deferred_ratio": (None, "1", "lower"),
    "sadr.fallback_ratio": (None, "1", "lower"),
    "sadr.unknown_results": (None, "count", "lower"),
    "pilotguard.collect_s": ("pilotguard.collect", "s", "lower"),
    "pilotguard.process_s": ("pilotguard.process", "s", "lower"),
    "pilotguard.train_s": ("pilotguard.train", "s", "lower"),
    "pilotguard.detect_us_per_frame": ("pilotguard.predict", "us", "lower"),
    "pilotguard.artifact_encode_ms": ("pilotguard.artifact_encode", "ms", "lower"),
    "pilotguard.artifact_decode_ms": ("pilotguard.artifact_decode", "ms", "lower"),
    "pilotguard.artifact_bytes": (None, "B", "lower"),
    "trace.overhead_pct": (None, "%", "lower"),
}
for _layer in ("mqtt", "link"):
    for _op in ("encode", "decode"):
        for _bucket in BUCKETS:
            _LAYER_SPECS[f"{_layer}.{_op}_us.{_bucket}"] = (f"{_layer}.{_op}", "us",
                                                            "lower")

PER_LAYER = {name: (unit, better) for name, (_, unit, better) in _LAYER_SPECS.items()}

_NS_PER_UNIT = {"us": 1e3, "ms": 1e6, "s": 1e9}


def _publish_bucket(packet) -> str | None:
    return size_bucket(len(packet.payload)) if isinstance(packet, Publish) else None


def _queue_wait(tracer: Tracer, args, item) -> None:
    if item is not None:  # (topic, payload, recv_ns) stamped by the reader thread
        tracer.sample("client.queue_wait_us", (time.time_ns() - item[2]) / 1e3)


def _wire(tracer: Tracer, args, envelope) -> None:
    if envelope is not None:
        tracer.sample("link.wire_ms", (envelope.recv_at - envelope.sent_at) / 1e3)


def _published(tracer: Tracer, args, envelope) -> None:
    tracer.count("link.envelopes_published")
    tracer.count("link.payload_bytes_published", len(envelope.payload))


def _broker_stopped(tracer: Tracer, args, result) -> None:
    for key, value in args[0].stats.items():
        tracer.count(f"broker.{key}", value)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer table measures."""
    wrap = tracer.wrap
    for module in (client_mod, broker_mod):  # where each side looks the codec up
        wrap(module, "encode_packet", "mqtt.encode",
             tag=lambda args, result: _publish_bucket(args[0]))
    wrap(codec, "decode_packet", "mqtt.decode",  # read_packet's lookup
         tag=lambda args, result: _publish_bucket(result))
    wrap(broker_mod.Broker, "route_publish", "broker.route")
    wrap(broker_mod.Broker, "stop", "broker.stop", after=_broker_stopped)
    wrap(client_mod.MqttClient, "connect", "client.connect",
         after=lambda t, args, result: t.count("client.connects"))
    wrap(client_mod.MqttClient, "publish", "client.publish")
    wrap(client_mod.MqttClient, "poll", "client.poll", after=_queue_wait)
    wrap(link_mod, "encode_envelope", "link.encode",
         tag=lambda args, result: size_bucket(len(args[0].payload)))
    wrap(link_mod, "decode_envelope", "link.decode",
         tag=lambda args, result: size_bucket(len(result.payload)))
    wrap(link_mod.LinkEndpoint, "publish_envelope", "link.publish", after=_published)
    wrap(link_mod.LinkEndpoint, "poll_envelope", "link.poll", after=_wire)
    wrap(link_mod.LinkEndpoint, "close", "link.close",
         after=lambda t, args, result: t.count("link.seq_gaps", args[0].gap_count))
    wrap(netsim.CellSim, "step_tick", "netsim.tick")
    wrap(netsim.CellSim, "apply_mirror_update", "netsim.mirror_apply",
         after=lambda t, args, delay: t.count("netsim.stale_updates", delay is None))
    wrap(sadr_mod, "per_tick_reward", "sadr.reward")
    wrap(sadr_mod, "twin_evaluate", "sadr.twin_eval")
    wrap(sadr_mod.SadrController, "on_traffic_request", "sadr.decide",
         after=lambda t, args, decision: t.count(f"sadr.decision.{decision}"))
    wrap(sadr_mod.SadrController, "on_twin_evaluation_completed", "sadr.verdict",
         after=lambda t, args, result: t.count("sadr.unknown_results", result is None))
    wrap(pg, "generate_labeled_frames", "pilotguard.collect")
    wrap(pg, "normalize_dataset", "pilotguard.process")
    wrap(pg, "train_model", "pilotguard.train")
    wrap(pg, "predict", "pilotguard.predict")
    wrap(pg, "encode_model", "pilotguard.artifact_encode",
         after=lambda t, args, blob: t.sample("pilotguard.artifact_bytes", len(blob)))
    wrap(pg, "decode_model", "pilotguard.artifact_decode")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead: tuple[float, float]) -> dict[str, dict]:
    """Every ``PER_LAYER`` metric as {value, unit, n, base}.

    ``overhead`` is (untraced, traced) work per second from the same run.
    A layer the workload never calls reports 0 with n = 0.
    """
    durations = defaultdict(list)
    for span in tracer.spans:
        durations[span.name].append(span.end_ns - span.start_ns)
        if span.tag is not None:
            durations[(span.name, span.tag)].append(span.end_ns - span.start_ns)
    counts = Counter(tracer.counts)
    counts["mqtt.encode_calls"] = len(durations["mqtt.encode"])
    counts["sadr.decisions"] = sum(v for k, v in tracer.counts.items()
                                   if k.startswith("sadr.decision."))

    def median_of(values, scale=1.0) -> tuple[float, int, str]:
        values = list(values)
        value = statistics.median(values) * scale if values else 0.0
        return value, len(values), "median per call"

    def ratio(num_key: str, den_key: str) -> tuple[float, int, str]:
        num, den = counts[num_key], counts[den_key]
        return _ratio(num, den), den, f"{num_key}={num} / {den_key}={den}"

    def total(key: str) -> tuple[float, int, str]:
        return float(counts[key]), counts[key], "total"

    untraced, traced = overhead
    derived = {
        "mqtt.packets_per_envelope": ratio("mqtt.encode_calls",
                                           "link.envelopes_published"),
        "broker.wire_bytes_per_payload_byte": ratio("broker.bytes_out",
                                                    "link.payload_bytes_published"),
        "broker.deliveries_per_publish": ratio("broker.deliveries",
                                               "broker.publishes_routed"),
        "client.queue_wait_us": median_of(tracer.samples["client.queue_wait_us"]),
        "client.connects": total("client.connects"),
        "link.wire_ms": median_of(tracer.samples["link.wire_ms"]),
        "link.seq_gaps": total("link.seq_gaps"),
        "netsim.ticks": (float(len(durations["netsim.tick"])),
                         len(durations["netsim.tick"]), "total"),
        "netsim.stale_updates": total("netsim.stale_updates"),
        "sadr.deferred_ratio": ratio(f"sadr.decision.{sadr_mod.DEFER_TO_TWIN}",
                                     "sadr.decisions"),
        "sadr.fallback_ratio": ratio(f"sadr.decision.{sadr_mod.SAFE_FALLBACK}",
                                     "sadr.decisions"),
        "sadr.unknown_results": total("sadr.unknown_results"),
        "pilotguard.artifact_bytes": median_of(tracer.samples["pilotguard.artifact_bytes"]),
        "trace.overhead_pct": (100.0 * (_ratio(untraced, traced) - 1.0) if traced else 0.0,
                               2, f"untraced {untraced:.6g}/s vs traced {traced:.6g}/s"),
    }

    out = {}
    for name, (span_name, unit, _) in _LAYER_SPECS.items():
        if span_name is None:
            value, n, base = derived[name]
        else:
            bucket = name.rsplit(".", 1)[1] if name.count(".") == 2 else None
            key = (span_name, bucket) if bucket else span_name
            value, n, base = median_of(durations[key], 1.0 / _NS_PER_UNIT[unit])
        out[name] = {"value": value, "unit": unit, "n": n, "base": base}
    return out


def span_table(tracer: Tracer) -> list[str]:
    """One line per span name: calls, median, total and self time, threads."""
    own = self_times(tracer.spans)
    rows = defaultdict(lambda: [0, [], 0, set()])
    for span in tracer.spans:
        row = rows[span.name]
        row[0] += 1
        row[1].append(span.end_ns - span.start_ns)
        row[2] += own[span.id]
        row[3].add("-".join(span.thread.split("-")[:2]))
    lines = [f"{'span':28} {'calls':>8} {'median_us':>10} {'total_ms':>10} "
             f"{'self_ms':>10}  threads"]
    for name in sorted(rows):
        calls, durs, self_ns, threads = rows[name]
        lines.append(f"{name:28} {calls:8d} {statistics.median(durs) / 1e3:10.2f} "
                     f"{sum(durs) / 1e6:10.1f} {self_ns / 1e6:10.1f}  "
                     f"{','.join(sorted(threads))}")
    return lines


# ROADMAP "Baseline (re-anchor 1)" per-size figures in us, for the cross-check.
BASELINE_US = {
    ("link.encode", "100B"): 5.9, ("link.encode", "10kB"): 53.0,
    ("link.encode", "1MB"): 5600.0,
    ("link.decode", "100B"): 6.1, ("link.decode", "10kB"): 62.0,
    ("link.decode", "1MB"): 5300.0,
    ("mqtt.encode", "100B"): 2.1, ("mqtt.encode", "10kB"): 3.7,
    ("mqtt.encode", "1MB"): 240.0,
    ("mqtt.decode", "100B"): 2.9, ("mqtt.decode", "10kB"): 3.6,
    ("mqtt.decode", "1MB"): 260.0,
}


def baseline_table(metrics: dict[str, dict]) -> list[str]:
    """Traced codec medians per size bucket beside the ROADMAP baseline."""
    lines = [f"{'codec':12} {'bucket':>6} {'traced_us':>10} {'n':>7} {'baseline_us':>12}"]
    for layer_op in ("link.encode", "link.decode", "mqtt.encode", "mqtt.decode"):
        for bucket in BUCKETS:
            metric = metrics[f"{layer_op}_us.{bucket}"]
            if metric["n"] == 0:
                continue
            base = BASELINE_US.get((layer_op, bucket))
            lines.append(f"{layer_op:12} {bucket:>6} {metric['value']:10.1f} "
                         f"{metric['n']:7d} {base if base is not None else '-':>12}")
    return lines
