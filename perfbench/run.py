"""twinet benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload link-bulk --seed 1 --seconds 28 --trace 0

Runs from the root of a source checkout and imports twinet from ``src/``.
The measured time is split over ``SESSIONS`` sessions; each sets the workload
up from scratch (timed as ``setup_s``), runs closed-loop operations for its
share of the time, tears down (timed as ``teardown_s``) and then checks its
outputs. A batch of ``PROBES_PER_BATCH`` set-up probes before each session
and after the last adds to the ``setup_s`` and ``teardown_s`` medians. With
``--trace 1`` the second session runs with the layer wrappers installed and
the result holds the per-layer metrics instead; the first, untraced session
of the same run gives the tracing overhead.

A human-readable report goes to stdout first; the last line is the JSON
result. Details, and with ``--trace 1`` every span, go to ``.bench_out/``.
The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # pinned before numpy is imported

# The whole run, every thread the program starts included, stays on one CPU.
# Each message is handed from thread to thread (client, broker, reader); on a
# shared VM a hand-off that wakes another vCPU costs a wake-up whose price
# swings several-fold with the host's load, which made the figures of
# unpinned runs spread far past their bounds. Set before any thread exists,
# so every thread inherits it.
NPROC = len(os.sched_getaffinity(0))
BENCH_CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {BENCH_CPU})

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SESSIONS = 2
# Extra set-ups in a batch before each session and after the last, so that
# setup_s, a few milliseconds of thread hand-offs, is a median over samples
# taken at SESSIONS + 1 moments of the run, not at one.
PROBES_PER_BATCH = 8
PROBE_GAP_S = 0.02  # lets a probe's teardown close its sockets before the next


def _import_program():
    """Import twinet from the checkout's own ``src/``, or exit non-zero."""
    if not (SRC / "twinet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no twinet sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import twinet

    if Path(twinet.__file__).resolve().parent != SRC / "twinet":
        sys.exit(f"perfbench: imported twinet from {twinet.__file__}, not {SRC}")


_import_program()

import numpy as np  # noqa: E402

import layers  # noqa: E402
from hostspeed import REF_NOMINAL_S, SpeedTrack  # noqa: E402
from spans import Span, Tracer  # noqa: E402
from summary import percentile, tail_name, tail_percentile  # noqa: E402
from workloads import WORKLOADS, Samples  # noqa: E402

# The result's end-to-end metrics, by the workload's own operation:
#   op_p50_ms         mirror: publish_observation -> apply_mirror_update return
#                     link-bulk: a round, the sum over its six messages of
#                     publish_envelope -> poll_envelope return
#                     sadr-gated: gate send -> result (twin verdict)
#                     pilot-redeploy: a round, the sum over its three cycles
#                     of the run_redeploy_pipeline call
#   work_per_s        mirrored ticks, messages, CellSim ticks, or cycles per
#                     second: the median over steps of a step's work over
#                     its time. Preemptions of a shared VM's vCPUs, a few ms
#                     each, slow a minority of the steps, which the median
#                     leaves out; they land in nearly every window of 20 ms
#                     or more, so a rate over windows would count them.
# Both are scaled to the nominal host speed (hostspeed.py), but for
# pilot-redeploy, whose time goes to numpy arithmetic.
END_TO_END = {
    "setup_s": "s",
    "teardown_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "work_per_s": "1/s",
}

# The same figures under the names of the workload's own metric table.
WORKLOAD_NAMES = {
    "mirror": ("mirror.delay", "mirror.ticks_per_s", 1.0, "1/s"),
    "link-bulk": ("link.round", None, 1.0, None),
    "sadr-gated": ("sadr.verdict", "sadr.ticks_per_s", 1.0, "1/s"),
    "pilot-redeploy": ("pilot.round", "pilot.cycles_per_min", 60.0, "1/min"),
}
# Where an operation is a round, the latency of its parts.
PART_NAMES = {"link-bulk": "link.latency", "pilot-redeploy": "pilot.redeploy"}


def environment(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.partition("ref: ")[2]
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") \
            and ref_file.is_file() else ref
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu": BENCH_CPU,
        "loadavg_1m_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "commit": commit,
        "seed": seed,
        "transport": "loopback, broker in-process",
    }


def timed_teardown(w, teardowns: list[float]) -> None:
    t0 = time.perf_counter()
    w.teardown()
    teardowns.append(time.perf_counter() - t0)


def probe_batch(cls, inputs, first: int, setups: list[float],
                teardowns: list[float], stoppers: list[threading.Thread]) -> None:
    """Set the workload up ``PROBES_PER_BATCH`` times, timing each set-up.

    A teardown waits ~2 s today (ROADMAP item 1), so each probe, once timed
    and quiesced, is torn down and timed on a thread of its own, and the
    waits overlap. A waiting thread sleeps in ``join``; the caller joins
    every stopper before the run ends.
    """
    for k in range(first, first + PROBES_PER_BATCH):
        w = cls(inputs, SESSIONS + k)
        t0 = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t0)
        w.quiesce()
        stopper = threading.Thread(target=timed_teardown, args=(w, teardowns),
                                   name=f"probe-teardown-{k}")
        stopper.start()
        stoppers.append(stopper)
        time.sleep(PROBE_GAP_S)


def run_sessions(workload: str, seed: int, seconds: float, trace: bool):
    cls = WORKLOADS[workload]
    inputs = cls.make_inputs(seed)
    tracer = Tracer() if trace else None
    setups, teardowns, rates, speeds, stoppers = [], [], [], [], []
    plain, traced = Samples(), Samples()
    try:
        for session in range(SESSIONS + 1):
            probe_batch(cls, inputs, session * PROBES_PER_BATCH, setups, teardowns,
                        stoppers)
            if session == SESSIONS:
                break
            tracing = trace and session % 2 == 1
            rates += run_session(cls, inputs, session, seconds / SESSIONS,
                                 tracer if tracing else None, setups, teardowns,
                                 speeds, traced if tracing else plain)
    finally:
        for stopper in stoppers:
            stopper.join()
    return setups, teardowns, rates, speeds, plain, traced, tracer


def run_session(cls, inputs, session: int, share_s: float, tracer,
                setups: list[float], teardowns: list[float], speeds: list[float],
                samples: Samples) -> list[tuple[float, float]]:
    """One session, traced when ``tracer`` is given; adds its host speed
    samples to ``speeds`` and returns the untraced steps as (work per
    second, host speed) pairs."""
    out = Samples()
    w = cls(inputs, session)
    if tracer is not None:
        layers.install(tracer)
    try:
        t0 = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t0)
        step_rates = []
        start = time.perf_counter()
        track = SpeedTrack()
        try:
            while time.perf_counter() - start < share_s or not w.can_stop():
                if tracer is not None:
                    tracer.op += 1
                work, t0 = out.work, time.perf_counter()
                w.step(out)
                step_rates.append((out.work - work) / (time.perf_counter() - t0))
                track.after_step(len(step_rates), len(out.latencies_ms))
        except Exception as exc:  # a failed operation ends the session
            out.attempted += 1
            out.failures.append(f"session {session}: {type(exc).__name__}: {exc}")
        track.after_step(len(step_rates), len(out.latencies_ms), force=True)
        out.op_speeds = track.op_speeds
        speeds += track.samples
        out.busy_s = time.perf_counter() - start
        w.quiesce()
        timed_teardown(w, teardowns)
    finally:
        if tracer is not None:
            tracer.uninstall()
    w.verify(out)
    samples.add(out)
    return list(zip(step_rates, track.step_speeds)) if tracer is None else []


def end_to_end(workload, setups, teardowns, rates, speeds,
               s: Samples) -> tuple[dict, dict, list[str]]:
    """Set-up and teardown are medians over the probes and sessions,
    ``work_per_s`` over the steps, ``op_p50_ms`` over every operation; all
    untraced. ``op_p50_ms`` and ``work_per_s`` are scaled to the nominal
    host speed (``hostspeed.py``) by the speed around each step, unless the
    workload's ``scale_by_host_speed`` is off. The report adds them at
    wall-clock speed; the workload's own figures are all at wall-clock
    speed."""
    lat = s.latencies_ms
    if not WORKLOADS[workload].scale_by_host_speed:
        rates = [(rate, 1.0) for rate, _ in rates]
        s.op_speeds = [1.0] * len(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "teardown_s": statistics.median(teardowns),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": statistics.median(
            [ms * speed for ms, speed in zip(lat, s.op_speeds)]) if lat else 0.0,
        "work_per_s": statistics.median(
            rate / speed for rate, speed in rates) if rates else 0.0,
    }
    wall = {
        "op_p50_ms": statistics.median(lat) if lat else 0.0,
        "work_per_s": statistics.median(rate for rate, _ in rates) if rates else 0.0,
        "host_speed": statistics.median(speeds),
    }
    lines = [f"{name:22} {metrics[name]:12.6g} {unit:5}"
             for name, unit in END_TO_END.items()]
    lines.append(f"# at wall-clock speed, and the host speed (1 runs the "
                 f"reference in {REF_NOMINAL_S * 1e3:g} ms of CPU time)")
    lines += [f"{name:22} {wall[name]:12.6g} {unit:5}" for name, unit
              in (("op_p50_ms", "ms"), ("work_per_s", "1/s"), ("host_speed", "1"))]
    prefix, rate_name, rate_scale, rate_unit = WORKLOAD_NAMES[workload]
    q = tail_percentile(len(lat))
    named = [(f"{prefix}_p50_ms", wall["op_p50_ms"], "ms")]
    if q is not None:
        named.append((f"{prefix}_{tail_name(q)}_ms", percentile(lat, q), "ms"))
    if rate_name:
        named.append((rate_name, wall["work_per_s"] * rate_scale, rate_unit))
    if workload in PART_NAMES and s.part_ms:
        part = PART_NAMES[workload]
        named.append((f"{part}_p50_ms", statistics.median(s.part_ms), "ms"))
        q = tail_percentile(len(s.part_ms))
        if q is not None:
            named.append((f"{part}_{tail_name(q)}_ms", percentile(s.part_ms, q), "ms"))
    if workload == "link-bulk":  # whole rounds, so every message has the mean size
        named.append(("link.payload_mb_per_s",
                      wall["work_per_s"] * s.payload_bytes / max(s.work, 1) / 1e6,
                      "MB/s"))
    named.append(("fail_ratio", len(s.failures) / max(s.attempted, 1), "1"))
    lines += [f"{name:22} {value:12.6g} {unit:5}" for name, value, unit in named]
    parts = f"{len(s.part_ms)} parts, " if s.part_ms else ""
    lines.append(f"{'samples':22} {len(lat):12d} ops, {parts}{len(rates)} steps, "
                 f"{s.busy_s:.3f} s busy; {len(setups)} setups, {len(teardowns)} teardowns")
    return metrics, wall, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment(args.seed)
    setups, teardowns, rates, speeds, plain, traced, tracer = run_sessions(
        args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = plain.attempted + traced.attempted
    failures = plain.failures + traced.failures

    print(f"# twinet perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    e2e, wall, lines = end_to_end(args.workload, setups, teardowns, rates, speeds,
                                  plain)
    if args.trace:
        print("# end-to-end figures of the untraced sessions of a traced run; "
              "compare only untraced runs")
    print("\n".join(lines))
    details = {"env": env, "end_to_end": e2e, "wall": wall, "setups_s": setups,
               "teardowns_s": teardowns, "step_rates_and_speeds": rates,
               "host_speeds": speeds,
               "failures": failures}

    if args.trace:
        overhead = tuple(s.work / s.busy_s if s.busy_s else 0.0 for s in (plain, traced))
        per_layer = layers.layer_metrics(tracer, overhead)
        print("# per-layer (traced sessions)")
        for name, m in per_layer.items():
            print(f"{name:36} {m['value']:12.6g} {m['unit']:5} n={m['n']} ({m['base']})")
        print("# spans: inclusive and self time")
        print("\n".join(layers.span_table(tracer)))
        print("# codec medians per payload-size bucket vs ROADMAP baseline")
        print("\n".join(layers.baseline_table(per_layer)))
        details["per_layer"] = per_layer
        result_metrics = {name: {"value": per_layer[name]["value"], "unit": unit}
                          for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        result_metrics = {name: {"value": e2e[name], "unit": unit}
                          for name, unit in END_TO_END.items()}

    notes = plain.notes + traced.notes
    for note, n in sorted(notes.items()):
        print(f"# note: {note}: {n}")
    details["notes"] = dict(notes)
    for failure in failures[:20]:
        print(f"# FAILED: {failure}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(details, indent=1))
    if tracer is not None:
        with gzip.open(stem.with_suffix(".spans.jsonl.gz"), "wt") as fh:
            fh.write(json.dumps(Span._fields) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({"correct": not failures, "attempted": max(attempted, 1),
                      "failed": len(failures), "metrics": result_metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
