"""The four closed-loop workloads, built from twinet's public functions.

Each workload owns one in-process broker on loopback and at most two
``LinkEndpoint`` connections; the twin-side worker thread runs only where the
paper's application has one. One operation is in flight at a time.

A workload object lives for one session: ``setup`` brings it to ready,
``step`` runs one operation and records its samples, ``can_stop`` says
whether the session may end after it, ``quiesce`` stops the
twin worker, ``teardown`` closes the endpoints and stops the broker, and
``verify`` checks the outputs after the timed part is over. All inputs come
from the workload's ``make_inputs(seed)``, once per run.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from twinet import pilotguard as pg
from twinet import sadr as sadr_mod
from twinet.broker import Broker
from twinet.link import TOPIC_DT_MODEL_ARTIFACT, TOPIC_RW_TRAFFIC, LinkEndpoint
from twinet.netsim import CellSim, RateSchedule, ScenarioConfig

# Longest wait for one message, so that a run whose every session times out
# still ends within three minutes.
POLL_TIMEOUT_S = 10.0


@dataclass
class Samples:
    """What one session measured and checked."""

    latencies_ms: list[float] = field(default_factory=list)  # one per operation
    op_speeds: list[float] = field(default_factory=list)  # host speed around each
    # link-bulk messages and pilot-redeploy redeploys, whose latencies add up
    # to their round's
    part_ms: list[float] = field(default_factory=list)
    work: int = 0  # mirrored ticks, messages, CellSim ticks or cycles
    payload_bytes: int = 0  # link-bulk: BenchPing payload delivered and verified
    busy_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    notes: Counter = field(default_factory=Counter)  # reported, not failed

    def add(self, other: "Samples") -> None:
        self.latencies_ms += other.latencies_ms
        self.op_speeds += other.op_speeds
        self.part_ms += other.part_ms
        self.work += other.work
        self.payload_bytes += other.payload_bytes
        self.busy_s += other.busy_s
        self.attempted += other.attempted
        self.failures += other.failures
        self.notes += other.notes

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _child_seeds(seed: int, *path: int, n: int = 1) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, *path]).generate_state(n)]


class _BrokerSession:
    """Shared lifecycle: one loopback broker and two link endpoints."""

    endpoint_ids: tuple[str, str]
    # Scale op_p50_ms and work_per_s by the host speed around each step.
    scale_by_host_speed = True

    @staticmethod
    def make_inputs(seed: int) -> dict:
        """The generated inputs of a run; the same seed gives the same inputs."""
        return {"seed": seed}

    def _open(self) -> tuple[LinkEndpoint, LinkEndpoint]:
        self.broker = Broker(port=0)
        self.broker.start()
        self.links = tuple(LinkEndpoint(cid, self.broker.host, self.broker.port, qos=1)
                           for cid in self.endpoint_ids)
        for link in self.links:
            link.connect()
        return self.links

    def can_stop(self) -> bool:
        """Whether a session may end after the current step."""
        return True

    def quiesce(self) -> None:
        pass

    def teardown(self) -> None:
        for link in self.links:
            link.close()
        self.broker.stop()


class _TwinWorker:
    """The twin-side service loop on its own thread, as the CLI drivers run it."""

    def __init__(self, service):
        self.stop = threading.Event()
        self.thread = threading.Thread(target=service.run, args=(self.stop,),
                                       name="twin-worker", daemon=True)
        self.thread.start()

    def join(self) -> None:
        self.stop.set()
        self.thread.join(timeout=5.0)
        if self.thread.is_alive():
            raise RuntimeError("twin worker did not stop")


# -- mirror -------------------------------------------------------------------

MIRROR_TICK_MS = 100
MIRROR_EXPERIMENT_TICKS = 3000  # 300 simulated seconds per real/twin pair
MIRROR_CHANGE_POINTS = 7
MIRROR_RATES = tuple(0.5 * a for a in range(1, 10))


def make_mirror_schedule(seed: int) -> RateSchedule:
    rng = np.random.default_rng(_child_seeds(seed, 1)[0])
    times = np.sort(rng.choice(np.arange(1, MIRROR_EXPERIMENT_TICKS // 5),
                               MIRROR_CHANGE_POINTS - 1, replace=False)) * 0.5
    rates = rng.choice(MIRROR_RATES, MIRROR_CHANGE_POINTS)
    return RateSchedule(tuple(zip([0.0, *map(float, times)], map(float, rates))))


class Mirror(_BrokerSession):
    """Lockstep traffic mirroring: one TrafficUpdate per tick at QoS 1.

    A session runs whole experiments of ``MIRROR_EXPERIMENT_TICKS`` ticks,
    each with a fresh real/twin pair on the same link, and the finished pair
    is checked then. Both cells' ``tick_log`` (ROADMAP item 5) therefore
    peaks at the same length however fast the program is, and stays in
    ``peak_rss_mb``.
    """

    endpoint_ids = ("mirror-real", "mirror-twin")

    @staticmethod
    def make_inputs(seed: int) -> dict:
        return {"seed": seed, "schedule": make_mirror_schedule(seed)}

    def __init__(self, inputs: dict, session: int):
        self.schedule = inputs["schedule"]
        self.seed = inputs["seed"]
        self.session = session
        self.experiments = 0

    def setup(self) -> None:
        self._new_pair()
        self.real_link, self.twin_link = self._open()
        self.twin_link.subscribe("rw/#")

    def _new_pair(self) -> None:
        config = ScenarioConfig(
            n_ues=1, tick_ms=MIRROR_TICK_MS, psr_noise_sigma=0.0,
            seed=_child_seeds(self.seed, 2, self.session, self.experiments)[0])
        self.real_sim, self.twin_sim = CellSim(config), CellSim(config)
        self.experiments += 1

    def can_stop(self) -> bool:
        return self.real_sim.tick_index == MIRROR_EXPERIMENT_TICKS

    def step(self, out: Samples) -> None:
        k = self.real_sim.tick_index
        if k == MIRROR_EXPERIMENT_TICKS:
            self._check_pair(out)
            self._new_pair()
            k = 0
        self.real_sim.apply_allocation([self.schedule.rate_at(k * MIRROR_TICK_MS / 1000.0)])
        self.real_sim.step_tick()
        t0 = time.perf_counter()
        self.real_sim.publish_observation(self.real_link, TOPIC_RW_TRAFFIC)
        envelope = self.twin_link.poll_envelope(timeout=POLL_TIMEOUT_S)
        if envelope is None:
            raise TimeoutError(f"traffic update for tick {k} never arrived")
        self.twin_sim.apply_mirror_update(envelope)
        out.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        self.twin_sim.step_tick()
        out.work += 1

    def _check_pair(self, out: Samples) -> None:
        real, twin = self.real_sim.tick_log, self.twin_sim.tick_log
        out.check(len(real) == len(twin),
                  f"real cell stepped {len(real)} ticks, twin {len(twin)}")
        for r, t in zip(real, twin):
            out.check(r.ues[0].r_act_mbps == t.ues[0].r_act_mbps,
                      f"tick {r.tick_index}: twin r_act {t.ues[0].r_act_mbps} "
                      f"!= real {r.ues[0].r_act_mbps}")
        out.check(self.twin_sim.stale_updates == 0,
                  f"{self.twin_sim.stale_updates} stale mirror updates")

    def verify(self, out: Samples) -> None:
        self._check_pair(out)
        out.check(self.twin_link.gap_count == 0,
                  f"{self.twin_link.gap_count} sequence gaps on the twin link")


# -- link-bulk ----------------------------------------------------------------

BULK_SIZES = (10_000, 100_000, 1_000_000)
BULK_POOL = 3  # distinct payloads per size
BULK_ORDERS = 16  # distinct size orders per round


def make_bulk_payloads(seed: int) -> dict:
    rng = np.random.default_rng(_child_seeds(seed, 3)[0])
    pool = {size: [rng.bytes(size) for _ in range(BULK_POOL)] for size in BULK_SIZES}
    orders = [tuple(int(i) for i in rng.permutation(len(BULK_SIZES)))
              for _ in range(BULK_ORDERS)]
    return {"pool": pool, "orders": orders}


class LinkBulk(_BrokerSession):
    """Bulk BenchPing envelopes, alternating real->twin and twin->real.

    One step, and one operation, is a round: every size once in each
    direction, in a seeded order, so a run always carries whole rounds and
    the same size mix. A round's latency sums its six messages; the median
    of single messages would fall among the 100 kB ones, whose latencies
    spread over 2x with thread scheduling.
    """

    endpoint_ids = ("bench-real", "bench-twin")

    @staticmethod
    def make_inputs(seed: int) -> dict:
        return {"bulk": make_bulk_payloads(seed)}

    def __init__(self, inputs: dict, session: int):
        self.bulk = inputs["bulk"]
        self.round = session * 1000  # each session starts at another order and payload

    def setup(self) -> None:
        real, twin = self._open()
        real.subscribe("bench/ping/dt2rw")
        twin.subscribe("bench/ping/rw2dt")
        self.pairs = ((real, twin, "bench/ping/rw2dt"), (twin, real, "bench/ping/dt2rw"))
        self.expected_seq = {topic: 0 for _, _, topic in self.pairs}

    def step(self, out: Samples) -> None:
        order = self.bulk["orders"][self.round % BULK_ORDERS]
        round_ms = 0.0
        for i in order:
            size = BULK_SIZES[i]
            payload = self.bulk["pool"][size][self.round % BULK_POOL]
            for sender, receiver, topic in self.pairs:
                t0 = time.perf_counter()
                sender.publish_envelope(topic, "BenchPing", payload)
                received = receiver.poll_envelope(timeout=POLL_TIMEOUT_S)
                elapsed_ms = (time.perf_counter() - t0) * 1e3
                if received is None:
                    raise TimeoutError(f"{size} B ping on {topic} never arrived")
                out.part_ms.append(elapsed_ms)
                round_ms += elapsed_ms
                out.work += 1
                out.payload_bytes += size
                out.check(received.topic == topic and received.payload == payload,
                          f"{size} B ping on {topic}: payload differs from what was sent")
                out.check(received.seq == self.expected_seq[topic],
                          f"{topic}: seq {received.seq}, expected {self.expected_seq[topic]}")
                self.expected_seq[topic] = received.seq + 1
        out.latencies_ms.append(round_ms)
        self.round += 1

    def verify(self, out: Samples) -> None:
        for _, receiver, _ in self.pairs:
            out.check(receiver.gap_count == 0,
                      f"{receiver.gap_count} sequence gaps on {receiver.client.client_id}")


# -- sadr-gated ---------------------------------------------------------------

SADR_N_UES = 3
SADR_RISK_THRESHOLD = 0.8
SADR_SAFE_SETUP = (1.5, 1.5, 1.5)
SADR_DWELL_TICKS = 600


class TimedGate:
    """``LinkTwinGate`` with each send -> result round trip timed and kept."""

    def __init__(self, gate: sadr_mod.LinkTwinGate):
        self.gate = gate
        self.verdicts: list[tuple[sadr_mod.TrafficRequest, sadr_mod.TwinEvaluation]] = []
        self.latencies_ms: list[float] = []

    def send(self, req: sadr_mod.TrafficRequest) -> None:
        self._req = req
        self._t0 = time.perf_counter()
        self.gate.send(req)

    def result(self, request_id: int, timeout: float = POLL_TIMEOUT_S):
        evaluation = self.gate.result(request_id, timeout)
        self.latencies_ms.append((time.perf_counter() - self._t0) * 1e3)
        self.verdicts.append((self._req, evaluation))
        return evaluation


class SadrGated(_BrokerSession):
    """The escalating-demand scenario, both arms, verdicts served over the broker.

    One step is one repetition of the 9 instances with its own real-side
    seed; the twin service keeps the session's scenario for its whole life,
    as it does under ``run_sadr_experiment``.
    """

    endpoint_ids = ("sadr-twin", "sadr-ctrl")

    def __init__(self, inputs: dict, session: int):
        self.seed = inputs["seed"]
        self.session = session
        self.scenario = ScenarioConfig(n_ues=SADR_N_UES,
                                       seed=_child_seeds(self.seed, 4, session)[0])
        self.steps = 0
        self.rows: list[list[dict]] = []

    def setup(self) -> None:
        twin_link, ctrl_link = self._open()
        self.service = sadr_mod.TwinEvalService(twin_link, self.scenario)
        self.worker = _TwinWorker(self.service)
        self.gate = TimedGate(sadr_mod.LinkTwinGate(ctrl_link))
        app_requirements = sadr_mod.calibrate_app_requirements(self.scenario,
                                                               SADR_SAFE_SETUP)
        self.config = sadr_mod.SadrConfig(risk_threshold=SADR_RISK_THRESHOLD,
                                          app_requirements=app_requirements,
                                          safe_setup=SADR_SAFE_SETUP)

    def step(self, out: Samples) -> None:
        scenario = ScenarioConfig(
            n_ues=SADR_N_UES, seed=_child_seeds(self.seed, 5, self.session, self.steps)[0])
        verdicts_before = len(self.gate.verdicts)
        result = sadr_mod.run_escalating_scenario(
            scenario, self.config, gate_factory=lambda: self.gate,
            repetitions=1, dwell_ticks=SADR_DWELL_TICKS)
        verdicts = len(self.gate.verdicts) - verdicts_before
        self.rows.append(result.rows)
        self.steps += 1
        out.latencies_ms.extend(self.gate.latencies_ms[verdicts_before:])
        out.work += len(result.rows) * SADR_DWELL_TICKS \
            + verdicts * self.config.twin_horizon_ticks

    def quiesce(self) -> None:
        self.worker.join()

    def verify(self, out: Samples) -> None:
        for req, evaluation in self.gate.verdicts:
            expected = sadr_mod.twin_evaluate(
                sadr_mod.twin_sim_for(self.scenario, req.request_id), req,
                self.config.twin_horizon_ticks)
            out.check(evaluation == expected,
                      f"request {req.request_id}: verdict over the link differs "
                      f"from an in-process twin_evaluate")
        capacity = self.scenario.capacity_mbps
        for rows in self.rows:
            by_key = {(r["arm"], r["instance"]): r["mean_reward"] for r in rows}
            for idx, actions in enumerate(sadr_mod.default_instances(SADR_N_UES)):
                req = sadr_mod.TrafficRequest.from_actions(idx, actions)
                if sadr_mod.compute_risk(req.risk_vector, capacity) > SADR_RISK_THRESHOLD:
                    continue
                out.check(by_key[("gated", idx)] == by_key[("ungated", idx)],
                          f"below-threshold instance {idx}: arms differ")


# -- pilot-redeploy -----------------------------------------------------------

PILOT_LABELS = tuple(pg.SCENARIOS)  # 10, 20 and 40 MHz
PILOT_CLEAN_FRAMES = 20
PILOT_JAM_FRAMES = 5


class PilotRedeploy(_BrokerSession):
    """Detect, relocate, rebuild on the twin factory, ship and install.

    One step, and one operation, is a round: one full cycle for each channel
    scenario, so a run always holds the same scenario mix. A round's latency
    sums its three ``run_redeploy_pipeline`` calls, whose costs differ by
    scenario.
    """

    endpoint_ids = ("pilot-dt", "pilot-bs")
    # Its time goes to numpy array arithmetic, which the host's fast spells
    # barely speed up: over five seeds on a 2-vCPU VM its wall-clock figures
    # spread 0.07 while the reference's speed spread 0.17, and scaling them
    # by it made them spread 0.13.
    scale_by_host_speed = False

    def __init__(self, inputs: dict, session: int):
        self.seed = inputs["seed"]
        self.session = session
        self.cycles = 0
        self.detections: list[tuple[str, list]] = []
        self.installed: list[pg.ClassifierModel] = []

    def setup(self) -> None:
        dt_link, self.bs_link = self._open()
        self.bs_link.subscribe(TOPIC_DT_MODEL_ARTIFACT)
        self.factory = pg.ModelFactoryService(dt_link)
        self.worker = _TwinWorker(self.factory)

    def step(self, out: Samples) -> None:
        redeploys = len(out.part_ms)
        for label in PILOT_LABELS:
            self._cycle(label, out)
        out.latencies_ms.append(sum(out.part_ms[redeploys:]))

    def _cycle(self, label: str, out: Samples) -> None:
        s_pilots, s_boot, s_frames, s_relocate, s_build = _child_seeds(
            self.seed, 6, self.session, self.cycles, n=5)
        self.cycles += 1
        pilots = pg.PilotConfig.for_scenario(label, s_pilots)
        boot_model, _ = self.factory.build_model(pilots, s_boot)
        bs = pg.BaseStation(boot_model)
        rng = np.random.default_rng(s_frames)
        clean = [pg.generate_frame(pilots, 0, rng) for _ in range(PILOT_CLEAN_FRAMES)]
        jammed = [pg.generate_frame(pilots, 1, rng) for _ in range(PILOT_JAM_FRAMES)]
        phases = [(boot_model, clean, bs.detect_loop(clean)),
                  (boot_model, jammed, bs.detect_loop(jammed))]
        self.detections.append((label, phases))
        jams = phases[1][2]
        out.check(len(jams) == 1 and jams[0].jam_class == 1,
                  f"{label}: expected one jam event on pilot 1, got {jams}")
        if not jams:
            return
        new_pilots = pg.select_new_pilots(
            pilots, pilots.pilot_indices[jams[0].jam_class - 1], seed=s_relocate)
        t0 = time.perf_counter()
        model, _ = pg.run_redeploy_pipeline(bs, self.bs_link, self.factory,
                                            new_pilots, seed=s_build,
                                            timeout=POLL_TIMEOUT_S)
        out.part_ms.append((time.perf_counter() - t0) * 1e3)
        relocated = [pg.generate_frame(new_pilots, 1, rng) for _ in range(PILOT_JAM_FRAMES)]
        after = bs.detect_loop(relocated)
        phases.append((bs.model, relocated, after))
        out.check(bs.pilots == new_pilots,
                  f"{label}: installed pilots {bs.pilots.pilot_indices} "
                  f"!= requested {new_pilots.pilot_indices}")
        out.check(len(after) == 1 and after[0].jam_class == 1,
                  f"{label}: relocated-pilot jam not detected after the swap: {after}")
        self.installed.append(model)
        out.work += 1

    def quiesce(self) -> None:
        self.worker.join()

    def verify(self, out: Samples) -> None:
        for label, phases in self.detections:
            for model, frames, events in phases:
                out.check(events == reference_events(model, frames),
                          f"{label}: detect_loop events {events} differ from "
                          f"the debounce rule over predict")
            if phases[0][2]:
                out.notes[f"{label} cycles with a clean-frame false alarm"] += 1
        for model in self.installed:
            blob = pg.encode_model(model)
            again = pg.decode_model(blob)
            out.check(pg.encode_model(again) == blob
                      and np.array_equal(again.weights, model.weights)
                      and np.array_equal(again.norm_stats.std, model.norm_stats.std),
                      f"{model.pilot_config.label}: artifact does not round-trip bitwise")


def reference_events(model: pg.ClassifierModel, frames) -> list[pg.JamEvent]:
    """``BaseStation.detect_loop`` restated: one event when a run of jammed
    predictions reaches the debounce length."""
    events, run = [], 0
    for index, frame in enumerate(frames):
        jam_class, _ = pg.predict(model, frame)
        run = run + 1 if jam_class > 0 else 0
        if run == pg.DEFAULT_DEBOUNCE:
            events.append(pg.JamEvent(index, jam_class))
    return events


WORKLOADS = {
    "mirror": Mirror,
    "link-bulk": LinkBulk,
    "sadr-gated": SadrGated,
    "pilot-redeploy": PilotRedeploy,
}
