"""Deterministic discrete-tick simulator of a downlink cell.

Instantiated twice per experiment: once in the real-world role and once as
the twin. All cross-instance interaction flows through link envelopes; the
instances share no memory. Channel model: per-UE packet success rate
PSR = clamp(min(1, capacity / demand) + gaussian noise, 0, 1), with PSR = 1
by convention when nothing is sent.

Packet size is fixed at 1250 bytes so 1 Mbps corresponds to 100 packets/s.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

import numpy as np

from .link import (TOPIC_RW_TRAFFIC, LinkEndpoint, MessageEnvelope,
                   unpack_payload)

PACKETS_PER_MBPS = 100.0  # 1 Mbps / (1250 B * 8 b/B) packets per second

_TRAFFIC_UPDATE = ">Q"  # tick; then an f8 rate per UE

TICK_CSV_SCHEMA = ["tick", "ue", "r_exp", "r_act", "psr", "sent", "received",
                   "mirror_delay_ms"]


@dataclass(frozen=True)
class ScenarioConfig:
    n_ues: int = 3
    capacity_mbps: float = 9.0
    tick_ms: int = 100
    psr_noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_ues < 1:
            raise ValueError("n_ues must be >= 1")
        if self.capacity_mbps <= 0:
            raise ValueError("capacity_mbps must be positive")
        if self.tick_ms <= 0:
            raise ValueError("tick_ms must be positive")


@dataclass(frozen=True)
class UEStat:
    r_exp_mbps: float
    r_act_mbps: float
    packets_sent: int
    packets_received: int
    psr: float


@dataclass(frozen=True)
class NetworkState:
    tick_index: int
    ues: tuple[UEStat, ...]
    aggregate_demand_mbps: float


@dataclass(frozen=True)
class RateSchedule:
    """Piecewise-constant rate over time; MGEN-style change points."""

    change_points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        times = [t for t, _ in self.change_points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("change point times must be strictly increasing")

    def rate_at(self, t: float) -> float:
        """Rate of the last change point at or before ``t``; 0 before the first."""
        rate = 0.0
        for t_cp, r_cp in self.change_points:
            if t_cp <= t:  # inclusive at the change point
                rate = r_cp
            else:
                break
        return rate


# Tick history: one (capacity, n_ues) array per column, a row per tick.
_HISTORY = (("r_exp", np.float64), ("r_act", np.float64), ("psr", np.float64),
            ("sent", np.int64), ("received", np.int64))


class CellSim:
    """One tick-driven cell instance (real-world or twin role)."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.tick_index = 0
        self.r_exp = np.zeros(config.n_ues)
        self.r_act = np.zeros(config.n_ues)
        self._pending: tuple[np.ndarray, np.ndarray] | None = None
        self._history = {name: np.zeros((0, config.n_ues), dtype)
                         for name, dtype in _HISTORY}
        # mirroring bookkeeping
        self.last_applied_update_tick = -1
        self.stale_updates = 0
        self.mirror_delays_ms: list[float] = []
        self._mirror_delay_by_tick: dict[int, float] = {}

    def apply_allocation(self, rates_mbps, expected_mbps=None) -> None:
        """Stage granted rates (and the rates the UEs expected, defaulting to
        the grant itself); takes effect at the next tick boundary. Every rate
        must be finite."""
        rates = np.asarray(rates_mbps, dtype=float)
        if rates.shape != (self.config.n_ues,):
            raise ValueError(
                f"expected {self.config.n_ues} rates, got shape {rates.shape}"
            )
        if not 0 <= rates.min() <= rates.max() < np.inf:  # false for NaN too
            raise ValueError("rates must be finite and non-negative")
        if expected_mbps is None:
            expected = rates.copy()
        else:
            expected = np.asarray(expected_mbps, dtype=float)
            if expected.shape != rates.shape:
                raise ValueError("expected rates must match n_ues")
            if not np.isfinite(expected).all():
                raise ValueError("expected rates must be finite")
            if np.any(expected < rates - 1e-12):
                raise ValueError("granted rate may not exceed expected rate")
        self._pending = (rates, expected)

    def step_tick(self) -> NetworkState:
        """Advance one tick: apply pending allocation, draw PSR, move packets."""
        self.step_ticks(1)
        return self._state(self.tick_index - 1)

    def step_ticks(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Advance ``count`` ticks at the staged allocation; returns the
        block's psr and received as (count, n_ues) views of the tick history.

        Draws what ``count`` calls to ``step_tick`` would, in the same order:
        per tick the PSR noise, then one binomial(sent_i, psr_i) per UE.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if self._pending is not None:
            self.r_act, self.r_exp = self._pending
            self._pending = None
        start = self.tick_index
        stop = self.tick_index = start + count
        history = self._history
        if stop > len(history["psr"]):  # grow by doubling
            rows = max(stop, 2 * len(history["psr"]))
            for name, column in history.items():
                history[name] = np.resize(column, (rows, self.config.n_ues))
        sent = np.rint(self.r_act * PACKETS_PER_MBPS * (self.config.tick_ms / 1000.0)).astype(int)
        history["r_exp"][start:stop] = self.r_exp
        history["r_act"][start:stop] = self.r_act
        history["sent"][start:stop] = sent
        psr, received, binomial = history["psr"], history["received"], self.rng.binomial
        n, sigma = self.config.n_ues, self.config.psr_noise_sigma
        demand = float(np.sum(self.r_act))
        base = min(1.0, self.config.capacity_mbps / demand) if demand > 0.0 else 1.0
        noisy = sigma > 0 and demand > 0.0  # PSR 1 when nothing is sent
        sent = sent.tolist()
        for t in range(start, stop):
            noise = self.rng.normal(0.0, sigma, n).tolist() if noisy else [0.0] * n
            for i, z in enumerate(noise):
                psr[t, i] = p = min(1.0, max(0.0, base + z))
                received[t, i] = binomial(sent[i], p)
        return psr[start:stop], received[start:stop]

    def _state(self, tick: int) -> NetworkState:
        r_exp, r_act, psr, sent, received = (c[tick].tolist() for c in self._history.values())
        ues = tuple(map(UEStat, r_exp, r_act, sent, received, psr))
        return NetworkState(tick, ues, float(np.sum(self._history["r_act"][tick])))

    @property
    def tick_log(self) -> tuple[NetworkState, ...]:
        """Every tick's state so far, built on demand from the tick history."""
        return tuple(map(self._state, range(self.tick_index)))

    # -- traffic mirroring ----------------------------------------------------

    def publish_observation(self, link: LinkEndpoint,
                            topic: str = TOPIC_RW_TRAFFIC) -> MessageEnvelope:
        """Real side: publish this tick's observed per-UE rates."""
        if not self.tick_index:
            raise RuntimeError("no tick has been stepped yet")
        rates = self._history["r_act"][self.tick_index - 1].tolist()
        payload = struct.pack(f"{_TRAFFIC_UPDATE}{len(rates)}d",
                              self.tick_index - 1, *rates)
        return link.publish_envelope(topic, "TrafficUpdate", payload)

    def apply_mirror_update(self, envelope: MessageEnvelope) -> float | None:
        """Twin side: set the traffic generator to the received rates.

        Stale or duplicate updates (tick at or below the last applied one) are
        ignored and counted. Returns the mirror delay in ms, or None if stale.
        """
        if envelope.kind != "TrafficUpdate":
            raise ValueError(f"not a TrafficUpdate envelope: {envelope.kind}")
        tick, *rates = unpack_payload(_TRAFFIC_UPDATE, envelope.payload)
        if tick <= self.last_applied_update_tick:
            self.stale_updates += 1
            return None
        self.apply_allocation(rates)
        self.last_applied_update_tick = tick
        delay_ms = (time.time_ns() // 1_000 - envelope.sent_at) / 1_000.0
        self.mirror_delays_ms.append(delay_ms)
        self._mirror_delay_by_tick[self.tick_index] = delay_ms  # applies next tick
        return delay_ms

    # -- metrics --------------------------------------------------------------

    def tick_rows(self) -> list[dict]:
        """Per-tick metrics rows in the canonical CSV schema."""
        columns = [c[:self.tick_index].tolist() for c in self._history.values()]
        rows = []
        for tick, values in enumerate(zip(*columns)):
            delay = self._mirror_delay_by_tick.get(tick)
            for i, (r_exp, r_act, psr, sent, received) in enumerate(zip(*values)):
                shown = round(delay, 3) if (delay is not None and i == 0) else ""
                rows.append(dict(zip(TICK_CSV_SCHEMA, (
                    tick, i, r_exp, r_act, round(psr, 6), sent, received, shown))))
        return rows
