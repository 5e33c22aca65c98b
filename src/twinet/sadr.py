"""Safe Adaptive Data Rate (SADR) controller.

Risky traffic requests (normalized aggregate demand above a threshold) are
evaluated in the twin before being committed to the real cell; if the twin's
mean reward misses the application requirement, a known-safe setup is applied
instead. The per-tick objective is sum over UEs of
psr_i - (r_exp_i - r_act_i) / r_exp_i, with the deficit term defined as 0
when r_exp_i = 0.

The controller is an event-driven state machine; its two handlers are never
run concurrently (callers serialize events). Twin evaluation happens on the
twin side; the controller only awaits the EvalResult envelope.
"""

from __future__ import annotations

import logging
import struct
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .link import (TOPIC_DT_EVAL_RESULT, TOPIC_RW_REQUEST, EnvelopeError,
                   LinkEndpoint, MessageEnvelope, TwinService,
                   max_payload_bytes, unpack_payload)
from .netsim import CellSim, NetworkState, ScenarioConfig
from .seeds import derive_seed

log = logging.getLogger(__name__)

LAUNCH_DIRECTLY = "launch_directly"
DEFER_TO_TWIN = "defer_to_twin"
SAFE_FALLBACK = "safe_fallback"  # twin unreachable while deferral was required

DEFAULT_HORIZON_TICKS = 50

SADR_CSV_SCHEMA = ["instance", "arm", "repetition", "mean_reward"]


# The 10 exclusive per-UE rate levels, from no traffic to 4.5 Mbps.
ACTIONS = tuple(0.5 * a for a in range(10))


def map_action_to_rate(action: int) -> float:
    """Expected rate r_exp for an action index (linear 0.5 Mbps spacing)."""
    if not 0 <= action < len(ACTIONS):
        raise IndexError(f"action index out of range: {action}")
    return ACTIONS[action]


def compute_risk(risk_vector, capacity_mbps: float) -> float:
    """Risk of a request: aggregate demanded rate normalized by cell capacity."""
    rates = np.asarray(risk_vector, dtype=float)
    if np.any(rates < 0):
        raise ValueError("risk vector rates must be non-negative")
    return float(np.sum(rates) / capacity_mbps)


def per_tick_reward(state: NetworkState) -> float:
    """Objective for one tick: sum of psr minus rate-compliance deficit."""
    total = 0.0
    for ue in state.ues:
        if ue.r_exp_mbps > 0:
            deficit = (ue.r_exp_mbps - ue.r_act_mbps) / ue.r_exp_mbps
        else:
            deficit = 0.0
        total += ue.psr - deficit
    return total


def dwell_rewards(sim: CellSim, ticks: int) -> np.ndarray:
    """Step ``sim`` ``ticks`` ticks at its staged allocation; returns each
    tick's ``per_tick_reward``, vectorised over the block. UEs are summed in
    ``per_tick_reward``'s order, so every value is bitwise equal to it."""
    psr, _ = sim.step_ticks(ticks)
    total = np.zeros(ticks)
    for i, (r_exp, r_act) in enumerate(zip(sim.r_exp.tolist(), sim.r_act.tolist())):
        total += psr[:, i] - ((r_exp - r_act) / r_exp if r_exp > 0 else 0.0)
    return total


@dataclass(frozen=True)
class TrafficRequest:
    request_id: int
    action_indices: tuple[int, ...]
    risk_vector: tuple[float, ...]

    @classmethod
    def from_actions(cls, request_id: int, action_indices) -> "TrafficRequest":
        indices = tuple(action_indices)
        return cls(
            request_id=request_id,
            action_indices=indices,
            risk_vector=tuple(map(map_action_to_rate, indices)),
        )


@dataclass(frozen=True)
class SadrConfig:
    risk_threshold: float
    app_requirements: float
    safe_setup: tuple[float, ...]
    twin_horizon_ticks: int = DEFAULT_HORIZON_TICKS

    def __post_init__(self) -> None:
        if self.risk_threshold <= 0:
            raise ValueError("risk_threshold must be positive")
        if not 1 <= self.twin_horizon_ticks <= EVAL_MAX_HORIZON:
            raise ValueError(f"twin_horizon_ticks must be in 1..{EVAL_MAX_HORIZON}, "
                             f"got {self.twin_horizon_ticks}")


@dataclass(frozen=True)
class TwinEvaluation:
    request_id: int
    twin_reward: float
    per_tick_rewards: tuple[float, ...]


def twin_evaluate(twin_sim: CellSim, req: TrafficRequest,
                  horizon: int = DEFAULT_HORIZON_TICKS) -> TwinEvaluation:
    """Apply the requested rates to the twin and run it for ``horizon`` ticks."""
    twin_sim.apply_allocation(req.risk_vector)
    rewards = dwell_rewards(twin_sim, horizon)
    return TwinEvaluation(
        request_id=req.request_id,
        twin_reward=float(np.mean(rewards)),
        per_tick_rewards=tuple(rewards.tolist()),
    )


class SadrController:
    """Implements the two event handlers of the SADR decision routine."""

    def __init__(self, config: SadrConfig, real_sim: CellSim,
                 send_eval_request: Callable[[TrafficRequest], None] | None = None):
        self.config = config
        self.real_sim = real_sim
        self.send_eval_request = send_eval_request
        self.pending: dict[int, TrafficRequest] = {}
        self.applied_rates: tuple[float, ...] | None = None
        self.flagged = False
        self.unknown_results = 0

    def _launch(self, rates) -> tuple[float, ...]:
        rates = tuple(float(r) for r in rates)
        self.real_sim.apply_allocation(rates)
        self.applied_rates = rates
        return rates

    def on_traffic_request(self, req: TrafficRequest) -> str:
        """New UE traffic request: launch directly, or defer risky ones to the twin."""
        risk = compute_risk(req.risk_vector, self.real_sim.config.capacity_mbps)
        if risk > self.config.risk_threshold:  # strictly above triggers the twin
            if self.send_eval_request is not None:
                try:
                    self.send_eval_request(req)
                except Exception as exc:
                    log.warning("twin unreachable (%s); applying safe setup", exc)
                else:
                    self.pending[req.request_id] = req
                    return DEFER_TO_TWIN
            self.flagged = True
            self._launch(self.config.safe_setup)
            return SAFE_FALLBACK
        self._launch(req.risk_vector)
        return LAUNCH_DIRECTLY

    def on_twin_evaluation_completed(
        self, evaluation: TwinEvaluation
    ) -> tuple[float, ...] | None:
        """Twin verdict for a pending request: grant it or fall back to safety."""
        req = self.pending.pop(evaluation.request_id, None)
        if req is None:
            self.unknown_results += 1
            return None
        if evaluation.twin_reward >= self.config.app_requirements:
            return self._launch(req.risk_vector)
        return self._launch(self.config.safe_setup)


# -- envelope payloads --------------------------------------------------------


_EVAL_REQUEST = ">QI"  # request_id, horizon; then an f8 rate per UE
_EVAL_RESULT = ">Qd"  # request_id, twin_reward; then an f8 reward per tick

# Largest horizon whose EvalResult, one f8 per tick, still fits one frame.
EVAL_MAX_HORIZON = (max_payload_bytes(TOPIC_DT_EVAL_RESULT)
                    - struct.calcsize(_EVAL_RESULT)) // 8


def _check_horizon(horizon: int) -> None:
    if not 1 <= horizon <= EVAL_MAX_HORIZON:
        raise EnvelopeError(f"horizon {horizon} is outside 1..{EVAL_MAX_HORIZON}")


def encode_eval_request(req: TrafficRequest, horizon: int) -> bytes:
    _check_horizon(horizon)
    rates = req.risk_vector
    return struct.pack(f"{_EVAL_REQUEST}{len(rates)}d", req.request_id,
                       horizon, *rates)


def decode_eval_request(payload: bytes) -> tuple[TrafficRequest, int]:
    request_id, horizon, *rates = unpack_payload(_EVAL_REQUEST, payload)
    _check_horizon(horizon)
    req = TrafficRequest(request_id=request_id, action_indices=(),
                         risk_vector=tuple(rates))
    return req, horizon


def encode_eval_result(evaluation: TwinEvaluation) -> bytes:
    rewards = evaluation.per_tick_rewards
    return struct.pack(f"{_EVAL_RESULT}{len(rewards)}d", evaluation.request_id,
                       evaluation.twin_reward, *rewards)


def decode_eval_result(payload: bytes) -> TwinEvaluation:
    request_id, twin_reward, *rewards = unpack_payload(_EVAL_RESULT, payload)
    return TwinEvaluation(request_id=request_id, twin_reward=twin_reward,
                          per_tick_rewards=tuple(rewards))


def reseeded(scenario: ScenarioConfig, *keys: int) -> ScenarioConfig:
    """``scenario`` with the seed derived from (its seed, *keys)."""
    return replace(scenario, seed=derive_seed(scenario.seed, *keys))


def twin_sim_for(scenario: ScenarioConfig, request_id: int) -> CellSim:
    """Fresh twin mirroring the real cell config, seeded per request."""
    return CellSim(reseeded(scenario, request_id))


class TwinEvalService(TwinService):
    """Twin-side worker: answers EvalRequest envelopes with EvalResult."""

    request_kind = "EvalRequest"

    def __init__(self, link: LinkEndpoint, scenario: ScenarioConfig):
        super().__init__(link, TOPIC_RW_REQUEST)
        self.scenario = scenario

    def handle(self, envelope: MessageEnvelope) -> None:
        req, horizon = decode_eval_request(envelope.payload)
        evaluation = twin_evaluate(twin_sim_for(self.scenario, req.request_id),
                                   req, horizon)
        self.link.publish_envelope(
            TOPIC_DT_EVAL_RESULT, "EvalResult", encode_eval_result(evaluation)
        )


# -- twin gates (controller-side transport to the evaluation service) ---------


class LocalTwinGate:
    """In-process twin evaluation, bypassing the broker (unit tests, oracles)."""

    def __init__(self, scenario: ScenarioConfig,
                 horizon: int = DEFAULT_HORIZON_TICKS):
        self.scenario = scenario
        self.horizon = horizon
        self._pending: TrafficRequest | None = None

    def send(self, req: TrafficRequest) -> None:
        self._pending = req

    def result(self, request_id: int) -> TwinEvaluation:
        """The evaluation of the request last sent; KeyError if ``request_id``
        is not that request, which then stays pending."""
        if self._pending is None or self._pending.request_id != request_id:
            raise KeyError(f"request {request_id} is not pending")
        req, self._pending = self._pending, None
        return twin_evaluate(twin_sim_for(self.scenario, req.request_id), req,
                             self.horizon)


class LinkTwinGate:
    """Controller-side gate that round-trips evaluations over the broker."""

    def __init__(self, link: LinkEndpoint, horizon: int = DEFAULT_HORIZON_TICKS):
        self.link = link
        self.horizon = horizon
        self.link.subscribe(TOPIC_DT_EVAL_RESULT)

    def send(self, req: TrafficRequest) -> None:
        self.link.publish_envelope(
            TOPIC_RW_REQUEST, "EvalRequest", encode_eval_request(req, self.horizon)
        )

    def result(self, request_id: int, timeout: float = 30.0) -> TwinEvaluation:
        """The twin's evaluation of ``request_id``, waiting at most ``timeout``
        seconds in all. Results for other requests are skipped; one that does
        not decode is logged, counted in the link's decode_errors and skipped."""
        deadline = time.monotonic() + timeout
        while (remaining := deadline - time.monotonic()) > 0:
            envelope = self.link.poll_envelope(remaining, "EvalResult")
            if envelope is None:
                break
            try:
                evaluation = decode_eval_result(envelope.payload)
            except EnvelopeError as exc:
                self.link.drop(envelope, exc)
                continue
            if evaluation.request_id == request_id:
                return evaluation
        raise TimeoutError(f"no twin evaluation for request {request_id}")


# -- escalating-demand scenario ------------------------------------------------


def default_instances(n_ues: int) -> list[tuple[int, ...]]:
    """Escalating per-UE action indices: all UEs at level a, a = 1..9."""
    return [(a,) * n_ues for a in range(1, 10)]


def calibrate_app_requirements(scenario: ScenarioConfig,
                               safe_setup,
                               horizon: int = DEFAULT_HORIZON_TICKS) -> float:
    """Minimum acceptable reward: mean reward of the moderate-traffic baseline."""
    sim = CellSim(scenario)
    sim.apply_allocation(safe_setup)
    return float(np.mean(dwell_rewards(sim, horizon)))


@dataclass
class ScenarioResult:
    rows: list[dict] = field(default_factory=list)

    def mean_reward(self, arm: str, instances=None) -> float:
        values = [
            r["mean_reward"]
            for r in self.rows
            if r["arm"] == arm and (instances is None or r["instance"] in instances)
        ]
        return float(np.mean(values))


def run_escalating_scenario(
    scenario: ScenarioConfig,
    sadr_config: SadrConfig,
    gate_factory: Callable[[], object] | None = None,
    repetitions: int = 10,
    dwell_ticks: int = 600,
    instances: list[tuple[int, ...]] | None = None,
    arms: tuple[str, ...] = ("gated", "ungated"),
) -> ScenarioResult:
    """Play escalating traffic requests, once twin-gated and once ungated.

    Every (repetition, instance) pair gets a fresh real-side sim whose seed
    does not depend on the arm, so its dwell rewards depend only on the rates
    staged on it. The arms stage the same rates on an instance below the risk
    threshold, and on one the twin approves; there the second arm reuses the
    first arm's block instead of simulating it again, so every row is the
    one a plain run of that block gives. The gated arm still consults the
    twin for every risky request, so the twin's streams are unchanged too.
    """
    instances = instances if instances is not None else default_instances(scenario.n_ues)
    gate = gate_factory() if gate_factory is not None else LocalTwinGate(
        scenario, sadr_config.twin_horizon_ticks
    )
    result = ScenarioResult()
    for rep in range(repetitions):
        dwelt: dict[tuple, float] = {}  # (instance, staged rates) -> mean reward
        for arm in arms:
            for idx, actions in enumerate(instances):
                request_id = rep * 1000 + idx
                req = TrafficRequest.from_actions(request_id, actions)
                if arm == "ungated":
                    sim, rates = None, req.risk_vector
                else:
                    sim = CellSim(reseeded(scenario, rep, idx))
                    controller = SadrController(sadr_config, sim,
                                                send_eval_request=gate.send)
                    decision = controller.on_traffic_request(req)
                    if decision == DEFER_TO_TWIN:
                        evaluation = gate.result(request_id)
                        controller.on_twin_evaluation_completed(evaluation)
                    rates = controller.applied_rates  # None: nothing staged
                key = (idx, rates)
                if key not in dwelt:
                    if sim is None:
                        sim = CellSim(reseeded(scenario, rep, idx))
                        sim.apply_allocation(rates)
                    rewards = dwell_rewards(sim, dwell_ticks)
                    dwelt[key] = round(float(np.mean(rewards)), 9)
                result.rows.append({
                    "instance": idx,
                    "arm": arm,
                    "repetition": rep,
                    "mean_reward": dwelt[key],
                })
    return result
