import struct
import threading
import time

import numpy as np
import pytest

from twinet import sadr as sadr_mod
from twinet.link import TOPIC_DT_EVAL_RESULT, TOPIC_RW_REQUEST, LinkEndpoint
from twinet.netsim import CellSim, NetworkState, ScenarioConfig, UEStat
from twinet.sadr import (
    DEFER_TO_TWIN,
    LAUNCH_DIRECTLY,
    SAFE_FALLBACK,
    LinkTwinGate,
    LocalTwinGate,
    SadrConfig,
    SadrController,
    TrafficRequest,
    TwinEvalService,
    TwinEvaluation,
    calibrate_app_requirements,
    compute_risk,
    default_instances,
    dwell_rewards,
    encode_eval_result,
    map_action_to_rate,
    per_tick_reward,
    run_escalating_scenario,
    twin_evaluate,
    twin_sim_for,
)


def make_state(psr, r_exp, r_act):
    ues = tuple(
        UEStat(r_exp_mbps=e, r_act_mbps=a, packets_sent=0, packets_received=0,
               psr=p)
        for p, e, a in zip(psr, r_exp, r_act)
    )
    return NetworkState(0, ues, sum(r_act))


class TestActionMapping:
    def test_endpoints(self):
        assert map_action_to_rate(0) == 0.0
        assert map_action_to_rate(9) == 4.5

    def test_linear_spacing(self):
        assert map_action_to_rate(5) == 2.5

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            map_action_to_rate(10)


class TestRisk:
    @pytest.mark.parametrize("vector,expected", [
        ([0, 0, 0], 0.0),
        ([4.5, 4.5, 4.5], 1.5),
        ([1.5, 1.5, 1.5], 0.5),
    ])
    def test_normalized_demand(self, vector, expected):
        assert compute_risk(vector, 9.0) == pytest.approx(expected)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            compute_risk([-1.0], 9.0)


class TestPerTickReward:
    def test_full_grant_full_psr(self):
        state = make_state([1, 1, 1], [2, 2, 2], [2, 2, 2])
        assert per_tick_reward(state) == 3.0

    def test_deficit_arithmetic(self):
        state = make_state([0.8], [3.0], [1.5])
        assert per_tick_reward(state) == pytest.approx(0.3)

    def test_zero_expected_rate_has_no_deficit(self):
        state = make_state([1, 1, 1], [0, 0, 0], [0, 0, 0])
        assert per_tick_reward(state) == 3.0

    def test_never_exceeds_ue_count(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = rng.integers(1, 5)
            r_exp = rng.uniform(0, 5, n)
            r_act = r_exp * rng.uniform(0, 1, n)
            psr = rng.uniform(0, 1, n)
            state = make_state(psr, r_exp, r_act)
            assert per_tick_reward(state) <= n + 1e-12


class TestBlockRewards:
    def test_equals_per_tick_reward_over_tick_log(self):
        sim = CellSim(ScenarioConfig(psr_noise_sigma=0.05, seed=9))
        blocks = []
        for rates, expected, ticks in (((4.0, 4.0, 4.0), None, 7),
                                       ((1.0, 0.0, 2.5), (3.0, 0.0, 2.5), 5),
                                       ((0.0, 0.0, 0.0), None, 2),
                                       ((0.5, 4.5, 3.0), (4.5, 4.5, 4.5), 6)):
            sim.apply_allocation(rates, expected)
            blocks.append(dwell_rewards(sim, ticks))
        assert np.concatenate(blocks).tolist() == [per_tick_reward(s) for s in sim.tick_log]


class TestTwinEvaluate:
    def test_safe_setup_scores_maximum(self):
        scenario = ScenarioConfig(psr_noise_sigma=0.0, seed=1)
        req = TrafficRequest(1, (1.5, 1.5, 1.5))
        evaluation = twin_evaluate(CellSim(scenario), req, horizon=20)
        assert evaluation.twin_reward == pytest.approx(3.0)

    def test_congested_request_score(self):
        scenario = ScenarioConfig(psr_noise_sigma=0.0, seed=1)
        req = TrafficRequest(2, (4.5, 4.5, 4.5))
        evaluation = twin_evaluate(CellSim(scenario), req, horizon=20)
        assert evaluation.twin_reward == pytest.approx(2.0)

    def test_reward_matches_tick_log_recompute(self):
        scenario = ScenarioConfig(psr_noise_sigma=0.05, seed=8)
        sim = CellSim(scenario)
        req = TrafficRequest(3, (4.0, 4.0, 4.0))
        evaluation = twin_evaluate(sim, req, horizon=30)
        recomputed = [per_tick_reward(s) for s in sim.tick_log]
        assert evaluation.per_tick_rewards == tuple(recomputed)
        assert evaluation.twin_reward == pytest.approx(np.mean(recomputed))


class TestSadrConfig:
    def test_horizon_outside_one_frame_rejected(self):
        for horizon in (0, sadr_mod.EVAL_MAX_HORIZON + 1):
            with pytest.raises(ValueError, match="twin_horizon_ticks"):
                SadrConfig(risk_threshold=0.8, app_requirements=2.5,
                           safe_setup=(1.5, 1.5, 1.5),
                           twin_horizon_ticks=horizon)

    def test_largest_horizon_accepted(self):
        config = SadrConfig(risk_threshold=0.8, app_requirements=2.5,
                            safe_setup=(1.5, 1.5, 1.5),
                            twin_horizon_ticks=sadr_mod.EVAL_MAX_HORIZON)
        assert config.twin_horizon_ticks == sadr_mod.EVAL_MAX_HORIZON


def controller(send=lambda req: None, threshold=0.8, app_req=2.5):
    sim = CellSim(ScenarioConfig(psr_noise_sigma=0.0, seed=0))
    config = SadrConfig(risk_threshold=threshold, app_requirements=app_req,
                        safe_setup=(1.5, 1.5, 1.5))
    return SadrController(config, sim, send_eval_request=send), sim


class TestControllerBranches:
    def test_low_risk_launches_directly(self):
        ctrl, sim = controller()
        req = TrafficRequest(1, (1.5, 1.5, 1.5))  # risk 0.5
        assert ctrl.on_traffic_request(req) == LAUNCH_DIRECTLY
        assert ctrl.applied_rates == (1.5, 1.5, 1.5)

    def test_high_risk_defers(self):
        sent = []
        ctrl, sim = controller(send=sent.append)
        req = TrafficRequest(2, (4.5, 4.5, 4.5))  # risk 1.5
        assert ctrl.on_traffic_request(req) == DEFER_TO_TWIN
        assert sent == [req]
        assert ctrl.applied_rates is None

    def test_risk_exactly_at_threshold_launches(self):
        ctrl, _ = controller(threshold=0.5)
        req = TrafficRequest(3, (1.5, 1.5, 1.5))  # risk = 0.5
        assert ctrl.on_traffic_request(req) == LAUNCH_DIRECTLY

    def test_good_verdict_applies_requested(self):
        ctrl, _ = controller()
        req = TrafficRequest(4, (4.5, 4.5, 4.5))
        ctrl.on_traffic_request(req)
        applied = ctrl.on_twin_evaluation_completed(
            TwinEvaluation(4, twin_reward=2.6, per_tick_rewards=(2.6,))
        )
        assert applied == (4.5, 4.5, 4.5)

    def test_bad_verdict_applies_safe_setup(self):
        ctrl, _ = controller()
        req = TrafficRequest(5, (4.5, 4.5, 4.5))
        ctrl.on_traffic_request(req)
        applied = ctrl.on_twin_evaluation_completed(
            TwinEvaluation(5, twin_reward=2.4, per_tick_rewards=(2.4,))
        )
        assert applied == (1.5, 1.5, 1.5)

    def test_verdict_exactly_at_requirement_applies_requested(self):
        ctrl, _ = controller(app_req=2.5)
        req = TrafficRequest(6, (4.5, 4.5, 4.5))
        ctrl.on_traffic_request(req)
        applied = ctrl.on_twin_evaluation_completed(
            TwinEvaluation(6, twin_reward=2.5, per_tick_rewards=(2.5,))
        )
        assert applied == (4.5, 4.5, 4.5)

    def test_unknown_request_id_ignored_and_counted(self):
        ctrl, _ = controller()
        assert ctrl.on_twin_evaluation_completed(
            TwinEvaluation(99, twin_reward=3.0, per_tick_rewards=())
        ) is None
        assert ctrl.unknown_results == 1

    def test_twin_unreachable_falls_back_to_safe(self):
        def broken(req):
            raise ConnectionError("link down")
        ctrl, _ = controller(send=broken)
        req = TrafficRequest(7, (4.5, 4.5, 4.5))
        assert ctrl.on_traffic_request(req) == SAFE_FALLBACK
        assert ctrl.applied_rates == (1.5, 1.5, 1.5)


class TestEscalatingScenario:
    def test_lowest_demand_arms_equal(self):
        scenario = ScenarioConfig(psr_noise_sigma=0.0, seed=4)
        config = SadrConfig(risk_threshold=0.8, app_requirements=2.9,
                            safe_setup=(1.5, 1.5, 1.5), twin_horizon_ticks=20)
        result = run_escalating_scenario(scenario, config, repetitions=2,
                                         dwell_ticks=10,
                                         instances=[(1, 1, 1)])
        assert result.mean_reward("gated") == pytest.approx(
            result.mean_reward("ungated"))
        assert result.mean_reward("gated") == pytest.approx(3.0)

    def test_highest_demand_gated_wins(self):
        scenario = ScenarioConfig(psr_noise_sigma=0.0, seed=4)
        config = SadrConfig(risk_threshold=0.8, app_requirements=2.9,
                            safe_setup=(1.5, 1.5, 1.5), twin_horizon_ticks=20)
        result = run_escalating_scenario(scenario, config, repetitions=2,
                                         dwell_ticks=10,
                                         instances=[(9, 9, 9)])
        assert result.mean_reward("gated") >= result.mean_reward("ungated")
        assert result.mean_reward("ungated") == pytest.approx(2.0)
        assert result.mean_reward("gated") == pytest.approx(3.0)

    def test_golden_scenario(self):
        # Recorded with the per-tick simulator that predates step_ticks: a
        # change to the random stream or its order must fail here.
        scenario = ScenarioConfig(seed=12)
        safe = (1.5, 1.5, 1.5)
        app_req = calibrate_app_requirements(scenario, safe, horizon=20)
        assert app_req == 2.981427701594035
        config = SadrConfig(risk_threshold=0.8, app_requirements=app_req,
                            safe_setup=safe, twin_horizon_ticks=10)
        result = run_escalating_scenario(scenario, config, repetitions=1,
                                         dwell_ticks=15,
                                         instances=[(1, 1, 1), (6, 6, 6), (9, 9, 9)])
        assert [r["mean_reward"] for r in result.rows] == [
            2.978428928, 2.978758178, 2.979555893,
            2.978428928, 2.978758178, 2.004829562]
        evaluation = twin_evaluate(twin_sim_for(scenario, 3),
                                   TrafficRequest(3, (4.0, 4.0, 4.0)), 5)
        assert evaluation.twin_reward == 2.2417379976754
        assert evaluation.per_tick_rewards == (
            2.261870846997307, 2.2292872599075384, 2.258479715271956,
            2.268306366514832, 2.1907457996853683)

    def test_golden_config_scores_each_shared_block_once(self, monkeypatch):
        # Instances (1, 1, 1) and (6, 6, 6) stage the same rates in both arms
        # (below the threshold, and approved by the twin): 6 rows, 4 blocks.
        calls = []

        def counting(sim, ticks):
            calls.append(ticks)
            return dwell_rewards(sim, ticks)

        monkeypatch.setattr(sadr_mod, "dwell_rewards", counting)
        config = SadrConfig(risk_threshold=0.8,
                            app_requirements=2.981427701594035,
                            safe_setup=(1.5, 1.5, 1.5), twin_horizon_ticks=10)
        result = run_escalating_scenario(ScenarioConfig(seed=12), config,
                                         repetitions=1, dwell_ticks=15,
                                         instances=[(1, 1, 1), (6, 6, 6), (9, 9, 9)])
        assert len(result.rows) == 6
        assert calls.count(15) == 4  # the twin's blocks are 10 ticks

    @pytest.mark.parametrize("seed", [0, 7, 12])
    def test_both_arms_equal_single_arm_runs(self, seed):
        # A single-arm run shares no blocks, so it is the plain computation.
        scenario = ScenarioConfig(seed=seed)
        safe = (1.5, 1.5, 1.5)
        config = SadrConfig(
            risk_threshold=0.8,
            app_requirements=calibrate_app_requirements(scenario, safe, horizon=20),
            safe_setup=safe, twin_horizon_ticks=10)

        def rows(arms):
            result = run_escalating_scenario(scenario, config, repetitions=2,
                                             dwell_ticks=15, arms=arms)
            return {(r["repetition"], r["arm"], r["instance"]): r
                    for r in result.rows}

        both = rows(("gated", "ungated"))
        assert len(both) == 2 * 2 * 9
        assert both == {**rows(("gated",)), **rows(("ungated",))}
        assert both == rows(("ungated", "gated"))

    def test_default_instances_escalate(self):
        instances = default_instances(3)
        demands = [sum(map_action_to_rate(a) for a in inst)
                   for inst in instances]
        assert demands == sorted(demands)
        assert len(instances) == 9

    def test_calibration_is_moderate_baseline(self):
        scenario = ScenarioConfig(psr_noise_sigma=0.0, seed=0)
        assert calibrate_app_requirements(scenario, (1.5, 1.5, 1.5)) == 3.0

    def test_twin_sim_seed_is_reproducible(self):
        scenario = ScenarioConfig(seed=12)
        a = twin_sim_for(scenario, 5)
        b = twin_sim_for(scenario, 5)
        c = twin_sim_for(scenario, 6)
        assert a.config.seed == b.config.seed != c.config.seed


class TestTwinEvalService:
    def test_malformed_requests_do_not_stop_the_service(self, broker):
        scenario = ScenarioConfig(psr_noise_sigma=0.0, seed=4)
        stop = threading.Event()
        with LinkEndpoint("twin", broker.host, broker.port) as twin_link, \
             LinkEndpoint("ctrl", broker.host, broker.port) as ctrl_link:
            service = TwinEvalService(twin_link, scenario)
            worker = threading.Thread(target=service.run, args=(stop,),
                                      daemon=True)
            worker.start()
            try:
                gate = LinkTwinGate(ctrl_link, horizon=5)
                for junk in (b"\xde\xad\xbe\xef",
                             b'{"topic":"rw/request","seq":0,"sent_at":1,'
                             b'"kind":"EvalRequest","payload_b64":""}'):
                    ctrl_link.client.publish(TOPIC_RW_REQUEST, junk, qos=1)
                req = TrafficRequest(3, (4.5, 4.5, 4.5))
                gate.send(req)
                evaluation = gate.result(3, timeout=5.0)
            finally:
                stop.set()
                worker.join(timeout=5.0)
        assert not worker.is_alive()
        local = LocalTwinGate(scenario, horizon=5)
        local.send(req)
        assert evaluation == local.result(3)
        assert twin_link.decode_errors == 2

    def test_malformed_payload_does_not_stop_the_service(self, broker):
        scenario = ScenarioConfig(psr_noise_sigma=0.0, seed=4)
        stop = threading.Event()
        with LinkEndpoint("twin", broker.host, broker.port) as twin_link, \
             LinkEndpoint("ctrl", broker.host, broker.port) as ctrl_link:
            service = TwinEvalService(twin_link, scenario)
            worker = threading.Thread(target=service.run, args=(stop,),
                                      daemon=True)
            worker.start()
            try:
                gate = LinkTwinGate(ctrl_link, horizon=5)
                for bad in (b"{}", b"not json", b'{"request_id":1,'
                            b'"rates_mbps":[1.0],"horizon_ticks":5}',
                            struct.pack(">Q", 1),  # the >QI header cut short
                            struct.pack(">QI", 1, 5) + b"\0" * 5,  # a partial f8
                            struct.pack(">QI3d", 1, 0, 9, 9, 9)):  # horizon 0
                    ctrl_link.publish_envelope(TOPIC_RW_REQUEST, "EvalRequest", bad)
                gate.send(TrafficRequest(3, (4.5, 4.5, 4.5)))
                evaluation = gate.result(3, timeout=5.0)
            finally:
                stop.set()
                worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert evaluation.request_id == 3
        assert twin_link.decode_errors == 6


class TestLocalTwinGate:
    def test_result_for_a_request_not_sent_raises_key_error(self):
        gate = LocalTwinGate(ScenarioConfig(psr_noise_sigma=0.0, seed=4),
                             horizon=5)
        with pytest.raises(KeyError, match="request 3"):
            gate.result(3)
        gate.send(TrafficRequest(3, (4.5, 4.5, 4.5)))
        with pytest.raises(KeyError, match="request 4"):
            gate.result(4)
        assert gate.result(3).request_id == 3  # still pending after the miss


class TestLinkTwinGate:
    def test_malformed_result_is_skipped_and_counted(self, broker):
        scenario = ScenarioConfig(psr_noise_sigma=0.0, seed=4)
        with LinkEndpoint("twin", broker.host, broker.port) as twin_link, \
             LinkEndpoint("ctrl", broker.host, broker.port) as ctrl_link, \
             TwinEvalService(twin_link, scenario).serving():
            gate = LinkTwinGate(ctrl_link, horizon=5)
            twin_link.publish_envelope(TOPIC_DT_EVAL_RESULT, "EvalResult", b"{}")
            req = TrafficRequest(3, (4.5, 4.5, 4.5))
            gate.send(req)
            evaluation = gate.result(3, timeout=5.0)
        local = LocalTwinGate(scenario, horizon=5)
        local.send(req)
        assert evaluation == local.result(3)
        assert ctrl_link.decode_errors == 1

    def test_timeout_holds_while_other_results_arrive(self, broker):
        stop = threading.Event()
        with LinkEndpoint("twin", broker.host, broker.port) as twin_link, \
             LinkEndpoint("ctrl", broker.host, broker.port) as ctrl_link:
            gate = LinkTwinGate(ctrl_link, horizon=5)
            other = encode_eval_result(TwinEvaluation(99, 1.0, (1.0,)))

            def publish_others():  # for 3 s at most, so no run hangs
                for _ in range(300):
                    if stop.wait(0.01):
                        return
                    twin_link.publish_envelope(TOPIC_DT_EVAL_RESULT,
                                               "EvalResult", other)

            publisher = threading.Thread(target=publish_others, daemon=True)
            publisher.start()
            start = time.monotonic()
            try:
                with pytest.raises(TimeoutError):
                    gate.result(3, timeout=0.3)
                elapsed = time.monotonic() - start
            finally:
                stop.set()
                publisher.join(timeout=5.0)
        assert not publisher.is_alive()
        assert 0.3 <= elapsed < 2.0
