"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

These are end-to-end, tolerance-based checks over the full stack; unit-level
edge cases live in the per-module test files.
"""

import csv
import random
import string
import time

import numpy as np
import pytest
from click.testing import CliRunner

from twinet import pilotguard as pg
from twinet import sadr as sadr_mod
from twinet.broker import Broker
from twinet.cli import (
    main,
    run_bench_experiment,
    run_mirror_experiment,
    run_pilot_scenario,
)
from twinet.link import MessageEnvelope, decode_envelope, encode_envelope
from twinet.mqtt import (
    ConnAck,
    Connect,
    Disconnect,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    SubAck,
    Subscribe,
    decode_packet,
    encode_packet,
    topic_matches,
    validate_filter,
)
from twinet.netsim import CellSim, NetworkState, ScenarioConfig, UEStat
from twinet.sadr import (
    DEFER_TO_TWIN,
    LAUNCH_DIRECTLY,
    SadrConfig,
    SadrController,
    TrafficRequest,
    TwinEvaluation,
    per_tick_reward,
    run_escalating_scenario,
    twin_evaluate,
)

from pilot_data import make_dataset, snapshot


def report(number: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"\ncriterion {number} ({name}): {status}")
    assert not failures, failures


# -- criterion 1: codec soundness ---------------------------------------------


def random_packet(rng: random.Random):
    def text(n=8):
        return "".join(rng.choices(string.ascii_letters + "/-_", k=rng.randint(1, n)))

    choice = rng.randrange(9)
    if choice == 0:
        return Connect(text())
    if choice == 1:
        return ConnAck(rng.randrange(6))
    if choice == 2:
        qos = rng.randrange(2)
        return Publish(
            topic=text().replace("+", "a").replace("#", "b") or "t",
            payload=rng.randbytes(rng.randrange(64)),
            qos=qos,
            packet_id=rng.randint(1, 65535) if qos else None,
        )
    if choice == 3:
        return PubAck(rng.randint(1, 65535))
    if choice == 4:
        n = rng.randint(1, 4)
        return Subscribe(rng.randint(1, 65535),
                         tuple((text(), rng.randrange(2)) for _ in range(n)))
    if choice == 5:
        return SubAck(rng.randint(1, 65535),
                      tuple(rng.randrange(2) for _ in range(rng.randint(1, 4))))
    return (PingReq(), PingResp(), Disconnect())[choice - 6]


def random_envelope(rng: random.Random) -> MessageEnvelope:
    kinds = ("TrafficUpdate", "EvalRequest", "EvalResult", "ModelRequest",
             "ModelArtifactMsg", "BenchPing", "BenchPong")
    return MessageEnvelope(
        topic="/".join(rng.choices(["rw", "dt", "x"], k=rng.randint(1, 3))),
        seq=rng.randrange(2**31),
        sent_at=rng.randrange(2**53),
        kind=rng.choice(kinds),
        payload=rng.randbytes(rng.randrange(32)),
    )


def naive_match(filter_levels, topic_levels) -> bool:
    if not filter_levels:
        return not topic_levels
    head, rest = filter_levels[0], filter_levels[1:]
    if head == "#":
        return True
    if not topic_levels:
        return False
    if head == "+" or head == topic_levels[0]:
        return naive_match(rest, topic_levels[1:])
    return False


def random_filter(rng: random.Random) -> str:
    levels = rng.choices(["a", "b", "c", "+"], k=rng.randint(1, 4))
    if rng.random() < 0.3:
        levels.append("#")
    return "/".join(levels)


def test_criterion_1_codec_soundness():
    failures = []
    rng = random.Random(1)
    start = time.perf_counter()
    for i in range(10_000):
        packet = random_packet(rng)
        if decode_packet(b"".join(encode_packet(packet))) != packet:
            failures.append(f"packet round trip failed: {packet}")
            break
    for i in range(10_000):
        env = random_envelope(rng)
        if decode_envelope(env.topic, *encode_envelope(env)) != env:
            failures.append(f"envelope round trip failed: {env}")
            break
    for i in range(10_000):
        filt = random_filter(rng)
        topic = "/".join(rng.choices(["a", "b", "c", "d"], k=rng.randint(1, 4)))
        expected = naive_match(filt.split("/"), topic.split("/"))
        if topic_matches(validate_filter(filt), topic) != expected:
            failures.append(f"matcher disagrees with oracle: {filt} vs {topic}")
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    report(1, "codec soundness", failures)


# -- criterion 2: latency bench trend -----------------------------------------


def test_criterion_2_latency_bench_trend():
    failures = []
    with Broker(port=0) as broker:
        reports = run_bench_experiment(broker.host, broker.port, seed=2)
    by_direction = {}
    for r in reports:
        by_direction.setdefault(r.direction, []).append(r)
    for direction, items in by_direction.items():
        items.sort(key=lambda r: r.payload_size)
        means = [r.mean_ms for r in items]
        if means != sorted(means):
            failures.append(f"{direction}: means not non-decreasing: {means}")
        for r in items:
            if r.payload_size <= 10_000 and r.mean_ms >= 20.0:
                failures.append(
                    f"{direction}: {r.payload_size} B mean {r.mean_ms:.2f} ms >= 20 ms"
                )
    report(2, "latency bench trend", failures)


# -- criterion 3: traffic mirroring -------------------------------------------


def test_criterion_3_traffic_mirroring():
    failures = []
    with Broker(port=0) as broker:
        real_sim, twin_sim, seq_gaps = run_mirror_experiment(
            broker.host, broker.port, duration_s=60.0, seed=3, realtime=False,
        )
    for real_state, twin_state in zip(real_sim.tick_log, twin_sim.tick_log):
        if real_state.ues[0].r_act_mbps != twin_state.ues[0].r_act_mbps:
            failures.append(
                f"tick {twin_state.tick_index}: twin rate "
                f"{twin_state.ues[0].r_act_mbps} != real "
                f"{real_state.ues[0].r_act_mbps}"
            )
            break
    mean_delay = float(np.mean(twin_sim.mirror_delays_ms))
    if mean_delay >= 20.0:
        failures.append(f"mean mirror delay {mean_delay:.2f} ms >= 20 ms")
    if twin_sim.stale_updates != 0:
        failures.append(f"{twin_sim.stale_updates} stale updates applied")
    if seq_gaps != 0:
        failures.append(f"{seq_gaps} sequence gaps at qos 1")
    report(3, "traffic mirroring", failures)


# -- criterion 4: controller truth table --------------------------------------


def test_criterion_4_controller_truth_table():
    failures = []
    threshold, app_req = 0.8, 2.5
    safe = (1.5, 1.5, 1.5)
    # risk = sum(rates)/capacity = r/3 for three equal UEs at capacity 9
    risk_cases = {"below": 1.5, "equal": 2.4, "above": 4.5}
    reward_cases = {"below": 2.4, "equal": 2.5, "above": 2.6}
    for risk_name, rate in risk_cases.items():
        for reward_name, twin_reward in reward_cases.items():
            sim = CellSim(ScenarioConfig(psr_noise_sigma=0.0, seed=0))
            config = SadrConfig(risk_threshold=threshold,
                                app_requirements=app_req, safe_setup=safe)
            sent = []
            ctrl = SadrController(config, sim, send_eval_request=sent.append)
            req = TrafficRequest(1, (rate, rate, rate))
            decision = ctrl.on_traffic_request(req)
            if risk_name in ("below", "equal"):
                expected = ("launch_directly", (rate,) * 3)
            else:
                ctrl.on_twin_evaluation_completed(
                    TwinEvaluation(1, twin_reward, (twin_reward,))
                )
                granted = reward_name in ("equal", "above")
                expected = ("defer_to_twin", (rate,) * 3 if granted else safe)
            case = f"risk {risk_name}, reward {reward_name}"
            if decision != (LAUNCH_DIRECTLY if risk_name != "above"
                            else DEFER_TO_TWIN):
                failures.append(f"{case}: decision {decision}")
            if ctrl.applied_rates != expected[1]:
                failures.append(
                    f"{case}: applied {ctrl.applied_rates}, expected {expected[1]}"
                )
            if (risk_name == "above") != bool(sent):
                failures.append(f"{case}: eval request sent={bool(sent)}")
    report(4, "controller truth table", failures)


# -- criterion 5: twin-gated benefit ------------------------------------------


def test_criterion_5_twin_gated_benefit():
    failures = []
    scenario = ScenarioConfig(seed=5)
    safe = (1.5, 1.5, 1.5)
    config = SadrConfig(
        risk_threshold=0.8,
        app_requirements=sadr_mod.calibrate_app_requirements(scenario, safe),
        safe_setup=safe,
    )
    result = run_escalating_scenario(scenario, config, repetitions=10,
                                     dwell_ticks=200)
    top, bottom = (6, 7, 8), (0, 1, 2)
    gated_top = result.mean_reward("gated", top)
    ungated_top = result.mean_reward("ungated", top)
    if gated_top < 1.10 * ungated_top:
        failures.append(
            f"top third: gated {gated_top:.4f} not >= 1.10 x ungated "
            f"{ungated_top:.4f}"
        )
    gated_bottom = result.mean_reward("gated", bottom)
    ungated_bottom = result.mean_reward("ungated", bottom)
    if abs(gated_bottom - ungated_bottom) > 0.02 * ungated_bottom:
        failures.append(
            f"bottom third differs: gated {gated_bottom:.4f} vs ungated "
            f"{ungated_bottom:.4f}"
        )
    report(5, "twin-gated benefit", failures)


# -- criterion 6: reward oracle -----------------------------------------------


def brute_force_reward(state: NetworkState) -> float:
    total = 0.0
    for ue in state.ues:
        if ue.r_exp_mbps > 0:
            deficit = (ue.r_exp_mbps - ue.r_act_mbps) / ue.r_exp_mbps
        else:
            deficit = 0.0
        total += ue.psr - deficit
    return total


def test_criterion_6_reward_oracle():
    failures = []
    rng = np.random.default_rng(6)
    for i in range(1000):
        n = int(rng.integers(1, 6))
        ues = []
        for _ in range(n):
            r_exp = float(rng.uniform(0, 5)) if rng.random() > 0.1 else 0.0
            ues.append(UEStat(
                r_exp_mbps=r_exp,
                r_act_mbps=float(rng.uniform(0, max(r_exp, 1.0))),
                packets_sent=0, packets_received=0,
                psr=float(rng.uniform(0, 1)),
            ))
        state = NetworkState(i, tuple(ues), sum(u.r_act_mbps for u in ues))
        if abs(per_tick_reward(state) - brute_force_reward(state)) > 1e-12:
            failures.append(f"reward mismatch on state {i}")
            break
    sim = CellSim(ScenarioConfig(psr_noise_sigma=0.05, seed=6))
    req = TrafficRequest(1, (4.0, 4.0, 4.0))
    evaluation = twin_evaluate(sim, req, horizon=40)
    log_mean = float(np.mean([per_tick_reward(s) for s in sim.tick_log]))
    if abs(evaluation.twin_reward - log_mean) > 1e-12:
        failures.append(
            f"twin reward {evaluation.twin_reward} != tick-log mean {log_mean}"
        )
    report(6, "reward oracle", failures)


# -- criterion 7: classifier correctness --------------------------------------


def test_criterion_7_classifier_correctness():
    failures = []
    rng = np.random.default_rng(7)
    h = 1e-5
    for case in range(100):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(2, 6))
        classes = int(rng.integers(2, 5))
        x = rng.normal(size=(n, k))
        y = rng.integers(0, classes, n)
        weights = rng.normal(scale=0.5, size=(classes, k))
        bias = rng.normal(scale=0.5, size=classes)
        _, grad_w, grad_b = pg.loss_and_gradient(weights, bias, x, y)
        worst = 0.0
        for idx in np.ndindex(*weights.shape):
            up, down = weights.copy(), weights.copy()
            up[idx] += h
            down[idx] -= h
            fd = (pg.loss_and_gradient(up, bias, x, y)[0]
                  - pg.loss_and_gradient(down, bias, x, y)[0]) / (2 * h)
            denom = max(abs(fd), abs(grad_w[idx]), 1e-8)
            worst = max(worst, abs(grad_w[idx] - fd) / denom)
        for j in range(classes):
            up, down = bias.copy(), bias.copy()
            up[j] += h
            down[j] -= h
            fd = (pg.loss_and_gradient(weights, up, x, y)[0]
                  - pg.loss_and_gradient(weights, down, x, y)[0]) / (2 * h)
            denom = max(abs(fd), abs(grad_b[j]), 1e-8)
            worst = max(worst, abs(grad_b[j] - fd) / denom)
        if worst >= 1e-4:
            failures.append(f"case {case}: gradient relative error {worst:.2e}")
            break
    config = pg.PilotConfig.for_scenario("10 MHz", seed=7)
    x_train, y_train, _, _, stats = make_dataset(config, 1000, 200, seed=7)
    _, history = pg.train_model(config, x_train, y_train, stats,
                                learning_rate=0.01, seed=7)
    if not np.all(np.diff(history) <= 1e-12):
        failures.append("training loss increased between iterations")
    report(7, "classifier correctness", failures)


# -- criterion 8: accuracy trend ----------------------------------------------


def test_criterion_8_accuracy_trend():
    failures = []
    thresholds = {"10 MHz": 0.95, "20 MHz": 0.93, "40 MHz": 0.90}
    seeds = range(5)
    means = {}
    for label, threshold in thresholds.items():
        accuracies = []
        for seed in seeds:
            config = pg.PilotConfig.for_scenario(label, seed=seed)
            x_train, y_train, x_test, y_test, stats = make_dataset(
                config, seed=seed
            )
            model, _ = pg.train_model(config, x_train, y_train, stats, seed=seed)
            accuracies.append(pg.accuracy(model, x_test, y_test))
        means[label] = float(np.mean(accuracies))
        if means[label] < threshold:
            failures.append(
                f"{label}: mean held-out accuracy {means[label]:.4f} < {threshold}"
            )
    if not means["10 MHz"] >= means["20 MHz"] >= means["40 MHz"]:
        failures.append(f"accuracy ordering violated: {means}")
    report(8, "accuracy trend", failures)


# -- criterion 9: redeploy pipeline -------------------------------------------


def test_criterion_9_redeploy_pipeline():
    failures = []
    timing_columns = ["channel_size", "data_transfer_s", "data_collection_s",
                      "data_processing_s", "model_creation_s",
                      "total_deployment_s"]
    with Broker(port=0) as broker:
        for label in ("10 MHz", "20 MHz", "40 MHz"):
            outcome = run_pilot_scenario(label, broker.host, broker.port, seed=9)
            row = outcome["timing_row"]
            if list(row) != timing_columns:
                failures.append(f"{label}: timing columns {list(row)}")
            if any(v < 0 for k, v in row.items() if k != "channel_size"):
                failures.append(f"{label}: negative stage timing: {row}")
            if row["total_deployment_s"] < row["model_creation_s"]:
                failures.append(f"{label}: total < model_creation: {row}")
            if outcome["clean_events"]:
                failures.append(f"{label}: events on clean frames")
            if len(outcome["jam_events"]) != 1:
                failures.append(f"{label}: {len(outcome['jam_events'])} jam events")
            if len(outcome["post_events"]) != 1:
                failures.append(
                    f"{label}: relocated-pilot jam not detected after the swap"
                )
    # atomicity: concurrent readers during repeated installs
    import threading
    config = pg.PilotConfig(16, (4, 7, 10), "10 MHz")
    x, y, _, _, stats = make_dataset(config, 100, 20, seed=9)
    model, _ = pg.train_model(config, x, y, stats, seed=9, iterations=1)
    station = pg.BaseStation(model)
    stop = threading.Event()
    mixed = []

    def reader():
        while not stop.is_set():
            observed_model, observed_pilots = snapshot(station)
            if observed_model.pilot_config is not observed_pilots:
                mixed.append(True)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    current = config
    for i in range(30):
        current = pg.select_new_pilots(current, current.pilot_indices[0], seed=i)
        x, y, _, _, s = make_dataset(current, 50, 10, seed=i)
        next_model, _ = pg.train_model(current, x, y, s, seed=i, iterations=1)
        station.install(next_model)
    stop.set()
    for t in threads:
        t.join()
    if mixed:
        failures.append("reader observed a mixed (model, pilots) pair")
    report(9, "redeploy pipeline", failures)


# -- criterion 10: determinism ------------------------------------------------


def rows_without(path, drop: set[str]):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for column in drop:
            row.pop(column, None)
    return rows


def test_criterion_10_determinism(tmp_path):
    failures = []
    runner = CliRunner()
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(
        "sadr:\n  twin_horizon_ticks: 10\n  app_requirements: 2.9\n"
    )
    commands = {
        "bench": (["bench", "--sizes", "1,100", "--samples", "5",
                   "--seed", "10"],
                  [("bench.csv", {"mean_ms", "p50_ms", "p99_ms"})]),
        "mirror": (["mirror", "--duration", "2", "--seed", "10"],
                   [("mirror_real.csv", {"mirror_delay_ms"}),
                    ("mirror_twin.csv", {"mirror_delay_ms"}),
                    ("mirror_summary.csv", {"mean_mirror_delay_ms"})]),
        "sadr": (["sadr", "--reps", "1", "--dwell-ticks", "10",
                  "--seed", "10", "--scenario-file", str(scenario)],
                 [("sadr.csv", set())]),
        "pilot": (["pilot", "--scenario", "10mhz", "--seed", "10",
                   "--n-train", "600", "--n-test", "150"],
                  [("pilot_accuracy.csv", set()),
                   ("pilot_timing.csv", {"data_transfer_s", "data_collection_s",
                                         "data_processing_s", "model_creation_s",
                                         "total_deployment_s"})]),
    }
    for name, (args, outputs) in commands.items():
        dirs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            out.mkdir()
            result = runner.invoke(main, args + ["--out", str(out)],
                                   catch_exceptions=False)
            if result.exit_code != 0:
                failures.append(f"{name} run {attempt} failed: {result.output}")
            dirs.append(out)
        for filename, drop in outputs:
            first = rows_without(dirs[0] / filename, drop)
            second = rows_without(dirs[1] / filename, drop)
            if first != second:
                failures.append(f"{name}: {filename} differs between reruns")
    report(10, "determinism", failures)
