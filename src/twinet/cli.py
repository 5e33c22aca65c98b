"""Scenario runner tying the broker, link, simulator, controller, and model
pipeline into the three experiments: latency bench, traffic mirroring,
twin-gated rate control, and pilot-jamming model redeployment.

All experiment parameters live in scenario files (YAML); command-line flags
override them. Every command is reproducible: (config, seed) determines all
CSV outputs except wall-clock timing columns.
"""

from __future__ import annotations

import logging
import os
import random
import signal
import time

import click
import numpy as np
import yaml

from . import broker as broker_mod
from . import pilotguard as pg
from . import sadr as sadr_mod
from .link import (
    BENCH_CSV_SCHEMA,
    BENCH_SAMPLES,
    BENCH_SIZES,
    TOPIC_DT_MODEL_ARTIFACT,
    TOPIC_RW_TRAFFIC,
    LinkEndpoint,
    run_latency_bench,
)
from .metrics import write_metrics_csv
from .netsim import TICK_CSV_SCHEMA, CellSim, RateSchedule, ScenarioConfig

log = logging.getLogger(__name__)

DEFAULT_MIRROR_SCHEDULE = RateSchedule((
    (0.0, 1.0), (5.0, 2.0), (15.0, 0.5), (25.0, 3.0),
    (35.0, 1.5), (45.0, 4.0), (55.0, 1.0),
))

MIRROR_SUMMARY_SCHEMA = ["duration_s", "n_changes", "ticks",
                         "mean_mirror_delay_ms", "stale_updates", "seq_gaps"]


def _setup_logging() -> None:
    level = os.environ.get("TWINET_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def load_scenario_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise click.ClickException(f"scenario file {path} must hold a mapping")
    return data


def _pick(flag_value, scenario: dict, key: str, default):
    """Resolution order: CLI flag, scenario file entry, built-in default."""
    if flag_value is not None:
        return flag_value
    if key in scenario:
        return scenario[key]
    return default


FRAME_COUNT = click.IntRange(min=1)


def _pick_count(flag_value, scenario: dict, key: str, default) -> int:
    """``_pick`` for a frame count, held to the flag's range wherever it
    came from."""
    try:
        return FRAME_COUNT.convert(_pick(flag_value, scenario, key, default),
                                   None, None)
    except click.BadParameter as exc:
        raise click.BadParameter(exc.message, param_hint=f"'{key}'") from None


# -- experiment drivers (also used by the test suite) -------------------------


def run_bench_experiment(host: str, port: int, sizes=BENCH_SIZES,
                         samples: int = BENCH_SAMPLES, seed: int = 0):
    reports = run_latency_bench(host, port, sizes=sizes,
                                samples_per_size=samples,
                                rng=random.Random(seed))
    return reports


def run_mirror_experiment(host: str, port: int,
                          duration_s: float = 60.0,
                          schedule: RateSchedule = DEFAULT_MIRROR_SCHEDULE,
                          seed: int = 0,
                          realtime: bool = False):
    """Real-side traffic follows the schedule; the twin mirrors it live.

    The loop is lockstep: the twin waits for each tick's traffic update before
    stepping, so the mirrored state sequence is deterministic while the
    mirror delay remains a genuine wall-clock measurement.
    """
    config = ScenarioConfig(n_ues=1, psr_noise_sigma=0.0, seed=seed)
    real_sim = CellSim(config)
    twin_sim = CellSim(config)
    ticks = int(round(duration_s * 1000.0 / config.tick_ms))
    tick_s = config.tick_ms / 1000.0
    with LinkEndpoint("mirror-real", host, port, qos=1) as real_link, \
         LinkEndpoint("mirror-twin", host, port, qos=1) as twin_link:
        twin_link.subscribe("rw/#")
        for k in range(ticks):
            t = k * tick_s
            rate = schedule.rate_at(t)
            real_sim.apply_allocation([rate])
            real_sim.step_tick()
            real_sim.publish_observation(real_link, TOPIC_RW_TRAFFIC)
            envelope = twin_link.poll_envelope(timeout=10.0)
            if envelope is None:
                raise TimeoutError(f"traffic update for tick {k} never arrived")
            twin_sim.apply_mirror_update(envelope)
            twin_sim.step_tick()
            if realtime:
                time.sleep(tick_s)
        seq_gaps = twin_link.gap_count
    return real_sim, twin_sim, seq_gaps


def run_sadr_experiment(scenario: ScenarioConfig,
                        sadr_config: sadr_mod.SadrConfig,
                        host: str, port: int,
                        repetitions: int = 10,
                        dwell_ticks: int = 600,
                        arms: tuple[str, ...] = ("gated", "ungated")):
    """Both scenario arms with twin evaluations served over the broker."""
    with LinkEndpoint("sadr-twin", host, port, qos=1) as twin_link, \
         LinkEndpoint("sadr-ctrl", host, port, qos=1) as ctrl_link, \
         sadr_mod.TwinEvalService(twin_link, scenario).serving():
        gate = sadr_mod.LinkTwinGate(ctrl_link,
                                     sadr_config.twin_horizon_ticks)
        result = sadr_mod.run_escalating_scenario(
            scenario, sadr_config,
            gate_factory=lambda: gate,
            repetitions=repetitions,
            dwell_ticks=dwell_ticks,
            arms=arms,
        )
    return result


def run_pilot_scenario(label: str, host: str, port: int, seed: int = 0,
                       n_train: int = pg.DEFAULT_N_TRAIN,
                       n_test: int = pg.DEFAULT_N_TEST):
    """One channel scenario end to end: detect, relocate, retrain, redeploy."""
    with LinkEndpoint(f"pilot-dt-{label}", host, port, qos=1) as dt_link, \
         LinkEndpoint(f"pilot-bs-{label}", host, port, qos=1) as bs_link, \
         pg.ModelFactoryService(dt_link, n_train=n_train,
                                n_test=n_test).serving() as factory:
        bs_link.subscribe(TOPIC_DT_MODEL_ARTIFACT)
        pilots = pg.PilotConfig.for_scenario(label, seed)
        boot_model, _ = factory.build_model(pilots, seed)
        bs = pg.BaseStation(boot_model)
        rng = np.random.default_rng(seed + 1)

        clean_events = bs.detect_loop(
            pg.generate_frame(pilots, 0, rng) for _ in range(20)
        )
        jam_events = bs.detect_loop(
            pg.generate_frame(pilots, 1, rng) for _ in range(5)
        )
        if len(jam_events) != 1:
            raise RuntimeError(f"expected one jam event, got {jam_events}")
        jammed_pilot = pilots.pilot_indices[jam_events[0].jam_class - 1]
        new_pilots = pg.select_new_pilots(pilots, jammed_pilot, seed=seed + 2)
        model, timing = pg.run_redeploy_pipeline(
            bs, bs_link, factory, new_pilots, seed=seed + 3
        )
        post_events = bs.detect_loop(
            pg.generate_frame(new_pilots, 1, rng) for _ in range(5)
        )
        train_acc, test_acc = factory.last_accuracies
    return {
        "accuracy_row": {
            "channel_size": label,
            "pilot_amount": new_pilots.n_pilots,
            "train_accuracy": round(train_acc, 4),
            "test_accuracy": round(test_acc, 4),
        },
        "timing_row": timing.to_row(label),
        "clean_events": clean_events,
        "jam_events": jam_events,
        "post_events": post_events,
        "model": model,
    }


# -- click commands -----------------------------------------------------------


@click.group()
def main() -> None:
    """twinet: desk-scale digital-twin link experiments."""
    _setup_logging()


@main.command("broker")
@click.option("--bind", default="127.0.0.1:1883", show_default=True,
              help="host:port to listen on")
@click.option("--stats-csv", default=None, type=click.Path(),
              help="write routing counters here on shutdown")
def broker_cmd(bind: str, stats_csv: str | None) -> None:
    """Serve the pub/sub broker until interrupted."""
    previous = signal.signal(signal.SIGINT, _interrupt_once)
    try:
        broker_mod.run_broker(bind, stats_csv=stats_csv)
    except OSError as exc:
        raise click.ClickException(str(exc))
    finally:
        signal.signal(signal.SIGINT, previous)


def _interrupt_once(signum, frame) -> None:
    """The first SIGINT stops serving; later ones are ignored until the
    broker's stop, which writes the stats CSV, has returned."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise KeyboardInterrupt


@main.command("bench")
@click.option("--sizes", default=None,
              help="comma-separated payload sizes in bytes")
@click.option("--samples", default=None, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--scenario-file", default=None, type=click.Path(exists=True))
@click.option("--out", default=".", type=click.Path(), show_default=True)
def bench_cmd(sizes, samples, seed, scenario_file, out) -> None:
    """Latency benchmark per payload size and direction (CSV per size row)."""
    scenario = load_scenario_file(scenario_file).get("bench", {})
    sizes_text = _pick(sizes, scenario, "sizes", None)
    size_list = (tuple(int(s) for s in str(sizes_text).split(","))
                 if sizes_text else BENCH_SIZES)
    samples = int(_pick(samples, scenario, "samples", BENCH_SAMPLES))
    seed = int(_pick(seed, scenario, "seed", 0))
    with broker_mod.Broker(port=0) as broker:
        reports = run_bench_experiment(broker.host, broker.port,
                                       sizes=size_list, samples=samples,
                                       seed=seed)
    path = os.path.join(out, "bench.csv")
    write_metrics_csv([r.to_row() for r in reports], BENCH_CSV_SCHEMA, path)
    click.echo(f"wrote {path}")


@main.command("mirror")
@click.option("--duration", default=None, type=float,
              help="simulated duration in seconds")
@click.option("--seed", default=None, type=int)
@click.option("--realtime/--compressed", default=False, show_default=True,
              help="pace ticks in wall-clock time or run them back to back")
@click.option("--scenario-file", default=None, type=click.Path(exists=True))
@click.option("--out", default=".", type=click.Path(), show_default=True)
def mirror_cmd(duration, seed, realtime, scenario_file, out) -> None:
    """Traffic-mirroring proof of concept with six rate changes."""
    scenario = load_scenario_file(scenario_file).get("mirror", {})
    duration = float(_pick(duration, scenario, "duration_s", 60.0))
    seed = int(_pick(seed, scenario, "seed", 0))
    schedule = DEFAULT_MIRROR_SCHEDULE
    if "schedule" in scenario:
        schedule = RateSchedule(tuple(
            (float(t), float(r)) for t, r in scenario["schedule"]
        ))
    with broker_mod.Broker(port=0) as broker:
        real_sim, twin_sim, seq_gaps = run_mirror_experiment(
            broker.host, broker.port, duration_s=duration,
            schedule=schedule, seed=seed, realtime=realtime,
        )
    write_metrics_csv(real_sim.tick_rows(), TICK_CSV_SCHEMA,
                      os.path.join(out, "mirror_real.csv"))
    write_metrics_csv(twin_sim.tick_rows(), TICK_CSV_SCHEMA,
                      os.path.join(out, "mirror_twin.csv"))
    summary = {
        "duration_s": duration,
        "n_changes": len(schedule.change_points) - 1,
        "ticks": real_sim.tick_index,
        "mean_mirror_delay_ms": round(
            float(np.mean(twin_sim.mirror_delays_ms)), 3),
        "stale_updates": twin_sim.stale_updates,
        "seq_gaps": seq_gaps,
    }
    write_metrics_csv([summary], MIRROR_SUMMARY_SCHEMA,
                      os.path.join(out, "mirror_summary.csv"))
    click.echo(f"mean mirror delay: {summary['mean_mirror_delay_ms']} ms")


@main.command("sadr")
@click.option("--reps", default=None, type=int)
@click.option("--dwell-ticks", default=None, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--gated", "arm", flag_value="gated")
@click.option("--ungated", "arm", flag_value="ungated")
@click.option("--both", "arm", flag_value="both", default=True)
@click.option("--scenario-file", default=None, type=click.Path(exists=True))
@click.option("--out", default=".", type=click.Path(), show_default=True)
def sadr_cmd(reps, dwell_ticks, seed, arm, scenario_file, out) -> None:
    """Escalating-demand scenario, twin-gated and ungated arms."""
    section = load_scenario_file(scenario_file).get("sadr", {})
    reps = int(_pick(reps, section, "repetitions", 10))
    dwell_ticks = int(_pick(dwell_ticks, section, "dwell_ticks", 600))
    seed = int(_pick(seed, section, "seed", 0))
    scenario = ScenarioConfig(seed=seed)
    safe_setup = tuple(section.get("safe_setup", (1.5, 1.5, 1.5)))
    app_requirements = section.get("app_requirements")
    if app_requirements is None:
        app_requirements = sadr_mod.calibrate_app_requirements(
            scenario, safe_setup)
    sadr_config = sadr_mod.SadrConfig(
        risk_threshold=float(section.get("risk_threshold", 0.8)),
        app_requirements=float(app_requirements),
        safe_setup=safe_setup,
        twin_horizon_ticks=int(section.get("twin_horizon_ticks", 50)),
    )
    arms = ("gated", "ungated") if arm == "both" else (arm,)
    with broker_mod.Broker(port=0) as broker:
        result = run_sadr_experiment(scenario, sadr_config,
                                     broker.host, broker.port,
                                     repetitions=reps,
                                     dwell_ticks=dwell_ticks, arms=arms)
    path = os.path.join(out, "sadr.csv")
    write_metrics_csv(result.rows, sadr_mod.SADR_CSV_SCHEMA, path)
    click.echo(f"wrote {path}")


@main.command("pilot")
@click.option("--scenario", "scenario_label",
              type=click.Choice(["10mhz", "20mhz", "40mhz", "all"]),
              default="all", show_default=True)
@click.option("--seed", default=None, type=int)
@click.option("--n-train", default=None, type=FRAME_COUNT)
@click.option("--n-test", default=None, type=FRAME_COUNT)
@click.option("--scenario-file", default=None, type=click.Path(exists=True))
@click.option("--out", default=".", type=click.Path(), show_default=True)
def pilot_cmd(scenario_label, seed, n_train, n_test, scenario_file, out) -> None:
    """Pilot-jamming detection and model redeployment per channel scenario."""
    section = load_scenario_file(scenario_file).get("pilot", {})
    seed = int(_pick(seed, section, "seed", 0))
    n_train = _pick_count(n_train, section, "n_train", pg.DEFAULT_N_TRAIN)
    n_test = _pick_count(n_test, section, "n_test", pg.DEFAULT_N_TEST)
    label_map = {"10mhz": "10 MHz", "20mhz": "20 MHz", "40mhz": "40 MHz"}
    labels = (list(label_map.values()) if scenario_label == "all"
              else [label_map[scenario_label]])
    accuracy_rows, timing_rows = [], []
    with broker_mod.Broker(port=0) as broker:
        for label in labels:
            outcome = run_pilot_scenario(label, broker.host, broker.port,
                                         seed=seed, n_train=n_train,
                                         n_test=n_test)
            accuracy_rows.append(outcome["accuracy_row"])
            timing_rows.append(outcome["timing_row"])
            click.echo(
                f"{label}: test accuracy {outcome['accuracy_row']['test_accuracy']}, "
                f"redeploy {outcome['timing_row']['total_deployment_s']}s"
            )
    write_metrics_csv(accuracy_rows, pg.ACCURACY_CSV_SCHEMA,
                      os.path.join(out, "pilot_accuracy.csv"))
    write_metrics_csv(timing_rows, pg.TIMING_CSV_SCHEMA,
                      os.path.join(out, "pilot_timing.csv"))


if __name__ == "__main__":
    main()
