import csv
import os
import signal
import socket
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

import twinet
from twinet.cli import main
from twinet.link import BENCH_CSV_SCHEMA
from twinet.metrics import SchemaError, write_metrics_csv
from twinet.netsim import TICK_CSV_SCHEMA


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestMetricsWriter:
    def test_schema_mismatch_raises_before_writing(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [{"a": 1, "b": 2}, {"a": 1, "wrong": 2}]
        with pytest.raises(SchemaError):
            write_metrics_csv(rows, ["a", "b"], str(path))
        assert not path.exists()

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_metrics_csv([], ["x", "y"], str(path))
        assert path.read_text() == "x,y\n"

    def test_column_order_follows_schema(self, tmp_path):
        path = tmp_path / "ordered.csv"
        write_metrics_csv([{"y": 2, "x": 1}], ["x", "y"], str(path))
        assert path.read_text() == "x,y\n1,2\n"


class TestBenchCommand:
    def test_writes_csv_with_expected_schema(self, tmp_path):
        run_cli(["bench", "--sizes", "1,100", "--samples", "5",
                 "--seed", "1", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "bench.csv")
        assert len(rows) == 4  # 2 sizes x 2 directions
        assert list(rows[0]) == BENCH_CSV_SCHEMA
        assert {r["size_bytes"] for r in rows} == {"1", "100"}
        assert {r["direction"] for r in rows} == {"real->twin", "twin->real"}

    def test_flag_overrides_scenario_file(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text("bench:\n  sizes: '1'\n  samples: 3\n  seed: 2\n")
        run_cli(["bench", "--scenario-file", str(scenario),
                 "--samples", "4", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "bench.csv")
        assert len(rows) == 2  # sizes taken from the file
        assert all(int(r["n"]) == 4 for r in rows)  # samples from the flag


class TestMirrorCommand:
    def test_outputs_and_rate_agreement(self, tmp_path):
        run_cli(["mirror", "--duration", "2", "--seed", "0",
                 "--out", str(tmp_path)])
        real = read_csv(tmp_path / "mirror_real.csv")
        twin = read_csv(tmp_path / "mirror_twin.csv")
        assert list(real[0]) == TICK_CSV_SCHEMA
        assert len(real) == len(twin) == 20  # 2 s at 100 ms ticks, 1 UE
        for r, t in zip(real, twin):
            assert (r["tick"], r["r_act"]) == (t["tick"], t["r_act"])
        summary = read_csv(tmp_path / "mirror_summary.csv")[0]
        assert summary["stale_updates"] == "0"
        assert summary["seq_gaps"] == "0"

    def test_deterministic_modulo_delay_column(self, tmp_path):
        def run(sub):
            out = tmp_path / sub
            out.mkdir()
            run_cli(["mirror", "--duration", "2", "--seed", "7",
                     "--out", str(out)])
            rows = read_csv(out / "mirror_twin.csv")
            for row in rows:
                row.pop("mirror_delay_ms")
            return rows
        assert run("a") == run("b")


class TestSadrCommand:
    def test_both_arms_written_and_deterministic(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "sadr:\n  twin_horizon_ticks: 10\n  app_requirements: 2.9\n"
        )
        def run(sub):
            out = tmp_path / sub
            out.mkdir()
            run_cli(["sadr", "--reps", "1", "--dwell-ticks", "10",
                     "--seed", "3", "--both",
                     "--scenario-file", str(scenario), "--out", str(out)])
            return (out / "sadr.csv").read_bytes()
        first = run("a")
        rows = list(csv.DictReader(first.decode().splitlines()))
        assert len(rows) == 18  # 9 instances x 2 arms x 1 rep
        assert {r["arm"] for r in rows} == {"gated", "ungated"}
        assert first == run("b")

    def test_single_arm_flag(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "sadr:\n  twin_horizon_ticks: 10\n  app_requirements: 2.9\n"
        )
        run_cli(["sadr", "--reps", "1", "--dwell-ticks", "10", "--seed", "3",
                 "--ungated", "--scenario-file", str(scenario),
                 "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "sadr.csv")
        assert {r["arm"] for r in rows} == {"ungated"}


class TestPilotCommand:
    def test_single_scenario_end_to_end(self, tmp_path):
        run_cli(["pilot", "--scenario", "10mhz", "--seed", "0",
                 "--n-train", "600", "--n-test", "150",
                 "--out", str(tmp_path)])
        accuracy = read_csv(tmp_path / "pilot_accuracy.csv")
        timing = read_csv(tmp_path / "pilot_timing.csv")
        assert len(accuracy) == len(timing) == 1
        assert accuracy[0]["channel_size"] == "10 MHz"
        assert accuracy[0]["pilot_amount"] == "4"
        assert float(accuracy[0]["test_accuracy"]) > 0.8
        assert (float(timing[0]["total_deployment_s"])
                >= float(timing[0]["model_creation_s"]))

    # The frame counts' range rules hold for every command's flags.
    @pytest.mark.parametrize("command, flag, value", [
        pytest.param("pilot", "--n-train", "0", id="--n-train"),
        pytest.param("pilot", "--n-test", "0", id="--n-test"),
        pytest.param("pilot", "--seed", "-1", id="pilot--seed"),
        pytest.param("bench", "--samples", "0", id="bench--samples"),
        pytest.param("bench", "--sizes", "-5", id="bench--sizes"),
        pytest.param("bench", "--seed", "-1", id="bench--seed"),
        pytest.param("sadr", "--dwell-ticks", "0", id="sadr--dwell-ticks"),
        pytest.param("sadr", "--seed", "-1", id="sadr--seed"),
        pytest.param("mirror", "--duration", "0.04", id="mirror--duration"),
        pytest.param("mirror", "--seed", "-1", id="mirror--seed"),
    ])
    def test_zero_frames_flag_rejected(self, tmp_path, command, flag, value):
        result = CliRunner().invoke(main, [command, flag, value,
                                           "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert f"Invalid value for '{flag}'" in result.output
        assert "is not in the range" in result.output
        assert os.listdir(tmp_path) == []

    def test_zero_frames_in_scenario_file_rejected(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text("pilot:\n  n_train: 600\n  n_test: 0\n")
        result = CliRunner().invoke(main, ["pilot", "--scenario", "10mhz",
                                           "--scenario-file", str(scenario),
                                           "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "'n_test'" in result.output and "x>=1" in result.output
        assert not (tmp_path / "pilot_accuracy.csv").exists()


class TestBrokerCommand:
    def test_second_sigint_still_writes_stats_csv(self, tmp_path):
        # Sent back to back, the second SIGINT tends to land inside
        # Broker.stop(); unless it is ignored there, the CSV is lost in
        # about half the runs.
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(twinet.__file__))}
        for attempt in range(3):
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                port = probe.getsockname()[1]
            path = tmp_path / f"stats{attempt}.csv"
            proc = subprocess.Popen(
                [sys.executable, "-m", "twinet.cli", "broker",
                 "--bind", f"127.0.0.1:{port}", "--stats-csv", str(path)],
                env=env, stderr=subprocess.DEVNULL)
            try:
                deadline = time.monotonic() + 10.0
                while True:
                    try:
                        socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
                        break
                    except OSError:
                        assert time.monotonic() < deadline, "broker never listened"
                        time.sleep(0.05)
                proc.send_signal(signal.SIGINT)
                proc.send_signal(signal.SIGINT)
                proc.wait(timeout=5.0)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            assert proc.returncode == 1  # click's "Aborted!"
            assert path.read_text().startswith("counter,value\n")


class TestScenarioFileValidation:
    @pytest.mark.parametrize("entry", ["twin_horizon_ticks: 0",
                                       "risk_threshold: 0", "seed: -1"])
    def test_out_of_range_sadr_entry_rejected(self, tmp_path, entry):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(f"sadr:\n  {entry}\n")
        result = CliRunner().invoke(
            main, ["sadr", "--reps", "1", "--dwell-ticks", "10",
                   "--scenario-file", str(scenario), "--out", str(tmp_path)],
        )
        assert result.exit_code == 2
        key = entry.partition(":")[0]
        assert f"Invalid value for '{key}'" in result.output
        assert not (tmp_path / "sadr.csv").exists()

    def test_non_mapping_file_rejected(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text("- just\n- a\n- list\n")
        result = CliRunner().invoke(
            main, ["bench", "--sizes", "1", "--samples", "2",
                   "--scenario-file", str(scenario), "--out", str(tmp_path)],
        )
        assert result.exit_code != 0
        assert "mapping" in result.output
