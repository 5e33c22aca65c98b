"""The binary payloads of the four twin-traffic envelope kinds: golden bytes,
round trips and rejection of malformed bodies."""

import struct

import pytest
from hypothesis import example, given, strategies as st

from twinet import pilotguard as pg
from twinet.link import (TOPIC_DT_EVAL_RESULT, EnvelopeError, MessageEnvelope,
                         encode_envelope)
from twinet.mqtt import MAX_FRAME_BYTES, Publish, encode_packet
from twinet.netsim import CellSim, ScenarioConfig
from twinet.sadr import (
    EVAL_MAX_HORIZON,
    TrafficRequest,
    TwinEvaluation,
    decode_eval_request,
    decode_eval_result,
    encode_eval_request,
    encode_eval_result,
)


class CapturingLink:
    """Stands in for a LinkEndpoint: keeps the envelope instead of sending it."""

    def publish_envelope(self, topic, kind, payload=b""):
        self.envelope = MessageEnvelope(topic, 0, 1, kind, payload)
        return self.envelope


def traffic_update(rates, ticks=1):
    """The TrafficUpdate a cell publishes after ``ticks`` ticks at ``rates``."""
    real = CellSim(ScenarioConfig(n_ues=len(rates), psr_noise_sigma=0.0))
    real.apply_allocation(rates)
    for _ in range(ticks):
        real.step_tick()
    link = CapturingLink()
    real.publish_observation(link)
    return link.envelope


def apply_traffic_update(payload, n_ues=2):
    twin = CellSim(ScenarioConfig(n_ues=n_ues, psr_noise_sigma=0.0))
    return twin.apply_mirror_update(
        MessageEnvelope("rw/traffic", 0, 1, "TrafficUpdate", payload))


class TestGoldenBytes:
    def test_traffic_update(self):
        assert traffic_update((1.0, 4.5), ticks=2).payload == (
            b"\x00\x00\x00\x00\x00\x00\x00\x01"  # tick u64
            b"\x3f\xf0\x00\x00\x00\x00\x00\x00"  # 1.0, f8
            b"\x40\x12\x00\x00\x00\x00\x00\x00"  # 4.5, f8
        )

    def test_eval_request(self):
        req = TrafficRequest(258, (0.5, 4.5))
        assert encode_eval_request(req, 50) == (
            b"\x00\x00\x00\x00\x00\x00\x01\x02"  # request_id u64
            b"\x00\x00\x00\x32"                  # horizon u32
            b"\x3f\xe0\x00\x00\x00\x00\x00\x00"  # 0.5, f8
            b"\x40\x12\x00\x00\x00\x00\x00\x00"  # 4.5, f8
        )

    def test_eval_result(self):
        evaluation = TwinEvaluation(7, 2.5, (1.0, -2.0))
        assert encode_eval_result(evaluation) == (
            b"\x00\x00\x00\x00\x00\x00\x00\x07"  # request_id u64
            b"\x40\x04\x00\x00\x00\x00\x00\x00"  # twin_reward 2.5, f8
            b"\x3f\xf0\x00\x00\x00\x00\x00\x00"  # 1.0, f8
            b"\xc0\x00\x00\x00\x00\x00\x00\x00"  # -2.0, f8
        )

    def test_model_request(self):
        pilots = pg.PilotConfig(16, (4, 7), "10 MHz")
        assert pg.encode_model_request(pilots, 258) == (
            b"\x00\x10"                          # K u16
            b"\x00\x00\x00\x00\x00\x00\x01\x02"  # seed u64
            b"\x00\x02"                          # pilot count u16
            b"\x00\x04\x00\x07"                  # pilot indices, u16 each
            b"10 MHz"                            # label, UTF-8
        )


class TestRoundTrip:
    def test_traffic_update_one_ue(self):
        twin = CellSim(ScenarioConfig(n_ues=1, psr_noise_sigma=0.0))
        assert twin.apply_mirror_update(traffic_update((2.5,))) is not None
        twin.step_tick()
        assert twin.r_act.tolist() == [2.5]
        assert twin.last_applied_update_tick == 0

    def test_eval_request(self):
        req = TrafficRequest(2**40, (0.1, 1.0 / 3.0, 4.5))
        assert decode_eval_request(encode_eval_request(req, EVAL_MAX_HORIZON)) == (
            req, EVAL_MAX_HORIZON)

    @pytest.mark.parametrize("rewards", [(), (2.9, -0.1, 1e-300)])
    def test_eval_result(self, rewards):
        evaluation = TwinEvaluation(3, 2.241737997675, rewards)
        assert decode_eval_result(encode_eval_result(evaluation)) == evaluation

    @pytest.mark.parametrize("pilots", [
        pg.PilotConfig(128, (20, 33, 90, 107), "20 MHz"),
        pg.PilotConfig(8, (), ""),
        pg.PilotConfig(64, (9,), "kanal été ✈"),
    ])
    def test_model_request(self, pilots):
        assert pg.decode_model_request(pg.encode_model_request(pilots, 2**63)) == (
            pilots, 2**63)


class TestRejection:
    def test_short_header(self):
        with pytest.raises(EnvelopeError):
            apply_traffic_update(b"\x00" * 7)
        with pytest.raises(EnvelopeError):
            decode_eval_request(b"\x00" * 11)
        with pytest.raises(EnvelopeError):
            decode_eval_result(b"\x00" * 15)
        with pytest.raises(pg.ModelFormatError):
            pg.decode_model_request(b"\x00" * 11)

    def test_partial_trailing_f8(self):
        with pytest.raises(EnvelopeError):
            apply_traffic_update(traffic_update((1.0, 2.0)).payload[:-1])
        with pytest.raises(EnvelopeError):
            decode_eval_request(
                encode_eval_request(TrafficRequest(1, (1.0,)), 5) + b"\x00")
        with pytest.raises(EnvelopeError):
            decode_eval_result(
                encode_eval_result(TwinEvaluation(1, 2.0, (1.0, 2.0)))[:-3])

    @pytest.mark.parametrize("horizon", [0, EVAL_MAX_HORIZON + 1, 2**32 - 1])
    def test_eval_request_horizon_out_of_range(self, horizon):
        # 0 would average an empty block; above the maximum the EvalResult
        # would not fit one frame, after the twin had simulated every tick.
        req = TrafficRequest(1, (1.0,))
        with pytest.raises(EnvelopeError, match="horizon"):
            encode_eval_request(req, horizon)
        with pytest.raises(EnvelopeError, match="horizon"):
            decode_eval_request(struct.pack(">QId", 1, horizon, 1.0))

    def test_largest_eval_result_fits_one_frame(self):
        def frame_bytes(horizon):  # zero bytes stand in for the tick rewards
            payload = struct.pack(">Qd", 1, 2.0) + bytes(8 * horizon)
            head, data = encode_envelope(MessageEnvelope(
                TOPIC_DT_EVAL_RESULT, 0, 1, "EvalResult", payload))
            return sum(map(len, encode_packet(
                Publish(TOPIC_DT_EVAL_RESULT, data, 1, 1, head))))
        assert frame_bytes(EVAL_MAX_HORIZON) <= MAX_FRAME_BYTES
        with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
            frame_bytes(EVAL_MAX_HORIZON + 1)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_traffic_rate(self, rate):
        # Any 8 bytes decode as an f8; the twin cell must refuse the rate here,
        # not fail at its next tick.
        with pytest.raises(ValueError, match="finite"):
            apply_traffic_update(struct.pack(">Q2d", 0, 1.0, rate))

    def test_model_request_cut_in_pilot_indices(self):
        payload = pg.encode_model_request(pg.PilotConfig(16, (4, 7), "x"), 1)
        with pytest.raises(pg.ModelFormatError, match="truncated"):
            pg.decode_model_request(payload[:15])

    def test_non_utf8_label(self):
        payload = pg.encode_model_request(pg.PilotConfig(16, (4, 7), ""), 1)
        with pytest.raises(pg.ModelFormatError, match="UTF-8"):
            pg.decode_model_request(payload + b"\xff\xfe")


def _model_request_shaped(k, p, tail):
    return struct.pack(">HQH", k, 1, p) + tail


DECODERS = (apply_traffic_update, decode_eval_request, decode_eval_result,
            pg.decode_model_request)


@given(st.one_of(
    st.binary(max_size=64),
    st.builds(_model_request_shaped, st.integers(0, 2**16 - 1),
              st.integers(0, 6), st.binary(max_size=24)),
))
@example(b"{}")
@example(b"[1, 2]")
def test_arbitrary_bytes_raise_only_value_errors(data):
    for decode in DECODERS:
        try:
            decode(data)
        except ValueError:
            pass
