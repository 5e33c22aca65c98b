import numpy as np
import pytest

from twinet.link import LinkEndpoint
from twinet.netsim import (
    PACKETS_PER_MBPS,
    CellSim,
    RateSchedule,
    ScenarioConfig,
)


def sim(sigma=0.0, seed=0, n_ues=3, capacity=9.0):
    return CellSim(ScenarioConfig(n_ues=n_ues, capacity_mbps=capacity,
                                  psr_noise_sigma=sigma, seed=seed))


def psr_block(rates, ticks=1, sigma=0.0):
    """The PSR of ``ticks`` ticks at ``rates`` in a 9 Mbps cell, from
    ``CellSim.step_ticks``."""
    s = sim(sigma=sigma, n_ues=len(rates))
    s.apply_allocation(rates)
    return s.step_ticks(ticks)[0]


class TestComputePsr:
    """The PSR rule: min(1, capacity / demand) plus noise, clamped to [0, 1]."""

    def test_under_capacity_is_one(self):
        assert np.all(psr_block([1.5, 1.5, 1.5]) == 1.0)

    def test_over_capacity_ratio(self):
        assert psr_block([4.5, 4.5, 4.5])[0] == pytest.approx([9 / 13.5] * 3)

    def test_zero_demand_convention(self):
        assert np.all(psr_block([0.0, 0.0, 0.0], sigma=0.5) == 1.0)

    def test_bounds_with_noise(self):
        psr = psr_block([5.0, 5.0], ticks=200, sigma=0.3)
        assert psr.shape == (200, 2)
        assert np.all((psr >= 0.0) & (psr <= 1.0))
        assert psr.min() < 9 / 10 < psr.max()  # noise on both sides of the base

    def test_deterministic_given_seed(self):
        def run():
            s = sim(sigma=0.05, seed=42)
            s.apply_allocation([4.0, 4.0, 4.0])
            return [tuple(ue.psr for ue in s.step_tick().ues) for _ in range(50)]
        assert run() == run()


class TestStepTick:
    def test_zero_rates_well_formed(self):
        s = sim()
        state = s.step_tick()
        assert all(ue.packets_sent == 0 and ue.psr == 1.0 for ue in state.ues)
        assert state.aggregate_demand_mbps == 0.0

    def test_psr_one_receives_all(self):
        s = sim()
        s.apply_allocation([1.0, 1.0, 1.0])
        state = s.step_tick()
        for ue in state.ues:
            assert ue.packets_received == ue.packets_sent == int(
                1.0 * PACKETS_PER_MBPS * 0.1
            )

    def test_binomial_mean(self):
        # psr 0.5 via demand 2x capacity; 100 packets sent per tick per UE
        s = CellSim(ScenarioConfig(n_ues=1, capacity_mbps=5.0,
                                   psr_noise_sigma=0.0, seed=3))
        s.apply_allocation([10.0])
        received = [s.step_tick().ues[0].packets_received for _ in range(1000)]
        mean = np.mean(received)
        # 3 sigma of a binomial(100, 0.5) mean over 1000 ticks
        assert abs(mean - 50.0) < 1.5

    def test_conservation_every_tick(self):
        s = sim(sigma=0.2, seed=9)
        s.apply_allocation([3.0, 3.0, 4.0])
        for _ in range(200):
            state = s.step_tick()
            for ue in state.ues:
                assert ue.packets_received <= ue.packets_sent
                assert 0.0 <= ue.psr <= 1.0

    def test_allocation_applies_at_next_boundary(self):
        s = sim()
        s.apply_allocation([1.0, 1.0, 1.0])
        assert s.step_tick().ues[0].r_act_mbps == 1.0
        s.apply_allocation([2.0, 2.0, 2.0])
        # not yet stepped: last state unchanged
        assert s.tick_log[-1].ues[0].r_act_mbps == 1.0
        assert s.step_tick().ues[0].r_act_mbps == 2.0

    def test_allocation_validation(self):
        s = sim()
        with pytest.raises(ValueError):
            s.apply_allocation([])
        with pytest.raises(ValueError):
            s.apply_allocation([-1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            s.apply_allocation([2.0, 2.0, 2.0], expected_mbps=[1.0, 2.0, 2.0])

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rates_rejected(self, rate):
        s = sim()
        with pytest.raises(ValueError, match="finite"):
            s.apply_allocation([rate, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            s.apply_allocation([1.0, 0.0, 0.0], expected_mbps=[rate, 0.0, 0.0])
        # the rejected rates were never staged
        assert s.step_tick().aggregate_demand_mbps == 0.0

    def test_identical_inputs_identical_state_sequences(self):
        def run():
            s = sim(sigma=0.1, seed=21)
            out = []
            for k in range(100):
                if k % 10 == 0:
                    s.apply_allocation([k * 0.1, 1.0, 2.0])
                out.append(s.step_tick())
            return out
        assert run() == run()


class TestRateSchedule:
    def test_piecewise_lookup(self):
        schedule = RateSchedule(((0.0, 10.0), (10.0, 20.0)))
        assert schedule.rate_at(5.0) == 10.0

    def test_inclusive_at_change_point(self):
        schedule = RateSchedule(((0.0, 10.0), (10.0, 20.0)))
        assert schedule.rate_at(10.0) == 20.0

    def test_before_first_point(self):
        schedule = RateSchedule(((0.0, 10.0),))
        assert schedule.rate_at(-1.0) == 0.0

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValueError):
            RateSchedule(((0.0, 1.0), (0.0, 2.0)))


class TestMirroring:
    def test_update_and_duplicate_ignored(self, broker):
        real = CellSim(ScenarioConfig(n_ues=1, psr_noise_sigma=0.0, seed=0))
        twin = CellSim(ScenarioConfig(n_ues=1, psr_noise_sigma=0.0, seed=0))
        with LinkEndpoint("rw", broker.host, broker.port) as rw, \
             LinkEndpoint("dt", broker.host, broker.port) as dt:
            dt.subscribe("rw/#")
            real.apply_allocation([2.0])
            real.step_tick()
            real.publish_observation(rw)
            env = dt.poll_envelope(timeout=2.0)
            delay = twin.apply_mirror_update(env)
            assert delay is not None and delay >= 0
            assert twin.step_tick().ues[0].r_act_mbps == 2.0
            # duplicate: ignored and counted, state unchanged
            assert twin.apply_mirror_update(env) is None
            assert twin.stale_updates == 1
            assert twin.step_tick().ues[0].r_act_mbps == 2.0

    def test_idempotence_equals_single_application(self, broker):
        def mirror(times):
            twin = CellSim(ScenarioConfig(n_ues=1, psr_noise_sigma=0.0, seed=5))
            real = CellSim(ScenarioConfig(n_ues=1, psr_noise_sigma=0.0, seed=5))
            with LinkEndpoint("rw2", broker.host, broker.port) as rw, \
                 LinkEndpoint(f"dt{times}", broker.host, broker.port) as dt:
                dt.subscribe("rw/#")
                real.apply_allocation([3.0])
                real.step_tick()
                real.publish_observation(rw)
                env = dt.poll_envelope(timeout=2.0)
                for _ in range(times):
                    twin.apply_mirror_update(env)
            return [twin.step_tick() for _ in range(5)]
        assert mirror(1) == mirror(2)


# Allocation plan for the oracle tests: rates, then ticks at those rates.
# Covers a change mid-run, zero demand and an over-capacity demand.
PLAN = (((4.0, 4.0, 4.0), 3), ((0.0, 0.0, 0.0), 2), ((1.0, 0.0, 2.5), 3))


def run_plan(s, blocks):
    for rates, ticks in PLAN:
        s.apply_allocation(rates)
        if blocks:
            s.step_ticks(ticks)
        else:
            for _ in range(ticks):
                s.step_tick()
    return s


class TestStepTicks:
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_block_equals_single_ticks(self, sigma):
        single, block = run_plan(sim(sigma, seed=11), False), run_plan(sim(sigma, seed=11), True)
        assert block.tick_index == single.tick_index == 8
        assert block.tick_log == single.tick_log
        assert block.tick_rows() == single.tick_rows()
        assert block.rng.bit_generator.state == single.rng.bit_generator.state

    def test_block_returns_its_rows(self):
        s = sim(sigma=0.05, seed=3)
        s.apply_allocation([4.0, 4.0, 4.0])
        s.step_ticks(4)
        psr, received = s.step_ticks(5)
        assert psr.shape == received.shape == (5, 3)
        log = s.tick_log[4:]
        assert psr.tolist() == [[ue.psr for ue in t.ues] for t in log]
        assert received.tolist() == [[ue.packets_received for ue in t.ues] for t in log]

    def test_zero_count_and_history_growth(self):
        s = sim(sigma=0.05, seed=4)
        s.apply_allocation([3.0, 3.0, 3.0])
        assert s.step_ticks(0)[0].shape == (0, 3)
        assert s.tick_index == 0 and s.tick_log == ()
        states = [s.step_tick() for _ in range(37)]  # grows the history several times
        assert s.tick_log == tuple(states) and states[-1].tick_index == 36
        with pytest.raises(ValueError):
            s.step_ticks(-1)

    def test_golden_ticks(self):
        # Recorded with the per-tick simulator that predates step_ticks: a
        # change to the random stream or its order must fail here.
        s = run_plan(sim(sigma=0.05, seed=11), True)
        assert [tuple(ue.psr for ue in t.ues) for t in s.tick_log] == [
            (0.7517096383626592, 0.8179873770154981, 0.8112360539292967),
            (0.778486317878598, 0.7471967780477191, 0.7873442808128271),
            (0.7840189226637073, 0.7431716833011586, 0.7310450716462573),
            (1.0, 1.0, 1.0), (1.0, 1.0, 1.0),
            (0.9923606910714902, 1.0, 0.9564829679026414),
            (0.9664717088156061, 0.9039829704940986, 0.959297316802732),
            (0.9253768057968483, 1.0, 1.0),
        ]
        assert [tuple(ue.packets_received for ue in t.ues) for t in s.tick_log] == [
            (35, 35, 29), (30, 31, 32), (29, 29, 29), (0, 0, 0), (0, 0, 0),
            (10, 0, 24), (10, 0, 23), (10, 0, 25),
        ]
