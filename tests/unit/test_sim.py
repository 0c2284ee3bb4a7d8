"""Simulation substrate: virtual clock, cost meter, deterministic RNG."""

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.costs import CostMeter, CostModel
from repro.sim.rng import DeterministicRng


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)


class TestCostMeter:
    def test_charge_advances_clock(self, clock, rng):
        meter = CostMeter(CostModel(), clock, rng)
        charged = meter.charge("op", 0.1)
        assert clock.now == charged
        assert charged == pytest.approx(0.1, rel=0.2)

    def test_charge_never_negative(self, clock, rng):
        meter = CostMeter(CostModel(rel_noise=10.0), clock, rng)
        for _ in range(100):
            assert meter.charge("op", 1e-9) >= 0.0

    def test_charge_exact(self, clock, rng):
        meter = CostMeter(CostModel(), clock, rng)
        assert meter.charge_exact("op", 0.25) == 0.25
        assert clock.now == 0.25

    def test_charges_recorded(self, clock, rng, charge_log):
        meter = CostMeter(CostModel(), clock, rng)
        with meter.recording(charge_log):
            meter.charge("a", 0.1)
            meter.charge_exact("b", 0.2)
        assert [label for label, _ in charge_log.charges] == ["a", "b"]

    def test_negative_cost_rejected(self, clock, rng):
        meter = CostMeter(CostModel(), clock, rng)
        with pytest.raises(ValueError):
            meter.charge("op", -1.0)

    def test_transfer_time(self):
        model = CostModel(net_bandwidth_bytes_per_s=1e9)
        assert model.transfer_time(1_000_000_000) == 1.0


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(5, "x").random_bytes(32)
        b = DeterministicRng(5, "x").random_bytes(32)
        assert a == b

    def test_different_labels_different_streams(self):
        root = DeterministicRng(5)
        assert root.child("a").random_bytes(16) != root.child("b").random_bytes(16)

    def test_different_seeds_different_streams(self):
        assert DeterministicRng(1).random_bytes(16) != DeterministicRng(2).random_bytes(16)

    def test_child_of_child(self):
        root = DeterministicRng(5)
        assert root.child("a").child("b").random_bytes(8) == (
            DeterministicRng(5).child("a").child("b").random_bytes(8)
        )

    def test_string_and_bytes_seeds(self):
        assert DeterministicRng("seed").random_bytes(4) == DeterministicRng("seed").random_bytes(4)
        assert DeterministicRng(b"seed").random_bytes(8) == DeterministicRng(b"seed").random_bytes(8)

    def test_randint_below(self):
        rng = DeterministicRng(9)
        for _ in range(100):
            assert 0 <= rng.randint_below(7) < 7

    def test_randint_below_invalid(self):
        with pytest.raises(ValueError):
            DeterministicRng(9).randint_below(0)

    def test_uniform_and_gauss_deterministic(self):
        a, b = DeterministicRng(3, "g"), DeterministicRng(3, "g")
        assert a.gauss(0, 1) == b.gauss(0, 1)
        assert a.uniform(0, 1) == b.uniform(0, 1)

    def test_shuffle_and_choice(self):
        rng = DeterministicRng(4)
        items = list(range(10))
        rng.shuffle(items)
        assert sorted(items) == list(range(10))
        assert rng.choice([1, 2, 3]) in (1, 2, 3)
