"""Tests for the foundational collectives and routing (paper §II-A):
correctness on every size, and the paper's energy/depth envelopes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MachineStateError, ValidationError
from repro.machine import (
    PRAMSimulator,
    SpatialMachine,
    allreduce,
    barrier,
    bitonic_sort,
    broadcast,
    exclusive_scan,
    inclusive_scan,
    permute,
    reduce,
)

SIZES = [1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 64, 100, 255, 256, 257]


@pytest.mark.parametrize("n", SIZES)
class TestCollectiveCorrectness:
    def test_reduce_sum(self, n):
        m = SpatialMachine(n)
        vals = np.arange(n) * 3 - 7
        assert reduce(m, vals) == vals.sum()

    def test_reduce_max(self, n):
        m = SpatialMachine(n)
        rng = np.random.default_rng(n)
        vals = rng.integers(-1000, 1000, size=n)
        assert reduce(m, vals, op=np.maximum) == vals.max()

    def test_broadcast(self, n):
        m = SpatialMachine(n)
        out = broadcast(m, 123, root=n // 2)
        assert (out == 123).all() and len(out) == n

    def test_allreduce(self, n):
        m = SpatialMachine(n)
        vals = np.arange(n)
        out = allreduce(m, vals)
        assert (out == vals.sum()).all()

    def test_exclusive_scan(self, n):
        m = SpatialMachine(n)
        vals = np.arange(n) + 1
        expect = np.concatenate([[0], np.cumsum(vals)[:-1]])
        assert np.array_equal(exclusive_scan(m, vals), expect)

    def test_inclusive_scan(self, n):
        m = SpatialMachine(n)
        vals = (np.arange(n) % 5) - 2
        assert np.array_equal(inclusive_scan(m, vals), np.cumsum(vals))


class TestCollectiveCosts:
    def test_linear_energy(self):
        """§II-A: broadcast/reduce/scan are O(n) energy — the per-element
        energy must stay bounded as n grows 16x."""
        per_elem = []
        for n in (1024, 16384):
            m = SpatialMachine(n)
            exclusive_scan(m, np.ones(n, dtype=np.int64))
            broadcast(m, 1)
            reduce(m, np.ones(n, dtype=np.int64))
            per_elem.append(m.energy / n)
        assert per_elem[1] <= per_elem[0] * 1.2

    def test_logarithmic_depth(self):
        for n in (1024, 16384):
            m = SpatialMachine(n)
            reduce(m, np.ones(n, dtype=np.int64))
            assert m.depth <= 3 * np.log2(n)

    def test_barrier_synchronizes_clocks(self):
        m = SpatialMachine(32)
        m.send(0, 1)
        m.send(5, 6)
        barrier(m)
        assert (m.clock == m.clock[0]).all()

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 33, 100, 4096])
    def test_barrier_plan_matches_allreduce(self, n, engine):
        """The cached barrier plan charges exactly the all-reduce it
        replays. The scalar engine ignores ``exclusive``; under the
        batched engine the plan runs the EREW kernel and ``allreduce`` the
        probing one, so agreement there also proves the hint."""
        start = np.random.default_rng(n).integers(0, 4 * n, size=n)
        m1, m2 = (SpatialMachine(n, engine=engine) for _ in range(2))
        m1.clock[:] = start
        m2.clock[:] = start
        barrier(m1)
        allreduce(m2, np.zeros(n, dtype=np.int64))
        m2.clock[:] = m2.clock.max()
        assert np.array_equal(m1.clock, m2.clock)
        assert (m1.energy, m1.messages, m1.steps) == (m2.energy, m2.messages, m2.steps)
        assert (("barrier", n) in m1.plan_cache) == (n > 1)

    def test_input_shape_checked(self):
        m = SpatialMachine(8)
        with pytest.raises(ValidationError):
            reduce(m, np.ones(9))
        with pytest.raises(ValidationError):
            broadcast(m, 1, root=9)


class TestPermute:
    @pytest.mark.parametrize("n", [1, 2, 16, 100])
    def test_permute_roundtrip(self, n):
        rng = np.random.default_rng(n)
        m = SpatialMachine(n)
        perm = rng.permutation(n)
        vals = np.arange(n) * 10
        out = permute(m, vals, perm)
        assert np.array_equal(out[perm], vals)

    def test_permute_depth_one(self):
        m = SpatialMachine(64)
        out = permute(m, np.arange(64), np.roll(np.arange(64), 1))
        assert m.depth <= 2

    def test_permute_energy_at_most_n_times_two_sides(self):
        n = 256
        m = SpatialMachine(n)
        rng = np.random.default_rng(0)
        permute(m, np.arange(n), rng.permutation(n))
        assert m.energy <= n * 2 * m.side

    def test_duplicate_destination_rejected(self):
        m = SpatialMachine(4)
        with pytest.raises(ValidationError):
            permute(m, np.arange(4), np.array([0, 0, 1, 2]))

    def test_shape_checked(self):
        m = SpatialMachine(4)
        with pytest.raises(ValidationError):
            permute(m, np.arange(3), np.arange(4))


class TestBitonicSort:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 100, 257])
    def test_sorts_random_keys(self, n):
        rng = np.random.default_rng(n)
        m = SpatialMachine(n)
        keys = rng.integers(-500, 500, size=n)
        out, _ = bitonic_sort(m, keys)
        assert np.array_equal(out, np.sort(keys))

    def test_descending(self):
        m = SpatialMachine(20)
        keys = np.arange(20)
        out, _ = bitonic_sort(m, keys, descending=True)
        assert np.array_equal(out, np.arange(19, -1, -1))

    def test_payload_follows_keys(self):
        rng = np.random.default_rng(9)
        n = 50
        m = SpatialMachine(n)
        keys = rng.permutation(n)
        out, payload = bitonic_sort(m, keys, payload=keys * 7)
        assert np.array_equal(payload, out * 7)

    def test_duplicate_keys_stable_content(self):
        m = SpatialMachine(16)
        keys = np.array([3, 1, 3, 1] * 4)
        out, _ = bitonic_sort(m, keys)
        assert np.array_equal(out, np.sort(keys))

    def test_energy_scales_as_n_to_three_halves(self):
        es = []
        for n in (256, 4096):
            m = SpatialMachine(n)
            rng = np.random.default_rng(n)
            bitonic_sort(m, rng.integers(0, 10 * n, size=n))
            es.append(m.energy)
        exponent = np.log(es[1] / es[0]) / np.log(4096 / 256)
        assert 1.3 <= exponent <= 1.7

    def test_depth_polylog(self):
        n = 4096
        m = SpatialMachine(n)
        bitonic_sort(m, np.arange(n)[::-1].copy())
        assert m.depth <= 4 * np.log2(n) ** 2

    def test_float_keys_rejected(self):
        m = SpatialMachine(4)
        with pytest.raises(ValidationError):
            bitonic_sort(m, np.array([1.5, 2.5, 0.5, 3.5]))


class TestPRAMSimulator:
    def test_read_write_roundtrip(self):
        pram = PRAMSimulator(4, 16)
        base = pram.alloc(8)
        procs = np.arange(4)
        pram.write(procs, base + procs, procs * 2)
        assert np.array_equal(pram.read(procs, base + procs), procs * 2)

    def test_erew_violation_detected(self):
        pram = PRAMSimulator(4, 16)
        with pytest.raises(MachineStateError):
            pram.read(np.arange(4), np.zeros(4, dtype=np.int64))

    def test_crcw_mode_allows_concurrent_reads(self):
        pram = PRAMSimulator(4, 16, mode="crcw")
        pram.read(np.arange(4), np.zeros(4, dtype=np.int64))

    def test_alloc_exhaustion(self):
        pram = PRAMSimulator(2, 4)
        pram.alloc(3)
        with pytest.raises(MachineStateError):
            pram.alloc(2)

    def test_access_energy_positive_and_distance_based(self):
        pram = PRAMSimulator(8, 64)
        pram.read(np.array([0]), np.array([63]))
        assert pram.energy >= 2  # round trip ≥ 1 each way
        assert pram.messages == 2

    def test_invalid_mode(self):
        with pytest.raises(ValidationError):
            PRAMSimulator(2, 2, mode="weird")


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=200), seed=st.integers(0, 10_000))
def test_property_scan_matches_numpy(n, seed):
    rng = np.random.default_rng(seed)
    vals = rng.integers(-100, 100, size=n)
    m = SpatialMachine(n)
    assert np.array_equal(inclusive_scan(m, vals), np.cumsum(vals))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=128), seed=st.integers(0, 10_000))
def test_property_bitonic_sort_is_permutation_sorted(n, seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(-1000, 1000, size=n)
    m = SpatialMachine(n)
    out, _ = bitonic_sort(m, keys)
    assert np.array_equal(np.sort(out), np.sort(keys))
    assert (np.diff(out) >= 0).all()
