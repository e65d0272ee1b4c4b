"""Tests for the congestion tracer (XY dimension-order routing)."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import MetricsRegistry, publish_tracer
from repro.errors import ValidationError
from repro.machine import (
    CongestionTracer,
    SpatialMachine,
    attach_tracer,
    broadcast,
    exclusive_scan,
    render_heatmap,
)
from repro.spatial import SpatialTree, treefix_sum
from repro.trees import prufer_random_tree


class TestTracerGeometry:
    def test_single_horizontal_message(self):
        tr = CongestionTracer(4)
        tr.record(np.array([0]), np.array([2]), np.array([3]), np.array([2]))
        # row 2, columns 0..3 each traversed once
        assert tr.load[2].tolist() == [1, 1, 1, 1]
        assert tr.load.sum() == 4

    def test_single_vertical_message(self):
        tr = CongestionTracer(4)
        tr.record(np.array([1]), np.array([0]), np.array([1]), np.array([3]))
        assert tr.load[:, 1].tolist() == [1, 1, 1, 1]
        assert tr.load.sum() == 4

    def test_l_shaped_path(self):
        tr = CongestionTracer(4)
        tr.record(np.array([0]), np.array([0]), np.array([2]), np.array([3]))
        # horizontal: (0,0)(1,0)(2,0); vertical: (2,1)(2,2)(2,3)
        assert tr.load[0, :3].tolist() == [1, 1, 1]
        assert tr.load[1:, 2].tolist() == [1, 1, 1]
        assert tr.load.sum() == 6  # distance 5 + 1 endpoint

    def test_upward_vertical(self):
        tr = CongestionTracer(4)
        tr.record(np.array([0]), np.array([3]), np.array([0]), np.array([0]))
        assert tr.load[:, 0].tolist() == [1, 1, 1, 1]

    def test_self_cell_message(self):
        tr = CongestionTracer(4)
        tr.record(np.array([1]), np.array([1]), np.array([1]), np.array([1]))
        assert tr.load[1, 1] == 1
        assert tr.load.sum() == 1

    def test_traversals_equal_energy_plus_messages(self):
        """Each message touches exactly distance + 1 cells."""
        rng = np.random.default_rng(0)
        m = SpatialMachine(256)
        tr = attach_tracer(m)
        src = rng.integers(0, 256, size=200)
        dst = rng.integers(0, 256, size=200)
        keep = src != dst
        m.send(src[keep], dst[keep])
        assert tr.total_traversals == m.energy + m.messages

    def test_collectives_traced(self):
        m = SpatialMachine(64)
        tr = attach_tracer(m)
        broadcast(m, 1)
        exclusive_scan(m, np.arange(64))
        assert tr.total_traversals == m.energy + m.messages
        assert tr.max_load >= 1

    def test_reset(self):
        tr = CongestionTracer(4)
        tr.record(np.array([0]), np.array([0]), np.array([3]), np.array([3]))
        tr.reset()
        assert tr.load.sum() == 0 and tr.messages == 0

    def test_invalid_side(self):
        with pytest.raises(ValidationError):
            CongestionTracer(0)

    def test_chebyshev_traversals_are_l1_plus_messages(self):
        """XY paths touch L1 + 1 cells whatever the metric, so under
        Chebyshev energy (L-infinity) traversals exceed energy + messages."""
        rng = np.random.default_rng(0)
        m = SpatialMachine(256, metric="chebyshev")
        tr = attach_tracer(m)
        src = rng.integers(0, 256, size=200)
        dst = rng.integers(0, 256, size=200)
        keep = src != dst
        m.send(src[keep], dst[keep])
        x, y = m.positions.T
        l1 = np.abs(x[src] - x[dst]) + np.abs(y[src] - y[dst])
        assert tr.total_traversals == int(l1[keep].sum()) + m.messages
        assert tr.total_traversals > m.energy + m.messages


class TestTurnCellExclusion:
    """Direct unit tests for the XY-routing turn-cell bookkeeping: the cell
    where a message turns from its horizontal to its vertical leg must be
    counted exactly once, across every degenerate leg combination."""

    def test_pure_horizontal_rightward(self):
        tr = CongestionTracer(5)
        tr.record(np.array([1]), np.array([2]), np.array([4]), np.array([2]))
        assert tr.load[2, 1:5].tolist() == [1, 1, 1, 1]
        assert tr.total_traversals == 4  # distance 3 + 1, no vertical leg

    def test_pure_horizontal_leftward(self):
        tr = CongestionTracer(5)
        tr.record(np.array([4]), np.array([0]), np.array([1]), np.array([0]))
        assert tr.load[0, 1:5].tolist() == [1, 1, 1, 1]
        assert tr.total_traversals == 4

    def test_pure_vertical_downward(self):
        tr = CongestionTracer(5)
        tr.record(np.array([3]), np.array([0]), np.array([3]), np.array([4]))
        assert tr.load[:, 3].tolist() == [1, 1, 1, 1, 1]
        assert tr.total_traversals == 5

    def test_pure_vertical_upward(self):
        tr = CongestionTracer(5)
        tr.record(np.array([3]), np.array([4]), np.array([3]), np.array([1]))
        assert tr.load[1:5, 3].tolist() == [1, 1, 1, 1]
        assert tr.load[0, 3] == 0
        assert tr.total_traversals == 4

    def test_src_equals_dst_counts_endpoint_once(self):
        tr = CongestionTracer(5)
        tr.record(np.array([2]), np.array([3]), np.array([2]), np.array([3]))
        assert tr.load[3, 2] == 1
        assert tr.total_traversals == 1

    def test_l_path_turn_cell_counted_once_upward(self):
        # horizontal leg to (3, 3), then vertical leg upward to (3, 0):
        # the turn cell (3, 3) belongs to the horizontal leg only
        tr = CongestionTracer(5)
        tr.record(np.array([0]), np.array([3]), np.array([3]), np.array([0]))
        assert tr.load[3, 0:4].tolist() == [1, 1, 1, 1]
        assert tr.load[0:3, 3].tolist() == [1, 1, 1]
        assert tr.load.max() == 1  # nothing double-counted
        assert tr.total_traversals == 7  # distance 6 + 1

    def test_two_messages_sharing_turn_cell(self):
        tr = CongestionTracer(5)
        tr.record(
            np.array([0, 4]), np.array([1, 1]), np.array([2, 2]), np.array([3, 3])
        )
        # both turn at (2, 1) then run down the same column
        assert tr.load[1, 2] == 2
        assert tr.load[2, 2] == 2 and tr.load[3, 2] == 2
        assert tr.total_traversals == 10  # distances 4 + 4, +1 endpoint each

    def test_mixed_batch_matches_energy_invariant(self):
        rng = np.random.default_rng(7)
        m = SpatialMachine(225, curve="zorder")
        tr = attach_tracer(m)
        src = rng.integers(0, 225, size=300)
        dst = rng.integers(0, 225, size=300)
        m.send(src, dst)  # includes accidental self-messages: free, untraced
        assert tr.total_traversals == m.energy + m.messages

    def test_reset_then_reuse(self):
        tr = CongestionTracer(4)
        tr.record(np.array([0]), np.array([0]), np.array([3]), np.array([3]))
        tr.reset()
        assert tr.load.sum() == 0 and tr.messages == 0
        tr.record(np.array([0]), np.array([2]), np.array([3]), np.array([2]))
        assert tr.load[2].tolist() == [1, 1, 1, 1]
        assert tr.messages == 1


class SmallBufferTracer(CongestionTracer):
    """Folds every 8 messages, so short batches straddle folds and long
    ones take the direct path."""

    CAPACITY = 8


def xy_walk(side, messages):
    """Reference: walk each message cell by cell along row ``ys`` from
    ``xs`` to ``xd`` inclusive, then down column ``xd`` to ``yd``,
    excluding the turn cell."""
    load = np.zeros((side, side), dtype=np.int64)
    for xs, ys, xd, yd in messages:
        step = 1 if xd >= xs else -1
        for x in range(xs, xd + step, step):
            load[ys, x] += 1
        step = 1 if yd >= ys else -1
        for y in range(ys + step, yd + step, step):
            load[y, xd] += 1
    return load


@st.composite
def traffic(draw):
    """A side, then batches of messages of every shape, each batch with
    whether to read the grid after it and a cell to write into it."""
    side = draw(st.integers(1, 9))
    coord = st.integers(0, side - 1)

    def message(shape, xs, ys, xd, yd):
        if shape == "self":
            return (xs, ys, xs, ys)
        if shape == "horizontal":
            return (xs, ys, xd, ys)
        if shape == "vertical":
            return (xs, ys, xs, yd)
        return (xs, ys, xd, yd)

    shapes = st.sampled_from(["self", "horizontal", "vertical", "l"])
    batch = st.lists(st.builds(message, shapes, coord, coord, coord, coord), max_size=40)
    poke = st.none() | st.tuples(coord, coord)
    return side, draw(st.lists(st.tuples(batch, st.booleans(), poke), max_size=8))


def _columns(batch):
    return np.array(batch, dtype=np.int64).reshape(-1, 4).T


class TestBufferedFolds:
    @settings(max_examples=300, deadline=None)
    @given(traffic())
    def test_matches_literal_xy_walk(self, case):
        side, batches = case
        tr = SmallBufferTracer(side)
        grid = tr.load
        expected = np.zeros((side, side), dtype=np.int64)
        sent = 0
        for batch, read, poke in batches:
            tr.record(*_columns(batch))
            sent += len(batch)
            expected += xy_walk(side, batch)
            assert tr.messages == sent  # counted at record time, not at fold
            if read:
                assert tr.load is grid
                np.testing.assert_array_equal(grid, expected)
            if poke is not None:  # a write into the grid survives later folds
                tr.load[poke[1], poke[0]] += 3
                expected[poke[1], poke[0]] += 3
        assert tr.load is grid
        np.testing.assert_array_equal(grid, expected)
        assert tr.total_traversals == expected.sum()
        assert tr.max_load == expected.max()

    def test_reset_drops_buffered_messages(self):
        tr = SmallBufferTracer(4)
        grid = tr.load
        tr.record(*_columns([(0, 0, 3, 3), (1, 2, 1, 2)]))  # buffered, unfolded
        tr.reset()
        assert tr.messages == 0
        assert tr.load is grid and not grid.any()
        tr.record(*_columns([(0, 1, 3, 1)]))
        assert tr.load[1].tolist() == [1, 1, 1, 1] and tr.total_traversals == 4

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("leg", range(4))
    def test_out_of_range_coordinate_raises_before_touching_load(self, leg, bad):
        tr = SmallBufferTracer(4)
        tr.record(*_columns([(0, 0, 3, 3)]))
        before = tr.load.copy()
        message = [2, 2, 2, 2]
        message[leg] = bad
        tr.record(*_columns([message]))  # buffered: checked when it folds
        with pytest.raises(ValidationError):
            publish_tracer(MetricsRegistry(), tr)
        np.testing.assert_array_equal(tr.load, before)
        # a record larger than the buffer folds, and is checked, at once
        with pytest.raises(ValidationError):
            tr.record(*_columns([(1, 1, 1, 1)] * 8 + [message]))
        assert tr.messages == 2
        np.testing.assert_array_equal(tr.load, before)


class TestConcurrentReader:
    @staticmethod
    def _traced_treefix(reader=None):
        tree = prufer_random_tree(2048, seed=3)
        stree = SpatialTree.build(tree, engine="batched")
        tracer = attach_tracer(stree.machine)
        values = np.random.default_rng(3).integers(0, 100, size=tree.n)
        if reader is not None:
            reader(tracer)
        treefix_sum(stree, values, seed=3)
        return stree.machine, tracer

    def test_scrapes_while_recording_see_and_change_nothing(self):
        """/metrics-style readers on other threads fold under the tracer's
        lock while the simulation records: no hook raises, and the final
        grid is the one a run with no reader builds."""
        stop = threading.Event()
        scrapes = []

        def scrape(tracer):
            while not stop.is_set():
                registry = MetricsRegistry()
                publish_tracer(registry, tracer)
                scrapes.append(registry.render_prometheus())

        threads = []

        def start_readers(tracer):  # more threads than the runners' cores
            for _ in range(3):
                thread = threading.Thread(target=scrape, args=(tracer,), daemon=True)
                threads.append(thread)
                thread.start()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            machine, tracer = self._traced_treefix(start_readers)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=10)
        assert threads and not any(thread.is_alive() for thread in threads)
        assert scrapes
        assert machine.instrument_errors == []
        _, quiet = self._traced_treefix()
        assert tracer.messages == quiet.messages == machine.messages
        np.testing.assert_array_equal(tracer.load, quiet.load)
        assert tracer.total_traversals == machine.energy + machine.messages
        assert machine.messages > CongestionTracer.CAPACITY  # folds mid-run

    def test_record_waits_for_a_fold_in_progress(self):
        """Appending while another thread folds would overwrite the rows
        being folded: the tracer's lock makes the writer wait."""
        entered, release = threading.Event(), threading.Event()

        class GatedTracer(SmallBufferTracer):
            def _fold(self, legs):
                entered.set()
                release.wait(timeout=10)
                super()._fold(legs)

        tracer = GatedTracer(4)
        tracer.record(*_columns([(0, 0, 3, 0)]))
        reader = threading.Thread(target=lambda: tracer.max_load)
        writer = threading.Thread(target=tracer.record, args=tuple(_columns([(0, 1, 3, 1)])))
        reader.start()
        try:
            assert entered.wait(timeout=10)
            writer.start()
            writer.join(timeout=0.2)
            assert writer.is_alive()
        finally:
            release.set()
            reader.join(timeout=10)
            if writer.ident is not None:
                writer.join(timeout=10)
        assert not reader.is_alive() and not writer.is_alive()
        assert tracer.messages == 2
        assert tracer.load[:2].tolist() == [[1, 1, 1, 1], [1, 1, 1, 1]]


class TestHeatmap:
    def test_render_empty(self):
        tr = CongestionTracer(3)
        out = render_heatmap(tr)
        assert out == "   \n   \n   "

    def test_render_peaks(self):
        tr = CongestionTracer(2)
        tr.load[0, 0] = 9
        tr.load[1, 1] = 1
        out = render_heatmap(tr)
        rows = out.splitlines()
        assert rows[0][0] == "@"  # hottest cell gets the top glyph
        assert rows[0][1] == " "

    def test_congestion_localizes_at_reduce_root(self):
        """A reduce funnels messages toward processor 0's corner: its cell
        must be among the hottest."""
        from repro.machine import reduce

        m = SpatialMachine(256)
        tr = attach_tracer(m)
        reduce(m, np.ones(256, dtype=np.int64))
        x0, y0 = m.positions[m.n - 1]  # reduce accumulates at n-1
        assert tr.load[y0, x0] >= 0.5 * tr.max_load
