"""The central runtime object: a tree resident on a spatial machine.

:class:`SpatialTree` binds a :class:`~repro.layout.TreeLayout` to a
:class:`~repro.machine.SpatialMachine`: vertex ``v`` lives on processor
``layout.position[v]``, and all vertex-addressed messaging goes through
:meth:`SpatialTree.send`, which translates vertex ids to processor ids and
charges the machine.

This is the object the paper's algorithms (§III local messaging, §V treefix
sums, §VI batched LCA) operate on, and the primary entry point of the
library's public API:

>>> from repro import SpatialTree
>>> from repro.trees import random_attachment_tree
>>> st = SpatialTree.build(random_attachment_tree(1024, seed=0))
>>> sums = st.treefix_sum(values)          # doctest: +SKIP
>>> st.machine.energy, st.machine.depth    # doctest: +SKIP
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.layout.embedding import TreeLayout
from repro.machine.machine import SpatialMachine
from repro.trees.transform import VirtualTree
from repro.trees.tree import Tree
from repro.utils import as_index_array, check_in_range

#: trees with max degree at most this use direct parent↔child messaging;
#: beyond it the §III-D virtual tree takes over ("auto" mode)
DIRECT_DEGREE_LIMIT = 8


class SpatialTree:
    """A tree stored on the grid in a chosen layout, with cost accounting.

    Parameters
    ----------
    layout:
        The embedding (order ∘ curve) to execute under.
    machine:
        Optional pre-built machine (must match the layout's curve/side);
        by default a fresh one is created.
    mode:
        ``"direct"`` — parent↔child messages go straight between their
        processors (Θ(Δ) depth at a degree-Δ vertex);
        ``"virtual"`` — all local messaging is relayed over the §III-D
        degree-≤4 virtual tree (O(log Δ) depth);
        ``"auto"`` (default) — direct for ``Δ <= 8``, virtual otherwise.
    """

    def __init__(
        self,
        layout: TreeLayout,
        *,
        machine: SpatialMachine | None = None,
        mode: str = "auto",
    ):
        if mode not in ("auto", "direct", "virtual"):
            raise ValidationError(f"mode must be auto|direct|virtual, got {mode!r}")
        self.layout = layout
        self.tree: Tree = layout.tree
        self.machine = machine if machine is not None else layout.machine()
        if self.machine.n != layout.n:
            raise ValidationError(
                f"machine has {self.machine.n} processors but layout needs {layout.n}"
            )
        self.proc = layout.position  # vertex id -> processor id
        if mode == "auto":
            mode = "direct" if self.tree.max_degree <= DIRECT_DEGREE_LIMIT else "virtual"
        self.mode = mode
        self._vt: VirtualTree | None = None
        self._vt_charged = False
        self._sched = None  # cached VirtualSchedule (built with the vt)
        #: the one memoized TreefixSchedule (see repro.spatial.treefix)
        self._treefix_schedule = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        tree: Tree,
        *,
        order="light_first",
        curve="hilbert",
        mode: str = "auto",
        seed=None,
        **machine_kwargs,
    ) -> "SpatialTree":
        """Lay out ``tree`` and put it on a fresh machine."""
        layout = TreeLayout.build(tree, order=order, curve=curve, seed=seed)
        machine = layout.machine(**machine_kwargs)
        return cls(layout, machine=machine, mode=mode)

    # ------------------------------------------------------------------ #
    # vertex-addressed messaging
    # ------------------------------------------------------------------ #

    def send(self, src_vertices, dst_vertices, values=None):
        """Charged message step between *vertices* (ids translated to processors).

        Routed through :meth:`~repro.machine.SpatialMachine.send_batch` as a
        single dependency round so it follows the context's engine: scalar
        replays the reference ``send``, batched runs the vectorized path —
        with identical accounting either way.
        """
        src = as_index_array(np.atleast_1d(src_vertices), name="src_vertices")
        dst = as_index_array(np.atleast_1d(dst_vertices), name="dst_vertices")
        check_in_range(src, 0, self.n, name="src_vertices")
        check_in_range(dst, 0, self.n, name="dst_vertices")
        return self.machine.send_batch(self.proc[src], self.proc[dst], values)

    def send_batch(
        self, src_vertices, dst_vertices, values=None, *, rounds=None, combiner=None
    ):
        """Charged multi-round message batch between *vertices*.

        Vertex-addressed front end of
        :meth:`~repro.machine.SpatialMachine.send_batch`; ``rounds`` are
        CSR offsets partitioning the batch into sequential dependency
        rounds. Under ``engine="scalar"`` this replays one ``send`` per
        round (the reference accounting); under ``engine="batched"`` it
        runs the vectorized engine with identical totals.
        """
        src = as_index_array(np.atleast_1d(src_vertices), name="src_vertices")
        dst = as_index_array(np.atleast_1d(dst_vertices), name="dst_vertices")
        check_in_range(src, 0, self.n, name="src_vertices")
        check_in_range(dst, 0, self.n, name="dst_vertices")
        return self.machine.send_batch(
            self.proc[src], self.proc[dst], values, rounds=rounds, combiner=combiner
        )

    def send_plan(
        self, src_vertices, dst_vertices, values=None, *, rounds=None, exclusive=False
    ):
        """Trusted vertex-addressed batch (see
        :meth:`~repro.machine.SpatialMachine.send_plan`).

        Callers guarantee in-range int64 vertex ids with
        ``src_vertices[i] != dst_vertices[i]`` everywhere — the treefix
        driver's frontier hops along tree edges qualify by construction.
        ``exclusive`` additionally asserts each round has distinct senders
        and distinct receivers. Accounting is identical to
        :meth:`send_batch` under both engines.
        """
        src = np.atleast_1d(src_vertices)
        dst = np.atleast_1d(dst_vertices)
        if rounds is None:
            rounds = np.array([0, len(src)], dtype=np.int64)
        return self.machine.send_plan(
            self.proc[src], self.proc[dst], values, rounds=rounds, exclusive=exclusive
        )

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def virtual_tree(self) -> VirtualTree:
        """The §III-D virtual tree, built (and charged) on first use.

        Construction charges the reference-passing messages of Fig. 4; see
        :mod:`repro.spatial.virtual_tree`.
        """
        if self._vt is None:
            from repro.spatial.virtual_tree import build_virtual_tree

            self._vt = build_virtual_tree(self)
            self._vt_charged = True
        return self._vt

    @property
    def virtual_schedule(self):
        """Cached per-round message buckets for virtual-tree messaging."""
        if self._sched is None:
            from repro.spatial.virtual_tree import VirtualSchedule

            self._sched = VirtualSchedule.from_virtual_tree(self.virtual_tree)
        return self._sched

    # ------------------------------------------------------------------ #
    # high-level operations (delegated to the algorithm modules)
    # ------------------------------------------------------------------ #

    def local_broadcast(self, values, **kwargs) -> np.ndarray:
        """§III local broadcast: every child receives its parent's value."""
        from repro.spatial.local_messaging import local_broadcast

        return local_broadcast(self, values, **kwargs)

    def local_reduce(self, values, **kwargs) -> np.ndarray:
        """§III local reduce: every parent receives its children's reduction."""
        from repro.spatial.local_messaging import local_reduce

        return local_reduce(self, values, **kwargs)

    def treefix_sum(self, values, **kwargs) -> np.ndarray:
        """§V bottom-up treefix sum (subtree reductions)."""
        from repro.spatial.treefix import treefix_sum

        return treefix_sum(self, values, **kwargs)

    def top_down_treefix(self, values, **kwargs) -> np.ndarray:
        """§V-D top-down treefix sum (root-path reductions)."""
        from repro.spatial.treefix import top_down_treefix

        return top_down_treefix(self, values, **kwargs)

    def lca_batch(self, us, vs, **kwargs) -> np.ndarray:
        """§VI batched lowest common ancestors."""
        from repro.spatial.lca import lca_batch

        return lca_batch(self, us, vs, **kwargs)

    def prepare_lca(self, **kwargs):
        """Precompute the query-independent LCA ranges + cover once
        (:func:`~repro.spatial.lca.prepare_lca`); pass the result to
        :meth:`lca_batch` via ``prepared=`` to serve batches warm."""
        from repro.spatial.lca import prepare_lca

        return prepare_lca(self, **kwargs)

    def snapshot(self) -> dict[str, int]:
        """Machine cost snapshot (energy, messages, depth)."""
        return self.machine.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpatialTree(n={self.n}, curve={self.layout.curve.name!r}, "
            f"mode={self.mode!r}, energy={self.machine.energy}, depth={self.machine.depth})"
        )
