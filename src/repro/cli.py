"""Command-line interface: quick experiments without writing Python.

Subcommands:

* ``info``    — library, curve, and order inventory.
* ``layout``  — lay a generated tree out and print its energy metrics
  (optionally the ASCII grid for small trees).
* ``treefix`` — run the §V treefix sum on a generated tree and print the
  cost bill.
* ``lca``     — run a batch of random LCA queries (§VI) and print the bill.
* ``sort``    — bitonic sort over curve order (§II-A routing) with the
  measured Θ(n^{3/2}) bill; verified against ``np.sort``.
* ``layout-create`` — the §IV light-first layout-creation pipeline
  (Theorem 4) with its per-phase bill.
* ``curves``  — empirical distance-bound constants (experiment E4).
* ``profile`` — run a workload under the spatial profiler: per-cell
  heatmap JSON, link-congestion timeline, folded stacks, Prometheus text.
* ``sanitize`` — run a workload under the write-race, determinism, and
  ghost-state sanitizers; nonzero exit on findings (docs/ANALYSIS.md).
* ``perf``    — run a workload under the wall-clock kernel profiler and
  the depth-clock critical-path analyzer: kernel × phase wall table,
  wall-vs-energy efficiency view, critical-path blame table, optional
  bundle (``perf.json``, Perfetto critical-path trace, Prometheus text).
  ``perf diff`` compares two saved ``perf.json`` bundles.
* ``lint``    — model-discipline AST lint (``REPROxxx`` rules) over
  source paths; nonzero exit on findings; ``--format json|sarif`` for CI.
* ``check``   — whole-program effect & cost-contract checker
  (``CHECKxxx`` codes): interprocedural phase discipline, contract
  shape/binding vs ``bounds.py``, scalar-send hot loops, and the
  ``repro.plan-safety/v1`` phase classification (``--plan-safety``).
* ``bench``   — benchmark artifact workflows: ``bench compare`` is the
  perf regression gate (nonzero exit on energy/depth/wall regression),
  ``bench record`` appends artifacts to the ``BENCH_HISTORY.jsonl``
  trajectory, ``bench trend`` renders it as sparklines,
  ``bench migrate`` normalizes legacy ``BENCH_*.json`` shapes.
* ``serve``   — always-on query service: boot a layout once (warm
  plan-store replay when available), then answer ``POST /lca`` /
  ``/treefix`` / ``/cuts`` from many concurrent clients with cross-user
  LCA window coalescing, live ``/metrics`` and ``/serving`` stats, and
  graceful drain on SIGTERM (docs/OBSERVABILITY.md, "Serving").
* ``report``  — pretty-print a saved run report, or diff two of them.

Every workload subcommand takes ``--report out.json`` (schema-versioned
run report, JSON or ``.jsonl``), ``--trace out.trace.json`` (Chrome
trace-event timeline, loadable in Perfetto / ``chrome://tracing``), and
``--no-step-histograms`` (drop per-step distance histograms — memory
relief on long runs).

Machine-driving subcommands additionally take the live-telemetry flags
(docs/OBSERVABILITY.md, "Live telemetry"): ``--serve-telemetry PORT``
(HTTP ``/metrics`` ``/health`` ``/progress`` ``/spans`` while the run
executes), ``--span-log out.jsonl`` (stream hierarchical spans),
``--watchdog-sample K`` (engine-divergence watchdog stride), and
``--telemetry-hold SEC`` (post-run scrape grace period).

Examples::

    python -m repro info
    python -m repro layout --tree prufer --n 4096 --order bfs
    python -m repro treefix --tree star --n 8192 --mode virtual \
        --report r.json --trace t.trace.json
    python -m repro lca --tree random --n 2048 --queries 2048
    python -m repro sort --n 4096 --engine batched
    python -m repro layout-create --tree prufer --n 2048 --engine batched
    python -m repro curves --side 32
    python -m repro profile treefix --n 4096 --out prof/
    python -m repro sanitize treefix --n 1024 --policy crew --fuzz
    python -m repro perf treefix -n 4096 --engine batched --out perf/
    python -m repro perf diff perf_a/perf.json perf_b/perf.json
    python -m repro lint src/
    python -m repro bench compare baseline.json new.json --max-energy-regress 10%
    python -m repro bench record benchmarks/results/BENCH_e6_treefix.json
    python -m repro bench trend --metric wall_s
    python -m repro serve --tree random --n 4096 --window-ms 2 --port 8321
    python -m repro report r.json
    python -m repro report --diff before.json after.json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import __version__
from repro.analysis import format_table, render_layout_grid
from repro.curves import available_curves, empirical_alpha, get_curve
from repro.errors import ReproError
from repro.layout import LayoutMetrics, TreeLayout, available_orders
from repro.spatial import SpatialTree, lca_batch, treefix_sum
from repro.trees import (
    BinaryLiftingLCA,
    bottom_up_treefix,
    caterpillar_tree,
    decision_tree_shape,
    path_tree,
    perfect_kary_tree,
    prufer_random_tree,
    random_attachment_tree,
    random_binary_tree,
    star_tree,
)

TREE_KINDS = {
    "path": lambda n, seed: path_tree(n),
    "star": lambda n, seed: star_tree(n),
    "caterpillar": lambda n, seed: caterpillar_tree(n),
    "binary": lambda n, seed: random_binary_tree(n, seed=seed),
    "random": lambda n, seed: random_attachment_tree(n, seed=seed),
    "prufer": lambda n, seed: prufer_random_tree(n, seed=seed),
    "decision": lambda n, seed: decision_tree_shape(n, seed=seed),
    "perfect": lambda n, seed: perfect_kary_tree(max(1, int(np.log2(max(2, n)))) - 1),
}


def _make_tree(kind: str, n: int, seed: int):
    try:
        factory = TREE_KINDS[kind]
    except KeyError:
        raise SystemExit(f"unknown tree kind {kind!r}; choose from {sorted(TREE_KINDS)}")
    return factory(n, seed)


def _add_tree_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tree", default="prufer", choices=sorted(TREE_KINDS))
    p.add_argument("--n", type=int, default=1024, help="number of vertices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curve", default="hilbert", choices=available_curves())


def _add_engine_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", default="scalar", choices=["scalar", "batched"],
                   help="bulk-messaging engine: per-round scalar reference or "
                        "vectorized batched path (identical accounting)")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write a schema-versioned run report (JSON; .jsonl streams steps)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write a Chrome trace-event timeline (open in Perfetto)")
    p.add_argument("--no-step-histograms", action="store_true",
                   help="drop per-step distance histograms from the report "
                        "(memory relief on long runs)")


def _watchdog_stride(text: str) -> int:
    """``--watchdog-sample`` value: a phase stride, 0 disabling the watchdog."""
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 disables), got {k}")
    return k


def _add_telemetry_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--serve-telemetry", metavar="PORT", type=int, default=None,
                   help="serve live telemetry over HTTP while the run executes: "
                        "/metrics (Prometheus), /health, /progress, /spans "
                        "(loopback only; port 0 picks a free one)")
    p.add_argument("--span-log", metavar="PATH", default=None,
                   help="stream hierarchical spans (workload → phase → batch → "
                        "round) to a JSONL file")
    p.add_argument("--watchdog-sample", type=_watchdog_stride, default=4, metavar="K",
                   help="engine-divergence watchdog: re-verify every K-th phase "
                        "through a clock kernel independent of the one that "
                        "charged it (0 disables; default 4)")
    p.add_argument("--telemetry-hold", type=float, default=0.0, metavar="SEC",
                   help="keep the telemetry server answering this many seconds "
                        "after the run finishes (scrape grace period for CI or "
                        "a polling Prometheus)")


def _telemetry_session(machine, args, *, workload, planned_phases=None):
    """The :class:`repro.telemetry.TelemetrySession` the telemetry flags ask
    for, or an inert context when none were given."""
    import contextlib

    port = getattr(args, "serve_telemetry", None)
    span_log = getattr(args, "span_log", None)
    if port is None and span_log is None:
        return contextlib.nullcontext(None)
    from repro.telemetry import TelemetrySession

    return TelemetrySession(
        machine,
        port=port,
        span_log=span_log,
        watchdog_sample=getattr(args, "watchdog_sample", 4),
        workload=workload,
        planned_phases=planned_phases,
        hold=getattr(args, "telemetry_hold", 0.0),
    )


def _telemetry_banner(session) -> None:
    if session is not None and session.url:
        print(f"[telemetry serving at {session.url} — "
              f"/metrics /health /progress /spans]")


def _telemetry_summary(session) -> None:
    if session is None:
        return
    if session.watchdog is not None:
        snap = session.watchdog.snapshot()
        verdict = "clean" if snap["clean"] else f"{snap['alerts']} ALERTS"
        print(f"[watchdog: {snap['checks']} phases re-verified by an "
              f"independent clock kernel, {verdict}]")
    if session.span_log is not None:
        print(f"[span log saved to {session.span_log}]")


def _attach_telemetry(machine, args):
    """When --report/--trace was requested, subscribe the recorder (and a
    congestion tracer for the report's max-load figure) before the run."""
    from repro.analysis.report import RunRecorder
    from repro.machine.tracing import attach_tracer

    if not (args.report or args.trace):
        return None
    recorder = machine.attach(
        RunRecorder(histograms=not getattr(args, "no_step_histograms", False))
    )
    if args.report and machine.tracer is None:
        attach_tracer(machine)
    return recorder


def _write_outputs(args, machine, recorder, meta) -> None:
    from repro.analysis.report import RunReport, save_chrome_trace

    if recorder is None:
        return
    if args.report:
        path = RunReport.from_machine(machine, recorder=recorder, meta=meta).save(args.report)
        print(f"[report saved to {path}]")
    if args.trace:
        path = save_chrome_trace(recorder, args.trace)
        print(f"[trace saved to {path}]")


def _write_table_outputs(args, kind: str, rows, meta) -> None:
    """Table-shaped subcommands (no machine run): report carries the rows;
    a requested trace is still valid Chrome JSON, just metadata-only."""
    from repro.analysis.report import RunRecorder, RunReport, save_chrome_trace

    if args.report:
        path = RunReport.table(kind, rows, meta=meta).save(args.report)
        print(f"[report saved to {path}]")
    if args.trace:
        path = save_chrome_trace(RunRecorder(), args.trace)
        print(f"[trace saved to {path}]")


def cmd_info(args) -> int:
    print(f"repro {__version__} — Low-Depth Spatial Tree Algorithms (IPDPS 2024)")
    rows = []
    for name in available_curves():
        c = get_curve(name)
        rows.append(
            {"curve": name, "base": c.base, "continuous": c.continuous,
             "distance_bound": c.distance_bound,
             "alpha": round(c.alpha, 3) if c.alpha else "-"}
        )
    print("\ncurves:")
    print(format_table(rows))
    print(f"\norders: {', '.join(available_orders())}")
    print(f"tree generators: {', '.join(sorted(TREE_KINDS))}")
    return 0


def cmd_layout(args) -> int:
    tree = _make_tree(args.tree, args.n, args.seed)
    rows = []
    orders = [args.order] if args.order != "all" else available_orders()
    for order in orders:
        layout = TreeLayout.build(tree, order=order, curve=args.curve, seed=args.seed)
        m = LayoutMetrics.of(layout)
        rows.append(
            {"order": order, "mean_dist": round(m.mean_distance, 3),
             "max_dist": m.max_distance, "energy": m.total_energy,
             "energy/n": round(m.energy_per_vertex, 3)}
        )
    print(f"tree={args.tree} n={tree.n} curve={args.curve}")
    print(format_table(rows))
    if args.show_grid:
        layout = TreeLayout.build(tree, order=orders[0], curve=args.curve, seed=args.seed)
        print()
        print(render_layout_grid(layout))
    _write_table_outputs(
        args, "layout", rows,
        meta={"command": "layout", "tree": args.tree, "n": tree.n,
              "curve": args.curve, "seed": args.seed},
    )
    return 0


def cmd_treefix(args) -> int:
    tree = _make_tree(args.tree, args.n, args.seed)
    rng = np.random.default_rng(args.seed)
    values = rng.integers(0, 100, size=tree.n)
    st = SpatialTree.build(tree, curve=args.curve, mode=args.mode, engine=args.engine)
    recorder = _attach_telemetry(st.machine, args)
    session = _telemetry_session(st.machine, args, workload="treefix")
    with session as tel:
        _telemetry_banner(tel)
        out = treefix_sum(st, values, seed=args.seed)
    _telemetry_summary(tel)
    ok = np.array_equal(out, bottom_up_treefix(tree, values))
    snap = st.snapshot()
    print(f"tree={args.tree} n={tree.n} Δ={tree.max_degree} mode={st.mode} "
          f"engine={st.machine.engine}")
    print(f"verified against sequential reference: {'OK' if ok else 'MISMATCH'}")
    print(f"energy {snap['energy']:,}  (= {snap['energy'] / (tree.n * max(1, np.log2(tree.n))):.2f}"
          f"·n·log2 n)   depth {snap['depth']:,}   messages {snap['messages']:,}")
    _write_outputs(
        args, st.machine, recorder,
        meta={"command": "treefix", "tree": args.tree, "mode": st.mode,
              "engine": st.machine.engine, "seed": args.seed, "verified": bool(ok)},
    )
    return 0 if ok else 1


def cmd_lca(args) -> int:
    tree = _make_tree(args.tree, args.n, args.seed)
    rng = np.random.default_rng(args.seed)
    q = args.queries or tree.n
    us = rng.permutation(tree.n)[: min(q, tree.n)]
    vs = rng.permutation(tree.n)[: min(q, tree.n)]
    st = SpatialTree.build(tree, curve=args.curve, engine=args.engine)
    recorder = _attach_telemetry(st.machine, args)
    session = _telemetry_session(st.machine, args, workload="lca")
    with session as tel:
        _telemetry_banner(tel)
        answers = lca_batch(st, us, vs, seed=args.seed)
    _telemetry_summary(tel)
    expect = BinaryLiftingLCA(tree).query_batch(us, vs)
    ok = np.array_equal(answers, expect)
    snap = st.snapshot()
    print(f"tree={args.tree} n={tree.n} queries={len(us)} engine={st.machine.engine}")
    print(f"verified against binary lifting: {'OK' if ok else 'MISMATCH'}")
    print(f"energy {snap['energy']:,}   depth {snap['depth']:,}   messages {snap['messages']:,}")
    _write_outputs(
        args, st.machine, recorder,
        meta={"command": "lca", "tree": args.tree, "queries": len(us),
              "engine": st.machine.engine, "seed": args.seed, "verified": bool(ok)},
    )
    return 0 if ok else 1


def cmd_expr(args) -> int:
    from repro.spatial.expression import (
        evaluate_expression,
        evaluate_expression_sequential,
        random_expression,
    )

    tree, ops, leaf_vals = random_expression(args.n, seed=args.seed)
    st = SpatialTree.build(tree, curve=args.curve, engine=args.engine)
    recorder = _attach_telemetry(st.machine, args)
    session = _telemetry_session(st.machine, args, workload="expr")
    with session as tel:
        _telemetry_banner(tel)
        got = evaluate_expression(st, ops, leaf_vals, seed=args.seed)
    _telemetry_summary(tel)
    expect = evaluate_expression_sequential(tree, ops, leaf_vals)
    ok = all(int(a) == int(b) for a, b in zip(got, expect))
    snap = st.snapshot()
    print(f"expression tree n={tree.n} (random {{+,×}} mod 2^61−1)")
    print(f"verified against sequential evaluator: {'OK' if ok else 'MISMATCH'}")
    print(f"root value: {int(got[tree.root])}")
    print(f"energy {snap['energy']:,}   depth {snap['depth']:,}")
    _write_outputs(
        args, st.machine, recorder,
        meta={"command": "expr", "engine": st.machine.engine, "seed": args.seed,
              "verified": bool(ok)},
    )
    return 0 if ok else 1


def cmd_cuts(args) -> int:
    from repro.spatial.graph import one_respecting_cuts

    tree = _make_tree(args.tree, args.n, args.seed)
    rng = np.random.default_rng(args.seed)
    m = args.extra_edges or 2 * tree.n
    raw = rng.integers(0, tree.n, size=(m + tree.n, 2))
    extra = raw[raw[:, 0] != raw[:, 1]][:m]
    st = SpatialTree.build(tree, curve=args.curve, engine=args.engine)
    recorder = _attach_telemetry(st.machine, args)
    session = _telemetry_session(st.machine, args, workload="cuts")
    with session as tel:
        _telemetry_banner(tel)
        cuts = one_respecting_cuts(st, extra, seed=args.seed)
    _telemetry_summary(tel)
    v, best = cuts.minimum(tree)
    snap = st.snapshot()
    print(f"graph: {tree.n} vertices, {tree.n - 1} tree + {len(extra)} extra edges")
    print(f"lightest 1-respecting cut: {best} (tree edge above vertex {v})")
    print(f"energy {snap['energy']:,}   depth {snap['depth']:,}")
    _write_outputs(
        args, st.machine, recorder,
        meta={"command": "cuts", "tree": args.tree, "engine": st.machine.engine,
              "seed": args.seed, "extra_edges": len(extra)},
    )
    return 0


def cmd_sort(args) -> int:
    from repro.machine.machine import SpatialMachine
    from repro.machine.routing import bitonic_sort

    rng = np.random.default_rng(args.seed)
    keys = rng.integers(0, 10 * max(1, args.n), size=args.n).astype(np.int64)
    machine = SpatialMachine(args.n, curve=args.curve, engine=args.engine)
    recorder = _attach_telemetry(machine, args)
    session = _telemetry_session(machine, args, workload="sort", planned_phases=1)
    with session as tel:
        _telemetry_banner(tel)
        with machine.phase("bitonic_sort"):
            sorted_keys, _ = bitonic_sort(machine, keys, descending=args.descending)
    _telemetry_summary(tel)
    expect = np.sort(keys)
    if args.descending:
        expect = expect[::-1]
    ok = np.array_equal(sorted_keys, expect)
    snap = machine.snapshot()
    print(f"bitonic sort n={args.n} descending={args.descending} "
          f"engine={machine.engine}")
    print(f"verified against np.sort: {'OK' if ok else 'MISMATCH'}")
    print(f"energy {snap['energy']:,}   depth {snap['depth']:,}   "
          f"messages {snap['messages']:,}   steps {machine.steps:,}")
    _write_outputs(
        args, machine, recorder,
        meta={"command": "sort", "n": args.n, "descending": args.descending,
              "engine": machine.engine, "seed": args.seed, "verified": bool(ok)},
    )
    return 0 if ok else 1


def cmd_layout_create(args) -> int:
    from repro.machine.machine import SpatialMachine
    from repro.spatial.layout_creation import create_light_first_layout

    tree = _make_tree(args.tree, args.n, args.seed)
    machine = SpatialMachine(tree.n, curve=args.curve, engine=args.engine)
    session = _telemetry_session(machine, args, workload="layout-create")
    with session as tel:
        _telemetry_banner(tel)
        res = create_light_first_layout(
            tree, curve=args.curve, seed=args.seed, engine=args.engine,
            machine=machine,
        )
    _telemetry_summary(tel)
    rows = [
        {"phase": name, "energy": bill["energy"], "messages": bill["messages"],
         "depth": bill["depth"]}
        for name, bill in res.phases.items()
        if name != "total"
    ]
    print(f"light-first layout creation (§IV): tree={args.tree} n={tree.n} "
          f"curve={args.curve} engine={args.engine}")
    print(f"energy {res.energy:,}   depth {res.depth:,}   "
          f"messages {res.messages:,}   steps {res.steps:,}   "
          f"list-rank rounds {res.list_rank_rounds}")
    if rows:
        print(format_table(rows))
    _write_table_outputs(
        args, "layout_create", rows,
        meta={"command": "layout-create", "tree": args.tree, "n": tree.n,
              "curve": args.curve, "engine": args.engine, "seed": args.seed,
              "energy": res.energy, "depth": res.depth,
              "messages": res.messages, "steps": res.steps},
    )
    return 0


def cmd_curves(args) -> int:
    rows = []
    for name in available_curves():
        c = get_curve(name)
        side = c.min_side(args.side * args.side)
        est = empirical_alpha(c, side, seed=args.seed)
        rows.append(
            {"curve": name, "side": est.side,
             "alpha_hat": round(est.alpha_hat, 3),
             "published": round(c.alpha, 3) if c.alpha else "-"}
        )
    print(format_table(rows))
    _write_table_outputs(
        args, "curves", rows,
        meta={"command": "curves", "side": args.side, "seed": args.seed},
    )
    return 0


# --------------------------------------------------------------------- #
# spatial profiling
# --------------------------------------------------------------------- #


def _workload_treefix(args, **machine_kwargs):
    tree = _make_tree(args.tree, args.n, args.seed)
    rng = np.random.default_rng(args.seed)
    values = rng.integers(0, 100, size=tree.n)
    st = SpatialTree.build(tree, curve=args.curve, mode=args.mode, **machine_kwargs)
    meta = {"workload": "treefix", "tree": args.tree, "mode": st.mode,
            "seed": args.seed}
    return st, (lambda: treefix_sum(st, values, seed=args.seed)), meta


def _workload_lca(args, **machine_kwargs):
    tree = _make_tree(args.tree, args.n, args.seed)
    rng = np.random.default_rng(args.seed)
    q = args.queries or tree.n
    us = rng.permutation(tree.n)[: min(q, tree.n)]
    vs = rng.permutation(tree.n)[: min(q, tree.n)]
    st = SpatialTree.build(tree, curve=args.curve, **machine_kwargs)
    meta = {"workload": "lca", "tree": args.tree, "queries": len(us),
            "seed": args.seed}
    return st, (lambda: lca_batch(st, us, vs, seed=args.seed)), meta


def _workload_expr(args, **machine_kwargs):
    from repro.spatial.expression import evaluate_expression, random_expression

    tree, ops, leaf_vals = random_expression(args.n, seed=args.seed)
    st = SpatialTree.build(tree, curve=args.curve, **machine_kwargs)
    meta = {"workload": "expr", "seed": args.seed}
    return st, (lambda: evaluate_expression(st, ops, leaf_vals, seed=args.seed)), meta


def _workload_cuts(args, **machine_kwargs):
    from repro.spatial.graph import one_respecting_cuts

    tree = _make_tree(args.tree, args.n, args.seed)
    rng = np.random.default_rng(args.seed)
    m = args.extra_edges or 2 * tree.n
    raw = rng.integers(0, tree.n, size=(m + tree.n, 2))
    extra = raw[raw[:, 0] != raw[:, 1]][:m]
    st = SpatialTree.build(tree, curve=args.curve, **machine_kwargs)
    meta = {"workload": "cuts", "tree": args.tree, "extra_edges": len(extra),
            "seed": args.seed}
    return st, (lambda: one_respecting_cuts(st, extra, seed=args.seed)), meta


#: spatial-tree workloads the profiler and the sanitizers can drive; each
#: factory returns ``(spatial_tree, run_callable, meta)`` and forwards
#: ``machine_kwargs`` (e.g. ``permute_delivery=``) to the fresh machine
PROFILE_WORKLOADS = {
    "treefix": _workload_treefix,
    "lca": _workload_lca,
    "expr": _workload_expr,
    "cuts": _workload_cuts,
}

#: per-workload result extractors for delivery-order fuzzing (results must
#: be arrays / tuples of arrays to diff)
_FUZZ_RESULTS = {
    "cuts": lambda cuts: (cuts.cut, cuts.crossing),
}


def cmd_profile(args) -> int:
    from repro.analysis.profile_views import hotspot_table, write_profile_bundle
    from repro.analysis.report import RunRecorder
    from repro.machine.profiler import SpatialProfiler
    from repro.machine.tracing import attach_tracer

    st, run, meta = PROFILE_WORKLOADS[args.workload](args, engine=args.engine)
    machine = st.machine
    meta = {"command": "profile", "engine": machine.engine, **meta}
    profiler = machine.attach(
        SpatialProfiler(window=args.window, max_windows=args.max_windows)
    )
    recorder = machine.attach(RunRecorder(histograms=not args.no_step_histograms))
    if machine.tracer is None:
        attach_tracer(machine)
    session = _telemetry_session(machine, args, workload=args.workload)
    with session as tel:
        _telemetry_banner(tel)
        run()
    _telemetry_summary(tel)
    paths = write_profile_bundle(
        args.out, profiler=profiler, recorder=recorder, machine=machine,
        meta=meta, top=args.top,
    )
    snap = machine.snapshot()
    windows = profiler.link_windows()
    print(f"profiled {args.workload}: n={machine.n} side={machine.side} "
          f"curve={machine.curve.name}")
    print(f"energy {snap['energy']:,}   depth {snap['depth']:,}   "
          f"messages {snap['messages']:,}   steps {machine.steps:,}")
    print(f"link timeline: {len(windows)} windows of {profiler.window} depth rounds, "
          f"peak link load {profiler.max_link_load():,}")
    print(f"\ntop-{args.top} cells by energy sent:")
    print(hotspot_table(profiler, metric="energy_sent", k=args.top))
    print()
    for name, path in sorted(paths.items()):
        print(f"[{name} saved to {path}]")
    return 0


def cmd_sanitize(args) -> int:
    from repro.machine.sanitizer import (
        DeterminismSanitizer,
        GhostStateSanitizer,
        WriteRaceSanitizer,
        check_determinism,
        format_findings,
        sanitize_findings_report,
        save_findings_report,
    )

    st, run, meta = PROFILE_WORKLOADS[args.workload](args, engine=args.engine)
    machine = st.machine
    meta = {"command": "sanitize", "engine": machine.engine, **meta}
    recorder = _attach_telemetry(machine, args)
    sanitizers = [
        machine.attach(WriteRaceSanitizer(policy=args.policy)),
        machine.attach(DeterminismSanitizer(trials=args.trials, seed=args.seed)),
        machine.attach(GhostStateSanitizer({"workload": st})),
    ]
    session = _telemetry_session(machine, args, workload=args.workload)
    with session as tel:
        _telemetry_banner(tel)
        run()
    _telemetry_summary(tel)
    for s in sanitizers:
        s.finish(machine)

    extra = []
    if args.fuzz:
        extract = _FUZZ_RESULTS.get(args.workload)

        def build(permute):
            _, run_i, _ = PROFILE_WORKLOADS[args.workload](
                args, permute_delivery=permute, engine=args.engine
            )
            return run_i

        def run_one(run_i):
            res = run_i()
            return extract(res) if extract else res

        extra = check_determinism(
            build, run_one, trials=args.fuzz_trials, seed=args.seed
        )

    report = sanitize_findings_report(
        sanitizers, extra_findings=extra, meta=meta, policy=args.policy
    )
    snap = machine.snapshot()
    print(f"sanitized {args.workload}: n={machine.n} policy={args.policy} "
          f"fuzz={'on' if args.fuzz else 'off'}")
    print(f"energy {snap['energy']:,}   depth {snap['depth']:,}   "
          f"messages {snap['messages']:,}   steps {machine.steps:,}")
    findings = [f for s in sanitizers for f in s.findings] + list(extra)
    print(format_findings(findings))
    if args.out:
        path = save_findings_report(report, args.out)
        print(f"[findings report saved to {path}]")
    _write_outputs(args, machine, recorder, meta)
    return 0 if report["clean"] else 1


# --------------------------------------------------------------------- #
# wall-clock perf + critical-path attribution
# --------------------------------------------------------------------- #


def _write_perf_bundle(out_dir, *, perf, machine, profiler, analyzer) -> dict:
    """Write the ``repro perf --out`` artifact bundle; returns name→path."""
    import json
    from pathlib import Path

    from repro.analysis.metrics import (
        MetricsRegistry,
        publish_critical_path,
        publish_kernel_profiler,
        publish_machine,
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    perf_path = out / "perf.json"
    perf_path.write_text(json.dumps(perf, indent=2) + "\n")
    paths["perf.json"] = perf_path
    registry = MetricsRegistry()
    publish_machine(registry, machine)
    publish_kernel_profiler(registry, profiler)
    if analyzer is not None:
        publish_critical_path(registry, analyzer)
        trace_path = out / "critical_path.trace.json"
        trace_path.write_text(json.dumps(analyzer.chrome_trace_events()) + "\n")
        paths["critical_path.trace.json"] = trace_path
    prom_path = out / "metrics.prom"
    prom_path.write_text(registry.render_prometheus())
    paths["metrics.prom"] = prom_path
    return paths


def cmd_perf(args) -> int:
    from repro.analysis.critical_path import CriticalPathAnalyzer
    from repro.machine.wallclock import KernelWallProfiler

    st, run, meta = PROFILE_WORKLOADS[args.workload](args, engine=args.engine)
    machine = st.machine
    profiler = machine.attach(KernelWallProfiler())
    analyzer = None
    if not args.no_critical_path:
        analyzer = machine.attach(CriticalPathAnalyzer())
    session = _telemetry_session(machine, args, workload=args.workload)
    with session as tel:
        _telemetry_banner(tel)
        run()
    _telemetry_summary(tel)
    perf = profiler.report(machine)
    perf["meta"] = {"command": "perf", "engine": machine.engine, **meta}
    snap = machine.snapshot()
    totals = perf["totals"]
    print(f"perf {args.workload}: n={machine.n} engine={machine.engine} "
          f"curve={machine.curve.name}")
    print(f"energy {snap['energy']:,}   depth {snap['depth']:,}   "
          f"messages {snap['messages']:,}   steps {machine.steps:,}")
    coverage = totals["coverage"]
    line = (f"wall: {totals['top_phase_wall_ns'] / 1e6:.2f} ms in top-level "
            f"phases, {totals['kernel_wall_ns'] / 1e6:.2f} ms attributed to kernels")
    if coverage is not None:
        line += f" (coverage {100 * coverage:.1f}%)"
    print(line)
    kernel_total = totals["kernel_wall_ns"] or 1
    krows = [
        {"kernel": r["kernel"], "phase": r["phase"] or "-",
         "wall_ms": round(r["wall_ns"] / 1e6, 3), "calls": r["calls"],
         "share": f"{100 * r['wall_ns'] / kernel_total:.1f}%"}
        for r in perf["kernels"][: args.top]
    ]
    if krows:
        print(f"\ntop-{len(krows)} kernels by self wall time:")
        print(format_table(krows))
    prows = []
    for r in perf["phases"]:
        if r["level"] != 0:
            continue
        row = {"phase": r["phase"], "wall_ms": round(r["wall_ns"] / 1e6, 3),
               "kernel_ms": round(r["kernel_wall_ns"] / 1e6, 3),
               "coverage": (f"{100 * r['coverage']:.1f}%"
                            if r["coverage"] is not None else "-"),
               "energy": r.get("energy", "-"), "depth": r.get("depth", "-")}
        npe = r.get("ns_per_energy")
        row["ns/energy"] = round(npe, 2) if npe is not None else "-"
        prows.append(row)
    if prows:
        print("\ntop-level phases (wall vs model cost):")
        print(format_table(prows))
    if analyzer is not None:
        analyzer.verify(machine)
        blame = analyzer.blame(top_k=args.top)
        perf["critical_path"] = blame
        print(f"\ncritical path: reconstructed depth {blame['depth']:,} == "
              f"machine depth {machine.depth:,} ✓   ({blame['hops']:,} hops "
              f"over {blame['rounds_replayed']:,} rounds)")
        depth_total = blame["depth"] or 1
        brows = [
            {"phase": e["phase"] or "(none)", "contribution": e["contribution"],
             "hops": e["hops"],
             "share": f"{100 * e['contribution'] / depth_total:.1f}%"}
            for e in blame["phases"][: args.top]
        ]
        if brows:
            print("critical-path blame by phase:")
            print(format_table(brows))
    if args.out:
        paths = _write_perf_bundle(
            args.out, perf=perf, machine=machine, profiler=profiler,
            analyzer=analyzer,
        )
        for name, path in sorted(paths.items()):
            print(f"[{name} saved to {path}]")
    if args.history:
        from repro.analysis.bench import append_history
        from repro.analysis.report import RunReport

        rows = [{"workload": args.workload, "engine": machine.engine,
                 "n": machine.n,
                 "wall_s": round(totals["top_phase_wall_ns"] / 1e9, 6),
                 "energy": snap["energy"], "depth": snap["depth"],
                 "messages": snap["messages"]}]
        report = RunReport.table(
            "benchmark", rows, meta={"benchmark": f"perf_{args.workload}"}
        )
        entries = append_history(args.history, [report])
        print(f"[appended {len(entries)} history row(s) to {args.history}]")
    return 0


def cmd_perf_diff(args) -> int:
    import json
    from pathlib import Path

    from repro.machine.wallclock import PERF_SCHEMA

    def load(path):
        data = json.loads(Path(path).read_text())
        if data.get("schema") != PERF_SCHEMA:
            raise SystemExit(
                f"{path} is not a {PERF_SCHEMA} bundle (write one with "
                f"`repro perf <workload> --out DIR`)"
            )
        return data

    a, b = load(args.baseline), load(args.new)
    ra = {(r["kernel"], r["phase"]): r for r in a.get("kernels", [])}
    rb = {(r["kernel"], r["phase"]): r for r in b.get("kernels", [])}
    rows = []
    for key in sorted(set(ra) | set(rb)):
        va = ra.get(key, {}).get("wall_ns", 0)
        vb = rb.get(key, {}).get("wall_ns", 0)
        delta = vb - va
        rows.append({"kernel": key[0], "phase": key[1] or "-",
                     "a_ms": round(va / 1e6, 3), "b_ms": round(vb / 1e6, 3),
                     "delta_ms": round(delta / 1e6, 3),
                     "Δ%": f"{100 * delta / va:+.1f}%" if va else "-"})
    rows.sort(key=lambda r: -abs(r["delta_ms"]))
    print(f"perf diff (b − a): a={args.baseline}  b={args.new}")
    print("wall-clock numbers are host-dependent — compare same-host runs only")
    if rows:
        print(format_table(rows[: args.top]))
    else:
        print("(no kernel rows in either bundle)")
    ta = a.get("totals", {}).get("kernel_wall_ns", 0)
    tb = b.get("totals", {}).get("kernel_wall_ns", 0)
    pct = f" ({100 * (tb - ta) / ta:+.1f}%)" if ta else ""
    print(f"total kernel wall: {ta / 1e6:.2f} ms → {tb / 1e6:.2f} ms "
          f"[{(tb - ta) / 1e6:+.2f} ms{pct}]")
    return 0


def _emit_rendered(payload: str, out: str | None) -> None:
    if out:
        from pathlib import Path

        Path(out).write_text(payload + "\n")
        print(f"wrote {out}")
    else:
        print(payload)


def cmd_lint(args) -> int:
    import json

    from repro.analysis.check import findings_to_json, findings_to_sarif
    from repro.analysis.lint import format_findings, lint_paths, rule_catalog

    if args.list_rules:
        rows = [
            {"code": r["code"], "name": r["name"], "description": r["description"]}
            for r in rule_catalog()
        ]
        print(format_table(rows))
        return 0
    findings = lint_paths(args.paths or ["src"])
    if args.format == "text":
        print(format_findings(findings))
    elif args.format == "json":
        _emit_rendered(
            json.dumps(findings_to_json(findings, tool="repro-lint"), indent=2),
            args.out,
        )
    else:  # sarif
        rules = {r["code"]: (r["name"], r["description"]) for r in rule_catalog()}
        doc = findings_to_sarif(findings, tool="repro-lint", rules=rules)
        _emit_rendered(json.dumps(doc, indent=2), args.out)
    return 1 if findings else 0


def cmd_check(args) -> int:
    import json

    from repro.analysis.check import (
        CHECK_CATALOG,
        check_paths,
        findings_to_json,
        findings_to_sarif,
        format_check,
        merge_sarif,
    )

    if args.list_rules:
        rows = [
            {"code": code, "name": name, "description": description}
            for code, (name, description) in sorted(CHECK_CATALOG.items())
        ]
        print(format_table(rows))
        return 0

    paths = args.paths or ["src/repro"]
    result = check_paths(paths)
    lint_findings = []
    lint_rules: dict[str, tuple[str, str]] = {}
    if args.with_lint:
        from repro.analysis.lint import lint_paths, rule_catalog

        lint_findings = lint_paths(paths)
        lint_rules = {r["code"]: (r["name"], r["description"]) for r in rule_catalog()}

    if args.plan_safety:
        from pathlib import Path

        Path(args.plan_safety).write_text(json.dumps(result.report, indent=2) + "\n")
        print(f"wrote {args.plan_safety}")

    if args.format == "text":
        lines = [format_check(result)]
        if lint_findings:
            lines.append("")
            lines.append("lint findings:")
            lines.extend(str(f) for f in lint_findings)
        _emit_rendered("\n".join(lines), args.out)
    elif args.format == "json":
        doc = findings_to_json(
            list(result.findings) + list(lint_findings), tool="repro-check"
        )
        doc["plan_safety"] = result.report
        doc["stats"] = result.stats
        _emit_rendered(json.dumps(doc, indent=2), args.out)
    else:  # sarif
        docs = [
            findings_to_sarif(result.findings, tool="repro-check", rules=CHECK_CATALOG)
        ]
        if args.with_lint:
            docs.append(
                findings_to_sarif(lint_findings, tool="repro-lint", rules=lint_rules)
            )
        doc = merge_sarif(docs) if len(docs) > 1 else docs[0]
        _emit_rendered(json.dumps(doc, indent=2), args.out)
    return 1 if (result.findings or lint_findings) else 0


def cmd_bench(args) -> int:
    from repro.analysis.bench import (
        compare_reports,
        find_bench_files,
        format_comparison,
        load_bench,
        migrate_bench_files,
    )

    if args.bench_command == "compare":
        baseline = load_bench(args.baseline)
        new = load_bench(args.new)
        cmp = compare_reports(
            baseline, new,
            max_energy_regress=args.max_energy_regress,
            max_depth_regress=args.max_depth_regress,
            max_wall_regress=args.max_wall_regress,
            max_latency_regress=args.max_latency_regress,
            max_throughput_regress=args.max_throughput_regress,
        )
        print(f"bench compare: baseline={args.baseline}  new={args.new}")
        print(format_comparison(cmp))
        return 0 if cmp.ok else 1
    if args.bench_command == "record":
        from repro.analysis.bench import append_history

        paths = list(args.artifacts) or find_bench_files(args.directory)
        if not paths:
            raise SystemExit(
                f"no artifacts given and no BENCH_*.json under {args.directory}"
            )
        entries = append_history(args.history, paths, label=args.label)
        print(f"[recorded {len(entries)} history row(s) from {len(paths)} "
              f"artifact(s) into {args.history}]")
        return 0
    if args.bench_command == "trend":
        from repro.analysis.bench import format_trend, load_history

        entries = load_history(args.history)
        if not entries:
            print(f"(no bench history at {args.history} — record artifacts "
                  f"with `repro bench record`)")
            return 0
        text, flagged = format_trend(
            entries, benchmark=args.benchmark, metric=args.metric,
            window=args.window, max_regress=args.max_regress,
        )
        print(f"bench trend: {args.history} ({len(entries)} entries)")
        print(text)
        if flagged:
            print(f"\nREGRESSIONS vs median of previous ≤{args.window} "
                  f"({len(flagged)}):")
            for f in flagged:
                print(f"  ✗ {f['benchmark']} {f['row']} · {f['metric']}: "
                      f"median {f['baseline']:g} → {f['latest']:g} "
                      f"(+{100 * f['increase']:.1f}%, {f['kind']})")
            return 1
        return 0
    if args.bench_command == "migrate":
        paths = find_bench_files(args.directory)
        if not paths:
            raise SystemExit(f"no BENCH_*.json artifacts under {args.directory}")
        for path in migrate_bench_files(paths):
            print(f"[normalized {path}]")
        return 0
    raise SystemExit(f"unknown bench subcommand {args.bench_command!r}")


def _parse_size(text: str) -> int:
    """Parse a byte budget like ``65536``, ``64K``, ``16M`` or ``1G``."""
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:].upper())
    try:
        if scale is not None:
            return int(float(text[:-1]) * scale)
        return int(text)
    except ValueError:
        raise SystemExit(f"cannot parse size {text!r} (use bytes or K/M/G suffix)")


def cmd_plan(args) -> int:
    from repro.plans import PlanStore, get_workload, record, replay

    store = PlanStore(args.store)
    if args.plan_command == "record":
        spec = get_workload(args.workload)
        shape = args.shape or spec.default_shape
        res = record(
            args.workload, n=args.n, seed=args.seed, shape=shape,
            curve=args.curve, engine=args.engine, mode=args.mode, store=store,
        )
        d = res.plan.describe()
        print(f"[recorded {args.workload} n={args.n} shape={shape} seed={args.seed} "
              f"-> {res.path}]")
        print(f"  step-ops={d['step_ops']} epochs={d['epochs']} messages={d['messages']} "
              f"energy={d['energy']} depth={d['depth']}")
        if d["speculative"]:
            print(f"  speculative phases: {', '.join(d['speculative'])}")
        return 0
    if args.plan_command == "replay":
        spec = get_workload(args.workload)
        shape = args.shape or spec.default_shape
        key = (args.workload, args.n, args.curve, shape)
        res = replay(
            key, store=store, engine=args.engine,
            verify=args.verify, fallback=not args.no_fallback,
        )
        tag = "fallback (live re-record)" if res.fallback else "replayed"
        print(f"[{tag} {args.workload} n={args.n} shape={shape}"
              f"{' · verified vs scalar oracle' if res.verified else ''}]")
        t = res.totals
        print(f"  energy={t['energy']} depth={t['depth']} "
              f"messages={t['messages']} steps={t['steps']}")
        return 0
    if args.plan_command == "ls":
        rows = store.ls()
        if not rows:
            print(f"[no plan artifacts under {store.root}]")
            return 0
        table = []
        for row in rows:
            if "error" in row:
                table.append({"path": row["path"], "key": "<unreadable>",
                              "schema": "-", "KiB": "-"})
                continue
            table.append({
                "path": row["path"],
                "key": "/".join(str(p) for p in row["key"]),
                "schema": row["schema"],
                "KiB": f"{row['nbytes'] / 1024:.1f}",
            })
        print(format_table(table))
        return 0
    if args.plan_command == "gc":
        budget = _parse_size(args.max_bytes)
        before = store.total_bytes()
        deleted = store.gc(max_bytes=budget, dry_run=args.dry_run)
        if args.dry_run:
            after = before - sum(p.stat().st_size for p in deleted if p.exists())
            print(f"[gc --dry-run: {before} bytes (budget {budget}), "
                  f"would delete {len(deleted)} artifact(s) -> {after} bytes]")
            for path in deleted:
                print(f"  ~ {path}")
            return 0
        print(f"[gc: {before} -> {store.total_bytes()} bytes "
              f"(budget {budget}), deleted {len(deleted)} artifact(s)]")
        for path in deleted:
            print(f"  - {path}")
        return 0
    raise SystemExit(f"unknown plan subcommand {args.plan_command!r}")


def cmd_serve(args) -> int:
    import signal
    import threading
    import time

    from repro.plans import PlanStore
    from repro.serving import ServingServer, boot_service
    from repro.telemetry import DivergenceWatchdog, SpanTracer

    store = PlanStore(args.plan_store) if args.plan_store else None
    tracer = None
    if args.span_log is not None:
        tracer = SpanTracer(workload="serve", jsonl_path=args.span_log)
    booted = boot_service(
        shape=args.tree, n=args.n, seed=args.seed, curve=args.curve,
        engine=args.engine, warm=not args.cold, store=store,
        window_s=0.0 if args.no_coalesce else args.window_ms / 1000.0,
        max_batch=args.max_batch, max_queue=args.max_queue, tracer=tracer,
    )
    service, boot = booted.service, booted.boot
    watchdog = None
    if args.watchdog_sample:
        watchdog = service.st.machine.attach(
            DivergenceWatchdog(sample=args.watchdog_sample, tracer=tracer)
        )
    server = ServingServer(
        service, boot=boot, port=args.port,
        span_tracer=tracer, watchdog=watchdog,
    ).start()
    print(f"[serving {args.tree} n={args.n} curve={args.curve} "
          f"engine={args.engine} at {server.url} — POST /lca /treefix /cuts · "
          f"GET /serving /metrics /health /progress /spans]")
    reason = f" · {boot.fallback_reason}" if boot.fallback_reason else ""
    print(f"[boot: {boot.mode} in {boot.boot_s:.3f}s · "
          f"energy={boot.totals['energy']} depth={boot.totals['depth']}{reason}]")
    if args.no_coalesce:
        print("[coalescing OFF (--no-coalesce): one request per window]")
    else:
        print(f"[coalescing: window {args.window_ms:g} ms · "
              f"max batch {args.max_batch} · queue bound {args.max_queue}]")
    sys.stdout.flush()

    stop = threading.Event()

    def _on_signal(signum, frame):
        del frame
        print(f"[{signal.Signals(signum).name}: draining]", flush=True)
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    deadline = (
        time.monotonic() + args.max_seconds if args.max_seconds else None
    )
    while not stop.is_set():
        if deadline is not None and time.monotonic() >= deadline:
            print(f"[--max-seconds {args.max_seconds:g} elapsed: draining]")
            break
        stop.wait(0.2)
    server.shutdown()
    stats = service.stats
    print(f"[drained: {sum(stats.requests_total.values())} request(s) · "
          f"{stats.windows_total} window(s) · "
          f"{stats.window_queries_total} coalesced queries "
          f"({stats.dedup_saved_total} deduped) · "
          f"shed {service.queue.shed_total} · "
          f"rejected-draining {service.queue.rejected_draining_total}]")
    if watchdog is not None:
        snap = watchdog.snapshot()
        verdict = "clean" if snap["clean"] else f"{snap['alerts']} ALERTS"
        print(f"[watchdog: {snap['checks']} phases re-verified, {verdict}]")
        if not snap["clean"]:
            return 1
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import RunReport, diff_reports, format_diff, format_report

    if args.diff:
        if len(args.paths) != 2:
            raise SystemExit("repro report --diff needs exactly two report files")
        a = RunReport.load(args.paths[0])
        b = RunReport.load(args.paths[1])
        print(f"diff (b − a): a={args.paths[0]}  b={args.paths[1]}")
        print(format_diff(diff_reports(a, b)))
        return 0
    if not args.paths:
        raise SystemExit("repro report needs at least one report file")
    for i, path in enumerate(args.paths):
        if i:
            print()
        print(f"== {path} ==")
        print(format_report(RunReport.load(path)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Low-Depth Spatial Tree Algorithms — reproduction CLI"
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="inventory of curves, orders, generators")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("layout", help="layout energy metrics for a generated tree")
    _add_tree_args(p)
    p.add_argument("--order", default="all", help="layout order or 'all'")
    p.add_argument("--show-grid", action="store_true", help="render small grids")
    _add_output_args(p)
    p.set_defaults(fn=cmd_layout)

    p = sub.add_parser("treefix", help="run the §V treefix sum")
    _add_tree_args(p)
    p.add_argument("--mode", default="auto", choices=["auto", "direct", "virtual"])
    _add_engine_arg(p)
    _add_output_args(p)
    _add_telemetry_args(p)
    p.set_defaults(fn=cmd_treefix)

    p = sub.add_parser("lca", help="run a batched LCA (§VI)")
    _add_tree_args(p)
    p.add_argument("--queries", type=int, default=0, help="query count (default n)")
    _add_engine_arg(p)
    _add_output_args(p)
    _add_telemetry_args(p)
    p.set_defaults(fn=cmd_lca)

    p = sub.add_parser("expr", help="evaluate a random {+,×} expression tree")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curve", default="hilbert", choices=available_curves())
    _add_engine_arg(p)
    _add_output_args(p)
    _add_telemetry_args(p)
    p.set_defaults(fn=cmd_expr)

    p = sub.add_parser("cuts", help="1-respecting cut values (Karger building block)")
    _add_tree_args(p)
    p.add_argument("--extra-edges", type=int, default=0, help="non-tree edge count (default 2n)")
    _add_engine_arg(p)
    _add_output_args(p)
    _add_telemetry_args(p)
    p.set_defaults(fn=cmd_cuts)

    p = sub.add_parser("sort", help="bitonic sort over curve order (§II-A routing)")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curve", default="hilbert", choices=available_curves())
    p.add_argument("--descending", action="store_true", help="sort descending")
    _add_engine_arg(p)
    _add_output_args(p)
    _add_telemetry_args(p)
    p.set_defaults(fn=cmd_sort)

    p = sub.add_parser(
        "layout-create",
        help="run the §IV light-first layout-creation pipeline (Theorem 4)",
    )
    _add_tree_args(p)
    _add_engine_arg(p)
    _add_output_args(p)
    _add_telemetry_args(p)
    p.set_defaults(fn=cmd_layout_create)

    p = sub.add_parser("curves", help="empirical distance-bound constants (E4)")
    p.add_argument("--side", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    _add_output_args(p)
    p.set_defaults(fn=cmd_curves)

    p = sub.add_parser(
        "profile",
        help="run a workload under the spatial profiler; emit heatmaps, "
             "folded stacks, and Prometheus metrics",
    )
    p.add_argument("workload", choices=sorted(PROFILE_WORKLOADS))
    _add_tree_args(p)
    p.add_argument("--mode", default="auto", choices=["auto", "direct", "virtual"],
                   help="treefix execution mode (ignored by other workloads)")
    p.add_argument("--queries", type=int, default=0, help="lca query count (default n)")
    p.add_argument("--extra-edges", type=int, default=0,
                   help="cuts non-tree edge count (default 2n)")
    p.add_argument("--out", metavar="DIR", required=True,
                   help="directory for the profile artifact bundle")
    p.add_argument("--window", type=int, default=64,
                   help="depth rounds per link-congestion window (default 64)")
    p.add_argument("--max-windows", type=int, default=None,
                   help="retain link matrices for only the last K windows "
                        "(bounded memory; default: keep all)")
    p.add_argument("--top", type=int, default=10, help="hotspot table size")
    p.add_argument("--no-step-histograms", action="store_true",
                   help="drop per-step distance histograms from report.json")
    _add_engine_arg(p)
    _add_telemetry_args(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "sanitize",
        help="run a workload under the write-race, determinism, and "
             "ghost-state sanitizers; emit a findings report",
    )
    p.add_argument("workload", choices=sorted(PROFILE_WORKLOADS))
    _add_tree_args(p)
    p.add_argument("--mode", default="auto", choices=["auto", "direct", "virtual"],
                   help="treefix execution mode (ignored by other workloads)")
    p.add_argument("--queries", type=int, default=0, help="lca query count (default n)")
    p.add_argument("--extra-edges", type=int, default=0,
                   help="cuts non-tree edge count (default 2n)")
    p.add_argument("--policy", default="crew", choices=["erew", "crew", "crcw"],
                   help="write-race policy: exclusive, concurrent-read, or "
                        "common concurrent-write (default crew)")
    p.add_argument("--trials", type=int, default=2,
                   help="per-step clock-replay permutation trials (default 2)")
    p.add_argument("--fuzz", action="store_true",
                   help="also re-run the whole workload under permuted "
                        "delivery orders and diff the final results")
    p.add_argument("--fuzz-trials", type=int, default=2,
                   help="delivery-order fuzz re-runs (default 2)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the schema-versioned findings report (JSON)")
    _add_engine_arg(p)
    _add_output_args(p)
    _add_telemetry_args(p)
    p.set_defaults(fn=cmd_sanitize)

    p = sub.add_parser(
        "perf",
        help="wall-clock kernel profiler + depth-clock critical-path "
             "attribution for a workload; `perf diff` compares bundles",
    )
    perf_sub = p.add_subparsers(dest="perf_command", required=True)
    for name in sorted(PROFILE_WORKLOADS):
        pw = perf_sub.add_parser(name, help=f"profile the {name} workload")
        pw.add_argument("--tree", default="prufer", choices=sorted(TREE_KINDS))
        pw.add_argument("-n", "--n", type=int, default=4096, dest="n",
                        help="number of vertices (default 4096)")
        pw.add_argument("--seed", type=int, default=0)
        pw.add_argument("--curve", default="hilbert", choices=available_curves())
        pw.add_argument("--mode", default="auto",
                        choices=["auto", "direct", "virtual"],
                        help="treefix execution mode (ignored by other workloads)")
        pw.add_argument("--queries", type=int, default=0,
                        help="lca query count (default n)")
        pw.add_argument("--extra-edges", type=int, default=0,
                        help="cuts non-tree edge count (default 2n)")
        pw.add_argument("--top", type=int, default=10,
                        help="kernel/blame table size (default 10)")
        pw.add_argument("--out", metavar="DIR", default=None,
                        help="write the perf bundle: perf.json, "
                             "critical_path.trace.json (Perfetto), metrics.prom")
        pw.add_argument("--history", metavar="PATH", default=None,
                        help="append a wall+model row to this "
                             "BENCH_HISTORY.jsonl (see `repro bench trend`)")
        pw.add_argument("--no-critical-path", action="store_true",
                        help="skip the depth-clock critical-path replay")
        _add_engine_arg(pw)
        _add_telemetry_args(pw)
        pw.set_defaults(fn=cmd_perf, workload=name)
    pd = perf_sub.add_parser(
        "diff", help="per-kernel wall deltas between two perf.json bundles"
    )
    pd.add_argument("baseline", help="baseline perf.json (from `perf --out`)")
    pd.add_argument("new", help="new perf.json to compare")
    pd.add_argument("--top", type=int, default=15,
                    help="rows to show, sorted by |delta| (default 15)")
    pd.set_defaults(fn=cmd_perf_diff)

    p = sub.add_parser(
        "lint",
        help="model-discipline AST lint (REPROxxx rules) over source paths",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to lint (default: src)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--format", choices=("text", "json", "sarif"), default="text",
                   help="output format (sarif targets CI code scanning)")
    p.add_argument("--out", help="write json/sarif output to this file")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "check",
        help="whole-program effect & cost-contract checker (CHECKxxx codes)",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to check (default: src/repro)")
    p.add_argument("--format", choices=("text", "json", "sarif"), default="text",
                   help="output format (sarif targets CI code scanning)")
    p.add_argument("--out", help="write the rendered output to this file")
    p.add_argument("--plan-safety",
                   help="write the repro.plan-safety/v1 report JSON to this file")
    p.add_argument("--with-lint", action="store_true",
                   help="also run the per-file REPROxxx lint (merged output)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the CHECKxxx catalog and exit")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("bench", help="benchmark artifact workflows (perf gate)")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    pc = bench_sub.add_parser(
        "compare",
        help="diff two BENCH_/run reports; exit 1 on energy/depth/wall regression",
    )
    pc.add_argument("baseline", help="baseline report (BENCH_*.json or run report)")
    pc.add_argument("new", help="new report to gate against the baseline")
    pc.add_argument("--max-energy-regress", default="10%", metavar="PCT",
                    help="fail if an energy-like metric grows more than this "
                         "(default 10%%; e.g. 5%% or 0.05)")
    pc.add_argument("--max-depth-regress", default=None, metavar="PCT",
                    help="optionally gate depth-like metrics the same way")
    pc.add_argument("--max-wall-regress", default=None, metavar="PCT",
                    help="optionally gate wall-clock metrics (host-dependent "
                         "— only meaningful for same-host artifacts)")
    pc.add_argument("--max-latency-regress", default=None, metavar="PCT",
                    help="optionally gate latency metrics (p50/p99/ttfa — "
                         "host-dependent, like wall)")
    pc.add_argument("--max-throughput-regress", default=None, metavar="PCT",
                    help="optionally gate throughput metrics (qps/rps — "
                         "inverted: a DECREASE beyond this fails)")
    pc.set_defaults(fn=cmd_bench)
    pr = bench_sub.add_parser(
        "record",
        help="append BENCH artifacts to the bench history (JSONL trajectory)",
    )
    pr.add_argument("artifacts", nargs="*",
                    help="BENCH_*.json files (default: all under --directory)")
    pr.add_argument("--directory", default="benchmarks/results",
                    help="where to look for artifacts when none are given")
    pr.add_argument("--history", metavar="PATH",
                    default="benchmarks/results/BENCH_HISTORY.jsonl")
    pr.add_argument("--label", default=None,
                    help="free-form tag stored on each row (e.g. a commit sha)")
    pr.set_defaults(fn=cmd_bench)
    pt = bench_sub.add_parser(
        "trend", help="sparkline table of the bench history trajectory"
    )
    pt.add_argument("--history", metavar="PATH",
                    default="benchmarks/results/BENCH_HISTORY.jsonl")
    pt.add_argument("--benchmark", default=None,
                    help="only series from this benchmark")
    pt.add_argument("--metric", default=None, help="only this metric column")
    pt.add_argument("--window", type=int, default=5,
                    help="compare latest against the median of the previous "
                         "K recordings (default 5)")
    pt.add_argument("--max-regress", default=None, metavar="PCT",
                    help="exit 1 if a gated metric's latest value exceeds "
                         "the median of its previous window by more than this")
    pt.set_defaults(fn=cmd_bench)
    pm = bench_sub.add_parser(
        "migrate", help="normalize BENCH_*.json artifacts in place"
    )
    pm.add_argument("directory", nargs="?", default="benchmarks/results")
    pm.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "plan",
        help="whole-workload plan compiler: record runs, replay them as "
             "straight-line send plans (repro.workload-plan/v1)",
    )
    plan_sub = p.add_subparsers(dest="plan_command", required=True)

    def _add_plan_key_args(pp, *, with_seed: bool) -> None:
        from repro.plans.workloads import WORKLOADS

        pp.add_argument("workload", choices=sorted(WORKLOADS))
        pp.add_argument("--n", type=int, default=1024)
        pp.add_argument("--shape", default=None,
                        help="tree-shape / input class (default: per workload)")
        pp.add_argument("--curve", default="hilbert", choices=available_curves())
        if with_seed:
            pp.add_argument("--seed", type=int, required=True,
                            help="explicit seed; the whole instance (tree, "
                                 "inputs, coins) derives from it")
        pp.add_argument("--store", default=".repro-plans", metavar="DIR",
                        help="plan store directory (default .repro-plans)")

    pp = plan_sub.add_parser(
        "record", help="run a workload live and persist its plan artifact"
    )
    _add_plan_key_args(pp, with_seed=True)
    pp.add_argument("--engine", default="batched", choices=["scalar", "batched"])
    pp.add_argument("--mode", default="auto", choices=["auto", "direct", "virtual"])
    pp.set_defaults(fn=cmd_plan)
    pp = plan_sub.add_parser(
        "replay",
        help="re-execute a stored plan as straight-line vectorized sends",
    )
    _add_plan_key_args(pp, with_seed=False)
    pp.add_argument("--engine", default="batched", choices=["scalar", "batched"])
    pp.add_argument("--verify", action="store_true",
                    help="also run the scalar-engine oracle and require "
                         "bit-identical results and totals")
    pp.add_argument("--no-fallback", action="store_true",
                    help="raise on speculative divergence instead of falling "
                         "back to live execution")
    pp.set_defaults(fn=cmd_plan)
    pp = plan_sub.add_parser("ls", help="list stored plan artifacts")
    pp.add_argument("--store", default=".repro-plans", metavar="DIR")
    pp.set_defaults(fn=cmd_plan)
    pp = plan_sub.add_parser(
        "gc", help="delete oldest artifacts until the store fits a byte budget"
    )
    pp.add_argument("--store", default=".repro-plans", metavar="DIR")
    pp.add_argument("--max-bytes", required=True, metavar="SIZE",
                    help="byte budget (supports K/M/G suffixes)")
    pp.add_argument("--dry-run", action="store_true",
                    help="list the artifacts gc would evict without deleting")
    pp.set_defaults(fn=cmd_plan)

    p = sub.add_parser(
        "serve",
        help="always-on query service: warm layout boot, cross-user LCA "
             "coalescing, query POSTs + live telemetry on one port",
    )
    from repro.plans.workloads import TREE_SHAPES

    p.add_argument("--tree", default="random", choices=sorted(TREE_SHAPES))
    p.add_argument("--n", type=int, default=1024, help="number of vertices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curve", default="hilbert", choices=available_curves())
    p.add_argument("--engine", default="batched", choices=["scalar", "batched"])
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 picks a free one; loopback only)")
    p.add_argument("--window-ms", type=float, default=2.0, metavar="MS",
                   help="coalescing window: LCA queries arriving within this "
                        "window merge into one batched pass (default 2 ms)")
    p.add_argument("--max-batch", type=int, default=65536, metavar="Q",
                   help="close a window early at this many queries; larger "
                        "merged batches split into chunks of this size")
    p.add_argument("--max-queue", type=int, default=1024, metavar="R",
                   help="admission bound: beyond this many queued requests "
                        "new ones are shed with HTTP 429")
    p.add_argument("--no-coalesce", action="store_true",
                   help="serve every request solo (window 0) — the "
                        "comparison baseline for the coalescing win")
    p.add_argument("--cold", action="store_true",
                   help="skip the warm plan-replay boot and run the §IV "
                        "layout-creation pipeline live")
    p.add_argument("--plan-store", default=".repro-plans", metavar="DIR",
                   help="plan store for warm boots (empty string disables)")
    p.add_argument("--max-seconds", type=float, default=None, metavar="SEC",
                   help="drain and exit after this long (default: run until "
                        "SIGTERM/SIGINT)")
    p.add_argument("--span-log", metavar="PATH", default=None,
                   help="stream serving-window spans to a JSONL file")
    p.add_argument("--watchdog-sample", type=_watchdog_stride, default=8, metavar="K",
                   help="engine-divergence watchdog stride over served "
                        "phases (0 disables; default 8)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("report", help="pretty-print or diff saved run reports")
    p.add_argument("paths", nargs="*", help="report file(s) written by --report")
    p.add_argument("--diff", action="store_true",
                   help="diff two reports: per-phase energy/depth deltas (b − a)")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # model/validation failures are expected outcomes, not crashes:
        # one clean line on stderr, distinct exit code
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
