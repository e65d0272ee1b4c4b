"""What the traced run wraps, and the per-layer metrics it derives.

Layers are named after the program's modules.  Set-up layers report the
total time of whole calls.  Op layers report self time where calls nest —
each machine phase, each named spatial call, the machine's own dispatch —
so that the layers of one op add up to its wall time;
``spatial.unattributed_ms`` is the part no named span covers, and
``trace.coverage`` is one minus its share.  Times are scaled to the
reference host like the end-to-end metrics (``run.Calibration``).
"""

from __future__ import annotations

import importlib

from spanrec import Patches, Recorder, timed, timed_phase

#: clock-kernel short name -> kernel function in ``repro.machine.machine``
KERNELS = {
    "general": "_advance_round",
    "small": "_advance_round_small",
    "exclusive": "_advance_round_exclusive",
    "occ": "_advance_round_occ",
    "paired": "_advance_rounds_paired",
}
#: the machine's three charging entry points
MACHINE_CALLS = ("send", "send_batch", "send_plan")
#: instrument classes whose hooks are timed (the ledger is always attached)
INSTRUMENTS = ("LedgerInstrument", "RunRecorder", "TracerInstrument", "SpanTracer",
               "DivergenceWatchdog")
#: instrument hook -> metric stem
HOOKS = {"on_step": "on_step", "on_phase_enter": "phase_hook", "on_phase_exit": "phase_hook"}
#: machine phases the workloads open; any other phase lands in ``other``
PHASES = (
    "treefix_bottom_up_contract", "treefix_bottom_up_expand",
    "euler_tour_1", "child_sort", "euler_tour_2", "compact", "permute",
    "list_rank_init", "list_rank_contract", "list_rank_base", "list_rank_expand",
    "lca_layers", "lca_ranges", "lca_cover",
)
#: op-level calls, wrapped at the module that calls them: span -> (module, name)
CALLS = {
    "list_rank": ("repro.spatial.layout_creation", "list_rank"),
    "bitonic_sort": ("repro.spatial.layout_creation", "bitonic_sort"),
    "permute": ("repro.spatial.layout_creation", "permute"),
    "is_light_first": ("repro.spatial.layout_creation", "is_light_first"),
    "lca_batch": ("repro.serving.service", "lca_batch"),
}
#: set-up calls, wrapped at each module that calls them: span -> [(module, name), ...]
SETUP_CALLS = {
    "trees.build": [("repro.plans", "make_tree"), ("repro.plans.workloads", "make_tree"),
                    ("repro.serving.service", "make_tree")],
    "plans.replay": [("repro.serving.service", "replay")],
    "spatial.prepare_lca": [("repro.spatial.lca", "prepare_lca")],
}
SETUP_LAYERS = ("trees.build", "layout.build", "machine.init", "spatial.first_op",
                "plans.replay", "spatial.prepare_lca")
SERVING = ("submit_ms", "queue_wait_ms", "window_ms", "coalesce_ms",
           "requests_per_window", "dedup_ratio", "shed", "timeouts", "wrong")


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = [f"{layer}_ms" for layer in SETUP_LAYERS]
    names += ["machine.calls", "machine.messages", "machine.rounds", "machine.steps",
              "machine.busy_ms", "machine.dispatch_ms", "machine.clock_ms"]
    names += [f"machine.kernel_rounds.{k}" for k in KERNELS]
    names += [f"machine.kernel_ms.{k}" for k in KERNELS]
    names += ["machine.plan_cache.hit_ratio", "machine.routing_ms"]
    names += [f"spatial.phase_ms.{p}" for p in (*PHASES, "other")]
    names += [f"spatial.call_self_ms.{c}" for c in (*CALLS, "layout_build")]
    names += ["spatial.self_ms", "spatial.unattributed_ms", "spatial.contraction_rounds",
              "spatial.list_rank_rounds", "spatial.lca_layers"]
    names += ["instrumentation.events"]
    names += [f"instrumentation.on_step_ms.{i}" for i in INSTRUMENTS]
    names += [f"instrumentation.phase_hook_ms.{i}" for i in INSTRUMENTS]
    names += ["instrumentation.report_ms"]
    names += [f"serving.{s}" for s in SERVING]
    names += ["load.lateness_ms", "host.calib_ms", "trace.overhead_ratio", "trace.coverage"]
    return names


def unit(name: str) -> str:
    if any(part.endswith("_ms") for part in name.split(".")):
        return "ms"
    if name.endswith("ratio") or name == "trace.coverage":
        return "1"
    return "count"


def _attr(spec: tuple[str, str]):
    module, name = spec
    return importlib.import_module(module), name


def _wrap_classes(rec: Recorder, patches: Patches) -> None:
    from repro.layout.embedding import TreeLayout
    from repro.machine.machine import SpatialMachine

    build = timed(rec, "layout.build", TreeLayout.build.__func__)
    patches.set(TreeLayout, "build", classmethod(build))
    patches.wrap(rec, SpatialMachine, "__init__", "machine.init")


def wrap_setup(rec: Recorder, patches: Patches) -> None:
    """Wrap the calls a fresh instance is built from."""
    for span, specs in SETUP_CALLS.items():
        for spec in specs:
            patches.wrap(rec, *_attr(spec), span)
    _wrap_classes(rec, patches)


def wrap_machine(rec: Recorder, patches: Patches, machine) -> None:
    """Wrap one machine's charging calls and phases, and the clock kernels."""
    import repro.machine.machine as mm

    for call in MACHINE_CALLS:
        patches.wrap(rec, machine, call, "machine." + call)
    patches.set(machine, "phase", timed_phase(rec, machine.phase))
    patches.wrap(rec, mm, "advance_clocks_batch", "machine.clock")
    for short, fn in KERNELS.items():
        patches.wrap(rec, mm, fn, "kernel." + short)


def wrap_instruments(rec: Recorder, patches: Patches, instruments, seen: set) -> None:
    for inst in instruments:
        if id(inst) in seen:
            continue
        seen.add(id(inst))
        cls = type(inst).__name__
        for hook, stem in HOOKS.items():
            patches.wrap(rec, inst, hook, f"{stem}:{cls}")


def wrap_op(rec: Recorder, patches: Patches, workload) -> None:
    """Wrap everything one closed-loop op calls into."""
    machine = workload.machine
    wrap_machine(rec, patches, machine)
    for span, spec in CALLS.items():
        patches.wrap(rec, *_attr(spec), span)
    _wrap_classes(rec, patches)
    seen: set = set()
    wrap_instruments(rec, patches, machine.instruments, seen)
    # the observed workload attaches fresh instruments inside the op
    patches.set(workload, "instrument_hook",
                lambda insts: wrap_instruments(rec, patches, insts, seen))
    patches.set(workload, "rec", rec)


def wrap_serving(rec: Recorder, patches: Patches, svc, windows: list) -> None:
    """Wrap an idle service: its machine, ``submit``, and the window
    algebra it calls.  A ``serving.window`` span runs from ``plan_window``
    to the end of ``scatter_answers``; ``windows`` collects, per window,
    its start, end and the ids of the query arrays it served.  The caller
    unwraps only once every submitted request is answered, so no window
    is cut."""
    import repro.serving.service as mod

    wrap_machine(rec, patches, svc.st.machine)
    patches.wrap(rec, mod, "lca_batch", "lca_batch")
    patches.wrap(rec, svc, "submit", "serving.submit")
    plan_window, scatter_answers = mod.plan_window, mod.scatter_answers

    def open_window(queries, **kwargs):
        frame = rec.begin("serving.window", rid=f"w{len(windows)}")
        with rec.span("serving.plan_window"):
            plan = plan_window(queries, **kwargs)
        windows.append({"frame": frame, "start": frame[4], "end": None,
                        "ids": [id(us) for us, _ in queries]})
        return plan

    def close_window(plan, answers):
        with rec.span("serving.scatter_answers"):
            out = scatter_answers(plan, answers)
        win = windows[-1]
        win["end"] = win["start"] + rec.end(win["frame"])
        return out

    patches.set(mod, "plan_window", open_window)
    patches.set(mod, "scatter_answers", close_window)


def cache_counts(machine) -> tuple[int, int]:
    pc = machine.plan_cache
    return sum(pc.hits.values()), sum(pc.misses.values())


def hit_ratio(machine, before: tuple[int, int]) -> float:
    hits, misses = cache_counts(machine)
    hits -= before[0]
    misses -= before[1]
    return hits / (hits + misses) if hits + misses else 0.0


def setup_metrics(d: dict[str, list[int]], scale: float) -> dict[str, float]:
    return {f"{layer}_ms": d.get(layer, (0, 0, 0))[1] / 1e6 * scale for layer in SETUP_LAYERS}


def op_metrics(d: dict[str, list[int]], op_ns: int, *, per: int = 1,
               root: str = "op", scale: float = 1.0) -> dict[str, float]:
    """Per-op layer values from span totals ``d`` accrued over ``per`` ops
    whose root spans (called ``root``) last ``op_ns`` in all; wall time is
    multiplied by ``scale``."""

    def tot(name):
        return d.get(name, (0, 0, 0))[1]

    def slf(name):
        return d.get(name, (0, 0, 0))[0]

    def calls(name):
        return d.get(name, (0, 0, 0))[2]

    ms = 1e6 * per / scale
    busy = sum(tot("machine." + c) for c in MACHINE_CALLS)
    out = {
        "machine.calls": sum(calls("machine." + c) for c in MACHINE_CALLS) / per,
        "machine.busy_ms": busy / ms,
        "machine.dispatch_ms": sum(slf("machine." + c) for c in MACHINE_CALLS) / ms,
        "machine.clock_ms": tot("machine.clock") / ms,
        "machine.routing_ms": (tot("bitonic_sort") + tot("permute")) / ms,
        "spatial.self_ms": (op_ns - busy) / ms,
        "spatial.unattributed_ms": slf(root) / ms,
        "instrumentation.events": max(calls("on_step:" + i) for i in INSTRUMENTS) / per,
        "instrumentation.report_ms": tot("instrumentation.report") / ms,
        "trace.coverage": 1.0 - slf(root) / op_ns if op_ns else 0.0,
    }
    rounds = 0
    for short in KERNELS:
        r = calls("kernel." + short) * (2 if short == "paired" else 1)
        rounds += r
        out[f"machine.kernel_rounds.{short}"] = r / per
        out[f"machine.kernel_ms.{short}"] = tot("kernel." + short) / ms
    out["machine.rounds"] = rounds / per
    for inst in INSTRUMENTS:
        out[f"instrumentation.on_step_ms.{inst}"] = tot("on_step:" + inst) / ms
        out[f"instrumentation.phase_hook_ms.{inst}"] = tot("phase_hook:" + inst) / ms
    for name, (self_ns, _, _) in d.items():
        if name.startswith("phase:"):
            phase = name[len("phase:"):]
            key = f"spatial.phase_ms.{phase if phase in PHASES else 'other'}"
            out[key] = out.get(key, 0.0) + self_ns / ms
    for call in CALLS:
        out[f"spatial.call_self_ms.{call}"] = slf(call) / ms
    out["spatial.call_self_ms.layout_build"] = slf("layout.build") / ms
    return out


def window_metrics(d: dict[str, list[int]], scale: float) -> tuple[dict[str, float], int]:
    """Per-window layer values over one traced slice of ``serve``, and the
    number of windows they average."""

    def tot(name):
        return d.get(name, (0, 0, 0))[1]

    window_self, window_ns, nwin = d.get("serving.window", (0, 0, 0))
    per = max(1, nwin)
    row = op_metrics(d, tot("lca_batch"), per=per, root="serving.window", scale=scale)
    # the share of window time spent in plan_window, lca_batch and scatter_answers
    row["trace.coverage"] = 1.0 - window_self / window_ns if window_ns else 0.0
    submit = d.get("serving.submit", (0, 0, 0))
    row["serving.submit_ms"] = submit[1] / max(1, submit[2]) / 1e6 * scale
    row["serving.window_ms"] = tot("lca_batch") / per / 1e6 * scale
    row["serving.coalesce_ms"] = ((tot("serving.plan_window") + tot("serving.scatter_answers"))
                                  / per / 1e6 * scale)
    return row, nwin
