#!/usr/bin/env python3
"""The repository benchmark: one workload per process, measured from outside.

Run from the repository root::

    python3 perfbench/run.py --workload treefix --seed 1 --seconds 20 --trace 0

One invocation derives the workload's inputs from ``--seed``, times
several fresh set-ups, runs ops for ``--seconds`` seconds, checks every
answer and prints every metric by name with its unit.  ``--trace 0``
reports the end-to-end metrics of an unwrapped run; ``--trace 1`` is a
separate traced run that reports the per-layer breakdown and writes its
span tree under ``perfbench/out/``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a failed check makes the command exit 1.

Host times are reported in reference time: every timed interval lies
between two samples of a fixed calibration loop, which scale it (see
:class:`Calibration`).  Workloads and metrics are defined in
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# one client and at most two threads per workload: keep numpy's native
# thread pools to one thread (read when numpy is first imported)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: calibration samples at each end of a run, kept in its record
CALIB_REPS = 15
#: size of the calibration loop's arrays
CALIB_N = 1 << 16
#: what one calibration sample takes on the reference host, in ms
REF_CALIB_MS = 2.5
#: end-to-end metric -> unit (BENCHMARK.json lists the same)
E2E_UNITS = {"setup_s": "s", "p50_ms": "ms", "tail_ms": "ms", "ops_per_s": "1/s",
             "peak_rss_mb": "MB", "energy": "units", "depth": "units"}


def load_program() -> None:
    """Import the program from this checkout's ``src``; exit 1 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


class Calibration:
    """The null workload, and the host-speed scale taken from it.

    The loop is fixed: numpy gathers, ufuncs, histograms and small sorts
    on ``CALIB_N``-element arrays plus Python bytecode, the mix the
    workloads' ops spend their time in.  Host speed on a shared sandbox
    moves between levels up to 2x apart, within a run and between runs,
    and op times move with it (README, "Host drift").  :meth:`scale`
    converts a wall time taken between two samples into reference time:
    what it would read on a host where one sample takes ``REF_CALIB_MS``.
    A program change moves the op times but not the loop.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(12345)
        self._keys = rng.integers(0, 1 << 30, size=CALIB_N)
        self._perm = rng.permutation(CALIB_N)
        self._buf = np.empty(CALIB_N, dtype=np.int64)
        #: every sample taken, in ms
        self.samples: list[float] = []

    def _loop(self) -> int:
        import numpy as np

        n, keys, perm, buf = CALIB_N, self._keys, self._perm, self._buf
        acc = 0
        for r in range(6):
            np.take(keys, perm, out=buf)
            np.bitwise_xor(buf, r, out=buf)
            acc += int(np.bincount(perm[: n >> 3] & 1023, minlength=1024)[r % 1024])
            acc += int(np.argsort(buf[: n >> 4], kind="stable")[r % (n >> 4)])
            for i in range(400):
                acc += i & 7
        return acc

    def sample(self) -> float:
        """Time the loop, best of three passes, in ms."""
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            self._loop()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best * 1e3)
        return best * 1e3

    def scale(self, before: float, after: float) -> float:
        """Reference time per wall time for an interval between two samples."""
        return 2 * REF_CALIB_MS / (before + after)


def quantile(values, q: float) -> float:
    """Linearly interpolated ``q``-quantile."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mean_rows(rows: list[dict], weights: list[float] | None = None) -> dict[str, float]:
    """Key-wise weighted mean of metric rows; a key a row lacks counts as 0."""
    weights = weights or [1.0] * len(rows)
    total = sum(weights) or 1.0
    keys = {k for r in rows for k in r}
    return {k: sum(w * r.get(k, 0.0) for r, w in zip(rows, weights)) / total for k in keys}


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self, inject: int) -> None:
        self.inject = inject
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def injecting(self) -> bool:
        """True for the op whose answer the self-test asks to corrupt."""
        return self.attempted + 1 == self.inject

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)


def check_op(w, answer, error, tally: Tally, first: dict) -> dict | None:
    """Check one op's answer and model costs; returns its costs."""
    if error is not None:
        tally.record(f"op raised {type(error).__name__}: {error}")
        return None
    if tally.injecting():
        answer = w.corrupt(answer)
    costs = w.costs()
    problem = w.check(answer)
    model = (costs["energy"], costs["depth"])
    if not first:
        first.update(costs)
        if w.pinned is not None and model != w.pinned:
            problem = problem or f"energy/depth {model} differ from the pinned {w.pinned}"
    elif model != (first["energy"], first["depth"]):
        problem = problem or f"energy/depth {model} differ from the first op's"
    tally.record(problem)
    return costs


def closed_loop(w, seconds: float, tally: Tally, cal: Calibration, rec) -> dict:
    """Fresh set-ups, then ops for ``seconds``, each followed by a
    calibration sample.  With a recorder, traced ops alternate with
    untraced ones."""
    from spanrec import Patches, diff

    import layers

    first: dict = {}
    setup_s, setup_rows = [], []
    for _ in range(w.setups):
        gc.collect()
        patches = Patches()
        c0 = cal.sample()
        if rec is not None:
            layers.wrap_setup(rec, patches)
            before = rec.totals()
        t0 = time.perf_counter()
        try:
            w.build()
            w.before_op()
            with rec.span("spatial.first_op") if rec is not None else contextlib.nullcontext():
                answer, error = w.op(), None
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            answer, error = None, exc
        dt = time.perf_counter() - t0
        patches.undo()
        scale = cal.scale(c0, cal.sample())
        setup_s.append(dt * scale)
        if rec is not None:
            setup_rows.append(layers.setup_metrics(diff(rec.totals(), before), scale))
        check_op(w, answer, error, tally, first)

    lat, raw, traced_lat, rows = [], [], [], []
    modes = (False,) if rec is None else (False, True)
    c0 = cal.sample()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (rec is not None and not rows):
        for tracing in modes:
            w.before_op()
            patches = Patches()
            if tracing:
                layers.wrap_op(rec, patches, w)
                cache = layers.cache_counts(w.machine)
                before = rec.totals()
                frame = rec.begin("op")
            t0 = time.perf_counter()
            try:
                answer, error = w.op(), None
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                answer, error = None, exc
            dt = (time.perf_counter() - t0) * 1e3
            if tracing:
                op_ns = rec.end(frame)
                patches.undo()
            c1 = cal.sample()
            scale = cal.scale(c0, c1)
            c0 = c1
            costs = check_op(w, answer, error, tally, first)
            if tracing:
                row = layers.op_metrics(diff(rec.totals(), before), op_ns, scale=scale)
                row["machine.plan_cache.hit_ratio"] = layers.hit_ratio(w.machine, cache)
                row.update({k: v for k, v in (costs or {}).items() if "." in k})
                rows.append(row)
                traced_lat.append(dt * scale)
            else:
                lat.append(dt * scale)
                raw.append(dt)
    return {"setup_s": setup_s, "setup_rows": setup_rows, "lat": lat, "raw": raw,
            "plain_lat": lat, "traced_lat": traced_lat, "rows": rows,
            "energy": first.get("energy", 0), "depth": first.get("depth", 0)}


def _serving_counts(svc) -> dict:
    stats, machine = svc.stats, svc.st.machine
    hits, misses = (sum(d.values()) for d in (machine.plan_cache.hits, machine.plan_cache.misses))
    return {"windows": stats.windows_total, "energy": stats.window_energy_total,
            "depth": stats.window_depth_total, "queries": stats.window_queries_total,
            "dedup": stats.dedup_saved_total, "requests": stats.requests_total.get("lca", 0),
            "messages": machine.messages, "steps": machine.steps,
            "hits": hits, "misses": misses}


def serve_loop(w, seconds: float, tally: Tally, cal: Calibration, rec) -> dict:
    """Warm boots, then the open loop of LCA requests in slices of about
    ``w.slice_s``.  A slice offers ``w.rate`` requests per reference
    second, paced by the calibration sample before it, then waits for
    every answer and samples the calibration loop while the service is
    idle; its latencies are scaled by the samples on either side.  With a
    recorder, every other slice is traced.

    The pacing keeps the load per window the same whatever the host speed:
    at a fixed wall-clock rate a slower host makes longer windows that
    collect more requests each, which lengthens them further, and latency
    would grow faster than the host slows down."""
    import numpy as np

    from repro.errors import ServeQueueFullError
    from spanrec import Patches, diff, now_ns

    import layers

    setup_s, setup_rows = [], []
    booted = None
    for _ in range(w.setups):
        if booted is not None:
            booted.service.drain()
        gc.collect()
        c0 = cal.sample()
        patches = Patches()
        if rec is not None:
            layers.wrap_setup(rec, patches)
            before = rec.totals()
        try:
            booted, dt, answer = w.boot()
        finally:
            patches.undo()
        scale = cal.scale(c0, cal.sample())
        setup_s.append(dt * scale)
        if rec is not None:
            setup_rows.append(layers.setup_metrics(diff(rec.totals(), before), scale))
        if tally.injecting():
            answer = answer + 1
        tally.record(w.check_boot(booted, answer))

    svc = booted.service
    c_begin = _serving_counts(svc)
    slices = max(2, round(seconds / w.slice_s))
    slice_ns = seconds * 1e9 / slices
    lat, raw, plain_lat, traced_lat, lateness = [], [], [], [], []
    rows, weights, waits, windows, links = [], [], [], [], {}
    elapsed = 0.0  # reference seconds from each slice's first due time to its last answer
    shed = timeouts = wrong = 0
    i = 0
    c0 = cal.sample()
    for k in range(slices):
        tracing = rec is not None and k % 2 == 1
        if tracing:
            patches = Patches()
            layers.wrap_serving(rec, patches, svc, windows)
            before = rec.totals()
            first_window = len(windows)
        period = 1e9 / w.rate / cal.scale(c0, c0)
        start = now_ns() + 1_000_000
        sent = []
        for j in range(math.ceil(slice_ns / period)):
            due = start + round(j * period)
            wait = due - now_ns()
            if wait > 0:
                time.sleep(wait / 1e9)
            b = int(w.arrivals[i % len(w.arrivals)])
            t_sub = now_ns()
            try:
                with rec.span("request.submit", rid=i) if tracing else contextlib.nullcontext():
                    req, err = svc.submit("lca", {"us": w.pool_us[b], "vs": w.pool_vs[b]}), None
            except ServeQueueFullError:
                req, err = None, "shed"
            except Exception as exc:  # noqa: BLE001 - counted as a failed request
                req, err = None, f"submit raised {type(exc).__name__}: {exc}"
            sent.append((i, b, due, t_sub, req, err))
            i += 1
        done_at = {}
        for ri, b, due, t_sub, req, err in sent:
            lateness.append((t_sub - due) / 1e6)
            if err is not None:
                shed += err == "shed"
                tally.record(f"request {ri}: {err}")
                continue
            try:
                answer = req.wait(timeout=60)
            except TimeoutError:
                timeouts += 1
                tally.record(f"request {ri}: no answer within 60 s")
                continue
            except Exception as exc:  # noqa: BLE001 - counted as a failed request
                tally.record(f"request {ri}: {type(exc).__name__}: {exc}")
                continue
            if tally.injecting():
                answer = answer + 1
            ok = np.array_equal(answer, w.expected[b])
            wrong += not ok
            tally.record(None if ok else f"request {ri}: answer differs from solo lca_batch")
            done_at[ri] = round((req.enqueued + req.latency_s) * 1e9)
        # every request is answered, so the worker is idle: no window is cut
        if tracing:
            patches.undo()
        c1 = cal.sample()
        scale = cal.scale(c0, c1)
        c0 = c1
        if done_at:
            elapsed += (max(done_at.values()) - start) / 1e9 * scale
        for ri, b, due, *_ in sent:
            if ri in done_at:
                ms = (done_at[ri] - due) / 1e6
                raw.append(ms)
                lat.append(ms * scale)
                (traced_lat if tracing else plain_lat).append(ms * scale)
        if not tracing:
            continue
        row, nwin = layers.window_metrics(diff(rec.totals(), before), scale)
        rows.append(row)
        weights.append(nwin)
        # request-level attribution: lateness, submit, queue wait and window
        by_key = {}
        for kw in range(first_window, len(windows)):
            for key in windows[kw]["ids"]:
                by_key[key] = kw
        for ri, _, due, t_sub, req, _ in sent:
            if ri not in done_at or id(req.payload["us"]) not in by_key:
                continue
            kw = by_key[id(req.payload["us"])]
            w0, done = windows[kw]["start"], done_at[ri]
            enq = round(req.enqueued * 1e9)
            waits.append((w0 - enq) / 1e6 * scale)
            root = rec.add("request", due, done, rid=ri)
            rec.add("request.lateness", due, t_sub, parent=root, rid=ri)
            rec.add("request.queue_wait", enq, w0, parent=root, rid=ri)
            links[ri] = f"w{kw}"
    svc.drain()
    c_end = _serving_counts(svc)
    d = {key: c_end[key] - c_begin[key] for key in c_begin}
    out = {"setup_s": setup_s, "setup_rows": setup_rows, "lat": lat, "raw": raw,
           "plain_lat": plain_lat, "traced_lat": traced_lat,
           "rows": rows, "weights": weights,
           # an open loop: completed requests per reference second of
           # offered load, which stays near the offered rate while the
           # service keeps up, so it shows only saturation
           "ops_per_s": len(lat) / elapsed if elapsed else 0.0,
           # per-window means, a plain figure: what a window holds depends
           # on timing, so they are not checked op by op
           "energy": d["energy"] / max(1, d["windows"]),
           "depth": d["depth"] / max(1, d["windows"]),
           "diag": {"lateness_p50_ms": statistics.median(lateness) if lateness else 0.0,
                    "lateness_max_ms": max(lateness, default=0.0),
                    "windows": d["windows"], "slices": slices}}
    if rec is not None:
        out["row"] = {
            "machine.messages": d["messages"] / max(1, d["windows"]),
            "machine.steps": d["steps"] / max(1, d["windows"]),
            "machine.plan_cache.hit_ratio": (d["hits"] / (d["hits"] + d["misses"])
                                             if d["hits"] + d["misses"] else 0.0),
            "spatial.lca_layers": svc.prepared.cover.num_layers,
            "serving.requests_per_window": d["requests"] / max(1, d["windows"]),
            "serving.dedup_ratio": d["dedup"] / max(1, d["queries"]),
            "serving.queue_wait_ms": statistics.fmean(waits) if waits else 0.0,
            "serving.shed": shed, "serving.timeouts": timeouts, "serving.wrong": wrong,
            "load.lateness_ms": statistics.fmean(lateness) if lateness else 0.0,
        }
        out["links"] = links
    return out


def per_layer(res: dict, cal: Calibration) -> dict[str, float]:
    import layers

    values = dict.fromkeys(layers.metric_names(), 0.0)
    values.update(mean_rows(res["setup_rows"]))
    values.update(mean_rows(res["rows"], res.get("weights")))
    values.update(res.get("row", {}))
    values["trace.overhead_ratio"] = (statistics.median(res["traced_lat"])
                                      / statistics.median(res["plain_lat"]))
    values["host.calib_ms"] = statistics.median(cal.samples)
    return values


def end_to_end(w, res: dict) -> dict[str, float]:
    lat = res["lat"]
    return {
        "setup_s": statistics.median(res["setup_s"]),
        "p50_ms": statistics.median(lat),
        "tail_ms": quantile(lat, w.tail_q),
        "ops_per_s": res.get("ops_per_s") or 1e3 * len(lat) / sum(lat),
        "peak_rss_mb": peak_rss_mb(),
        "energy": res["energy"],
        "depth": res["depth"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-wrong", type=int, default=0, metavar="K",
                    help="self-test only: corrupt the answer of the K-th checked op")
    args = ap.parse_args(argv)
    load_program()

    import layers
    import workloads
    from spanrec import Recorder

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rec = Recorder() if args.trace else None
    tally = Tally(args.inject_wrong)
    cal = Calibration()

    calib_start = [cal.sample() for _ in range(CALIB_REPS)]
    w = workloads.WORKLOADS[args.workload](args.seed, workdir)
    loop = serve_loop if args.workload == "serve" else closed_loop
    res = loop(w, args.seconds, tally, cal, rec)
    calib_end = [cal.sample() for _ in range(CALIB_REPS)]

    if args.trace:
        values = per_layer(res, cal)
        units = {name: layers.unit(name) for name in values}
        meta = {"workload": w.name, "seed": args.seed, "request_windows": res.get("links", {})}
        rec.write(workdir / "spans.json", meta=meta)
    else:
        values = end_to_end(w, res)
        units = E2E_UNITS
    lat, raw = res["lat"], res["raw"]
    beyond = sum(v > quantile(lat, w.tail_q) for v in lat)
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops": len(lat), "setup_s": res["setup_s"],
        "tail": {"percentile": 100 * w.tail_q, "samples": len(lat), "beyond": beyond},
        "unscaled_ms": {"p50": statistics.median(raw), "tail": quantile(raw, w.tail_q)},
        "host.calib_ms": {"n": CALIB_N, "reference": REF_CALIB_MS, "start": calib_start,
                          "end": calib_end, "all": cal.samples},
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
        "metrics": values, "serving": res.get("diag", {}),
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}: {len(lat)} ops "
          f"after {len(res['setup_s'])} set-ups; tail_ms is p{100 * w.tail_q:g} of "
          f"{len(lat)} samples ({beyond} beyond)")
    print(f"host.calib_ms median start {statistics.median(calib_start):.3f} "
          f"end {statistics.median(calib_end):.3f} (reference {REF_CALIB_MS}); unscaled "
          f"p50 {record['unscaled_ms']['p50']:.3f} ms, tail {record['unscaled_ms']['tail']:.3f} ms")
    if "diag" in res:
        print("serving: " + " ".join(f"{k}={v:.4g}" for k, v in res["diag"].items()))
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
