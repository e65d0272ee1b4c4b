#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root::

    python3 perfbench/selftest.py

With short runs it checks that

1. every workload in ``BENCHMARK.json`` runs in both modes, exits 0 and
   prints as its last line the result object with every metric the file
   names — with its unit, as a finite number, end-to-end ones never 0;
2. an injected wrong answer is caught: ``correct`` is false, ``failed``
   is at least 1, and the command exits non-zero;
3. in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` —
   no program — the command exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: measured seconds of each short run
SECONDS = "2"


def invoke(run_py: Path, cwd: Path, *args: str):
    proc = subprocess.run(
        [sys.executable, str(run_py), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_py = ROOT / spec["command"][1]
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc, res = invoke(run_py, ROOT, "--workload", workload, "--seed", "7",
                               "--seconds", SECONDS, "--trace", trace)
            what = f"{workload} --trace {trace}"
            expect(proc.returncode == 0 and res is not None and res["correct"] is True
                   and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{what}: exits 0, correct, nothing failed")
            if res is None:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                continue
            metrics = res["metrics"]
            expect(set(metrics) == {m["name"] for m in spec[key]},
                   f"{what}: prints exactly the {key} metrics")
            for m in spec[key]:
                got = metrics.get(m["name"], {})
                value = got.get("value")
                ok = (got.get("unit") == m["unit"] and isinstance(value, (int, float))
                      and math.isfinite(value) and (key == "per_layer" or value > 0))
                if not ok:
                    expect(False, f"{what}: {m['name']} = {got!r}, want a number in {m['unit']}")

    for workload in (w["name"] for w in spec["workloads"]):
        proc, res = invoke(run_py, ROOT, "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", "0", "--inject-wrong", "2")
        expect(proc.returncode != 0 and res is not None and res["correct"] is False
               and res["failed"] >= 1,
               f"{workload}: an injected wrong answer fails the run")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc, res = invoke(bare / spec["command"][1], bare, "--workload", "treefix", "--seed", "7",
                       "--seconds", "1", "--trace", "0")
    expect(proc.returncode != 0 and res is None and not proc.stdout.strip(),
           "without the program the command exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
