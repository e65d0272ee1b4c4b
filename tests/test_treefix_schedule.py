"""Pinned treefix charge streams: what every treefix call sends, bit for bit.

Each case runs treefix calls on one fresh :class:`SpatialTree` with an
integer coin seed (costs reset between calls) and reduces what they did to
two SHA-256 digests:

* **stream** (batched engine) — the ordered charging calls, one entry per
  call: the method, src, dst and rounds, the distances as charged
  (computed from the machine's metric when the call passes none), the
  ``exclusive``/``src_occ``/``paired`` hints and the payload bytes with
  their dtype;
* **result** (both engines) — the answer bytes, the final per-processor
  clocks, the per-phase bills, energy/depth/messages/steps and
  ``last_contraction_rounds``.

Later calls on the same tree and seed replay the cached contraction
schedule, so the table pins the cold and the warm path at once. The float
cases carry ±0.0 entries and compare bit-exactly: a fold that skips or
reorders an identity operand flips the sign of a zero.

Regenerate the table (only when a change is meant to alter the stream)
with ``PYTHONPATH=src python tests/test_treefix_schedule.py``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.spatial import SpatialTree
from repro.spatial.treefix import top_down_treefix, treefix_sum
from repro.trees import (
    bottom_up_treefix as ref_bottom_up,
    caterpillar_tree,
    path_tree,
    perfect_kary_tree,
    prufer_random_tree,
    random_attachment_tree,
    star_tree,
    top_down_treefix as ref_top_down,
)

TREES = {
    "path": lambda: path_tree(160),
    "star": lambda: star_tree(120),
    "caterpillar": lambda: caterpillar_tree(150),
    "binary": lambda: perfect_kary_tree(7),
    "prufer": lambda: prufer_random_tree(300, seed=3),
    "random": lambda: random_attachment_tree(300, seed=4),
    "single": lambda: path_tree(1),
    "pair": lambda: path_tree(2),
}

I64_MIN = np.int64(np.iinfo(np.int64).min)
I64_MAX = np.int64(np.iinfo(np.int64).max)
#: op name -> (ufunc, identity)
OPS = {
    "add": (np.add, 0),
    "min": (np.minimum, I64_MAX),
    "max": (np.maximum, I64_MIN),
    "or": (np.bitwise_or, 0),
    "fadd": (np.add, 0.0),
}


def _case(tree, mode, dirs, op="add", engine="batched", **kwargs):
    return {"tree": tree, "mode": mode, "dirs": dirs, "op": op,
            "engine": engine, "kwargs": kwargs}


BU, TD = "bottom_up", "top_down"
CASES = {}
for _tree in ("path", "star", "caterpillar", "binary", "prufer", "random"):
    for _mode in ("direct", "virtual"):
        for _dir in (BU, TD):
            CASES[f"{_tree}-{_mode}-{_dir}"] = _case(_tree, _mode, (_dir, _dir))
CASES.update({
    "prufer-direct-fadd-bu": _case("prufer", "direct", (BU, BU), "fadd"),
    "random-virtual-fadd-td": _case("random", "virtual", (TD, TD), "fadd"),
    "prufer-direct-min-bu": _case("prufer", "direct", (BU, BU), "min"),
    "random-virtual-min-td": _case("random", "virtual", (TD, TD), "min"),
    "caterpillar-direct-max-bu": _case("caterpillar", "direct", (BU, BU), "max"),
    "star-virtual-max-td": _case("star", "virtual", (TD, TD), "max"),
    "binary-direct-or-td": _case("binary", "direct", (TD, TD), "or"),
    "random-virtual-or-bu": _case("random", "virtual", (BU, BU), "or"),
    "prufer-direct-scalar": _case("prufer", "direct", (BU, TD), engine="scalar"),
    "star-virtual-scalar": _case("star", "virtual", (TD, BU), engine="scalar"),
    "single-direct": _case("single", "direct", (BU, TD)),
    "pair-virtual": _case("pair", "virtual", (BU, TD)),
    "prufer-direct-bu-then-td": _case("prufer", "direct", (BU, TD)),
    "random-virtual-td-then-bu": _case("random", "virtual", (TD, BU)),
    "random-direct-sync-barriers": _case("random", "direct", (BU, BU), sync_barriers=True),
    "prufer-virtual-coin-bias": _case("prufer", "virtual", (BU, TD), coin_bias=0.3),
})


def _values(name: str, op: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(list(name.encode()))
    if op == "fadd":
        vals = rng.normal(size=n)
        z = rng.random(n)
        vals[z < 0.35] = 0.0
        vals[z > 0.65] = -0.0
        return vals
    if op == "or":
        return rng.integers(0, 1 << 20, size=n)
    return rng.integers(-1000, 1000, size=n)


class _Stream:
    """Digest of every charging call made on one machine."""

    METHODS = ("send", "send_batch", "send_plan")

    def __init__(self, machine):
        self.machine = machine
        self.hash = hashlib.sha256()
        for name in self.METHODS:
            setattr(machine, name, self._wrap(name, getattr(machine, name)))

    def close(self) -> None:
        for name in self.METHODS:
            delattr(self.machine, name)

    def _update(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                self.hash.update(part.dtype.str.encode())
                part = np.ascontiguousarray(part).tobytes()
            elif not isinstance(part, bytes):
                part = repr(part).encode()
            self.hash.update(len(part).to_bytes(8, "little"))
            self.hash.update(part)

    def _wrap(self, name, fn):
        def call(src, dst, values=None, **kw):
            src_a, dst_a = np.asarray(src), np.asarray(dst)
            dist = kw.get("dist")
            if dist is None:
                dist = self.machine.manhattan(np.atleast_1d(src_a), np.atleast_1d(dst_a))
            occ = kw.get("src_occ")
            self._update(
                name, src_a, dst_a,
                None if kw.get("rounds") is None else np.asarray(kw["rounds"]),
                np.asarray(dist, dtype=np.int64),
                bool(kw.get("exclusive")), bool(kw.get("paired")), kw.get("combiner"),
                None if occ is None else np.asarray(occ),
                None if values is None else np.asarray(values),
            )
            return fn(src, dst, values, **kw)

        return call


def _result_digest(st, out, hasher) -> None:
    m = st.machine
    out = np.asarray(out)
    for part in (
        out.dtype.str.encode(), out.tobytes(), m.clock.tobytes(),
        json.dumps(m.ledger.summary(), sort_keys=True).encode(),
        json.dumps([int(m.energy), int(m.depth), int(m.messages), int(m.steps),
                    int(st.last_contraction_rounds)]).encode(),
    ):
        hasher.update(len(part).to_bytes(8, "little"))
        hasher.update(part)


def run_case(name: str) -> tuple[str | None, str, list[np.ndarray]]:
    """``(stream digest or None, result digest, answers)`` of one case."""
    case = CASES[name]
    engine = case["engine"]
    tree = TREES[case["tree"]]()
    op, identity = OPS[case["op"]]
    vals = _values(name, case["op"], tree.n)
    st = SpatialTree.build(tree, mode=case["mode"], engine=engine)
    stream = _Stream(st.machine) if engine == "batched" else None
    results = hashlib.sha256()
    answers = []
    try:
        for direction in case["dirs"]:
            st.machine.reset_costs()
            fn = treefix_sum if direction == BU else top_down_treefix
            out = fn(st, vals, op=op, identity=identity, seed=7, **case["kwargs"])
            _result_digest(st, out, results)
            answers.append(out)
    finally:
        if stream is not None:
            stream.close()
    return (None if stream is None else stream.hash.hexdigest()[:24],
            results.hexdigest()[:24], answers)


#: case -> (stream digest, result digest), generated at the pre-schedule
#: live contraction loop
EXPECTED: dict[str, tuple[str | None, str]] = {
    'binary-direct-bottom_up': ('1f80ef35b3010c480fd752a8', '6789a04881867f936a0868e6'),
    'binary-direct-or-td': ('4afbe93991775c4e7bebe014', 'e5dcabb6a6e49a45511d5868'),
    'binary-direct-top_down': ('58280b718bcea4c6f3f533df', '2025e5fcaa99fe6347cef6f2'),
    'binary-virtual-bottom_up': ('1ffa7d55cf750996368e6784', '39956cfcfbb6976df81c172d'),
    'binary-virtual-top_down': ('3d509c1a41a931c01afb9ee0', 'a61bfe2138fe71fbde81f527'),
    'caterpillar-direct-bottom_up': ('b9552a349cc59743eee74b41', '841036b121803897574e6490'),
    'caterpillar-direct-max-bu': ('88e8665c3c1b17a441e31a2f', '63c75562b13ccad20a48bf0f'),
    'caterpillar-direct-top_down': ('3cd1923e68a3cf06b7727ba6', '3b8c306b29dd49caea8ff360'),
    'caterpillar-virtual-bottom_up': ('976330f1354a0cc22376f0bb', '22edcb915454cde58b89fe60'),
    'caterpillar-virtual-top_down': ('67a24684658e45fa62c4c509', '41a29e43d04ab80763aa53d9'),
    'pair-virtual': ('d6c34b9c86da1e37a83e2f97', '5ae08ad72c1cce1bef106c74'),
    'path-direct-bottom_up': ('ba712611c062035caba1dd85', '0710223d75cc34e2086dc382'),
    'path-direct-top_down': ('ddbca749ae7c4d3bc157ba8d', '48625e1a394a5199ce4b362a'),
    'path-virtual-bottom_up': ('978bfe5393d9efcba5d3385a', '3587381008ebde1e02c5cdc6'),
    'path-virtual-top_down': ('c9c973deb146965c073b1ede', '1cf66c7fa5072bb62418f470'),
    'prufer-direct-bottom_up': ('e04f03fc9c5c0207773208c9', '6ff8e7033fe9a16e36fab9a5'),
    'prufer-direct-bu-then-td': ('9b38b2b02b34e1ddbe9c5d6d', '4fc8edd5bf6b45f3e4f8c0d0'),
    'prufer-direct-fadd-bu': ('6103176413e614dfbc55b06b', '7fa521f9b1435af190fa0094'),
    'prufer-direct-min-bu': ('a52a7b44dfa88d62f39d51f3', 'f518c72e5b9e7e4f8f23a5f4'),
    'prufer-direct-scalar': (None, '355e555ebc7be4fd19b6f794'),
    'prufer-direct-top_down': ('c5a8114942426bf6a1089b46', '01faba7c875f9304e6c4758b'),
    'prufer-virtual-bottom_up': ('d0aae4410f25016f7ccd2c42', '904eb833f787ea68f8ca7a3c'),
    'prufer-virtual-coin-bias': ('8643031ffd8766122a240db9', 'e664b2efabe5dec312a3e947'),
    'prufer-virtual-top_down': ('157f7cdc01cf2f7fe8494069', 'cff2dcc7b061915ac9fecf1b'),
    'random-direct-bottom_up': ('f01ec1977231e78eb9736032', '687df0faaf637b554a11a16a'),
    'random-direct-sync-barriers': ('88cfb2594e15a2e870083484', 'f7a7adcf65441bd64afd37cb'),
    'random-direct-top_down': ('d545290d7ac39d7f0cef0eb7', '8254f07cf9db6282eae6fd47'),
    'random-virtual-bottom_up': ('6b8b29fa191f4588f60b91f7', '2acb227cb8f09c848fd0a9be'),
    'random-virtual-fadd-td': ('2b8b4887e63c019fdba0a343', '87641faf7cea3ddbfb7e7db1'),
    'random-virtual-min-td': ('8bc5bf55190804a9129c776b', 'b1e3426aebfee36176b9fd15'),
    'random-virtual-or-bu': ('6b8b29fa191f4588f60b91f7', '42710d353e8a00b67a6f48c3'),
    'random-virtual-td-then-bu': ('fd338f3f8e7faa2a6195aa54', '7f71ef217d778dfbc409cafc'),
    'random-virtual-top_down': ('2684c9d4bc54d0fcd3cf9745', '33df8cfe35bdbad8f2e62c72'),
    'single-direct': ('e3b0c44298fc1c149afbf4c8', 'ca8f02badbcfdef2f95453d3'),
    'star-direct-bottom_up': ('44aa465ff2b092c0430e0922', 'b7a27ab108a3be5a4bc0e25d'),
    'star-direct-top_down': ('40d9a65c9cdbe30d56a3cf6c', '2311d7a81190e4982ce93931'),
    'star-virtual-bottom_up': ('4e1795fae70c333a0c419767', '1b2d00f52f473882cecf1225'),
    'star-virtual-max-td': ('9f3e6ad56fbd173d656b1a65', '0206c39d3f8723c655e8eaa3'),
    'star-virtual-scalar': (None, '62c38b199a6478a4306da3b0'),
    'star-virtual-top_down': ('658e7fa0f2b1c6255bfc18c2', '5dbebcf6842bc3f6a8894c0b'),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_and_results_pinned(name):
    stream, result, answers = run_case(name)
    case = CASES[name]
    tree = TREES[case["tree"]]()
    op, _ = OPS[case["op"]]
    vals = _values(name, case["op"], tree.n)
    for direction, out in zip(case["dirs"], answers):
        ref = (ref_bottom_up if direction == BU else ref_top_down)(tree, vals, op=op)
        if case["op"] == "fadd":
            # the sequential reference folds in another order; the answer
            # bytes themselves are pinned bit-exactly by the result digest
            assert np.allclose(out, ref)
        else:
            assert np.array_equal(out, ref)
    assert (stream, result) == EXPECTED[name]


if __name__ == "__main__":  # pragma: no cover - table generator
    print("EXPECTED: dict[str, tuple[str | None, str]] = {")
    for _name in sorted(CASES):
        print(f"    {_name!r}: {run_case(_name)[:2]!r},")
    print("}")
