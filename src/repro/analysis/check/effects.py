"""Machine-effect and taint inference over function bodies.

Every function gets an **effect record** (charge sites, phase scopes, call
sites, each with loop/phase/taint context) and, via an interprocedural
fixpoint, an **effect summary** describing what the function does
transitively.  The model distinguishes two kinds of charging:

* **ad-hoc** charges — scalar ``send``, ``send_batch``, ``gather_from``,
  ``charge_external`` — describe their message set anew at every call; a
  plan replay cannot reproduce them if the set depends on data;
* **plan-backed** charges — ``send_plan`` and the fixed-topology wrappers
  (collectives' doubling schedules, the data-oblivious bitonic network,
  rank-slot local/family messaging) — communicate along a schedule that is
  a function of machine size and static tree shape only, so they replay
  even when the *number* of iterations is random (the treefix contraction
  loop re-issues the same cached plan family each round).

**Taint** tracks data-dependence: values drawn from an RNG, received as
message payloads, or read from register files are tainted, and taint
propagates through assignments and implicit flow (a name assigned under a
tainted branch/loop becomes tainted).  A loop is *tainted* when its
condition or iterable mentions a tainted name.  A phase is then
**data-dependent** exactly when an ad-hoc charge is reachable under
tainted control inside it — the criterion the plan-safety report and
ROADMAP item 1's replay work need.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.check.callgraph import FunctionInfo, ProgramIndex, phase_name_of
from repro.analysis.lint.core import contains_name_n

#: machine methods that charge ad-hoc (message set described at call time)
ADHOC_METHODS = frozenset({"send", "send_batch", "gather_from", "charge_external"})
#: machine methods that charge through a precompiled plan
PLAN_METHODS = frozenset({"send_plan"})
#: bare-name wrappers whose communication schedule is topology-fixed:
#: collectives (doubling schedules over processor ids), the bitonic sort
#: network (data-oblivious compare-exchange rounds), destination-sorting
#: permutation routing, and the local/family messaging kernels over the
#: cached per-tree plans
PLAN_BACKED_CALLS = frozenset(
    {
        "barrier",
        "reduce",
        "broadcast",
        "allreduce",
        "exclusive_scan",
        "inclusive_scan",
        "bitonic_sort",
        "permute",
        "scatter",
        "local_broadcast",
        "local_reduce",
        "family_broadcast",
        "family_reduce",
        "plan_broadcast",
        "plan_reduce",
    }
)
#: phases known to be opened inside plan-backed wrappers (their bodies are
#: not descended into, so reachable-phase closures need this map)
INTRINSIC_PHASES: dict[str, tuple[str, ...]] = {
    "local_broadcast": ("local_broadcast",),
    "local_reduce": ("local_reduce",),
    "bitonic_sort": ("bitonic_sort",),
    "permute": ("permute",),
}
#: calls whose result is data from the machine's perspective
RNG_SOURCES = frozenset({"resolve_rng", "default_rng", "RandomState"})
#: names conventionally bound to register files (shared with REPRO lint)
REGISTER_RECEIVERS = frozenset({"regs", "registers", "register_file", "rf"})

#: loop-weight of a Python loop over an n-scaled iterable (a data loop)
N_LOOP_WEIGHT = 2
#: cap keeping the interprocedural depth fixpoint finite under recursion
MAX_DEPTH = 99


@dataclass(frozen=True)
class ChargeEvent:
    """One charging call site inside a function body."""

    kind: str  # "scalar" | "adhoc" | "plan"
    name: str  # the called name, e.g. "send" or "barrier"
    depth: int  # weighted enclosing-loop depth
    n_loops: int  # enclosing for-loops over n-scaled iterables
    phase: str | None  # innermost enclosing phase opened in this function
    tainted: bool  # under data-dependent control flow
    lineno: int
    col: int


@dataclass(frozen=True)
class CallEvent:
    """One resolvable call site inside a function body."""

    name: str
    depth: int
    n_loops: int
    phase: str | None
    tainted: bool
    lineno: int
    col: int


@dataclass
class PhaseScope:
    """One ``with machine.phase(...)`` block and the events inside it."""

    name: str
    lineno: int
    col: int
    charges: list[ChargeEvent] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)


@dataclass
class FunctionEffects:
    """Per-function syntactic effects plus the local taint set."""

    charges: list[ChargeEvent] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)
    phase_scopes: list[PhaseScope] = field(default_factory=list)
    tainted: frozenset[str] = frozenset()


Chain = tuple[str, ...]


@dataclass
class Summary:
    """Transitive effect summary, computed to fixpoint over the call graph.

    ``unphased_*`` fields witness charges not covered by any phase opened in
    the function itself or along the call chain below it (charges inside a
    callee's own phases belong to those phases, not the caller's
    obligation).  ``max_charge_depth`` is the weighted loop depth of the
    deepest reachable charge, phased or not — the shape the cost contracts
    compare against the declared predictor's polylog budget.
    """

    has_charges: bool = False
    max_charge_depth: int = 0
    unphased_scalar: Chain | None = None
    unphased_adhoc: Chain | None = None
    unphased_plan: Chain | None = None
    unphased_adhoc_tainted: Chain | None = None
    scalar_at_top: Chain | None = None  # scalar send outside any data loop
    hot_scalar: list[tuple[int, Chain]] = field(default_factory=list)
    opens_phases: set[str] = field(default_factory=set)
    reachable_phases: set[str] = field(default_factory=set)

    def any_unphased(self) -> Chain | None:
        return self.unphased_scalar or self.unphased_adhoc or self.unphased_plan


def classify_call(node: ast.Call) -> tuple[str, str] | None:
    """Classify a call as a charging intrinsic.

    Returns ``(kind, name)`` with kind in ``{"scalar", "adhoc", "plan"}``,
    or ``None`` when the call is not a charging intrinsic.  Machine methods
    are recognized as attribute calls (``machine.send``, ``st.send_plan``);
    plan-backed wrappers as bare names (attribute calls named ``reduce``
    etc. are left alone so ``np.add.reduce`` is not miscounted).
    """
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr == "send":
            return ("scalar", "send")
        if func.attr in ADHOC_METHODS:
            return ("adhoc", func.attr)
        if func.attr in PLAN_METHODS:
            return ("plan", func.attr)
        return None
    if isinstance(func, ast.Name) and func.id in PLAN_BACKED_CALLS:
        return ("plan", func.id)
    return None


# --------------------------------------------------------------------- #
# taint
# --------------------------------------------------------------------- #


def _target_names(node: ast.expr) -> set[str]:
    """Names (or base names of subscript/attribute stores) a target binds."""
    out: set[str] = set()
    if isinstance(node, ast.Name):
        out.add(node.id)
    elif isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            out |= _target_names(elt)
    elif isinstance(node, ast.Starred):
        out |= _target_names(node.value)
    elif isinstance(node, (ast.Subscript, ast.Attribute)):
        base = node.value
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if isinstance(base, ast.Name):
            out.add(base.id)
    return out


def _value_names(node: ast.expr | None) -> set[str]:
    if node is None:
        return set()
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _is_taint_seed(value: ast.expr | None) -> bool:
    """Does this expression produce data (RNG draw, payload, register read)?"""
    if value is None:
        return False
    for sub in ast.walk(value):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            if name in RNG_SOURCES:
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                ADHOC_METHODS | PLAN_METHODS
            ):
                return True  # received payloads are data
            if isinstance(func, ast.Attribute):
                base = func.value
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in REGISTER_RECEIVERS:
                    return True  # register contents are data
    return False


@dataclass(frozen=True)
class _Assign:
    targets: frozenset[str]
    value_names: frozenset[str]
    ctrl_names: frozenset[str]
    seed: bool


def _collect_assigns(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[_Assign]:
    out: list[_Assign] = []

    def record(
        targets: set[str],
        value: ast.expr | None,
        ctrl: frozenset[str],
        extra: set[str] | None = None,
    ) -> None:
        if not targets:
            return
        out.append(
            _Assign(
                targets=frozenset(targets),
                value_names=frozenset(_value_names(value) | (extra or set())),
                ctrl_names=ctrl,
                seed=_is_taint_seed(value),
            )
        )

    def walk(stmts: list[ast.stmt], ctrl: frozenset[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # separate scope, analyzed on its own
            if isinstance(stmt, ast.Assign):
                targets: set[str] = set()
                extra: set[str] = set()
                for t in stmt.targets:
                    targets |= _target_names(t)
                    # a[sel] = v taints a when the *index* is tainted too
                    extra |= _value_names(t)
                record(targets, stmt.value, ctrl, extra)
            elif isinstance(stmt, ast.AugAssign):
                names = _target_names(stmt.target)
                record(names, stmt.value, ctrl, _value_names(stmt.target) | names)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                record(
                    _target_names(stmt.target),
                    stmt.value,
                    ctrl,
                    _value_names(stmt.target),
                )
            elif isinstance(stmt, (ast.If,)):
                inner = ctrl | frozenset(_value_names(stmt.test))
                walk(stmt.body, inner)
                walk(stmt.orelse, inner)
            elif isinstance(stmt, ast.While):
                inner = ctrl | frozenset(_value_names(stmt.test))
                walk(stmt.body, inner)
                walk(stmt.orelse, ctrl)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                record(_target_names(stmt.target), stmt.iter, ctrl)
                inner = ctrl | frozenset(_value_names(stmt.iter)) | frozenset(
                    _target_names(stmt.target)
                )
                walk(stmt.body, inner)
                walk(stmt.orelse, ctrl)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        record(_target_names(item.optional_vars), item.context_expr, ctrl)
                walk(stmt.body, ctrl)
            elif isinstance(stmt, (ast.Try,)):
                walk(stmt.body, ctrl)
                for handler in stmt.handlers:
                    walk(handler.body, ctrl)
                walk(stmt.orelse, ctrl)
                walk(stmt.finalbody, ctrl)
            else:
                # walrus assignments anywhere in the statement
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.NamedExpr):
                        record(_target_names(sub.target), sub.value, ctrl)

    walk(list(fn.body), frozenset())
    # walrus targets inside compound statements' tests/values
    for sub in ast.walk(fn):
        if isinstance(sub, ast.NamedExpr):
            record(_target_names(sub.target), sub.value, frozenset())
    return out


def infer_taint(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str]:
    """Tainted local names of ``fn`` (data-dependence sources + propagation)."""
    assigns = _collect_assigns(fn)
    tainted: set[str] = set(REGISTER_RECEIVERS)
    changed = True
    rounds = 0
    while changed and rounds < 50:
        changed = False
        rounds += 1
        for a in assigns:
            if a.targets <= tainted:
                continue
            if (
                a.seed
                or (a.value_names & tainted)
                or (a.ctrl_names & tainted)
            ):
                before = len(tainted)
                tainted |= a.targets
                changed = changed or len(tainted) != before
    return frozenset(tainted)


# --------------------------------------------------------------------- #
# event extraction
# --------------------------------------------------------------------- #


class _EventWalker:
    def __init__(self, tainted: frozenset[str]):
        self.tainted = tainted
        self.effects = FunctionEffects(tainted=tainted)
        self.depth = 0
        self.n_loops = 0
        self.phase_stack: list[PhaseScope] = []
        self.ctrl_tainted = False

    def _mentions_taint(self, node: ast.expr | None) -> bool:
        return bool(node is not None and (_value_names(node) & self.tainted))

    def _emit_calls_in(self, expr: ast.expr) -> None:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                self._emit_call(sub)

    def _emit_call(self, node: ast.Call) -> None:
        phase = self.phase_stack[-1].name if self.phase_stack else None
        charge = classify_call(node)
        if charge is not None:
            kind, name = charge
            ev = ChargeEvent(
                kind=kind,
                name=name,
                depth=self.depth,
                n_loops=self.n_loops,
                phase=phase,
                tainted=self.ctrl_tainted,
                lineno=node.lineno,
                col=node.col_offset + 1,
            )
            self.effects.charges.append(ev)
            if self.phase_stack:
                self.phase_stack[-1].charges.append(ev)
            return
        func = node.func
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else (func.id if isinstance(func, ast.Name) else "")
        )
        if not name or name == "phase":
            return
        ev2 = CallEvent(
            name=name,
            depth=self.depth,
            n_loops=self.n_loops,
            phase=phase,
            tainted=self.ctrl_tainted,
            lineno=node.lineno,
            col=node.col_offset + 1,
        )
        self.effects.calls.append(ev2)
        if self.phase_stack:
            self.phase_stack[-1].calls.append(ev2)

    def walk_stmts(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are separate functions in the index
        if isinstance(stmt, ast.If):
            self._emit_calls_in(stmt.test)
            saved = self.ctrl_tainted
            self.ctrl_tainted = saved or self._mentions_taint(stmt.test)
            self.walk_stmts(stmt.body)
            self.walk_stmts(stmt.orelse)
            self.ctrl_tainted = saved
        elif isinstance(stmt, ast.While):
            self._emit_calls_in(stmt.test)
            saved = self.ctrl_tainted
            self.ctrl_tainted = saved or self._mentions_taint(stmt.test)
            self.depth += 1
            self.walk_stmts(stmt.body)
            self.depth -= 1
            self.ctrl_tainted = saved
            self.walk_stmts(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._emit_calls_in(stmt.iter)
            saved = self.ctrl_tainted
            is_n_loop = contains_name_n(stmt.iter)
            self.ctrl_tainted = (
                saved
                or self._mentions_taint(stmt.iter)
                or bool(_target_names(stmt.target) & self.tainted)
            )
            self.depth += N_LOOP_WEIGHT if is_n_loop else 1
            self.n_loops += 1 if is_n_loop else 0
            self.walk_stmts(stmt.body)
            self.depth -= N_LOOP_WEIGHT if is_n_loop else 1
            self.n_loops -= 1 if is_n_loop else 0
            self.ctrl_tainted = saved
            self.walk_stmts(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            opened: list[PhaseScope] = []
            for item in stmt.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    func = expr.func
                    fname = func.attr if isinstance(func, ast.Attribute) else (
                        func.id if isinstance(func, ast.Name) else ""
                    )
                    if fname == "phase":
                        scope = PhaseScope(
                            name=phase_name_of(expr),
                            lineno=expr.lineno,
                            col=expr.col_offset + 1,
                        )
                        opened.append(scope)
                        continue
                self._emit_calls_in(expr)
            self.effects.phase_scopes.extend(opened)
            self.phase_stack.extend(opened)
            self.walk_stmts(stmt.body)
            del self.phase_stack[len(self.phase_stack) - len(opened) :]
        elif isinstance(stmt, ast.Try):
            self.walk_stmts(stmt.body)
            for handler in stmt.handlers:
                self.walk_stmts(handler.body)
            self.walk_stmts(stmt.orelse)
            self.walk_stmts(stmt.finalbody)
        else:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    self._emit_call(sub)


def function_effects(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> FunctionEffects:
    """Events + phase scopes + taint for one function body."""
    walker = _EventWalker(infer_taint(fn))
    walker.walk_stmts(list(fn.body))
    return walker.effects


def module_effects(tree: ast.Module) -> FunctionEffects:
    """Events for a module's top-level statements (a pseudo-function)."""
    walker = _EventWalker(frozenset())
    walker.walk_stmts(
        [s for s in tree.body if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    )
    return walker.effects


# --------------------------------------------------------------------- #
# interprocedural summaries
# --------------------------------------------------------------------- #


def _site(info: FunctionInfo, lineno: int) -> str:
    return f"{info.module}:{info.qualname}:{lineno}"


def _chain(head: str, tail: Chain | None) -> Chain:
    rest = tail or ()
    return ((head,) + rest)[:8]


def compute_summaries(
    index: ProgramIndex,
) -> tuple[dict[str, FunctionEffects], dict[str, Summary]]:
    """Effect records for every function and their fixpoint summaries."""
    effects = {key: function_effects(info.node) for key, info in index.functions.items()}
    summaries = {key: Summary() for key in index.functions}

    changed = True
    rounds = 0
    while changed and rounds < 60:
        changed = False
        rounds += 1
        for key, info in index.functions.items():
            s = summaries[key]
            eff = effects[key]
            before = (
                s.has_charges,
                s.max_charge_depth,
                s.unphased_scalar,
                s.unphased_adhoc,
                s.unphased_plan,
                s.unphased_adhoc_tainted,
                s.scalar_at_top,
                len(s.hot_scalar),
                len(s.opens_phases),
                len(s.reachable_phases),
            )
            contract_phase = info.contract.phase if info.contract else None
            for scope in eff.phase_scopes:
                s.opens_phases.add(scope.name)
                s.reachable_phases.add(scope.name)
            for ev in eff.charges:
                s.has_charges = True
                s.max_charge_depth = min(MAX_DEPTH, max(s.max_charge_depth, ev.depth))
                covered = ev.phase is not None or contract_phase is not None
                site = _site(info, ev.lineno)
                if not covered:
                    if ev.kind == "scalar" and s.unphased_scalar is None:
                        s.unphased_scalar = (site,)
                    if ev.kind in ("scalar", "adhoc"):
                        if s.unphased_adhoc is None:
                            s.unphased_adhoc = (site,)
                        if ev.tainted and s.unphased_adhoc_tainted is None:
                            s.unphased_adhoc_tainted = (site,)
                    if ev.kind == "plan" and s.unphased_plan is None:
                        s.unphased_plan = (site,)
                if ev.kind == "plan" and ev.name in INTRINSIC_PHASES:
                    s.reachable_phases.update(INTRINSIC_PHASES[ev.name])
                if ev.kind == "scalar":
                    if ev.n_loops >= 1:
                        if all(c != (site,) for _, c in s.hot_scalar):
                            s.hot_scalar.append((ev.n_loops, (site,)))
                    elif s.scalar_at_top is None:
                        s.scalar_at_top = (site,)
            for call in eff.calls:
                callee = index.resolve(info.module, call.name)
                if callee is None or callee.key == key:
                    continue
                cs = summaries[callee.key]
                site = _site(info, call.lineno)
                covered = call.phase is not None or contract_phase is not None
                if cs.has_charges:
                    s.has_charges = True
                    s.max_charge_depth = min(
                        MAX_DEPTH, max(s.max_charge_depth, call.depth + cs.max_charge_depth)
                    )
                if not covered:
                    if s.unphased_scalar is None and cs.unphased_scalar is not None:
                        s.unphased_scalar = _chain(site, cs.unphased_scalar)
                    if s.unphased_adhoc is None and cs.unphased_adhoc is not None:
                        s.unphased_adhoc = _chain(site, cs.unphased_adhoc)
                    if s.unphased_plan is None and cs.unphased_plan is not None:
                        s.unphased_plan = _chain(site, cs.unphased_plan)
                if s.unphased_adhoc_tainted is None:
                    if cs.unphased_adhoc_tainted is not None and not covered:
                        s.unphased_adhoc_tainted = _chain(site, cs.unphased_adhoc_tainted)
                    elif call.tainted and cs.unphased_adhoc is not None and not covered:
                        s.unphased_adhoc_tainted = _chain(site, cs.unphased_adhoc)
                if cs.scalar_at_top is not None:
                    if call.n_loops >= 1:
                        chain = _chain(site, cs.scalar_at_top)
                        if all(c != chain for _, c in s.hot_scalar):
                            s.hot_scalar.append((call.n_loops, chain))
                    elif call.depth == 0 and s.scalar_at_top is None:
                        s.scalar_at_top = _chain(site, cs.scalar_at_top)
                s.reachable_phases |= cs.reachable_phases
            after = (
                s.has_charges,
                s.max_charge_depth,
                s.unphased_scalar,
                s.unphased_adhoc,
                s.unphased_plan,
                s.unphased_adhoc_tainted,
                s.scalar_at_top,
                len(s.hot_scalar),
                len(s.opens_phases),
                len(s.reachable_phases),
            )
            changed = changed or before != after
    return effects, summaries
