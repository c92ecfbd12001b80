"""DET0xx — determinism rules.

The contract these defend: *same seed → byte-identical output*.  Each
rule targets one way that contract has historically been broken in
discrete-event codebases:

* DET001 — wall-clock reads leak real time into simulated results.
* DET002 — ambient ``random``/``numpy.random`` bypasses the seeded,
  named streams of :mod:`repro.sim.rng`.
* DET003 — set/frozenset iteration order varies with PYTHONHASHSEED.
* DET004 — dict iteration in ordering-sensitive hot modules must be a
  *conscious* decision (``sorted()`` or a pragma explaining why
  insertion order is deterministic).
* DET005 — ``id()``, builtin ``hash()``, ``uuid4`` and ``os.urandom``
  are per-process entropy; fed into ordering, keys or output they break
  cross-run identity (the MapReduce ``hash()`` → ``crc32`` switch in
  PR 2 is the canonical fix).
* DET006 — a module- or class-level ``itertools.count()``, or a module
  name rebound through ``global``, is state that outlives a run: what the
  Nth run in a process sees depends on the N−1 before it.  Ids come from
  :mod:`repro.sim.ids`, which ``run_spec`` rewinds.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.module import ParsedModule, resolve_qualified
from repro.analysis.rules import Rule, register

__all__ = [
    "WallClockRule",
    "AmbientRngRule",
    "SetIterationRule",
    "DictIterationRule",
    "IdentityEntropyRule",
    "ProcessStateRule",
]


_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: numpy.random members that are fine: the seeded generator machinery.
_NUMPY_RNG_OK = frozenset({
    "Generator", "default_rng", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


def _finding(module: ParsedModule, rule: str, node: ast.AST,
             message: str) -> Finding:
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    return Finding(rule=rule, path=module.rel, line=line, col=col,
                   message=message, snippet=module.snippet(line))


@register
class WallClockRule(Rule):
    """DET001: no wall-clock reads outside the documented allowlist."""

    rule_id = "DET001"
    title = "wall-clock read outside the allowlist"

    def check(self, module: ParsedModule,
              config: LintConfig) -> Iterator[Finding]:
        if config.is_wallclock_allowed(module.rel):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            qualified = resolve_qualified(module, node)
            if qualified in _WALL_CLOCK:
                # Only report the outermost attribute of a chain once:
                # resolve_qualified on the inner Name gives a different
                # (shorter) origin, so no duplicate is possible.
                yield _finding(
                    module, self.rule_id, node,
                    f"wall-clock read `{qualified}` — simulated code must "
                    f"use Environment.now; timing harnesses belong on the "
                    f"wall-clock allowlist (analysis/config.py)")


@register
class AmbientRngRule(Rule):
    """DET002: RNG must flow through seeded ``repro.sim.rng`` streams."""

    rule_id = "DET002"
    title = "ambient random / numpy.random use"

    def check(self, module: ParsedModule,
              config: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "random":
                        yield _finding(
                            module, self.rule_id, node,
                            "`import random` — the global RNG is unseeded "
                            "per-process state; draw from a named "
                            "RandomStreams stream instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "random":
                    yield _finding(
                        module, self.rule_id, node,
                        f"`from {node.module} import ...` — use "
                        f"RandomStreams named streams instead")
                elif node.module in ("numpy.random", "np.random"):
                    for alias in node.names:
                        if alias.name not in _NUMPY_RNG_OK:
                            yield _finding(
                                module, self.rule_id, node,
                                f"`from numpy.random import {alias.name}` — "
                                f"module-level numpy RNG is global state; "
                                f"use a seeded Generator")
            elif isinstance(node, ast.Attribute):
                qualified = resolve_qualified(module, node)
                if (qualified is not None
                        and qualified.startswith("numpy.random.")
                        and qualified.split(".")[2] not in _NUMPY_RNG_OK):
                    yield _finding(
                        module, self.rule_id, node,
                        f"`{qualified}` draws from numpy's global RNG; "
                        f"use a seeded Generator from RandomStreams")


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _set_annotation(annotation: Optional[ast.expr]) -> bool:
    """Does a ``x: Set[...]`` / ``x: set`` annotation name a set type?"""
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet", "MutableSet", "AbstractSet")
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet",
                           "MutableSet", "AbstractSet")
    return False


def _target_key(node: ast.AST) -> Optional[str]:
    """``x`` → "x"; ``self.x`` → "self.x"; anything else → None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return f"self.{node.attr}"
    return None


class _SetBindings(ast.NodeVisitor):
    """Collect names/attributes that are (ever) bound to a set in a module.

    A deliberately coarse, whole-module scope: one binding of ``x = set()``
    anywhere marks ``x`` set-valued everywhere in the file.  That
    over-approximation is what we want — a name that is *sometimes* a set
    must never be iterated unsorted.
    """

    def __init__(self) -> None:
        self.keys: Set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value):
            for target in node.targets:
                key = _target_key(target)
                if key:
                    self.keys.add(key)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _set_annotation(node.annotation) or (
                node.value is not None and _is_set_expr(node.value)):
            key = _target_key(node.target)
            if key:
                self.keys.add(key)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if node.annotation is not None and _set_annotation(node.annotation):
            self.keys.add(node.arg)


#: Consumers whose result is insensitive to their argument's iteration
#: order (``sum`` is deliberately absent: float addition is not
#: associative, so summation order is observable in the last bits).
_ORDER_FREE_CONSUMERS = frozenset({
    "sorted", "set", "frozenset", "min", "max", "len", "any", "all",
})


def _iteration_sites(tree: ast.Module) -> Iterator[Tuple[ast.expr, str]]:
    """Yield (iterable expression, context description) pairs.

    Two shapes are exempt by construction: the generators of a *set*
    comprehension (the result is itself unordered, so construction order
    is unobservable), and a comprehension consumed directly by an
    order-free callable such as ``sorted(x for x in s)``.
    """
    order_free: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _ORDER_FREE_CONSUMERS \
                and len(node.args) == 1:
            order_free.add(id(node.args[0]))  # detlint: ignore[DET005] — AST node identity within one parse pass; never ordered, keyed across runs, or emitted
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, "for-loop"
        elif isinstance(node, ast.SetComp):
            continue
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            if id(node) in order_free:  # detlint: ignore[DET005] — same-parse AST node identity lookup; never crosses a process boundary
                continue
            for gen in node.generators:
                yield gen.iter, "comprehension"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("list", "tuple", "enumerate", "iter"):
            if len(node.args) >= 1:
                yield node.args[0], f"{node.func.id}()"


@register
class SetIterationRule(Rule):
    """DET003: iterating a set/frozenset without ``sorted()``.

    Set iteration order depends on PYTHONHASHSEED and insertion history;
    any set that is iterated must go through ``sorted()`` (or be replaced
    by an ordered container).  Applies tree-wide.
    """

    rule_id = "DET003"
    title = "unordered set iteration"

    def check(self, module: ParsedModule,
              config: LintConfig) -> Iterator[Finding]:
        bindings = _SetBindings()
        bindings.visit(module.tree)
        for iterable, context in _iteration_sites(module.tree):
            if _is_set_expr(iterable):
                yield _finding(
                    module, self.rule_id, iterable,
                    f"{context} iterates a set expression — wrap it in "
                    f"sorted() or use an ordered container")
                continue
            key = _target_key(iterable)
            if key is not None and key in bindings.keys:
                yield _finding(
                    module, self.rule_id, iterable,
                    f"{context} iterates `{key}`, which is bound to a set "
                    f"in this module — wrap it in sorted() or use an "
                    f"ordered container")
        # set.pop() picks an arbitrary element.
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "pop" and not node.args:
                key = _target_key(node.func.value)
                if key is not None and key in bindings.keys:
                    yield _finding(
                        module, self.rule_id, node,
                        f"`{key}.pop()` removes an arbitrary set element — "
                        f"pick deterministically (e.g. min/sorted)")


@register
class DictIterationRule(Rule):
    """DET004: dict iteration in hot modules must be sorted or justified.

    Python dicts iterate in insertion order — deterministic *if* the
    insertion sequence is.  In the kernel/scheduler/placement/replication
    hot paths that "if" is load-bearing, so every ``.items()`` /
    ``.keys()`` / ``.values()`` iteration there must either go through
    ``sorted()`` or carry a pragma explaining why insertion order is
    reproducible.
    """

    rule_id = "DET004"
    title = "unsorted dict iteration in an ordering-sensitive module"

    _DICT_METHODS = ("items", "keys", "values")

    def check(self, module: ParsedModule,
              config: LintConfig) -> Iterator[Finding]:
        if not config.is_hot_module(module.rel):
            return
        for iterable, context in _iteration_sites(module.tree):
            if isinstance(iterable, ast.Call) \
                    and isinstance(iterable.func, ast.Attribute) \
                    and iterable.func.attr in self._DICT_METHODS \
                    and not iterable.args:
                yield _finding(
                    module, self.rule_id, iterable,
                    f"{context} iterates `.{iterable.func.attr}()` in an "
                    f"ordering-sensitive module — sorted(), or pragma with "
                    f"the reason insertion order is deterministic")


@register
class IdentityEntropyRule(Rule):
    """DET005: no per-process identity/entropy in ordering, keys, output."""

    rule_id = "DET005"
    title = "process-local identity or entropy source"

    def check(self, module: ParsedModule,
              config: LintConfig) -> Iterator[Finding]:
        rebound = _locally_bound_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) \
                    and node.func.id not in rebound:
                if node.func.id == "id":
                    yield _finding(
                        module, self.rule_id, node,
                        "`id()` is a per-process memory address; use a "
                        "monotonic sequence number or a stable key")
                elif node.func.id == "hash":
                    yield _finding(
                        module, self.rule_id, node,
                        "builtin `hash()` is salted by PYTHONHASHSEED for "
                        "str/bytes; use zlib.crc32 or hashlib for stable "
                        "keys (see apps/mapreduce.py)")
            qualified = resolve_qualified(module, node.func)
            if qualified in ("uuid.uuid1", "uuid.uuid4", "os.urandom"):
                yield _finding(
                    module, self.rule_id, node,
                    f"`{qualified}` is fresh entropy every run; derive "
                    f"identifiers from seeded state (uuid5 over a "
                    f"namespace, or a counter)")
            elif qualified is not None and qualified.startswith("secrets."):
                yield _finding(
                    module, self.rule_id, node,
                    f"`{qualified}` is a CSPRNG — never deterministic")


def _import_time_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements that run at import: module and (nested) class bodies."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, ast.ClassDef):
            yield from _import_time_statements(stmt.body)


@register
class ProcessStateRule(Rule):
    """DET006: no process-wide counters or ``global``-rebound module state."""

    rule_id = "DET006"
    title = "process-wide counter or rebound module state"

    def check(self, module: ParsedModule,
              config: LintConfig) -> Iterator[Finding]:
        if module.rel in config.process_state_allowlist:
            return
        for stmt in _import_time_statements(module.tree.body):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
                    and isinstance(stmt.value, ast.Call) \
                    and resolve_qualified(module, stmt.value.func) \
                    == "itertools.count":
                yield _finding(
                    module, self.rule_id, stmt,
                    "`itertools.count()` created at import time numbers "
                    "objects across runs — draw from repro.sim.ids (rewound "
                    "by run_spec) or keep the counter on an instance")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Global):
                yield _finding(
                    module, self.rule_id, node,
                    f"`global {', '.join(node.names)}` rebinds module state "
                    f"that outlives a run — own it on an object, or in "
                    f"repro.sim.ids if it is an id sequence")


def _locally_bound_names(tree: ast.Module) -> Set[str]:
    """Names assigned/def'd in the module (so ``hash = crc32`` isn't flagged
    as the builtin)."""
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    return bound


def _sorted_wrapped(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "sorted"


# `sorted(...)` wrapping is honoured by construction: _iteration_sites
# yields the *outermost* iterable expression, so `for x in sorted(s)`
# yields the sorted() Call, which is neither a set expression nor a
# tracked name — no finding.  The helper above documents the intent and
# is used by tests.
_ = _sorted_wrapped
