"""AST-based determinism linter for the simulation codebase.

Discrete-event frameworks die by a thousand tiny nondeterminisms: one
stray ``random.random()`` instead of a named
:class:`~repro.sim.rng.RngStream`, one wall-clock read, one iteration
over a ``set`` whose hash order (salted per process by
``PYTHONHASHSEED``) decides which event reaches the heap first.  Each
hazard silently breaks the bit-replay contract that the fault injector
and every figure benchmark rely on.

This module walks Python sources with :mod:`ast` and flags those
hazards.  Rules are pluggable (subclass :class:`LintRule`, decorate with
:func:`register`) and each carries a stable ID:

==========  =========  ====================================================
ID          severity   hazard
==========  =========  ====================================================
``RPR001``  error      ambient randomness: ``random``/``secrets``/``uuid``
                       imports or ``os.urandom`` outside ``repro.sim.rng``
``RPR002``  error      wall-clock reads: ``time``/``datetime`` imports or
                       ``time.time()``-style calls in simulation code
``RPR003``  error      iteration over a ``set``/``frozenset`` value whose
                       order is not fixed by ``sorted()``
``RPR004``  warning    dict-view iteration (``.keys()``/``.values()``/
                       ``.items()``) whose loop body reaches a sim-visible
                       sink (event scheduling, RNG draws, fault points)
``RPR005``  error      ``id()``-based ordering or comparison (CPython
                       addresses differ between runs)
``RPR006``  error      float drift: ``+=``/``-=`` accumulation on a
                       simulation-clock attribute instead of assigning
                       absolute event times
``RPR007``  error      mutable default argument (shared across calls, so
                       call order leaks into behaviour)
``RPR008``  warning    per-event closure allocation in kernel modules
                       (``repro/sim``): a ``lambda`` handed to
                       ``add_callback``/``schedule``/``call_later`` or
                       appended to ``callbacks`` allocates one closure
                       cell per event — pass ``(callback, args)`` instead
``RPR010``  error      real concurrency: ``threading`` /
                       ``multiprocessing`` / ``asyncio`` /
                       ``concurrent.futures`` imports in simulation code
                       (preemption breaks replay determinism; parallelism
                       belongs in an allowlisted process runner)
``RPR000``  error      a ``# noqa: RPRxxx`` suppression without a
                       justification
==========  =========  ====================================================

Suppression: append ``# noqa: RPRxxx -- <justification>`` to the flagged
line.  A justification is **mandatory** — a bare ``# noqa`` or
``# noqa: RPR003`` still suppresses the original finding but is itself
reported as ``RPR000``, so every silenced hazard documents why the order
(or randomness) provably cannot leak into the event timeline.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
import typing


@dataclasses.dataclass(frozen=True)
class Finding:
    """One linter hit, pointing at a source location."""

    rule_id: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return "%s:%d:%d: %s [%s] %s" % (self.path, self.line,
                                         self.col + 1, self.rule_id,
                                         self.severity, self.message)


class ModuleContext:
    """A parsed module handed to every rule: source, tree, parent links."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self._parents: typing.Optional[dict] = None

    @property
    def parents(self) -> typing.Dict[ast.AST, ast.AST]:
        """Child -> parent map over the whole tree (built lazily)."""
        if self._parents is None:
            self._parents = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    self._parents[child] = node
        return self._parents

    def ancestors(self, node: ast.AST) -> typing.Iterator[ast.AST]:
        parents = self.parents
        while node in parents:
            node = parents[node]
            yield node


class LintRule:
    """Base class for pluggable rules.  Subclasses set the class
    attributes and implement :meth:`check`."""

    id: str = "RPR999"
    severity: str = "error"
    synopsis: str = ""

    def check(self, module: ModuleContext
              ) -> typing.Iterator[Finding]:  # pragma: no cover - abstract
        raise NotImplementedError

    def finding(self, module: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(rule_id=self.id, severity=self.severity,
                       path=module.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message)


#: The active rule set, in reporting order.  Extend with :func:`register`.
RULES: typing.List[LintRule] = []


class DuplicateRuleError(ValueError):
    """Two rules claimed the same RPR id; the second would silently
    shadow the first in reports and noqa matching."""


def register(cls: typing.Type[LintRule]) -> typing.Type[LintRule]:
    """Class decorator adding a rule instance to :data:`RULES`.

    Rejects duplicate rule ids loudly: suppression comments and CI
    baselines key on the id, so a plugin re-using one would silently
    change what an existing ``# noqa`` means.
    """
    rule = cls()
    for existing in RULES:
        if existing.id == rule.id:
            raise DuplicateRuleError(
                "rule id %s already registered by %s; pick a fresh id"
                % (rule.id, type(existing).__name__))
    RULES.append(rule)
    return cls


def find_rule(rule_id: str) -> LintRule:
    """Look up a registered rule by its RPR id; raises ``KeyError``."""
    for rule in RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError("no registered rule with id %r" % rule_id)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

#: Builtins whose result does not depend on argument iteration order.
_ORDER_INSENSITIVE_CALLS = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset",
})

#: Method/function names through which iteration order becomes visible to
#: the simulation: event scheduling, RNG draws, fault-point evaluation,
#: and resource/store traffic.
_SIM_SINKS = frozenset({
    "timeout", "schedule", "process", "succeed", "fail", "interrupt",
    "random", "uniform", "randint", "choice", "shuffle", "sample",
    "stream", "heappush", "_push", "put", "request", "fires", "backoff_ms",
})

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_SET_METHODS = frozenset({"union", "intersection", "difference",
                          "symmetric_difference", "copy"})


def _call_name(node: ast.AST) -> typing.Optional[str]:
    """Name of a called function: ``foo(...)`` -> "foo",
    ``x.foo(...)`` -> "foo"."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _setish_names(scope: ast.AST) -> typing.Set[str]:
    """Names bound to set-valued expressions anywhere in ``scope``.

    Deliberately flow-insensitive: a name that is *ever* a set in the
    function is treated as a set at every use — cheap, and safe in the
    false-positive direction (a ``# noqa`` with justification handles
    the rare misfire).
    """
    names: typing.Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(node, "value", None)
            if value is None or not _is_setish(value, names):
                # Annotation-driven: x: typing.Set[...] = ...
                annotation = getattr(node, "annotation", None)
                if annotation is None or "Set" not in ast.dump(annotation):
                    continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.Call):
            # x.add(...) / x.discard(...) are set-only verbs.
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in ("add", "discard") and \
                    isinstance(func.value, ast.Name):
                names.add(func.value.id)
    return names


def _is_setish(node: ast.AST, names: typing.Set[str]) -> bool:
    """Is ``node`` syntactically a set-valued expression?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Call):
        called = _call_name(node)
        if isinstance(node.func, ast.Name) and \
                called in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and \
                called in _SET_METHODS:
            return _is_setish(node.func.value, names)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return (_is_setish(node.left, names)
                or _is_setish(node.right, names))
    return False


def _is_dict_view(node: ast.AST) -> typing.Optional[str]:
    """Return "keys"/"values"/"items" for an explicit dict-view call."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("keys", "values", "items") \
            and not node.args and not node.keywords:
        return node.func.attr
    return None


def _reaches_sim_sink(scope_nodes: typing.Iterable[ast.AST]) -> bool:
    """Does any node in ``scope_nodes`` (loop body / comprehension) call a
    sim-visible sink or yield control back to the simulator?"""
    for root in scope_nodes:
        for node in ast.walk(root):
            if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
                return True
            if isinstance(node, ast.Call) and \
                    _call_name(node) in _SIM_SINKS:
                return True
    return False


def _iteration_sites(module: ModuleContext
                     ) -> typing.Iterator[typing.Tuple[ast.AST, ast.AST,
                                                       typing.List[ast.AST]]]:
    """Yield ``(site, iterable, body_nodes)`` for every for-loop and
    comprehension in the module."""
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter, list(node.body)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for comp in node.generators:
                yield node, comp.iter, [node.elt]
        elif isinstance(node, ast.DictComp):
            for comp in node.generators:
                yield node, comp.iter, [node.key, node.value]


def _enclosing_scope(module: ModuleContext, node: ast.AST) -> ast.AST:
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return module.tree


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

@register
class AmbientRandomnessRule(LintRule):
    """RPR001: randomness must flow through ``repro.sim.rng`` streams."""

    id = "RPR001"
    severity = "error"
    synopsis = ("ambient randomness (random/secrets/uuid/os.urandom) "
                "outside repro.sim.rng")

    _MODULES = ("random", "secrets", "uuid")

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._MODULES:
                        yield self.finding(
                            module, node,
                            "import of %r: draw from a named RngStream "
                            "(repro.sim.rng) instead" % alias.name)
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in self._MODULES and node.level == 0:
                    yield self.finding(
                        module, node,
                        "import from %r: draw from a named RngStream "
                        "(repro.sim.rng) instead" % node.module)
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and \
                        func.attr == "urandom" and \
                        isinstance(func.value, ast.Name) and \
                        func.value.id == "os":
                    yield self.finding(
                        module, node,
                        "os.urandom() is nondeterministic; derive bytes "
                        "from a seeded RngStream")


@register
class WallClockRule(LintRule):
    """RPR002: simulated time is ``sim.now``; the host clock never is."""

    id = "RPR002"
    severity = "error"
    synopsis = "wall-clock reads (time/datetime) in simulation code"

    _CLOCK_CALLS = frozenset({"time", "monotonic", "perf_counter",
                              "process_time", "now", "utcnow", "today"})

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in ("time", "datetime"):
                        yield self.finding(
                            module, node,
                            "import of %r: simulated time is sim.now, "
                            "never the host clock" % alias.name)
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] in ("time",
                                                         "datetime") \
                        and node.level == 0:
                    yield self.finding(
                        module, node,
                        "import from %r: simulated time is sim.now, "
                        "never the host clock" % node.module)
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and \
                        func.attr in self._CLOCK_CALLS and \
                        isinstance(func.value, ast.Name) and \
                        func.value.id in ("time", "datetime"):
                    yield self.finding(
                        module, node,
                        "%s.%s() reads the host clock; use sim.now"
                        % (func.value.id, func.attr))


@register
class SetIterationRule(LintRule):
    """RPR003: set iteration order is salted per process — sort it."""

    id = "RPR003"
    severity = "error"
    synopsis = "iteration over a set/frozenset without sorted()"

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        setish_cache: typing.Dict[ast.AST, typing.Set[str]] = {}
        for site, iterable, _body in _iteration_sites(module):
            scope = _enclosing_scope(module, site)
            if scope not in setish_cache:
                setish_cache[scope] = _setish_names(scope)
            if _is_setish(iterable, setish_cache[scope]):
                yield self.finding(
                    module, iterable,
                    "iteration over a set: order follows the per-process "
                    "hash seed; wrap in sorted() or keep a list")
        # list()/tuple()/"".join() materialise the same hidden order.
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in ("list", "tuple") and \
                    len(node.args) == 1:
                scope = _enclosing_scope(module, node)
                if scope not in setish_cache:
                    setish_cache[scope] = _setish_names(scope)
                if _is_setish(node.args[0], setish_cache[scope]):
                    yield self.finding(
                        module, node,
                        "%s() over a set materialises hash order; use "
                        "sorted()" % node.func.id)


@register
class DictViewIterationRule(LintRule):
    """RPR004: dict views are insertion-ordered (deterministic given
    deterministic inserts), but when the loop body schedules events or
    draws randomness the insertion history becomes part of the
    determinism contract — flag it so the author states the order is
    intentional (sort, or suppress with the reason)."""

    id = "RPR004"
    severity = "warning"
    synopsis = "dict-view iteration feeding a sim-visible sink"

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for _site, iterable, body in _iteration_sites(module):
            view = _is_dict_view(iterable)
            if view is None:
                continue
            if _reaches_sim_sink(body):
                yield self.finding(
                    module, iterable,
                    ".%s() iteration reaches the event heap/RNG from its "
                    "loop body; sort the keys or justify the insertion "
                    "order" % view)


@register
class IdOrderingRule(LintRule):
    """RPR005: CPython object addresses differ between runs."""

    id = "RPR005"
    severity = "error"
    synopsis = "id()-based ordering or comparison"

    _ORDERING_CALLS = frozenset({"sorted", "min", "max", "sort"})
    _MESSAGE = ("id() varies between runs; order by a stable key "
                "(name, insertion counter) instead")

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        flagged_lines: typing.Set[int] = set()

        def emit(node: ast.AST) -> typing.Iterator[Finding]:
            line = getattr(node, "lineno", 1)
            if line not in flagged_lines:
                flagged_lines.add(line)
                yield self.finding(module, node, self._MESSAGE)

        for node in ast.walk(module.tree):
            # The bare builtin passed as a sort key: sorted(xs, key=id).
            if isinstance(node, ast.Call) and \
                    _call_name(node) in self._ORDERING_CALLS:
                for keyword in node.keywords:
                    if isinstance(keyword.value, ast.Name) and \
                            keyword.value.id == "id":
                        yield from emit(keyword.value)
            # id(...) calls feeding an ordering/comparison context.
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "id"):
                continue
            for ancestor in module.ancestors(node):
                if isinstance(ancestor, ast.stmt):
                    break
                ordered = (
                    isinstance(ancestor, (ast.Compare, ast.BinOp,
                                          ast.Lambda))
                    or (isinstance(ancestor, ast.Call)
                        and _call_name(ancestor) in self._ORDERING_CALLS))
                if ordered:
                    yield from emit(node)
                    break


@register
class ClockDriftRule(LintRule):
    """RPR006: accumulate clock values by assignment from event times,
    not by repeated float addition (drift breaks cross-platform
    replay)."""

    id = "RPR006"
    severity = "error"
    synopsis = "float += accumulation on a simulation clock"

    _CLOCK_NAMES = re.compile(
        r"^_?(now|clock|sim_time|current_time|virtual_time)$")

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AugAssign):
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            target = node.target
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name is not None and self._CLOCK_NAMES.match(name):
                yield self.finding(
                    module, node,
                    "augmented assignment on clock %r accumulates float "
                    "error; assign the absolute event time instead" % name)


@register
class MutableDefaultRule(LintRule):
    """RPR007: mutable defaults are shared across calls, so call order
    leaks into behaviour — a replay hazard on any sim-visible path."""

    id = "RPR007"
    severity = "error"
    synopsis = "mutable default argument"

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                               ast.ListComp, ast.DictComp,
                                               ast.SetComp)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set",
                                            "bytearray"))
                if mutable:
                    yield self.finding(
                        module, default,
                        "mutable default argument is shared across "
                        "calls; default to None and allocate inside")


@register
class KernelClosureRule(LintRule):
    """RPR008: the DES kernel's hot path must not allocate a closure per
    event.  A ``lambda`` passed to ``add_callback``/``schedule``/
    ``call_later`` — or appended to an event's ``callbacks`` list —
    costs one code object call plus one closure cell *per scheduled
    event*; the kernel's tuple protocol (``(callback, args)`` entries)
    carries the same binding with a plain tuple.  Only kernel modules
    (paths under ``repro/sim``) are in scope: user code may trade the
    allocation for readability."""

    id = "RPR008"
    severity = "warning"
    synopsis = "per-event closure allocation in a kernel module"

    _KERNEL_PATH = re.compile(r"repro[\\/]sim[\\/]")
    _CALLBACK_CALLS = frozenset({"add_callback", "schedule", "call_later"})

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        if not self._KERNEL_PATH.search(module.path):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            is_callbacks_append = (
                name == "append"
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "callbacks")
            if name not in self._CALLBACK_CALLS \
                    and not is_callbacks_append:
                continue
            arguments = list(node.args) + [kw.value
                                           for kw in node.keywords]
            for argument in arguments:
                if isinstance(argument, ast.Lambda):
                    yield self.finding(
                        module, argument,
                        "lambda allocates a closure per event on the "
                        "kernel hot path; pass a (callback, args) tuple "
                        "entry instead")


#: Paths where RPR010 does not apply.  Exactly two modules are
#: sanctioned, both *runners* that fan whole, independent DES timelines
#: out over OS processes and exchange nothing mid-timeline:
#: ``repro/cluster/procs.py`` (per-host engines under deterministic
#: epoch-barrier message exchange) and ``repro/stdlib/sweep.py`` (whole
#: (spec, seed) scenario runs, one digest each, merged seed-ordered).
#: Scenario and coordination code — ``repro/cluster/`` node/controller/
#: placement, the stdlib spec/runner modules — runs *inside* the DES
#: timeline and stays banned like any other sim code; widening this list
#: beyond the runners would let a second scheduler leak into code the
#: replay digest is supposed to pin.
RPR010_ALLOWED_PATHS: typing.List["re.Pattern"] = [
    re.compile(r"repro[\\/]cluster[\\/]procs\.py$"),
    re.compile(r"repro[\\/]stdlib[\\/]sweep\.py$"),
]


@register
class RealConcurrencyRule(LintRule):
    """RPR010: real concurrency primitives are banned in sim code.

    The whole determinism story rests on one scheduler: the DES event
    heap, with its ``(time, insertion order)`` tie-break.  A thread, an
    OS process pool, or an asyncio loop introduces a *second* scheduler
    whose interleavings the replay digest cannot pin — the race tooling
    in :mod:`repro.analysis.races` reasons about ``sim.Resource`` locks
    precisely because they are the only legal synchronisation.  Paths in
    :data:`RPR010_ALLOWED_PATHS` (the cluster procs backend and the
    sweep runner) are exempt; anywhere else, a justified noqa must argue the import never
    touches the timeline (e.g. tooling that only post-processes
    artifacts).
    """

    id = "RPR010"
    severity = "error"
    synopsis = ("threading/multiprocessing/asyncio/concurrent.futures "
                "import in simulation code")

    _BANNED_ROOTS = frozenset({
        "threading", "multiprocessing", "asyncio", "concurrent",
        "_thread",
    })

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for pattern in RPR010_ALLOWED_PATHS:
            if pattern.search(module.path):
                return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in self._BANNED_ROOTS:
                    yield self.finding(
                        module, node,
                        "import of %r brings a second scheduler into the "
                        "simulation; all concurrency must go through the "
                        "DES kernel (sim.process / sim.Resource)" % name)


# ----------------------------------------------------------------------
# Suppression (# noqa: RPRxxx -- justification)
# ----------------------------------------------------------------------

_NOQA = re.compile(
    r"#\s*noqa(?P<codes>:\s*[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)?"
    r"(?P<why>\s*(?:--|—)\s*\S.*)?\s*$")


def _suppression_for(line_text: str
                     ) -> typing.Optional[typing.Tuple[typing.Set[str],
                                                       bool]]:
    """Parse a trailing noqa comment: returns ``(codes, justified)`` or
    None.  An empty ``codes`` set means "suppress everything"."""
    match = _NOQA.search(line_text)
    if match is None:
        return None
    codes: typing.Set[str] = set()
    if match.group("codes"):
        codes = {code.strip()
                 for code in match.group("codes").lstrip(": ").split(",")}
    return codes, bool(match.group("why"))


def apply_suppressions(module: ModuleContext,
                       findings: typing.Iterable[Finding]
                       ) -> typing.List[Finding]:
    """Drop findings silenced by justified noqa comments; turn
    unjustified suppressions into RPR000 findings."""
    kept: typing.List[Finding] = []
    unjustified: typing.Dict[typing.Tuple[int, str], Finding] = {}
    for finding in findings:
        index = finding.line - 1
        line_text = (module.lines[index]
                     if 0 <= index < len(module.lines) else "")
        parsed = _suppression_for(line_text)
        if parsed is None:
            kept.append(finding)
            continue
        codes, justified = parsed
        if codes and finding.rule_id not in codes:
            kept.append(finding)
            continue
        if not justified:
            key = (finding.line, finding.rule_id)
            if key not in unjustified:
                unjustified[key] = Finding(
                    rule_id="RPR000", severity="error",
                    path=finding.path, line=finding.line, col=finding.col,
                    message="suppression of %s lacks a justification "
                            "('# noqa: %s -- why the hazard cannot "
                            "leak')" % (finding.rule_id, finding.rule_id))
        # Justified (or pending-RPR000) — the original finding is silenced.
    kept.extend(unjustified.values())
    return kept


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------

def lint_source(source: str, path: str = "<string>",
                rules: typing.Optional[typing.Sequence[LintRule]] = None
                ) -> typing.List[Finding]:
    """Lint one module's source text; returns surviving findings."""
    try:
        module = ModuleContext(path, source)
    except SyntaxError as exc:
        return [Finding(rule_id="RPR999", severity="error", path=path,
                        line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                        message="syntax error: %s" % exc.msg)]
    raw: typing.List[Finding] = []
    for rule in (rules if rules is not None else RULES):
        raw.extend(rule.check(module))
    survivors = apply_suppressions(module, raw)
    survivors.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return survivors


def lint_paths(paths: typing.Iterable[typing.Union[str, pathlib.Path]],
               rules: typing.Optional[typing.Sequence[LintRule]] = None
               ) -> typing.List[Finding]:
    """Lint files and/or directories (recursing into ``*.py``)."""
    files: typing.List[pathlib.Path] = []
    for path in paths:
        path = pathlib.Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: typing.List[Finding] = []
    for file_path in files:
        findings.extend(lint_source(file_path.read_text(encoding="utf-8"),
                                    str(file_path), rules=rules))
    return findings


def render_findings(findings: typing.Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in findings]
    if findings:
        by_rule: typing.Dict[str, int] = {}
        for finding in findings:
            by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
        summary = ", ".join("%s x%d" % (rule_id, count)
                            for rule_id, count in sorted(by_rule.items()))
        lines.append("%d finding(s): %s" % (len(findings), summary))
    else:
        lines.append("0 findings")
    return "\n".join(lines)


#: Formats accepted by ``repro lint --format`` / ``repro races --format``.
FORMATS = ("text", "json", "github")


def findings_to_json(findings: typing.Sequence[Finding]) -> str:
    """Findings as a JSON array (stable key order, trailing newline)."""
    import json

    payload = [dataclasses.asdict(finding) for finding in findings]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _github_escape(text: str) -> str:
    """Escape a workflow-command message per the Actions spec."""
    return (text.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A"))


def findings_to_github(findings: typing.Sequence[Finding]) -> str:
    """Findings as GitHub workflow-annotation lines.

    ``::error file=...,line=...,col=...,title=RPRxxx::message`` renders
    inline on the PR diff; warnings map to ``::warning``.
    """
    lines = []
    for finding in findings:
        level = "warning" if finding.severity == "warning" else "error"
        lines.append(
            "::%s file=%s,line=%d,col=%d,title=%s::%s"
            % (level, finding.path, finding.line, finding.col + 1,
               finding.rule_id, _github_escape(finding.message)))
    lines.append("%d finding(s)" % len(findings))
    return "\n".join(lines)


def format_findings(findings: typing.Sequence[Finding],
                    fmt: str = "text") -> str:
    """Render findings in one of :data:`FORMATS`."""
    if fmt == "json":
        return findings_to_json(findings)
    if fmt == "github":
        return findings_to_github(findings)
    if fmt == "text":
        return render_findings(findings)
    raise ValueError("unknown format %r; expected one of %s"
                     % (fmt, ", ".join(FORMATS)))
