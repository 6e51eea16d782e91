"""Rule catalogue for reprolint.

Each rule is an AST pass that enforces one of the silent invariants the
reliability analysis depends on.  Rules are registered in a module-level
registry keyed by rule id (``RPL001`` ...); the engine instantiates every
registered rule unless the caller narrows the selection.

Rule ids are stable and documented in ``docs/static-analysis.md``.  A
finding on line *N* can be suppressed with a ``# reprolint: disable=RPLxxx``
comment on that line.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.devtools.engine import LintContext
    from repro.devtools.graph import ProjectIndex

__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "Finding",
    "ProjectRule",
    "Rule",
    "get_project_rule",
    "get_rule",
    "iter_project_rules",
    "iter_rules",
    "register",
    "register_project",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The canonical one-line text form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable form (``--format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Rule:
    """Base class for reprolint rules.

    Subclasses set :attr:`rule_id`/:attr:`name`/:attr:`summary` and
    implement :meth:`check`, yielding a :class:`Finding` per violation.
    """

    rule_id: str = ""
    name: str = ""
    summary: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node`` in ``ctx``'s file."""
        return Finding(
            rule=self.rule_id,
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ConfigurationError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ConfigurationError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def iter_rules() -> Iterator[Rule]:
    """Instances of every registered rule, in id order."""
    for rule_id in sorted(_REGISTRY):
        yield _REGISTRY[rule_id]()


def get_rule(rule_id: str) -> Rule:
    """Instantiate one registered rule by id."""
    try:
        return _REGISTRY[rule_id]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {rule_id!r} (known: {known})") from None


class ProjectRule:
    """Base class for whole-project rules (``--project`` mode).

    Unlike :class:`Rule`, a project rule sees the complete
    :class:`~repro.devtools.graph.ProjectIndex` — symbol table, class
    model and call graph — instead of one file's AST.  Subclasses set
    :attr:`rule_id`/:attr:`name`/:attr:`summary` and implement
    :meth:`check`, yielding :class:`Finding`\\ s whose ``path`` is the
    module path as indexed (line-scoped and file-level suppression
    comments still apply).
    """

    rule_id: str = ""
    name: str = ""
    summary: str = ""

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node`` in ``path``."""
        return Finding(
            rule=self.rule_id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_PROJECT_REGISTRY: dict[str, type[ProjectRule]] = {}


def register_project(cls: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding a project rule to the project registry."""
    if not cls.rule_id:
        raise ConfigurationError(f"project rule {cls.__name__} has no rule_id")
    if cls.rule_id in _PROJECT_REGISTRY or cls.rule_id in _REGISTRY:
        raise ConfigurationError(f"duplicate rule id {cls.rule_id}")
    _PROJECT_REGISTRY[cls.rule_id] = cls
    return cls


def iter_project_rules() -> Iterator[ProjectRule]:
    """Instances of every registered project rule, in id order."""
    for rule_id in sorted(_PROJECT_REGISTRY):
        yield _PROJECT_REGISTRY[rule_id]()


def get_project_rule(rule_id: str) -> ProjectRule:
    """Instantiate one registered project rule by id."""
    try:
        return _PROJECT_REGISTRY[rule_id]()
    except KeyError:
        known = ", ".join(sorted(_PROJECT_REGISTRY))
        raise KeyError(
            f"unknown project rule {rule_id!r} (known: {known})"
        ) from None


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

_NUMPY_NAMES = frozenset({"np", "numpy"})


def _np_random_attr(func: ast.AST) -> str | None:
    """``'rand'`` for ``np.random.rand`` / ``numpy.random.rand``, else None."""
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "random"
        and isinstance(func.value.value, ast.Name)
        and func.value.value.id in _NUMPY_NAMES
    ):
        return func.attr
    return None


def _name_suffix_kind(node: ast.AST) -> str | None:
    """``'c'``/``'k'`` when a name follows the unit-suffix convention."""
    if isinstance(node, ast.Name):
        ident = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    else:
        return None
    if ident.endswith(("_c", "_celsius")):
        return "c"
    if ident.endswith(("_k", "_kelvin")):
        return "k"
    return None


def _walk_excluding_nested(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function bodies."""
    pending: list[ast.AST] = list(body)
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        pending.extend(ast.iter_child_nodes(node))


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = node.args
    names = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        if a.arg not in ("self", "cls")
    }
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


# ---------------------------------------------------------------------------
# RPL001 — RNG discipline
# ---------------------------------------------------------------------------


@register
class GlobalRandomState(Rule):
    """Monte-Carlo results must be bit-for-bit reproducible.

    Global-state ``np.random.*`` calls (or an unseeded ``default_rng()``)
    make reliability curves change run to run; Generators must be created
    from an explicit seed and threaded through call signatures.
    """

    rule_id = "RPL001"
    name = "rng-discipline"
    summary = (
        "no global-state np.random calls, unseeded default_rng(), or "
        "seed parameters that default to None outside test code"
    )

    #: Constructors of the new-style Generator API that are fine to touch.
    _ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "BitGenerator",
            "SeedSequence",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_seed_defaults(ctx, node)

    def _check_call(self, ctx: LintContext, node: ast.Call) -> Iterator[Finding]:
        attr = _np_random_attr(node.func)
        if attr is not None and attr not in self._ALLOWED:
            yield self.finding(
                ctx,
                node,
                f"global-state RNG call np.random.{attr}(); create an "
                "explicitly-seeded np.random.default_rng(seed) and thread "
                "it through instead",
            )
            return
        is_default_rng = attr == "default_rng" or (
            isinstance(node.func, ast.Name) and node.func.id == "default_rng"
        )
        if is_default_rng:
            unseeded = not node.args and not node.keywords
            if node.args and isinstance(node.args[0], ast.Constant):
                unseeded = unseeded or node.args[0].value is None
            if unseeded:
                yield self.finding(
                    ctx,
                    node,
                    "unseeded default_rng() is not reproducible; pass an "
                    "explicit seed",
                )

    def _check_seed_defaults(
        self, ctx: LintContext, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        for arg, default in zip(
            positional[len(positional) - len(args.defaults) :],
            args.defaults,
            strict=True,
        ):
            yield from self._check_one_default(ctx, node, arg, default)
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults, strict=True):
            if kw_default is not None:
                yield from self._check_one_default(ctx, node, arg, kw_default)

    def _check_one_default(
        self,
        ctx: LintContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        arg: ast.arg,
        default: ast.expr,
    ) -> Iterator[Finding]:
        if (
            arg.arg == "seed"
            and isinstance(default, ast.Constant)
            and default.value is None
        ):
            yield self.finding(
                ctx,
                func,
                f"parameter 'seed' of {func.name}() defaults to None, which "
                "means an unseeded (non-reproducible) default_rng(None); "
                "default to an explicit integer seed",
            )


# ---------------------------------------------------------------------------
# RPL002 — unit hygiene
# ---------------------------------------------------------------------------


@register
class UnitHygiene(Rule):
    """Temperatures are kelvin inside models, celsius at the boundary.

    Inline ``+ 273.15`` arithmetic (or mixing ``*_c`` and ``*_k`` operands)
    silently produces plausible-but-wrong Arrhenius factors; conversions
    must go through :mod:`repro.units`.
    """

    rule_id = "RPL002"
    name = "unit-hygiene"
    summary = (
        "no raw 273.15 temperature-offset arithmetic or mixed *_c/*_k "
        "operands; use repro.units conversions"
    )

    _OFFSETS = frozenset({273.15})
    _ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)

    def _is_offset_literal(self, node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        if not isinstance(node, ast.Constant):
            return False
        value = node.value
        if isinstance(value, bool):
            return False
        if isinstance(value, float):
            return value in self._OFFSETS
        return isinstance(value, int) and value == 273

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.is_test or ctx.filename == "units.py":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if isinstance(node.op, (ast.Add, ast.Sub)) and (
                self._is_offset_literal(node.left)
                or self._is_offset_literal(node.right)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "raw temperature-offset arithmetic with 273.15; use "
                    "units.celsius_to_kelvin / units.kelvin_to_celsius "
                    "(or units.CELSIUS_OFFSET if you really mean the "
                    "constant)",
                )
                continue
            if isinstance(node.op, self._ARITH_OPS):
                kinds = {
                    _name_suffix_kind(node.left),
                    _name_suffix_kind(node.right),
                }
                if kinds >= {"c", "k"}:
                    yield self.finding(
                        ctx,
                        node,
                        "arithmetic mixes a celsius-suffixed and a "
                        "kelvin-suffixed operand; convert one side via "
                        "repro.units first",
                    )


# ---------------------------------------------------------------------------
# RPL003 — error hierarchy
# ---------------------------------------------------------------------------


@register
class ErrorHierarchy(Rule):
    """Library internals raise the :class:`repro.errors.ReproError` tree.

    Callers of the public API catch ``ReproError`` at the boundary; a bare
    ``ValueError``/``RuntimeError`` escapes that contract.
    """

    rule_id = "RPL003"
    name = "error-hierarchy"
    summary = (
        "no raise ValueError/RuntimeError from library internals; use the "
        "repro.errors.ReproError hierarchy"
    )

    _BANNED = frozenset({"ValueError", "RuntimeError"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name: str | None = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in self._BANNED:
                yield self.finding(
                    ctx,
                    node,
                    f"raise {name} from library code; raise a "
                    "repro.errors.ReproError subclass (ConfigurationError, "
                    "NumericalError, ...) so API callers can catch one type",
                )


# ---------------------------------------------------------------------------
# RPL004 — print discipline
# ---------------------------------------------------------------------------


@register
class PrintDiscipline(Rule):
    """Diagnostics go through :mod:`repro.obs.logging`, not ``print``.

    A bare ``print`` bypasses log levels, the ``--log-json`` machine
    format, and stream separation (stderr diagnostics vs stdout results).
    """

    rule_id = "RPL004"
    name = "print-discipline"
    summary = (
        "no bare print() outside cli.py; route diagnostics through "
        "repro.obs.logging.get_logger(...)"
    )

    _ALLOWED_FILES = frozenset({"cli.py"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.is_test or ctx.filename in self._ALLOWED_FILES:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "bare print() outside cli.py; use "
                    "repro.obs.logging.get_logger(...) so output respects "
                    "--log-level/--log-json",
                )


# ---------------------------------------------------------------------------
# RPL005 — numerical safety
# ---------------------------------------------------------------------------


@register
class NumericalSafety(Rule):
    """Float comparisons and transcendental kernels need guards.

    ``==``/``!=`` against a float literal is almost never the intended
    predicate, and ``np.exp``/``np.log`` applied to unvalidated inputs in
    the :mod:`repro.stats` kernels silently propagates NaN/Inf into
    reliability curves.
    """

    rule_id = "RPL005"
    name = "numerical-safety"
    summary = (
        "no ==/!= against float literals; np.exp/np.log on function inputs "
        "in stats/ kernels requires a finiteness guard in the function"
    )

    _TRANSCENDENTAL = frozenset(
        {"exp", "expm1", "exp2", "log", "log1p", "log2", "log10"}
    )
    _GUARD_TOKENS = (
        "isfinite",
        "isnan",
        "isinf",
        "isclose",
        "errstate",
        "nan_to_num",
        "validate",
        "ensure_finite",
        "check_finite",
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        yield from self._check_float_eq(ctx)
        if ctx.in_stats and not ctx.is_test:
            yield from self._check_transcendental(ctx)

    def _is_float_literal(self, node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, float)

    def _check_float_eq(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_float_literal(operands[i]) or self._is_float_literal(
                    operands[i + 1]
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "==/!= comparison against a float literal; use an "
                        "explicit tolerance (math.isclose / np.isclose) or "
                        "an inequality, or suppress if exact equality is "
                        "genuinely intended",
                    )
                    break

    def _has_guard(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            ident = ""
            if isinstance(target, ast.Name):
                ident = target.id
            elif isinstance(target, ast.Attribute):
                ident = target.attr
            if any(token in ident for token in self._GUARD_TOKENS):
                return True
        return False

    def _transcendental_name(self, func: ast.AST) -> str | None:
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in _NUMPY_NAMES
            and func.attr in self._TRANSCENDENTAL
        ):
            return func.attr
        return None

    def _check_transcendental(self, ctx: LintContext) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = _function_params(func)
            if not params or self._has_guard(func):
                continue
            for node in _walk_excluding_nested(func.body):
                if not isinstance(node, ast.Call):
                    continue
                name = self._transcendental_name(node.func)
                if name is None:
                    continue
                arg_names = {
                    n.id
                    for arg in node.args
                    for n in ast.walk(arg)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                touched = sorted(arg_names & params)
                if touched:
                    yield self.finding(
                        ctx,
                        node,
                        f"np.{name} applied to unvalidated input "
                        f"{', '.join(touched)!s} of {func.name}() without a "
                        "finiteness guard; validate with np.isfinite/"
                        "np.isnan (or wrap in np.errstate) first",
                    )


# ---------------------------------------------------------------------------
# RPL006 — worker RNG discipline
# ---------------------------------------------------------------------------


@register
class WorkerRngDiscipline(Rule):
    """Parallel worker kernels must not build ad-hoc generators.

    The execution subsystem guarantees bit-identical results across
    backends by deriving every stream from the shard plan
    (:mod:`repro.exec.sharding`).  A ``default_rng(<constant>)`` inside a
    chunk/worker/shard function silently gives every shard the *same*
    stream (correlated samples) or re-keys the run outside the plan.
    """

    rule_id = "RPL006"
    name = "worker-rng-discipline"
    summary = (
        "no direct np.random.default_rng(...) inside chunk/worker/shard "
        "functions; derive the stream from the shard (shard.rng()) or a "
        "seed parameter"
    )

    _MARKERS = ("chunk", "worker", "shard")

    def _is_default_rng(self, func: ast.AST) -> bool:
        if _np_random_attr(func) == "default_rng":
            return True
        return isinstance(func, ast.Name) and func.id == "default_rng"

    @staticmethod
    def _references_param(node: ast.Call, params: set[str]) -> bool:
        loaded = {
            n.id
            for arg in (*node.args, *(kw.value for kw in node.keywords))
            for n in ast.walk(arg)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        return bool(loaded & params)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.is_test:
            return
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            lowered = func.name.lower()
            if not any(marker in lowered for marker in self._MARKERS):
                continue
            params = _function_params(func)
            for node in _walk_excluding_nested(func.body):
                if not isinstance(node, ast.Call):
                    continue
                if not self._is_default_rng(node.func):
                    continue
                if self._references_param(node, params):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"default_rng(...) inside worker function {func.name}() "
                    "does not derive its stream from the shard plan; use "
                    "shard.rng() (repro.exec.sharding) or thread a seed "
                    "parameter through so results stay backend-invariant",
                )


# ---------------------------------------------------------------------------
# RPL007 — service handler discipline
# ---------------------------------------------------------------------------


@register
class ServiceBlockingCalls(Rule):
    """Service request paths must not block the handler thread.

    The HTTP layer promises that request threads only validate, enqueue
    and read dictionaries — analysis work belongs on the job-manager
    worker pool.  A ``time.sleep`` or a synchronous ``subprocess`` call in
    :mod:`repro.service` stalls every client behind it (and under graceful
    shutdown, stalls the drain).
    """

    rule_id = "RPL007"
    name = "service-blocking-calls"
    summary = (
        "no time.sleep or blocking subprocess calls inside repro/service; "
        "long work belongs on the JobManager worker pool"
    )

    _SUBPROCESS_BLOCKING = frozenset(
        {"run", "call", "check_call", "check_output", "Popen"}
    )

    def _blocking_call_name(self, ctx: LintContext, func: ast.AST) -> str | None:
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base, attr = func.value.id, func.attr
            if base == "time" and attr == "sleep":
                return "time.sleep"
            if base == "subprocess" and attr in self._SUBPROCESS_BLOCKING:
                return f"subprocess.{attr}"
            return None
        if isinstance(func, ast.Name):
            origin = self._from_imports(ctx).get(func.id)
            if origin is not None:
                return origin
        return None

    def _from_imports(self, ctx: LintContext) -> dict[str, str]:
        """Local name -> blocking origin for ``from time import sleep``-style
        imports (including aliases)."""
        mapping: dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "time" and alias.name == "sleep":
                    mapping[local] = "time.sleep"
                elif (
                    node.module == "subprocess"
                    and alias.name in self._SUBPROCESS_BLOCKING
                ):
                    mapping[local] = f"subprocess.{alias.name}"
        return mapping

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.is_test or not ctx.in_service:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = self._blocking_call_name(ctx, node.func)
            if name is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() blocks a service thread; move the wait onto "
                    "the JobManager worker pool (or an Event with a "
                    "timeout) so request handling and shutdown drain stay "
                    "responsive",
                )


# ---------------------------------------------------------------------------
# RPL008 — metric/span naming discipline
# ---------------------------------------------------------------------------


@register
class MetricNamingDiscipline(Rule):
    """Metric and span names form a static, enumerable namespace.

    Dashboards, alerts and the Prometheus rendering all assume the set of
    metric families is known ahead of time.  A name built at runtime
    (``f"service.errors.{code}"``) silently creates one family per dynamic
    value — unbounded registry growth and un-alertable series.  The fix is
    a literal lookup table keyed by the dynamic part (the table's values
    stay greppable); names themselves are dotted lowercase.
    """

    rule_id = "RPL008"
    name = "metric-naming"
    summary = (
        "metric/span names passed to span()/inc()/gauge()/observe() must "
        "be static dotted-lowercase strings, never f-strings/format/"
        "concatenation; route dynamic parts through a literal dict"
    )

    _CALLS = frozenset({"span", "inc", "gauge", "observe"})
    _BASES = frozenset({"obs", "metrics", "trace"})
    _NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

    def _call_label(self, func: ast.AST) -> str | None:
        """``'metrics.inc'`` for a metric/span call, else None."""
        if isinstance(func, ast.Name) and func.id in self._CALLS:
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._CALLS
            and isinstance(func.value, ast.Name)
            and func.value.id in self._BASES
        ):
            return f"{func.value.id}.{func.attr}"
        return None

    @staticmethod
    def _is_stringy(node: ast.AST) -> bool:
        if isinstance(node, ast.JoinedStr):
            return True
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    def _dynamic_kind(self, arg: ast.expr) -> str | None:
        """How the name is being built at runtime, if it is."""
        if isinstance(arg, ast.JoinedStr) and any(
            isinstance(part, ast.FormattedValue) for part in arg.values
        ):
            return "an f-string"
        if (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Attribute)
            and arg.func.attr == "format"
            and self._is_stringy(arg.func.value)
        ):
            return "str.format()"
        if isinstance(arg, ast.BinOp):
            if isinstance(arg.op, ast.Mod) and self._is_stringy(arg.left):
                return "%-formatting"
            if isinstance(arg.op, ast.Add) and (
                self._is_stringy(arg.left) or self._is_stringy(arg.right)
            ):
                return "string concatenation"
        return None

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            label = self._call_label(node.func)
            if label is None:
                continue
            arg = node.args[0]
            dynamic = self._dynamic_kind(arg)
            if dynamic is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"metric/span name passed to {label}() is built with "
                    f"{dynamic}; every dynamic value mints a new metric "
                    "family — map the dynamic part through a literal dict "
                    "of static names instead",
                )
                continue
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and not self._NAME_RE.match(arg.value)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"metric/span name {arg.value!r} passed to {label}() is "
                    "not dotted lowercase (expected e.g. "
                    "'service.latency.jobs_submit')",
                )


# ---------------------------------------------------------------------------
# RPL012 — network calls need explicit timeouts
# ---------------------------------------------------------------------------


@register
class NetworkTimeoutDiscipline(Rule):
    """Every stdlib network call must carry an explicit timeout.

    ``urllib.request.urlopen``, ``socket.create_connection`` and the
    ``http.client`` connection classes all default to *blocking forever*.
    In a distributed fleet, one hung worker then wedges the caller — a
    coordinator dispatcher thread, a service drain, a CLI.  The shared
    :class:`repro.fleet.client.HttpClient` passes its per-request timeout
    everywhere; direct call sites must do the same with an explicit
    ``timeout=`` (or the positional equivalent).
    """

    rule_id = "RPL012"
    name = "network-timeout-discipline"
    summary = (
        "stdlib network calls (urllib.request.urlopen, "
        "socket.create_connection, http.client connections) must pass an "
        "explicit timeout"
    )

    #: Canonical dotted origin -> minimum positional-argument count that
    #: already covers the timeout parameter.
    _TIMEOUT_POSITION = {
        "urllib.request.urlopen": 3,
        "socket.create_connection": 2,
        "http.client.HTTPConnection": 3,
        "http.client.HTTPSConnection": 3,
    }

    def _from_imports(self, ctx: LintContext) -> dict[str, str]:
        """Local name -> canonical origin, alias-aware.

        Covers ``from urllib.request import urlopen [as x]`` and module
        aliases like ``import urllib.request as req``.
        """
        mapping: dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module is not None:
                for alias in node.names:
                    origin = f"{node.module}.{alias.name}"
                    if origin in self._TIMEOUT_POSITION:
                        mapping[alias.asname or alias.name] = origin
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        mapping[alias.asname] = alias.name
        return mapping

    def _call_origin(self, ctx: LintContext, func: ast.AST) -> str | None:
        """The canonical dotted origin of a call target, or ``None``."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            mapping = self._from_imports(ctx)
            parts.append(mapping.get(node.id, node.id))
            dotted = ".".join(reversed(parts))
            if dotted in self._TIMEOUT_POSITION:
                return dotted
        return None

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = self._call_origin(ctx, node.func)
            if origin is None:
                continue
            if any(kw.arg == "timeout" for kw in node.keywords):
                continue
            if len(node.args) >= self._TIMEOUT_POSITION[origin]:
                continue
            yield self.finding(
                ctx,
                node,
                f"{origin}() without an explicit timeout blocks forever on "
                "a hung peer; pass timeout= (the fleet HttpClient does "
                "this for you)",
            )


# ---------------------------------------------------------------------------
# RPL014 — mechanism stress parameters must declare their units
# ---------------------------------------------------------------------------


@register
class MechanismStressUnits(Rule):
    """Mechanism plugins must declare units on stress parameters.

    A :mod:`repro.mechanisms` plugin is parameterized by physical stress
    constants — reference temperatures, supply voltages, activation
    energies.  A bare ``t_ref_c = 100.0`` carries its unit only in the
    author's head: a kelvin/celsius or eV/J mix-up changes an Arrhenius
    acceleration by orders of magnitude and is invisible in review.  The
    :mod:`repro.units` helpers (``celsius``, ``kelvin``, ``volts``,
    ``electron_volts``) make the unit part of the declaration *and*
    range-check the value at import time, so class-level stress constants
    must be wrapped in one: ``t_ref_c = celsius(100.0)``.
    """

    rule_id = "RPL014"
    name = "mechanism-stress-units"
    summary = (
        "repro.mechanisms class-level temperature/voltage/energy "
        "constants must declare units via a repro.units helper "
        "(celsius/kelvin/volts/electron_volts), not a bare float"
    )

    #: Substrings and suffixes that mark an attribute as a stress
    #: parameter carrying a physical unit.
    _STRESS_SUBSTRINGS = ("temp", "volt", "vdd")
    _STRESS_SUFFIXES = ("_c", "_k", "_v", "_ev")

    #: Dimensionless modifiers — a ``voltage_exponent`` or ``b_temp_slope``
    #: scales a unit-bearing quantity but carries none itself.
    _DIMENSIONLESS_SUFFIXES = (
        "_exponent", "_slope", "_shape", "_scale", "_factor",
    )

    def _is_stress_name(self, name: str) -> bool:
        lowered = name.lower()
        if lowered.endswith(self._DIMENSIONLESS_SUFFIXES):
            return False
        return any(
            token in lowered for token in self._STRESS_SUBSTRINGS
        ) or lowered.endswith(self._STRESS_SUFFIXES)

    @staticmethod
    def _bare_number(node: ast.AST | None) -> bool:
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
        ):
            node = node.operand
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
        )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.is_test or not ctx.in_mechanisms:
            return
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            for stmt in class_node.body:
                if isinstance(stmt, ast.AnnAssign):
                    targets: list[ast.AST] = [stmt.target]
                    value = stmt.value
                elif isinstance(stmt, ast.Assign):
                    targets = list(stmt.targets)
                    value = stmt.value
                else:
                    continue
                if value is None or not self._bare_number(value):
                    continue
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if not self._is_stress_name(target.id):
                        continue
                    yield self.finding(
                        ctx,
                        stmt,
                        f"stress parameter {target.id!r} is a bare number; "
                        "declare its unit with a repro.units helper "
                        "(celsius/kelvin/volts/electron_volts) so the "
                        "value is range-checked and the unit is part of "
                        "the declaration",
                    )


#: The full registry, id -> rule class (read-only view for callers).
ALL_RULES: dict[str, type[Rule]] = _REGISTRY

#: The project-rule registry (populated by ``repro.devtools.concurrency``).
ALL_PROJECT_RULES: dict[str, type[ProjectRule]] = _PROJECT_REGISTRY
