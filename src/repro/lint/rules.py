"""The domain rules: machine-checked ledger-safety and determinism.

Every rule encodes one invariant the repo's history shows is violated
silently (see each rule's docstring for the incident it descends from).
Rules register by code in the same name-registry idiom as
:mod:`repro.core.scheduling` and :mod:`repro.serve.admission`
(:func:`register_rule` / :func:`available_rules` / :func:`get_rule`),
so the CLI, CI gate and tests select them with a string.

=========  ===========================================================
``LED001``  Hardware work (``np.matmul``/``tensordot``/``einsum``/
            ``pad``/``vstack``/``.copy()``) in a ledger-owning module
            inside a function with no ``charge_*`` call reachable —
            the PR 1 free-padding / PR 3 ``mm_batch`` undercharge
            class.
``DET001``  Randomness outside a seeded stream (unseeded
            ``default_rng()``, module-level ``np.random.*``,
            ``random.*``, wall-clock ``time.*``) in ``repro.core`` /
            ``repro.serve`` — replay bit-identity depends on
            ``SeedSequence``-split streams.
``DET002``  Order-insensitive seed derivation (``sum(x.encode())``):
            anagram names collide onto one stream.
``REG001``  Registry discipline: no ``_REGISTRY[...]`` subscript
            outside the owning module, and lookups must funnel
            through a resolver that raises listing the known names.
``COST001``  A function taking a machine plus payload arrays reads
            payload *values* with no ``execute == "cost-only"`` /
            placeholder guard — breaks shape-only charge replay.
``COST002``  Makespan/split pricing in ``repro.core`` binding a
            cost-model parameter (``l``/``sqrt_m``/``units``/
            ``max_rows``/``complex_cost_factor``) to a numeric
            literal — split decisions must price from the machine
            object or they contradict the ledger off-preset.
``EXC001``  Bare or broad ``except`` in ``repro.core`` /
            ``repro.serve`` — swallows :class:`LedgerError` and
            conservation failures.
``OBS001``  Telemetry emission (``tracer.*``/``sampler.*``/
            ``monitor.*``) whose timestamp argument (``ts``/``start``/
            ``end``/…) is a literal, inline arithmetic, or a fresh
            call — trace timestamps must be *read* from the ledger
            clock (a name or attribute), never recomputed at the
            emission site.
``OBS002``  A ``.registry`` read or a ``.counter(``/``.gauge(``/
            ``.histogram(`` call in ``repro.core`` / ``repro.serve`` —
            serving code owns no metric; the tracer computes every
            metric from the run state it is handed.
=========  ===========================================================
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from .engine import Finding, LintContext

__all__ = [
    "LintRule",
    "UnchargedHardwareOp",
    "UnseededRandomness",
    "OrderInsensitiveSeed",
    "RegistryDiscipline",
    "CostOnlySafety",
    "HardcodedCostParameter",
    "BroadExcept",
    "RecomputedTraceTimestamp",
    "ServingCodeOwnsMetric",
    "register_rule",
    "get_rule",
    "available_rules",
]


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, '' when not a plain chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    if parts:  # e.g. something()['x'].attr — keep the attribute tail
        return "." + ".".join(reversed(parts))
    return ""


def call_target(call: ast.Call) -> str:
    return dotted_name(call.func)


def own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s subtree without descending into nested function
    or class definitions (lambdas *are* descended into: they run as part
    of the enclosing function's dataflow)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def all_functions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Every (qualname, def) in the module, nested defs included."""
    out: list[tuple[str, ast.AST]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                out.append((qual, child))
                visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    return {
        child: parent
        for parent in ast.walk(tree)
        for child in ast.iter_child_nodes(parent)
    }


# ----------------------------------------------------------------------
# rule base + registry
# ----------------------------------------------------------------------
class LintRule:
    """Base class: one invariant, one code, one :meth:`check` pass."""

    code = "XXX000"
    name = "abstract"
    description = ""

    def applies(self, ctx: LintContext) -> bool:
        """Is ``ctx.module`` inside this rule's scope?  Default: yes."""
        return True

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return ctx.finding(self.code, self.name, node, message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(code={self.code!r})"


_REGISTRY: dict[str, LintRule] = {}


def register_rule(rule: LintRule) -> LintRule:
    """Add a rule instance to the code registry (last write wins)."""
    _REGISTRY[rule.code] = rule
    return rule


def available_rules() -> tuple[str, ...]:
    """Registered rule codes, in registration order."""
    return tuple(_REGISTRY)


def get_rule(code: str | LintRule) -> LintRule:
    """Resolve a rule by code (or pass an instance through)."""
    if isinstance(code, LintRule):
        return code
    try:
        return _REGISTRY[code.upper()]
    except KeyError:
        raise ValueError(
            f"unknown lint rule {code!r}; available: {available_rules()}"
        ) from None


# ----------------------------------------------------------------------
# LED001 — uncharged hardware op
# ----------------------------------------------------------------------
_NUMPY_ALIASES = ("np", "numpy")
_HARDWARE_FUNCS = ("matmul", "tensordot", "einsum", "pad", "vstack")


class UnchargedHardwareOp(LintRule):
    """No hardware work without a ledger charge (the PR 1 / PR 3 class).

    Scope: *ledger-owning modules* — any ``repro`` module whose source
    mentions a ``charge_`` call (self-maintaining: a module starts being
    checked the moment it starts charging a ledger).  Within such a
    module, a function that performs one of the hardware/copy ops
    (``np.matmul``/``tensordot``/``einsum``/``pad``/``vstack`` or a
    zero-argument ``.copy()``) but has **no** ``charge_*`` call
    reachable — directly in its own body, or through a same-module
    helper it calls — is doing silently free work.
    """

    code = "LED001"
    name = "uncharged-hardware-op"
    description = (
        "hardware/copy op in a ledger-owning module with no charge_* call "
        "reachable in the same function"
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.module.startswith("repro.") and "charge_" in ctx.source

    @staticmethod
    def _is_hardware_call(node: ast.Call) -> str | None:
        target = call_target(node)
        parts = target.split(".")
        if (
            len(parts) == 2
            and parts[0] in _NUMPY_ALIASES
            and parts[1] in _HARDWARE_FUNCS
        ):
            return target
        if parts and parts[-1] == "copy" and not node.args and not node.keywords:
            # a zero-argument .copy() materialises a buffer-sized copy
            if isinstance(node.func, ast.Attribute):
                return f"{target or '<expr>.copy'}()"
        return None

    @staticmethod
    def _charges_directly(func: ast.AST) -> bool:
        for node in own_nodes(func):
            if isinstance(node, ast.Call):
                target = call_target(node)
                if target.rsplit(".", 1)[-1].startswith("charge_"):
                    return True
        return False

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        functions = all_functions(ctx.tree)
        charges: dict[str, bool] = {
            qual: self._charges_directly(func) for qual, func in functions
        }
        # bare-name view for resolving `helper(...)` / `self.helper(...)`
        by_bare: dict[str, list[str]] = {}
        for qual, _ in functions:
            by_bare.setdefault(qual.rsplit(".", 1)[-1], []).append(qual)
        calls_out: dict[str, set[str]] = {}
        for qual, func in functions:
            names: set[str] = set()
            for node in own_nodes(func):
                if isinstance(node, ast.Call):
                    target = call_target(node)
                    if target:
                        names.add(target.rsplit(".", 1)[-1])
            calls_out[qual] = names
        # fixpoint: a function charges if any same-module callee charges
        changed = True
        while changed:
            changed = False
            for qual, _ in functions:
                if charges[qual]:
                    continue
                for bare in calls_out[qual]:
                    if any(charges.get(c, False) for c in by_bare.get(bare, ())):
                        charges[qual] = True
                        changed = True
                        break
        for qual, func in functions:
            if charges[qual]:
                continue
            for node in own_nodes(func):
                if isinstance(node, ast.Call):
                    op = self._is_hardware_call(node)
                    if op is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"{op} in ledger-owning module {ctx.module} but no "
                            f"charge_* call is reachable in {qual}() — hardware "
                            "work must be priced through the ledger",
                        )


# ----------------------------------------------------------------------
# DET001 — randomness outside a seeded stream
# ----------------------------------------------------------------------
_SEEDED_RNG_OK = {
    "default_rng",
    "SeedSequence",
    "Generator",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}
_WALL_CLOCK = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
}


class UnseededRandomness(LintRule):
    """Replay bit-identity requires every random draw to come from a
    seeded, ``SeedSequence``-split stream (the :mod:`repro.serve.faults`
    discipline) and the model clock to be the ledger, never the wall.

    Fires on: ``np.random.default_rng()`` with no seed argument; any
    module-level ``np.random.*`` draw (global-state RNG); ``random.*``
    calls when the stdlib module is imported; wall-clock ``time.*``
    reads.  Scope: ``repro.core`` and ``repro.serve``, where charges and
    event order must replay from ``(workload seed, fault seed)`` alone.
    """

    code = "DET001"
    name = "unseeded-rng"
    description = (
        "unseeded or global RNG / wall-clock read in replay-critical modules"
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.module.startswith(("repro.core", "repro.serve"))

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        imports_random = False
        imports_time = False
        from_random: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        imports_random = True
                    if alias.name == "time":
                        imports_time = True
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    imports_random = True
                    from_random.update(a.asname or a.name for a in node.names)
                if node.module == "time":
                    imports_time = True
                    from_random.update(
                        a.asname or a.name
                        for a in node.names
                        if a.name in _WALL_CLOCK
                    )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = call_target(node)
            parts = target.split(".")
            if target.endswith(".default_rng") and parts[0] in _NUMPY_ALIASES:
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx,
                        node,
                        "np.random.default_rng() without a seed draws from OS "
                        "entropy — replay bit-identity is lost; derive the seed "
                        "from the run's SeedSequence",
                    )
            elif (
                len(parts) >= 3
                and parts[0] in _NUMPY_ALIASES
                and parts[1] == "random"
                and parts[2] not in _SEEDED_RNG_OK
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{target} uses numpy's global RNG state; draw from a "
                    "seeded generator instead",
                )
            elif imports_random and parts[0] == "random" and len(parts) > 1:
                yield self.finding(
                    ctx,
                    node,
                    f"{target} uses the stdlib global RNG; draw from a seeded "
                    "numpy generator instead",
                )
            elif imports_time and (
                (parts[0] == "time" and len(parts) == 2 and parts[1] in _WALL_CLOCK)
                or (len(parts) == 1 and parts[0] in from_random and parts[0] in _WALL_CLOCK)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{target} reads the wall clock; model time is the ledger "
                    "clock (CostLedger.clock) — wall time breaks replay",
                )


# ----------------------------------------------------------------------
# DET002 — order-insensitive seed derivation
# ----------------------------------------------------------------------
class OrderInsensitiveSeed(LintRule):
    """``sum(name.encode())`` is an anagram-insensitive digest: request
    types named ``"ab"`` and ``"ba"`` derive the same seed and silently
    share weights (the live bug this rule was written from, fixed in the
    same PR).  Seed material derived from a string must be
    order-sensitive — pass the byte *sequence* to
    ``np.random.SeedSequence(list(name.encode()))`` instead of its sum.
    """

    code = "DET002"
    name = "order-insensitive-seed"
    description = "seed derived via sum(...encode()) — anagram names collide"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.module.startswith("repro.")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Attribute)
                and node.args[0].func.attr == "encode"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "sum(<str>.encode()) is order-insensitive — anagram names "
                    "collide onto one seed; use "
                    "np.random.SeedSequence(list(name.encode()))",
                )


# ----------------------------------------------------------------------
# REG001 — registry discipline
# ----------------------------------------------------------------------
_PRIVATE_TABLE_RE = re.compile(r"^_[A-Z][A-Z0-9_]*$")


class RegistryDiscipline(LintRule):
    """The ``register``/``names``/``resolve`` idiom is only safe when the
    private table stays private: a ``_REGISTRY[...]`` subscript outside
    the owning module bypasses the resolver (and its error message), and
    a *lookup* inside the owning module must funnel through a
    ``try/except KeyError`` that re-raises listing the known names
    (``available_*()``) — the uniform error every registry test pins.
    """

    code = "REG001"
    name = "registry-discipline"
    description = (
        "private registry subscripted outside its owner, or a lookup that "
        "does not raise listing the known names"
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.module.startswith("repro.")

    @staticmethod
    def _owned_tables(tree: ast.Module) -> set[str]:
        owned: set[str] = set()
        for stmt in tree.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.target is not None:
                targets = [stmt.target]
            for t in targets:
                if isinstance(t, ast.Name) and _PRIVATE_TABLE_RE.match(t.id):
                    owned.add(t.id)
        return owned

    @staticmethod
    def _handler_lists_names(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise) and node.exc is not None:
                for sub in ast.walk(node.exc):
                    if isinstance(sub, ast.Call):
                        tail = call_target(sub).rsplit(".", 1)[-1]
                        if tail.startswith("available_") or tail in ("names", "keys"):
                            return True
        return False

    @staticmethod
    def _catches_keyerror(handler: ast.ExceptHandler) -> bool:
        t = handler.type
        if t is None:
            return True
        names = [t] if not isinstance(t, ast.Tuple) else list(t.elts)
        return any(
            isinstance(n, ast.Name) and n.id in ("KeyError", "Exception") for n in names
        )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        owned = self._owned_tables(ctx.tree)
        parents = parent_map(ctx.tree)
        tries = [n for n in ast.walk(ctx.tree) if isinstance(n, ast.Try)]
        guarded: set[ast.AST] = set()
        for t in tries:
            if any(
                self._catches_keyerror(h) and self._handler_lists_names(h)
                for h in t.handlers
            ):
                for stmt in t.body:
                    guarded.update(ast.walk(stmt))

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Subscript):
                continue
            value = node.value
            if isinstance(value, ast.Attribute) and _PRIVATE_TABLE_RE.match(value.attr):
                base = dotted_name(value.value)
                if base not in ("self", "cls"):
                    yield self.finding(
                        ctx,
                        node,
                        f"subscript of foreign private registry "
                        f"{dotted_name(value)!r}: go through the owning "
                        "module's register/resolve functions",
                    )
            elif isinstance(value, ast.Name) and _PRIVATE_TABLE_RE.match(value.id):
                if value.id not in owned:
                    yield self.finding(
                        ctx,
                        node,
                        f"subscript of registry {value.id!r} outside its owning "
                        "module: go through its register/resolve functions",
                    )
                elif isinstance(node.ctx, ast.Load):
                    # owner-side lookup: must raise listing the names
                    if node not in guarded:
                        # direct assignments in register_* are Store ctx;
                        # only Load lookups need the uniform error
                        parent = parents.get(node)
                        yield self.finding(
                            ctx,
                            parent if parent is not None else node,
                            f"lookup of {value.id!r} must go through a "
                            "try/except KeyError that raises listing the "
                            "known names (available_*()), so unknown names "
                            "fail with the uniform registry error",
                        )


# ----------------------------------------------------------------------
# COST001 — cost-only safety
# ----------------------------------------------------------------------
_MACHINE_PARAMS = ("machine", "tcu")
_NP_VALUE_READS = {
    "allclose",
    "isclose",
    "array_equal",
    "array_equiv",
    "argmax",
    "argmin",
    "nonzero",
    "flatnonzero",
    "count_nonzero",
    "unique",
    "isin",
    "any",
    "all",
}
_METHOD_VALUE_READS = {"item", "any", "all", "argmax", "argmin", "nonzero"}
_GUARD_CALLS = {"placeholder", "_payload"}


class CostOnlySafety(LintRule):
    """Charges must be a function of shapes, never of payload values:
    that is what lets ``execute="cost-only"`` machines serve O(1)
    placeholder arrays and replay ledgers bit-identically (PR 2).  A
    function that takes a machine *and* payload arrays and branches on
    payload values — with no ``execute == "cost-only"`` guard, no
    placeholder substitution and no explicit cost-only rejection — will
    crash or (worse) diverge silently when a placeholder flows in.
    """

    code = "COST001"
    name = "cost-only-safety"
    description = (
        "value-dependent read in a machine+payload function without a "
        "cost-only/placeholder guard"
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.module.startswith("repro.")

    @staticmethod
    def _takes_machine(func: ast.AST) -> bool:
        args = getattr(func, "args", None)
        if args is None:
            return False
        names = [a.arg for a in args.posonlyargs + args.args]
        return any(n in _MACHINE_PARAMS for n in names) and len(names) >= 2

    @staticmethod
    def _is_guarded(func: ast.AST) -> bool:
        for node in own_nodes(func):
            if isinstance(node, ast.Attribute) and node.attr == "execute":
                return True
            if isinstance(node, ast.Call):
                tail = call_target(node).rsplit(".", 1)[-1]
                if tail in _GUARD_CALLS:
                    return True
        return False

    @staticmethod
    def _value_read(node: ast.Call) -> str | None:
        target = call_target(node)
        parts = target.split(".")
        if len(parts) >= 2 and parts[0] in _NUMPY_ALIASES:
            if parts[1] == "linalg" or (len(parts) == 2 and parts[1] in _NP_VALUE_READS):
                return target
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _METHOD_VALUE_READS
            and parts[0] not in _NUMPY_ALIASES
        ):
            return f"{target or '<expr>.' + node.func.attr}()"
        return None

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for qual, func in all_functions(ctx.tree):
            if not self._takes_machine(func) or self._is_guarded(func):
                continue
            for node in own_nodes(func):
                if isinstance(node, ast.Call):
                    read = self._value_read(node)
                    if read is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"{read} reads payload values in {qual}(), which "
                            "takes a machine but has no execute=='cost-only' "
                            "or placeholder guard — charges must stay "
                            "shape-only (or reject cost-only explicitly)",
                        )


# ----------------------------------------------------------------------
# COST002 — cost parameters come from the machine, never literals
# ----------------------------------------------------------------------
_COST_PARAM_NAMES = {
    "ell",
    "l",
    "sqrt_m",
    "s",
    "max_rows",
    "units",
    "complex_cost_factor",
}
_COST_FUNC_RE = re.compile(r"split|makespan|modelled|cost", re.IGNORECASE)
_MACHINE_ATTR_FOR = {"l": "ell", "s": "sqrt_m"}


def _numeric_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


class HardcodedCostParameter(LintRule):
    """Makespan/split pricing must read its cost parameters —
    ``l``, ``sqrt_m``, ``units``, ``max_rows``,
    ``complex_cost_factor`` — from the machine object, never from
    literal constants (PR 10).  A literal that happens to match one
    preset silently mis-prices every other machine: the auto-splitter
    would then pick split factors the batch executor's ledger
    contradicts, and the modelled-vs-ledgered reconciliation gate
    breaks on exactly the configs the literal didn't anticipate.  The
    clean idiom is ``ell = machine.ell`` / ``s = machine.sqrt_m``.
    """

    code = "COST002"
    name = "hardcoded-cost-parameter"
    description = (
        "cost-model parameter bound to a numeric literal in makespan/"
        "split code instead of being read from the machine"
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.module.startswith("repro.core")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for qual, func in all_functions(ctx.tree):
            if not _COST_FUNC_RE.search(func.name):
                continue
            args = getattr(func, "args", None)
            if args is not None:
                params = args.posonlyargs + args.args + args.kwonlyargs
                defaults = args.defaults + args.kw_defaults
                names = [p.arg for p in params]
                padded = [None] * (len(names) - len(defaults)) + list(defaults)
                for pname, default in zip(names, padded):
                    if (
                        pname in _COST_PARAM_NAMES
                        and default is not None
                        and _numeric_literal(default)
                    ):
                        yield self.finding(
                            ctx,
                            default,
                            f"parameter {pname}= in {qual}() defaults to a "
                            "numeric literal; cost-model parameters must "
                            "come from the machine object (e.g. machine."
                            f"{_MACHINE_ATTR_FOR.get(pname, pname)})",
                        )
            for node in own_nodes(func):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                    value = node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                    value = node.value
                else:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in _COST_PARAM_NAMES
                        and _numeric_literal(value)
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"{target.id} = <literal> in {qual}() hardcodes a "
                            "cost-model parameter; read it from the machine "
                            f"(e.g. {target.id} = machine."
                            f"{_MACHINE_ATTR_FOR.get(target.id, target.id)}) "
                            "so split decisions price every configuration",
                        )


# ----------------------------------------------------------------------
# EXC001 — no bare/broad except in core + serve
# ----------------------------------------------------------------------
class BroadExcept(LintRule):
    """A bare/broad ``except`` in the accounting or serving kernel can
    swallow :class:`~repro.core.ledger.LedgerError` — the very signal
    the conservation checks raise when charges go missing — turning a
    hard replay-parity failure into silent divergence.
    """

    code = "EXC001"
    name = "broad-except"
    description = "bare or broad except in repro.core / repro.serve"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.module.startswith(("repro.core", "repro.serve"))

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare 'except:' swallows LedgerError and conservation "
                    "failures; catch the specific exception",
                )
                continue
            names = (
                list(node.type.elts)
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            broad = [
                n.id
                for n in names
                if isinstance(n, ast.Name) and n.id in ("Exception", "BaseException")
            ]
            if broad:
                yield self.finding(
                    ctx,
                    node,
                    f"broad 'except {broad[0]}' swallows LedgerError and "
                    "conservation failures; catch the specific exception",
                )


# ----------------------------------------------------------------------
# OBS001 — trace timestamps must come from the ledger clock
# ----------------------------------------------------------------------
_OBS_RECEIVERS = {"tr", "tracer", "sampler", "monitor", "obs"}
_OBS_RECEIVER_SUFFIXES = ("_tracer", "_sampler", "_monitor")
_OBS_TS_KWARGS = {"ts", "start", "end", "at", "now", "clock"}


class RecomputedTraceTimestamp(LintRule):
    """Telemetry is only bit-replayable when every event's timestamp is
    the ledger clock *as charged* — the same float the engine's
    accounting folded, read from a variable, never re-derived at the
    emission site.  A literal, an inline ``BinOp``/``UnaryOp``, or a
    fresh call as the ``ts``/``start``/``end`` argument of a tracer /
    sampler / monitor emission re-computes time outside the ledger's
    fold order: the trace then drifts from the charges by float
    re-association and the span-reconciliation gate
    (``sum(segments) == busy_time`` bit-exact) silently breaks.  Bind
    the timestamp to a name first (``lvl_end = ...; tr.level_span(...,
    end=lvl_end)``) so trace and ledger share one float.
    """

    code = "OBS001"
    name = "recomputed-trace-timestamp"
    description = (
        "telemetry emission timestamp recomputed inline instead of read "
        "from the ledger clock"
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.module.startswith(("repro.core", "repro.serve"))

    @staticmethod
    def _is_obs_receiver(call: ast.Call) -> str | None:
        if not isinstance(call.func, ast.Attribute):
            return None
        base = dotted_name(call.func.value)
        if not base:
            return None
        tail = base.rsplit(".", 1)[-1].lower()
        if tail in _OBS_RECEIVERS or tail.endswith(_OBS_RECEIVER_SUFFIXES):
            return base
        return None

    @staticmethod
    def _recomputed(value: ast.expr) -> str | None:
        if isinstance(value, ast.Constant) and isinstance(value.value, (int, float)):
            return "a numeric literal"
        if isinstance(value, (ast.BinOp, ast.UnaryOp)):
            return "inline arithmetic"
        if isinstance(value, ast.Call):
            return "a fresh call"
        return None

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            receiver = self._is_obs_receiver(node)
            if receiver is None:
                continue
            for kw in node.keywords:
                if kw.arg not in _OBS_TS_KWARGS:
                    continue
                how = self._recomputed(kw.value)
                if how is not None:
                    yield self.finding(
                        ctx,
                        kw.value,
                        f"{receiver}.{node.func.attr}({kw.arg}=...) passes "
                        f"{how} as a timestamp; read the ledger clock into a "
                        "name and pass that name, so the trace carries the "
                        "exact float the ledger charged",
                    )


# ----------------------------------------------------------------------
# OBS002 — serving code owns no metric
# ----------------------------------------------------------------------
class ServingCodeOwnsMetric(LintRule):
    """When the serving engine kept metric handles it updated them per
    event in sampled runs and recomputed them at the end of samplerless
    runs, and the two paths drifted apart.  Every metric is the
    :class:`~repro.obs.tracer.Tracer`'s, computed from the run state the
    engine hands it; a registry read or metric registration in the core
    or the serving layer reopens a second path.
    """

    code = "OBS002"
    name = "serving-code-owns-metric"
    description = "metric registry access in repro.core / repro.serve"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.module.startswith(("repro.core", "repro.serve"))

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr == "registry":
                if isinstance(node.ctx, ast.Load):
                    yield self._owns(ctx, node, f"{dotted_name(node)} reads a registry")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge", "histogram")
            ):
                yield self._owns(ctx, node, f".{node.func.attr}(...) registers a metric")

    def _owns(self, ctx: LintContext, node: ast.AST, what: str) -> Finding:
        return self.finding(
            ctx, node, f"{what}: serving code owns no metric; hand the tracer the run state"
        )


for _rule in (
    UnchargedHardwareOp(),
    UnseededRandomness(),
    OrderInsensitiveSeed(),
    RegistryDiscipline(),
    CostOnlySafety(),
    HardcodedCostParameter(),
    BroadExcept(),
    RecomputedTraceTimestamp(),
    ServingCodeOwnsMetric(),
):
    register_rule(_rule)
