"""Per-file AST rules: seed discipline, count contract, typed errors.

Each rule here is a pure walk over one :class:`~repro.analysis.engine.SourceFile`
at a time; the cross-file rules live in :mod:`repro.analysis.kernel_pairs`
(RL002) and :mod:`repro.analysis.locks` (RL005).
"""

from __future__ import annotations

import ast
import inspect
from typing import Iterator

from repro import errors as _errors
from repro.analysis.engine import (
    Finding,
    Project,
    Rule,
    ScopeTracker,
    SourceFile,
    dotted_name,
    import_aliases,
    resolve_dotted,
)

#: Library code (rules below scope themselves to these prefixes).
LIBRARY_PREFIX = "src/repro/"

#: The one module allowed to construct raw NumPy generators: the audited
#: seeding seam every other component routes through.
SEEDING_SEAM = "src/repro/utils/seeding.py"


# ----------------------------------------------------------------------
# RL001 — seed discipline
# ----------------------------------------------------------------------
#: stdlib ``random`` entry points that mint or mutate hidden global state.
_STDLIB_RANDOM = "random."
#: Wall-clock entropy sources (fine for *measuring*, banned for seeding;
#: ``perf_counter``/``monotonic`` are therefore not listed).
_CLOCK_CALLS = {"time.time", "time.time_ns"}


class SeedDisciplineRule(Rule):
    """RL001: all randomness flows through the ``utils.seeding`` seam.

    Since PR 1 every stochastic component takes an explicit integer seed
    and derives child streams with ``derive_seed``/``spawn_generator``;
    the serving tier's bit-for-bit replay and the experiment artifact
    cache's content keys both stand on it.  A raw
    ``np.random.default_rng()``, a stdlib ``random.*`` call, or a
    wall-clock seed anywhere in library code silently breaks that chain,
    so construction of any such source outside ``utils/seeding.py`` is an
    error.  Intentional exceptions (the ``NumpyGrng`` software-reference
    generator) are grandfathered in the committed baseline with a reason.
    """

    id = "RL001"
    title = "seed discipline"
    hint = (
        "route randomness through repro.utils.seeding "
        "(derive_seed / spawn_generator / generator_from_seed)"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for source in project.under(LIBRARY_PREFIX):
            if source.rel == SEEDING_SEAM:
                continue
            yield from self._check_file(source)

    def _check_file(self, source: SourceFile) -> Iterator[Finding]:
        aliases = import_aliases(source.tree)
        rule = self

        class Visitor(ScopeTracker):
            def __init__(self) -> None:
                super().__init__()
                self.found: list[Finding] = []

            def visit_Call(self, node: ast.Call) -> None:
                name = dotted_name(node.func)
                if name is not None:
                    resolved = resolve_dotted(name, aliases)
                    problem = _banned_entropy(resolved)
                    if problem is not None:
                        self.found.append(
                            rule.finding(
                                source,
                                node,
                                f"{problem} bypasses the seeding seam",
                                scope=self.scope,
                                token=problem,
                            )
                        )
                self.generic_visit(node)

        visitor = Visitor()
        visitor.visit(source.tree)
        yield from visitor.found


def _banned_entropy(resolved: str) -> "str | None":
    """The canonical banned-call name, or ``None`` if the call is fine."""
    if resolved in _CLOCK_CALLS:
        return resolved
    segments = resolved.split(".")
    # numpy.random.<anything> — default_rng, RandomState, and every legacy
    # global-state sampler (np.random.seed / rand / normal / ...).
    if "random" in segments[:-1] and segments[0] in ("numpy", "np"):
        return f"numpy.random.{segments[-1]}"
    # stdlib random module (resolved through the import table, so both
    # ``random.random()`` and ``from random import choice`` are caught).
    if resolved.startswith(_STDLIB_RANDOM) and len(segments) == 2:
        return resolved
    return None


# ----------------------------------------------------------------------
# RL003 — count contract
# ----------------------------------------------------------------------
#: GRNG entry points covered by the contract (PR 1's uniform count rule:
#: validate the request, or delegate to an entry point that does).
_CONTRACT_METHODS = {
    "generate",
    "generate_codes",
    "fill",
    "generate_loop",
    "generate_codes_loop",
}

#: Validators that satisfy the contract directly.
_CONTRACT_CHECKS = {
    "check_count",
    "_check_count",
    "_check_out",
}


class CountContractRule(Rule):
    """RL003: GRNG entry points honor the ``check_count`` contract.

    Every ``generate*``/``fill*`` override on a GRNG class must validate
    its request (``check_count`` and friends), delegate to an entry point
    that does (``self.generate_codes(...)``, ``super().fill(...)``), or
    unconditionally raise (capability-gap stubs).  The contract is what
    makes ``count == 0`` a uniform empty request — which the quantized
    stack uses as its free capability probe — and what keeps negative or
    non-integral counts from reshaping garbage downstream.
    """

    id = "RL003"
    title = "count contract"
    hint = (
        "call check_count/_check_count (or _check_out for fill), or "
        "delegate to a checked entry point"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for source in project.under(LIBRARY_PREFIX):
            in_grng = source.rel.startswith("src/repro/grng/")
            for class_node in _classes(source.tree):
                if not in_grng and not _is_grng_class(class_node):
                    continue
                for method in _methods(class_node):
                    if method.name not in _CONTRACT_METHODS:
                        continue
                    if _satisfies_count_contract(method):
                        continue
                    yield self.finding(
                        source,
                        method,
                        f"{class_node.name}.{method.name} neither validates "
                        "its count nor delegates to a checked entry point",
                        scope=f"{class_node.name}.{method.name}",
                        token=method.name,
                    )


def _classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def _methods(class_node: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for node in class_node.body:
        if isinstance(node, ast.FunctionDef):
            yield node


def _is_grng_class(class_node: ast.ClassDef) -> bool:
    """A generator class by name or ancestry (``...Grng`` naming rule)."""
    if "Grng" in class_node.name:
        return True
    for base in class_node.bases:
        name = dotted_name(base)
        if name is not None and "Grng" in name:
            return True
    return False


def _is_abstract(method: ast.FunctionDef) -> bool:
    for decorator in method.decorator_list:
        name = dotted_name(decorator)
        if name is not None and name.split(".")[-1] in (
            "abstractmethod",
            "abstractproperty",
        ):
            return True
    return False


def _body_only_raises(method: ast.FunctionDef) -> bool:
    """True when the method unconditionally raises (capability stub)."""
    body = list(method.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]  # docstring
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def _satisfies_count_contract(method: ast.FunctionDef) -> bool:
    if _is_abstract(method) or _body_only_raises(method):
        return True
    for node in ast.walk(method):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in _CONTRACT_CHECKS:
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in _CONTRACT_CHECKS:
                return True
            # Delegation: self.<contract method>(...) or super().<...>(...)
            if func.attr in _CONTRACT_METHODS:
                target = func.value
                if isinstance(target, ast.Name) and target.id == "self":
                    return True
                if (
                    isinstance(target, ast.Call)
                    and isinstance(target.func, ast.Name)
                    and target.func.id == "super"
                ):
                    return True
    return False


# ----------------------------------------------------------------------
# RL004 — typed-error discipline
# ----------------------------------------------------------------------
def _library_error_names() -> frozenset[str]:
    """Every exception class exported by :mod:`repro.errors` — introspected
    so a new error type is allowed the moment it is defined there."""
    names = {
        name
        for name, obj in vars(_errors).items()
        if inspect.isclass(obj) and issubclass(obj, BaseException)
    }
    return frozenset(names)


#: stdlib exceptions library code may raise besides the ``errors.py``
#: hierarchy: ``NotImplementedError`` is the idiomatic abstract-seam
#: marker and deliberately *not* a ``ReproError`` (a missing override is a
#: programming error, not a library failure callers should catch).
_ALLOWED_STDLIB = frozenset({"NotImplementedError"})


class TypedErrorRule(Rule):
    """RL004: library code raises only the ``errors.py`` hierarchy.

    ``except ReproError`` is the documented way to catch library failures
    without swallowing programming errors; a stray ``raise ValueError``
    in ``src/repro/`` silently escapes that contract.  Re-raises (bare
    ``raise``, ``raise err`` of a bound exception, ``raise self._error``)
    and ``NotImplementedError`` abstract seams are allowed.
    """

    id = "RL004"
    title = "typed-error discipline"
    hint = "raise a repro.errors type (add one there if no existing type fits)"

    def __init__(self) -> None:
        self._allowed = _library_error_names() | _ALLOWED_STDLIB

    def run(self, project: Project) -> Iterator[Finding]:
        for source in project.under(LIBRARY_PREFIX):
            yield from self._check_file(source)

    def _check_file(self, source: SourceFile) -> Iterator[Finding]:
        rule = self

        class Visitor(ScopeTracker):
            def __init__(self) -> None:
                super().__init__()
                self.found: list[Finding] = []

            def visit_Raise(self, node: ast.Raise) -> None:
                name = _raised_class_name(node)
                if name is not None and name not in rule._allowed:
                    self.found.append(
                        rule.finding(
                            source,
                            node,
                            f"raises {name}, which is not part of the "
                            "repro.errors hierarchy",
                            scope=self.scope,
                            token=name,
                        )
                    )
                self.generic_visit(node)

        visitor = Visitor()
        visitor.visit(source.tree)
        yield from visitor.found


# ----------------------------------------------------------------------
# RL006 — bounded waits in the serving tier
# ----------------------------------------------------------------------
#: Blocking-wait methods covered by the no-hang invariant, mapped to the
#: number of positional arguments that means a timeout was supplied
#: (``Event.wait(t)`` / ``Condition.wait(t)`` → 1, ``wait_for(pred, t)`` → 2).
_WAIT_METHODS = {"wait": 1, "wait_for": 2}

#: Scope of the invariant: the serving tier, whose contract is that every
#: ticket resolves (result or typed error) — an unbounded wait anywhere in
#: it is a latent hang under a crashed peer.
SERVING_PREFIX = "src/repro/serving/"


class WaitTimeoutRule(Rule):
    """RL006: every blocking wait in ``serving/`` is bounded.

    The resilience layer promises *no request hangs*: a dead worker, a
    vanished single-flight builder, or a wedged queue must surface as a
    typed error, never an indefinite block.  That only holds if no code
    path in the serving tier parks on ``Event.wait()`` /
    ``Condition.wait()`` / ``Condition.wait_for()`` without a timeout —
    bounded waits re-check state each interval and can notice the peer
    died.  Passing a literal ``None`` timeout is flagged too (it is the
    unbounded form in disguise); forwarding a variable is accepted, since
    the bound is then the caller's declared choice.  Intentional
    exceptions belong in the committed baseline with a written reason.
    """

    id = "RL006"
    title = "bounded waits in serving"
    hint = (
        "pass a timeout (and loop) so a vanished peer cannot hang this "
        "wait forever; baseline with a reason if unbounded is intentional"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for source in project.under(SERVING_PREFIX):
            yield from self._check_file(source)

    def _check_file(self, source: SourceFile) -> Iterator[Finding]:
        rule = self

        class Visitor(ScopeTracker):
            def __init__(self) -> None:
                super().__init__()
                self.found: list[Finding] = []

            def visit_Call(self, node: ast.Call) -> None:
                if _is_unbounded_wait(node):
                    token = dotted_name(node.func) or node.func.attr
                    self.found.append(
                        rule.finding(
                            source,
                            node,
                            f"{token}() blocks without a timeout "
                            "(serving no-hang invariant)",
                            scope=self.scope,
                            token=token,
                        )
                    )
                self.generic_visit(node)

        visitor = Visitor()
        visitor.visit(source.tree)
        yield from visitor.found


def _is_unbounded_wait(node: ast.Call) -> bool:
    """Whether ``node`` is an ``x.wait()``-family call with no usable timeout."""
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in _WAIT_METHODS:
        return False
    needed = _WAIT_METHODS[func.attr]
    if any(isinstance(arg, ast.Starred) for arg in node.args):
        return False  # dynamic spread: assume the timeout rides in it
    timeout: ast.expr | None = None
    if len(node.args) >= needed:
        timeout = node.args[needed - 1]
    for keyword in node.keywords:
        if keyword.arg == "timeout":
            timeout = keyword.value
        elif keyword.arg is None:  # **kwargs spread: assume it carries one
            return False
    if timeout is None:
        return True
    # An explicit literal None is the unbounded form in disguise.
    return isinstance(timeout, ast.Constant) and timeout.value is None


def _raised_class_name(node: ast.Raise) -> "str | None":
    """Class name of ``raise X(...)``/``raise X`` when X is a static class
    reference; ``None`` for bare/dynamic re-raises (which are allowed)."""
    exc = node.exc
    if exc is None:  # bare re-raise
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    name = dotted_name(exc)
    if name is None:  # computed expression — dynamic, allowed
        return None
    tail = name.split(".")[-1]
    is_self_attr = name.startswith("self.")
    # Exception classes are CamelCase by convention and builtins; a
    # lowercase name is a bound exception object being re-raised.
    if is_self_attr or not tail[:1].isupper():
        return None
    # A CamelCase raise resolves by its tail: plain names, builtins, and
    # attribute raises (errors.ConfigurationError) all land here.
    return tail
