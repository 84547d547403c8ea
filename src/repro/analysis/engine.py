"""reprolint engine: project model, suppressions, baseline, runner, output.

The analysis layer defends the repo's *conventions* — the invariants every
perf PR stands on (bit-exact ``*_loop`` references, the ``derive_seed``
seeding seam, the ``check_count`` contract, typed errors, lock discipline)
— by re-deriving them from the AST on every run instead of trusting
reviewer memory.  The engine is deliberately rule-agnostic:

* :class:`Project` parses every Python file under ``src/`` and ``tests/``
  once and hands rules read-only :class:`SourceFile` views (path, text,
  AST, per-line suppressions);
* a :class:`Rule` walks the project and yields :class:`Finding`\\ s —
  rule id, severity, file/line, message, fix hint, plus a *fingerprint*
  that is stable across unrelated edits (it names the enclosing scope and
  the offending token, never the line number);
* the engine then filters findings through per-line
  ``# reprolint: disable=RULE`` suppressions and the committed baseline
  file (grandfathered findings with a recorded reason), and renders the
  survivors as human text or JSON.

``python -m repro.cli lint`` is the front end; ``tests/test_analysis_self.py``
runs the same entry point over the live tree so the invariants are enforced
by the tier-1 suite, not just by CI.
"""

from __future__ import annotations

import ast
import json
import pathlib
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.errors import AnalysisError

#: Marker recognised in line comments: ``# reprolint: disable=RL001,RL005``
#: (or ``disable=all``) suppresses those rules on that physical line.
SUPPRESSION_MARKER = "reprolint:"

#: Baseline document version (the committed grandfather file).
BASELINE_VERSION = 1

#: Directories scanned relative to the project root.
SCAN_DIRS = ("src", "tests")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific site.

    ``fingerprint`` identifies the finding across unrelated edits: it is
    built from the rule id, the file, the enclosing scope's qualified name
    and the offending token — never the line number — so a baseline entry
    survives reformatting but dies with the code it grandfathers.
    """

    rule: str
    path: str  # project-root-relative POSIX path
    line: int
    message: str
    scope: str  # enclosing def/class qualname, "<module>" at top level
    token: str  # the offending symbol (what the fingerprint keys on)
    severity: str = "error"
    hint: str = ""

    @property
    def fingerprint(self) -> str:
        return f"{self.rule}:{self.path}:{self.scope}:{self.token}"

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} [{self.severity}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict:
        data = asdict(self)
        data["fingerprint"] = self.fingerprint
        return data


class SourceFile:
    """One parsed Python file plus its per-line rule suppressions."""

    def __init__(self, root: pathlib.Path, path: pathlib.Path) -> None:
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        try:
            self.tree = ast.parse(self.text, filename=str(path))
        except SyntaxError as exc:  # a broken file is itself a finding-stopper
            raise AnalysisError(f"{self.rel}: cannot parse: {exc}") from exc
        self.suppressions = _parse_suppressions(self.text)

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        return rules is not None and ("all" in rules or rule in rules)


def _parse_suppressions(text: str) -> dict[int, set[str]]:
    """``{line: {rule ids}}`` for every ``# reprolint: disable=...`` comment."""
    table: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        marker = line.find(SUPPRESSION_MARKER)
        if marker < 0 or "#" not in line[:marker]:
            continue
        directive = line[marker + len(SUPPRESSION_MARKER) :].strip()
        if not directive.startswith("disable="):
            continue
        rules = {
            rule.strip()
            for rule in directive[len("disable=") :].split(",")
            if rule.strip()
        }
        if rules:
            table[lineno] = rules
    return table


class Project:
    """All parsed sources of one tree, exposed to rules."""

    def __init__(self, root: pathlib.Path, files: Sequence[SourceFile]) -> None:
        self.root = root
        self.files = list(files)

    def under(self, *prefixes: str) -> list[SourceFile]:
        """Files whose root-relative path starts with any ``prefix``."""
        return [
            f for f in self.files if any(f.rel.startswith(p) for p in prefixes)
        ]


def load_project(root: "pathlib.Path | str") -> Project:
    """Parse every ``.py`` file under the scan dirs of ``root``."""
    root = pathlib.Path(root).resolve()
    if not root.is_dir():
        raise AnalysisError(f"project root {root} is not a directory")
    paths: list[pathlib.Path] = []
    for scan in SCAN_DIRS:
        base = root / scan
        if base.is_dir():
            paths.extend(sorted(base.rglob("*.py")))
    if not paths:
        raise AnalysisError(
            f"no Python files under {root} (looked in {', '.join(SCAN_DIRS)})"
        )
    return Project(root, [SourceFile(root, path) for path in paths])


def default_root() -> pathlib.Path:
    """The repository root this installed package belongs to.

    ``engine.py`` lives at ``<root>/src/repro/analysis/engine.py``; walking
    three parents up lands on ``<root>``.  Used as the CLI default so
    ``python -m repro.cli lint`` needs no arguments inside the repo.
    """
    return pathlib.Path(__file__).resolve().parents[3]


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
class Rule(ABC):
    """One invariant checker.  Subclasses set the class attributes and
    implement :meth:`run`, yielding findings; the engine owns suppression
    and baseline filtering so rules stay pure AST walks."""

    id: str = "RL000"
    title: str = ""
    hint: str = ""
    severity: str = "error"

    @abstractmethod
    def run(self, project: Project) -> Iterator[Finding]:
        """Yield every violation found in ``project``."""

    def finding(
        self,
        source: SourceFile,
        node: ast.AST,
        message: str,
        *,
        scope: str,
        token: str,
        hint: "str | None" = None,
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=source.rel,
            line=getattr(node, "lineno", 0),
            message=message,
            scope=scope,
            token=token,
            severity=self.severity,
            hint=self.hint if hint is None else hint,
        )


def default_rules() -> list[Rule]:
    """The registered rule set, in id order (the seam new rules plug into)."""
    from repro.analysis.kernel_pairs import KernelPairRule
    from repro.analysis.locks import LockDisciplineRule
    from repro.analysis.rules import (
        CountContractRule,
        SeedDisciplineRule,
        TypedErrorRule,
        WaitTimeoutRule,
    )

    return [
        SeedDisciplineRule(),
        KernelPairRule(),
        CountContractRule(),
        TypedErrorRule(),
        LockDisciplineRule(),
        WaitTimeoutRule(),
    ]


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
@dataclass
class Baseline:
    """Committed grandfather list: fingerprint → reason.

    Entries whitelist *intentional* violations (with a recorded reason) and
    park pre-existing findings a PR chooses not to fix yet.  The self-test
    additionally requires the file to be minimal: every entry must still
    match a live finding, so dead grandfathers cannot accumulate.
    """

    entries: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: "pathlib.Path | str") -> "Baseline":
        path = pathlib.Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise AnalysisError(f"cannot read baseline {path}: {exc}") from exc
        if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
            raise AnalysisError(
                f"{path}: unsupported baseline version "
                f"{data.get('version') if isinstance(data, dict) else data!r} "
                f"(expected {BASELINE_VERSION})"
            )
        entries: dict[str, str] = {}
        for entry in data.get("entries", []):
            if not isinstance(entry, dict) or "fingerprint" not in entry:
                raise AnalysisError(f"{path}: malformed baseline entry {entry!r}")
            entries[str(entry["fingerprint"])] = str(entry.get("reason", ""))
        return cls(entries)

    def to_dict(self) -> dict:
        return {
            "version": BASELINE_VERSION,
            "entries": [
                {"fingerprint": fingerprint, "reason": reason}
                for fingerprint, reason in sorted(self.entries.items())
            ],
        }

    def write(self, path: "pathlib.Path | str") -> None:
        pathlib.Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Outcome of one lint run, split by disposition."""

    new: list[Finding]
    baselined: list[Finding]
    suppressed: list[Finding]
    stale_baseline: list[str]  # fingerprints with no matching live finding

    @property
    def clean(self) -> bool:
        return not self.new

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "counts": {
                "new": len(self.new),
                "baselined": len(self.baselined),
                "suppressed": len(self.suppressed),
                "stale_baseline": len(self.stale_baseline),
            },
            "findings": [finding.to_dict() for finding in self.new],
            "baselined": [finding.to_dict() for finding in self.baselined],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
            "stale_baseline": list(self.stale_baseline),
        }

    def render(self) -> str:
        lines = [finding.render() for finding in self.new]
        summary = (
            f"reprolint: {len(self.new)} finding(s), "
            f"{len(self.baselined)} baselined, {len(self.suppressed)} suppressed"
        )
        if self.stale_baseline:
            summary += f", {len(self.stale_baseline)} stale baseline entr(y/ies)"
        lines.append(summary)
        return "\n".join(lines)


def lint_project(
    root: "pathlib.Path | str",
    *,
    rules: "Iterable[Rule] | None" = None,
    baseline: "Baseline | None" = None,
    only: "Iterable[str] | None" = None,
) -> LintReport:
    """Run the rule set over ``root`` and classify every finding.

    ``only`` restricts the run to the named rule ids (unknown ids raise —
    a typo must not silently lint nothing).
    """
    project = load_project(root)
    active = list(default_rules() if rules is None else rules)
    if only is not None:
        wanted = set(only)
        known = {rule.id for rule in active}
        unknown = wanted - known
        if unknown:
            raise AnalysisError(
                f"unknown rule id(s) {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        active = [rule for rule in active if rule.id in wanted]
    files_by_rel = {f.rel: f for f in project.files}

    new: list[Finding] = []
    baselined: list[Finding] = []
    suppressed: list[Finding] = []
    matched: set[str] = set()
    grandfathered = baseline.entries if baseline is not None else {}
    for rule in active:
        for finding in rule.run(project):
            source = files_by_rel.get(finding.path)
            if source is not None and source.suppressed(finding.rule, finding.line):
                suppressed.append(finding)
            elif finding.fingerprint in grandfathered:
                matched.add(finding.fingerprint)
                baselined.append(finding)
            else:
                new.append(finding)
    stale = sorted(set(grandfathered) - matched)
    order = lambda f: (f.path, f.line, f.rule)  # noqa: E731
    return LintReport(
        new=sorted(new, key=order),
        baselined=sorted(baselined, key=order),
        suppressed=sorted(suppressed, key=order),
        stale_baseline=stale,
    )


# ----------------------------------------------------------------------
# Shared AST helpers (used by several rules)
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> "str | None":
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name → fully dotted origin for every import in the module."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def resolve_dotted(name: str, aliases: dict[str, str]) -> str:
    """Expand the leading segment of ``name`` through the import table."""
    head, _, rest = name.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin


class ScopeTracker(ast.NodeVisitor):
    """Base visitor that maintains the enclosing def/class qualname."""

    def __init__(self) -> None:
        self._stack: list[str] = []

    @property
    def scope(self) -> str:
        return ".".join(self._stack) if self._stack else "<module>"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def _visit_function(self, node: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
