"""reprolint — the repo's AST-based invariant linter.

Mechanically defends the conventions the PR 1–7 performance work stands
on: the seeding seam (RL001), bit-exact ``*_loop`` kernel references
(RL002), the GRNG count contract (RL003), the typed-error hierarchy
(RL004), serving/obs lock discipline (RL005), and bounded serving
waits (RL006).  See
``docs/ANALYSIS.md`` for the rule catalogue and the suppression/baseline
workflow, and ``python -m repro.cli lint`` for the front end.
"""

from repro.analysis.engine import (
    Baseline,
    Finding,
    LintReport,
    Project,
    Rule,
    default_root,
    default_rules,
    lint_project,
    load_project,
)

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "Project",
    "Rule",
    "default_root",
    "default_rules",
    "lint_project",
    "load_project",
]
