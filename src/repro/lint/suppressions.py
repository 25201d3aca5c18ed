"""Inline suppression comments.

A finding on a line carrying ``# lint: ignore[SIM001]`` (or a
comma-separated list, or a bare ``# lint: ignore`` covering every rule)
is silenced at that line.  ``# lint: skip-file`` within the first ten
lines exempts the whole file — reserved for generated code and test
fixtures that violate rules on purpose.

Suppressions silence, they do not erase: the runner still reports how
many findings each file suppressed, so a rule that never fires live can
still be audited.

A third directive, ``# lint: guarded-by[<lock>]``, is not a
suppression: it *documents* which lock protects the mutable state
declared on that line.  SIM012 treats it as the required annotation for
module-level mutable state in threaded modules, and the runtime lock
witness (:mod:`repro.lint.lockwatch`) enforces it dynamically via
:func:`~repro.lint.lockwatch.guard`.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, Optional

#: Matches ``# lint: ignore`` with an optional bracketed rule list.
_IGNORE_RE = re.compile(
    r"#\s*lint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*lint:\s*skip-file\b")
#: Matches ``# lint: guarded-by[<lock name>]`` (dotted names allowed).
_GUARD_RE = re.compile(
    r"#\s*lint:\s*guarded-by\[(?P<lock>[A-Za-z0-9_.]+)\]")

#: Sentinel rule set meaning "every rule".
ALL_RULES: FrozenSet[str] = frozenset({"*"})

#: How many leading lines may carry a ``skip-file`` directive.
SKIP_FILE_WINDOW = 10


class SuppressionMap:
    """Per-line suppression directives parsed from one source file."""

    def __init__(self, source: str) -> None:
        self._by_line: Dict[int, FrozenSet[str]] = {}
        self._guards: Dict[int, str] = {}
        self.skip_file = False
        lines: List[str] = source.splitlines()
        for lineno, text in enumerate(lines, start=1):
            if lineno <= SKIP_FILE_WINDOW and _SKIP_FILE_RE.search(text):
                self.skip_file = True
            guard = _GUARD_RE.search(text)
            if guard is not None:
                self._guards[lineno] = guard.group("lock")
            match = _IGNORE_RE.search(text)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                self._by_line[lineno] = ALL_RULES
            else:
                parsed = frozenset(
                    r.strip().upper() for r in rules.split(",") if r.strip())
                self._by_line[lineno] = parsed or ALL_RULES

    def covers(self, line: int, rule_id: str) -> bool:
        """Whether ``rule_id`` is suppressed at ``line``."""
        if self.skip_file:
            return True
        rules = self._by_line.get(line)
        if rules is None:
            return False
        return rules is ALL_RULES or "*" in rules or rule_id in rules

    def guard_at(self, line: int) -> Optional[str]:
        """The ``guarded-by`` lock named at ``line`` (None = none)."""
        return self._guards.get(line)

    @property
    def n_directives(self) -> int:
        """Number of inline ignore directives in the file."""
        return len(self._by_line)
