"""Inline suppression comments: ``# repro: noqa[RULE, ...] reason``.

A finding is suppressed when the physical line it points at (or the
line a multi-line statement starts on) carries a marker naming its
rule id.  Bare ``# repro: noqa`` without a rule list is *not*
honoured — suppressions must say what they suppress, and by repo
convention should state why::

    perf.bump(sweep_counter)  # repro: noqa[RPR006] caller passes a registered name

The marker grammar is deliberately rigid (``repro: noqa`` followed by
a bracketed, comma-separated rule list) so a typo fails loudly as an
unsuppressed finding rather than silently suppressing everything.
"""

from __future__ import annotations

import re

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<rules>[A-Z0-9,\s]+)\]"
)


def suppressed_rules(source_line: str) -> frozenset[str]:
    """Rule ids suppressed by inline markers on ``source_line``."""
    rules: set[str] = set()
    for match in _NOQA_RE.finditer(source_line):
        for rule in match.group("rules").split(","):
            rule = rule.strip()
            if rule:
                rules.add(rule)
    return frozenset(rules)


def build_suppression_map(source: str) -> dict[int, frozenset[str]]:
    """Map 1-based line number -> rule ids suppressed on that line."""
    table: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "noqa" not in line:
            continue
        rules = suppressed_rules(line)
        if rules:
            table[lineno] = rules
    return table
