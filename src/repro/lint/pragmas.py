"""Inline suppression pragmas, with unused-suppression detection.

Syntax (one comment, same physical line as the finding it silences)::

    risky_thing()  # repro-lint: disable=rule-id
    other_thing()  # repro-lint: disable=rule-a,rule-b -- one-line reason

The reason after ``--`` is free text for the reader; the checker only
parses the id list.  A pragma suppresses findings of the named rules
*on its own line* — scoped deliberately tightly, so an exemption can
never silently widen to the rest of a function.

Two failure modes are findings rather than no-ops:

* a pragma naming a rule id that is not registered (typo, or a rule
  that was renamed) — the suppression would otherwise silence nothing
  forever;
* a pragma whose named rule produced no finding on that line (the
  offending code was fixed or moved) — stale exemptions must be
  deleted, not accumulated.

Both are emitted under the reserved ``unused-suppression`` id, which
is itself not suppressible.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from .framework import UNUSED_SUPPRESSION, Finding

#: Pragma grammar (see the module docstring); the reason clause after
#: ``--`` is optional free text.
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_.-]+(?:\s*,\s*[A-Za-z0-9_.-]+)*)"
    r"(?:\s*--\s*(?P<reason>.*))?"
)


@dataclass(frozen=True)
class Pragma:
    """One parsed suppression comment."""

    line: int
    col: int
    rules: Tuple[str, ...]
    reason: str


def scan_pragmas(source: str) -> List[Pragma]:
    """All suppression pragmas in *source*, via ``tokenize``.

    Tokenizing (rather than substring-scanning lines) means pragma text
    inside string literals is never mistaken for a real pragma.
    Sources too broken to tokenize yield no pragmas — the runner
    reports the parse failure separately.
    """
    pragmas: List[Pragma] = []
    if "repro-lint" not in source:
        return pragmas  # no comment can match; skip the tokenizer
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if match is None:
                continue
            rules = tuple(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            pragmas.append(
                Pragma(
                    line=tok.start[0],
                    col=tok.start[1] + 1,
                    rules=rules,
                    reason=(match.group("reason") or "").strip(),
                )
            )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    return pragmas


def apply_pragmas(
    path: str,
    findings: List[Finding],
    pragmas: List[Pragma],
    known_rules: Set[str],
    active_rules: Set[str],
) -> Iterator[Finding]:
    """Suppressed-and-audited view of one file's findings.

    Yields the findings that survive suppression, then one
    ``unused-suppression`` finding per pragma entry that either names
    an unknown rule or silenced nothing.  *known_rules* is the full
    registry (anything outside it is a typo); *active_rules* is the
    subset that actually ran — staleness is only judged for those, so
    a ``--rule``-filtered run never mistakes another rule's live
    pragma for a stale one.
    """
    disabled: Dict[Tuple[int, str], bool] = {}
    for pragma in pragmas:
        for rule_id in pragma.rules:
            disabled.setdefault((pragma.line, rule_id), False)

    for finding in findings:
        key = (finding.line, finding.rule)
        if key in disabled:
            disabled[key] = True
            continue
        yield finding

    for pragma in pragmas:
        for rule_id in pragma.rules:
            if rule_id not in known_rules:
                yield Finding(
                    rule=UNUSED_SUPPRESSION,
                    path=path,
                    line=pragma.line,
                    col=pragma.col,
                    message=(
                        f"pragma names unknown rule {rule_id!r}; "
                        "it suppresses nothing"
                    ),
                )
            elif rule_id in active_rules and not disabled[(pragma.line, rule_id)]:
                yield Finding(
                    rule=UNUSED_SUPPRESSION,
                    path=path,
                    line=pragma.line,
                    col=pragma.col,
                    message=(
                        f"pragma disables {rule_id!r} but no such finding "
                        "occurs on this line; delete the stale suppression"
                    ),
                )
