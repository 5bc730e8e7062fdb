"""Whitespace / page-artifact cleanup (R5).

Re-implements the computation of
``/root/reference/src/converters/whitespace.rs``:

* artifact regexes (``whitespace.rs:9-30``): ``Page N``, ``- N -``,
  ``[N]``/``(N)``, standalone 1-3-digit numbers, dash/equals separator lines
* ``remove_page_artifacts`` (``whitespace.rs:91-114``)
* ``normalize_whitespace`` — 3+ newlines -> exactly 3 (``whitespace.rs:54-58``)
* ``normalize_horizontal_whitespace`` — collapse 2+ internal spaces while
  preserving leading indentation (``whitespace.rs:284-320``)
* ``cleanup_markdown`` (``whitespace.rs:247-255``) and ``cleanup_plain_text``
  (``whitespace.rs:339-345``)

This module is the reference's own "boilerplate strip" slot; the HTML
boilerplate stripper (``htmlstrip.py``) extends the same slot per the fused
north rule.

No-op rule: every pass returns its input unchanged when it provably cannot
change it, and otherwise runs exactly as the reference does, so the output
is byte-identical either way. Most turns are clean (one-sentence chat
turns, most rendered markdown), and each check costs one scan:

* ``remove_page_artifacts``: one ``search`` of ``RE_ANY_ARTIFACT``, the
  ``re.M`` alternation of the six artifact patterns. An alternation matches
  at a position iff one of its alternatives does, so no match means each
  of the six subs is the identity, and so is their sequence.
* ``normalize_horizontal_whitespace``: without ``"  "`` the space-run sub
  is the identity on every line, and splitting on ``"\\n"``, moving each
  line's leading spaces aside and joining again rebuilds the text; only a
  trailing ``"\\n"`` is dropped, so the text must not end with one.
* ``normalize_whitespace``: without ``"\\n\\n\\n"`` there is no 3+ newline run
  for the sub to replace.

Linear subs: ``RE_DASH_PAGE``, ``RE_BRACKET_PAGE`` and ``RE_STANDALONE_NUM``
start with ``^\\s*`` under ``re.M``, and that ``\\s*`` crosses newlines, so a
``sub`` with them tries every line start of a run of blank lines and each
try scans the rest of the run: quadratic in the run. The rest of each
pattern starts with a character ``\\s`` does not match, so ``^\\s*`` must
stop at the first non-space after the line start, and every line start of
one whitespace run succeeds or fails alike. ``remove_page_artifacts`` subs
with ``_linear_sub`` forms of the three: the leading ``\\s*+`` (possessive,
the same match) and an alternative ``(\\s+)`` that, when the pattern fails
at a line start, matches the rest of the run and puts it back (``\\1``),
so the scan resumes after the run instead of at each later line start of
it. A match ends where the reference's does, so the next scan starts at
the same place too.
"""

from __future__ import annotations

import re

RE_MULTI_NEWLINE = re.compile(r"\n{3,}")
RE_PAGE_NUM = re.compile(r"^Page\s+\d+\s*$", re.M)
RE_DASH_PAGE = re.compile(r"^\s*-\s*\d+\s*-\s*$", re.M)
RE_BRACKET_PAGE = re.compile(r"^\s*[\[\(]\d+[\]\)]\s*$", re.M)
RE_STANDALONE_NUM = re.compile(r"^\s*\d{1,3}\s*$", re.M)
RE_DASH_SEP = re.compile(r"^[\s\-]{5,}$", re.M)
RE_EQUALS_SEP = re.compile(r"^[\s=]{5,}$", re.M)
RE_MULTI_SPACE = re.compile(r" {2,}")
# the reference's artifact patterns, in its sub order
ARTIFACT_PATTERNS = (RE_PAGE_NUM, RE_DASH_PAGE, RE_BRACKET_PAGE,
                     RE_STANDALONE_NUM, RE_DASH_SEP, RE_EQUALS_SEP)
RE_ANY_ARTIFACT = re.compile(
    "|".join(f"(?:{p.pattern})" for p in ARTIFACT_PATTERNS), re.M)


def _linear_sub(pattern: re.Pattern) -> tuple[re.Pattern, str]:
    """``(p, repl)`` with ``p.sub(repl, t) == pattern.sub("", t)`` in time
    linear in runs of blank lines, for a ``pattern`` of ``^\\s*`` and a
    rest that starts with a non-space (module docstring)."""
    rest = pattern.pattern.removeprefix(r"^\s*")
    if rest == pattern.pattern:
        return pattern, ""
    return re.compile(rf"^(?:\s*+{rest}|(\s+))", re.M), r"\1"


ARTIFACT_SUBS = tuple(_linear_sub(p) for p in ARTIFACT_PATTERNS)


def normalize_whitespace(text: str) -> str:
    """3+ consecutive newlines -> exactly 3 (2 blank lines)."""
    if "\n\n\n" not in text:
        return text
    return RE_MULTI_NEWLINE.sub("\n\n\n", text)


def remove_page_artifacts(text: str) -> str:
    """reference whitespace.rs:91-114 (same pattern order)."""
    if RE_ANY_ARTIFACT.search(text) is None:
        return text
    for pattern, repl in ARTIFACT_SUBS:
        text = pattern.sub(repl, text)
    return text


def normalize_horizontal_whitespace(text: str) -> str:
    """Collapse 2+ spaces to 1, preserving leading indentation per line
    (reference whitespace.rs:284-320). Joins with '\\n' like the reference's
    line iterator (a sole trailing newline is dropped)."""
    if "  " not in text and not text.endswith("\n"):
        return text
    out: list[str] = []
    for line in text.split("\n"):
        stripped = line.lstrip(" ")
        lead = len(line) - len(stripped)
        out.append(" " * lead + RE_MULTI_SPACE.sub(" ", stripped))
    # Rust str::lines() drops a single trailing newline; emulate.
    if text.endswith("\n") and out and out[-1] == "":
        out.pop()
    return "\n".join(out)


def cleanup_markdown(text: str) -> str:
    """reference whitespace.rs:247-255: artifacts -> vertical normalize."""
    return normalize_whitespace(remove_page_artifacts(text))


def cleanup_plain_text(text: str) -> str:
    """reference whitespace.rs:339-345: horizontal -> vertical normalize."""
    return normalize_whitespace(normalize_horizontal_whitespace(text))
