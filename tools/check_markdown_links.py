#!/usr/bin/env python3
"""Checks that relative links in the repo's markdown files resolve.

Walks every *.md under the repo root (skipping build trees and .git),
extracts inline links and images `[text](target)`, and verifies that each
relative target exists on disk. External schemes (http/https/mailto) are
ignored. A fragment (`path#fragment`, or `#fragment` within the page) whose
file is markdown must name one of that file's heading anchors, computed by
GitHub's rule (see `anchors`); fragments into other files are not checked.
Stdlib only — runs anywhere CI has a Python 3.

Exit status: 0 all links resolve, 1 otherwise (each broken link printed as
`file:line: broken link -> target`).
"""
from __future__ import annotations

import re
import sys
from functools import cache
from pathlib import Path
from urllib.parse import unquote

# Inline links/images. Deliberately simple: no nested parentheses in
# targets (none of our docs need them), reference-style links are rare
# enough here that plain-text mentions of paths are not validated.
LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")
SKIP_DIRS = {".git", ".github"}
HEADING = re.compile(r"^ {0,3}#{1,6}\s+(.*?)(?:\s+#+)?\s*$")
FENCE = re.compile(r"^ {0,3}(```|~~~)")


def markdown_files(root: Path):
    for path in sorted(root.rglob("*.md")):
        parts = path.relative_to(root).parts
        if any(p in SKIP_DIRS or p.startswith("build") for p in parts[:-1]):
            continue
        yield path


def slug(heading: str) -> str:
    """GitHub's anchor for one heading: the rendered text (a link renders
    as its text) lowercased, everything but letters, digits, spaces, `-`
    and `_` dropped, spaces turned into `-`."""
    text = re.sub(r"!?\[([^\]]*)\]\([^)]*\)", r"\1", heading).lower()
    return re.sub(r"[^\w\- ]", "", text).replace(" ", "-")


@cache
def anchors(path: Path) -> set[str]:
    """Every heading anchor of `path`, a repeated one numbered `-1`, `-2`,
    ... in order. Headings inside code fences do not count."""
    found: set[str] = set()
    seen: dict[str, int] = {}
    fence = None
    for line in path.read_text(encoding="utf-8").splitlines():
        opener = FENCE.match(line)
        if opener:
            if fence is None:
                fence = opener.group(1)
            elif opener.group(1) == fence:
                fence = None
            continue
        heading = HEADING.match(line) if fence is None else None
        if not heading:
            continue
        base = slug(heading.group(1))
        repeat = seen.get(base, 0)
        seen[base] = repeat + 1
        found.add(base if repeat == 0 else f"{base}-{repeat}")
    return found


def check_file(path: Path, root: Path) -> list[str]:
    errors = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for match in LINK.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES):
                continue
            file_part, _, fragment = target.partition("#")
            if not file_part:
                resolved = path
            elif file_part.startswith("/"):
                resolved = root / file_part.lstrip("/")
            else:
                resolved = path.parent / file_part
            broken = not resolved.exists()
            if not broken and fragment and resolved.suffix == ".md":
                broken = unquote(fragment) not in anchors(resolved.resolve())
            if broken:
                errors.append(
                    f"{path.relative_to(root)}:{lineno}: broken link -> {target}"
                )
    return errors


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    errors = []
    count = 0
    for path in markdown_files(root):
        count += 1
        errors.extend(check_file(path, root))
    for error in errors:
        print(error)
    print(f"checked {count} markdown files: "
          f"{'OK' if not errors else f'{len(errors)} broken link(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
