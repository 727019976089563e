#!/usr/bin/env python
"""Unused imports and over-long lines, with the standard library only.

The two checks a builder can run where ``ruff`` is not installed; CI runs
them next to it.  An import counts as used when its bound name is read
anywhere in the module, is listed in ``__all__``, or is re-exported from a
package ``__init__``; a line carrying ``# noqa`` is skipped by both checks.

Usage
-----
    python tools/lint_stdlib.py [--max-line 100] [paths...]

With no ``paths``: ``src tests tools`` (what the ``lint`` job holds clean).
Exits 1 when anything is reported.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

DEFAULT_PATHS = ("src", "tests", "tools")


def _exported(tree: ast.Module) -> set:
    """Names a module lists in ``__all__`` (literal lists and tuples)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                names.update(
                    elt.value for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str))
    return names


def check_file(path: Path, max_line: int) -> list:
    """``path:line: message`` strings for one file."""
    text = path.read_text()
    lines = text.splitlines()
    problems = [
        f"{path}:{n}: line too long ({len(line)} > {max_line})"
        for n, line in enumerate(lines, 1)
        if len(line) > max_line and "# noqa" not in line]
    tree = ast.parse(text, filename=str(path))
    if path.name == "__init__.py":
        return problems  # a package's imports are its interface
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    # Names only quoted annotations mention ("Engine", Optional["Job"]).
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted)
                     if isinstance(n, ast.Name)}
    for name, lineno in sorted(imported.items(), key=lambda kv: kv[1]):
        if name not in used and "# noqa" not in lines[lineno - 1]:
            problems.append(f"{path}:{lineno}: {name!r} imported but unused")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path)
    ap.add_argument("--max-line", type=int, default=100)
    args = ap.parse_args(argv)
    roots = args.paths or [Path(p) for p in DEFAULT_PATHS if Path(p).exists()]
    files = sorted(f for root in roots for f in
                   ([root] if root.is_file() else root.rglob("*.py")))
    problems = [p for f in files for p in check_file(f, args.max_line)]
    for problem in problems:
        print(problem)
    print(f"lint-stdlib: {len(files)} files, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
