"""Count the code lines of every module of a package tree.

    python tools/code_lines.py SRC [SRC2]

A code line is a line that holds part of a token other than a comment or a
module, class or function docstring; blank lines and lines holding only
comments or docstring text do not count, and every line a multi-line string
spans that is not a docstring does. SRC is a directory: every `*.py` file
under it is counted, and the lines read `path  count`, relative to SRC, then
`TOTAL  count`. Given a second tree, each line reads `path  count  count2
diff` over the modules of both trees (0 where a tree lacks the module).
This is how a change that claims to remove code backs its reduction.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers spanned by the module's, classes' and functions'
    docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED:
            continue
        spanned = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and tok.start[0] in docstrings:
            continue
        lines.update(spanned)
    return len(lines)


def count_tree(root: Path) -> dict:
    """relative path -> code lines of every *.py file under root."""
    return {path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def report(first: dict, second: dict | None = None) -> str:
    """The per-module lines and the TOTAL line of one tree's counts, or of
    two trees' counts with their difference."""
    if second is None:
        rows = [(name, str(count)) for name, count in first.items()]
        rows.append(("TOTAL", str(sum(first.values()))))
    else:
        rows = []
        for name in sorted(set(first) | set(second)):
            a, b = first.get(name, 0), second.get(name, 0)
            rows.append((name, f"{a}  {b}  {b - a:+d}"))
        a, b = sum(first.values()), sum(second.values())
        rows.append(("TOTAL", f"{a}  {b}  {b - a:+d}"))
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {counts}" for name, counts in rows)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: code_lines.py SRC [SRC2]", file=sys.stderr)
        return 2
    counts = [count_tree(Path(arg)) for arg in args]
    print(report(*counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
