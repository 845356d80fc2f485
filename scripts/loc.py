#!/usr/bin/env python3
"""Count the source lines of each module of ``src/gramphase``, split into
code, docstring, comment and blank lines, and their total.

    python3 scripts/loc.py [SRC_DIR]

``SRC_DIR`` defaults to the ``src/gramphase`` next to this script; pass
another checkout's to compare two trees.  Every line falls in exactly one
class: a docstring line is any line of a module, class or function
docstring (found with ``ast``, blank lines inside it included); a comment
line holds only a comment (found with ``tokenize``); a blank line holds
only whitespace; every other line is code, an inline comment included.
Standard library only.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring of the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """``{kind: lines}`` of one module's source."""
    docstrings = _docstring_lines(ast.parse(text))
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    comments = {t.start[0] for t in tokens if t.type == tokenize.COMMENT}
    # lines where a token other than a comment or a line break starts or ends
    other = {row for t in tokens
             if t.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                               tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
             for row in range(t.start[0], t.end[0] + 1)}
    out = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        if number in docstrings:
            out["docstring"] += 1
        elif not line.strip():
            out["blank"] += 1
        elif number in comments and number not in other:
            out["comment"] += 1
        else:
            out["code"] += 1
    return out


def main() -> None:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "gramphase")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<18}" + "".join(f"{k:>11}" for k in (*KINDS, "total")))
    for path in sorted(src.glob("*.py")):
        lines = count(path.read_text())
        for k in KINDS:
            total[k] += lines[k]
        print(f"{path.name:<18}" + "".join(f"{lines[k]:>11}" for k in KINDS)
              + f"{sum(lines.values()):>11}")
    print(f"{'total':<18}" + "".join(f"{total[k]:>11}" for k in KINDS)
          + f"{sum(total.values()):>11}")


if __name__ == "__main__":
    main()
