"""Print the number of code lines in `src/kcx`: lines that carry a token other
than a comment, and that are not part of a module, class or function
docstring.  Blank lines do not count.

    python tests/code_lines.py

Standard library only; pytest does not collect this file.  CI prints the
count with no threshold.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kcx"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of `source` with a code token, docstring lines excluded."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


if __name__ == "__main__":
    print(sum(code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))))
