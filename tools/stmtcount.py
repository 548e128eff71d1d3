"""Count the statements of each module under ``src/``.

    python3 tools/stmtcount.py [ROOT]

Prints, for every ``.py`` file under ``ROOT/src`` (``ROOT`` defaults to
the repository this tool lives in), the number of ``ast.stmt`` nodes in
its syntax tree, then the total.  Compound statements count once
themselves, plus the statements they contain, and a docstring counts
once.  Comments, blank lines and line breaks count for nothing, so the
number follows what the code does rather than how it is laid out.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def statements(path: Path) -> int:
    """The ``ast`` statement count of one source file."""
    tree = ast.parse(path.read_text(), str(path))
    return sum(isinstance(node, ast.stmt) for node in ast.walk(tree))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    src = root / "src"
    total = 0
    for path in sorted(src.rglob("*.py")):
        n = statements(path)
        total += n
        print(f"{n:6d}  {path.relative_to(src)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
