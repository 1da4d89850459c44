"""Count the code lines of each ``src/disnes`` module.

A line counts when it holds a token other than a comment, a newline or
indent token, or a string that stands alone as a statement (a docstring).
So blank lines, comments and docstrings do not count, and every line of a
multi-line string that is part of code does.  The script prints one
``module: lines`` row per file, in name order, then ``total: lines``.

Usage, from the repository root:

    python3 tools/count_lines.py [FILE ...]
    # default: src/disnes/*.py
"""

from __future__ import annotations

import glob
import os
import sys
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# tokens that never make a line count
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The number of code lines of the Python file ``path``."""
    lines, statement = set(), []
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in LAYOUT:
                statement.append(token)
            elif token.type == tokenize.NEWLINE:
                # a logical line of strings alone is a docstring
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv):
    paths = argv[1:] or sorted(glob.glob(os.path.join(ROOT, "src", "disnes",
                                                      "*.py")))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{os.path.basename(path)}: {count}")
    print(f"total: {total}")


if __name__ == "__main__":
    main(sys.argv)
