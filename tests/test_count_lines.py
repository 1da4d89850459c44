"""``tools/count_lines.py`` counts code lines only: no docstring, comment
or blank line."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

FIXTURE = '''\
"""A module docstring,
over two lines."""

# a comment
x = 1
y = x + 1  # a comment after code
'''


def test_counts_only_code_lines(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "count_lines.py"),
         str(path)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "fixture.py: 2\ntotal: 2\n"
