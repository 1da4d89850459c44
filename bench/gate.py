"""Correctness gate: each cell of a unit passes or fails.

A cell fails when its unit raised, when its final greedy-decode loss is
not finite, or when the SHA-256 of its artifacts (CSV, program, params
JSON) differs from an expected digest: the pinned digest of the reference
seed, or the first repeat of the same seed in this run.  ``summary.csv``
belongs to every cell of its unit, so a mismatch there fails all of them.
``config.txt`` is left out because it echoes the output path.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

SUMMARY = "summary.csv"
CELL_SUFFIXES = (".csv", "_program.txt", "_params.json")


def _sha256(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def read_unit(out_dir):
    """Digest and final loss of every cell a unit wrote.

    Returns ``(digests, losses)``: ``digests`` maps each cell stem and
    ``summary.csv`` to a SHA-256, ``losses`` maps each cell stem to its
    final loss.  Cells are the rows of ``summary.csv``.  Raises OSError
    when an artifact is missing.
    """
    summary = os.path.join(out_dir, SUMMARY)
    with open(summary, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    digests = {SUMMARY: _sha256([summary])}
    losses = {}
    for row in rows:
        stem = row["program_path"][:-len("_program.txt")]
        digests[stem] = _sha256([os.path.join(out_dir, stem + s)
                                 for s in CELL_SUFFIXES])
        losses[stem] = float(row["final_loss"])
    return digests, losses


def failed_cells(digests, losses, expected):
    """Stems of the cells that fail against ``expected`` (or None)."""
    failed = {stem for stem, loss in losses.items() if not math.isfinite(loss)}
    if expected is not None:
        if set(expected) != set(digests) or \
                digests[SUMMARY] != expected[SUMMARY]:
            return set(losses) | (set(expected) - {SUMMARY})
        failed |= {stem for stem in losses if digests[stem] != expected[stem]}
    return failed


def bytes_written(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, name))
               for name in os.listdir(out_dir))
