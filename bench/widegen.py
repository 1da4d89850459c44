"""Generator for the ``wide`` workload: a many-hole sketch and its spec.

The sketch text and the specification come from the workload seed through
plain NumPy arithmetic in this file.  Nothing here calls into ``disnes``,
so a change to the program's evaluator cannot change the workload's
inputs.

Shape (``PARAMS``): ``inputs`` variables, ``branches`` guarded branches
and ``rows`` specification rows.  Each guard is ``x_a [COND] [REAL]`` and
each branch returns ``[REAL] [OP] x_b [OP] [REAL]``; the final return is
``x_c [OP] [REAL] [OP] x_d``, with the variables drawn from the seed.
With the defaults that is 27 holes.

The outputs are seeded noise, standardized to mean 0 and variance 1.  The
evaluator's cost does not depend on the target values, and with a noise
target the trained greedy-decode MSE settles near the noise floor of 1 on
every seed, so ``final_mse`` guards the numerics without depending on
optimisation luck.  An untrained decode scores about 6 (it returns an
input variable).
"""

from __future__ import annotations

import hashlib

import numpy as np

PARAMS = {"inputs": 3, "branches": 4, "rows": 64, "input_range": 4.0}


def generate(seed):
    """Return ``(sketch_text, inputs, outputs)`` for one seed.

    ``inputs`` is ``(rows, inputs)`` float32 and ``outputs`` ``(rows,)``
    float32.  The same seed always gives the same three values.
    """
    rng = np.random.default_rng([0x57DE, seed])
    n_in, n_br, rows = PARAMS["inputs"], PARAMS["branches"], PARAMS["rows"]
    names = [f"x{i}" for i in range(n_in)]

    def var():
        return names[int(rng.integers(n_in))]

    lines = [f"fn wide_sketch({', '.join(n + ': f32' for n in names)}) -> f32",
             "{"]
    for _ in range(n_br):
        lines += [f"  if {var()} [COND] [REAL]", "  {",
                  f"    return [REAL] [OP] {var()} [OP] [REAL];", "  }", ""]
    lines += [f"  return {var()} [OP] [REAL] [OP] {var()};", "}"]
    sketch = "\n".join(lines) + "\n"

    r = PARAMS["input_range"]
    inputs = rng.uniform(-r, r, size=(rows, n_in)).astype(np.float32)
    noise = rng.standard_normal(rows)
    outputs = ((noise - noise.mean()) / noise.std()).astype(np.float32)
    return sketch, inputs, outputs


def digest(seed):
    """SHA-256 over the sketch text and the spec bytes of one seed."""
    sketch, inputs, outputs = generate(seed)
    h = hashlib.sha256(sketch.encode())
    h.update(inputs.tobytes())
    h.update(outputs.tobytes())
    return h.hexdigest()
