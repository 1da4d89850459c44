"""The sketch DSL: parsing, hole inventory, f32 evaluation, rendering.

A sketch is a Rust-flavored guarded program with typed holes: [COND]
picks a comparison operator, [OP] an arithmetic operator, [REAL] a
32-bit float constant.  Filling every hole yields a concrete program
that is evaluated in strict IEEE single precision.
"""

import numpy as np

from disnes import MAIN_SKETCH, MAIN_SPEC, TRUE_PROGRAM
from disnes.sketch import (
    COND_OPS, OP_OPS, SpecFitness, eval_program, parse, render,
)


def main():
    print("The ground-truth program:")
    print(TRUE_PROGRAM)
    truth = parse(TRUE_PROGRAM)
    for row, expect in zip(MAIN_SPEC.inputs, MAIN_SPEC.outputs):
        out = eval_program(truth, {}, row)
        print(f"  f({row[0]}) = {out!r}  (spec: {expect!r})")

    print("\nThe sketch to optimize:")
    print(MAIN_SKETCH)
    sketch = parse(MAIN_SKETCH)
    print("holes:", [(h.id, h.kind) for h in sketch.holes])

    # one concrete completion, rendered back to source
    assignment = {
        "cond0": COND_OPS.index("<"),
        "real1": -1.5677981,
        "real2": 1.1321394,
        "op3": OP_OPS.index("*"),
        "op4": OP_OPS.index("*"),
        "real5": 3.9859228,
    }
    print("\nA completion of the sketch:")
    print(render(sketch, assignment))

    fitness = SpecFitness(sketch, MAIN_SPEC)
    outputs = fitness.predicted_outputs(assignment)
    print("its outputs:", outputs)
    print("its MSE vs the spec:", fitness.mean_squared_error(outputs))

    print("\nEvaluation is vectorized over whole populations:")
    rng = np.random.default_rng(0)
    lam = 5
    draws = [rng.integers(0, 6, lam), rng.normal(size=lam),
             rng.normal(size=lam), rng.integers(0, 4, lam),
             rng.integers(0, 4, lam), rng.normal(size=lam)]
    print("population fitnesses:", fitness.population(draws))


if __name__ == "__main__":
    main()
