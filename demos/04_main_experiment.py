"""A condensed version of the main program-induction run.

Trains the natural-gradient arm on the single-input sketch for a couple
thousand iterations (the full experiment uses 10,000) and prints the
training curve plus the greedy-decoded program.  With the default seed
the decoded program usually matches the specification exactly.
"""

import numpy as np

from disnes import MAIN_SKETCH, MAIN_SPEC, TrainConfig, greedy_decode, train
from disnes.sketch import SketchProblem, parse, render


def main():
    program = parse(MAIN_SKETCH)
    problem = SketchProblem(program, MAIN_SPEC)
    config = TrainConfig(iterations=2000, learning_rate=0.1, population=50,
                         seed=1, log_every=100)
    log, params = train(problem, config)

    print("iter    population-MSE    entropies (cond0, op3, op4)")
    for rec in log.records:
        ent = [rec.entropies[h] for h in ("cond0", "op3", "op4")]
        print(f"{rec.iteration:5d}    {rec.loss:14.6f}    "
              + "  ".join(f"{e:.3f}" for e in ent))

    decoded = greedy_decode(params)
    assignment = dict(zip(problem.hole_ids(), decoded))
    print("\nGreedy-decoded program:")
    print(render(program, assignment))
    outputs = problem.fitness.predicted_outputs(decoded)
    print("outputs: ", outputs)
    print("spec:    ", MAIN_SPEC.outputs)
    print("decode MSE:", problem.fitness.mean_squared_error(outputs))


if __name__ == "__main__":
    main()
