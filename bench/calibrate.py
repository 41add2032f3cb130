"""Fixed reference work that measures how fast the machine is right now.

    python3 bench/calibrate.py

The benchmark runs this between the inputs, as a fresh process the way it
runs the CLI, and scales each time it measures by CAL_REF_S over the mean
wall time of the two runs of this script around it.  On a shared machine
whose speed drifts by tens of percent over minutes, the scaled times repeat
far better than raw ones: the drift slows this loop and liukit alike.

The work imitates the expression kernel without using it: products of
sparse polynomials stored as dicts from sorted exponent tuples to Fraction
coefficients.  It must not depend on liukit, so that no change to the
program moves it.  Editing it rescales every time the benchmark reports.
"""
from __future__ import annotations

import random
import sys
from fractions import Fraction

ROUNDS = 18


def _poly(rng: random.Random, terms: int) -> dict:
    return {
        tuple(sorted((rng.randrange(8), rng.randrange(1, 3)) for _ in range(3))): Fraction(
            rng.randrange(1, 9), rng.randrange(1, 9)
        )
        for _ in range(terms)
    }


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(sorted(ma + mb))
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def main() -> int:
    rng = random.Random(0)
    a, b = _poly(rng, 60), _poly(rng, 60)
    for _ in range(ROUNDS):
        product = _mul(a, b)
    print(len(product))
    return 0


if __name__ == "__main__":
    sys.exit(main())
