"""A fixed unit of pure-Python work that measures how fast the host runs right now.

On a shared host the same code runs at speeds up to about two times
apart, in phases that last from seconds to many minutes, so raw wall
times of two runs of one commit can differ more than a change would.
The unit is the benchmark's own reference code on fixed inputs -- per-cell
loops of small-int arithmetic, list building and big-int bit operations,
the same kind of work relcalc does -- and never touches relcalc, so no
change to the program can change it.  worker.py times it after each op,
up to a tenth of the op time, and run.py scales the run's wall figures
by REFERENCE_S over the mean unit time.
"""

from time import perf_counter

import reference as ref

# The fixed scale of scaled times: a scaled second is a wall second on a
# host that runs the unit in REFERENCE_S.  The 2-vCPU Xeon host the
# benchmark was built on (Python 3.11.7) takes 4.4 to 6.8 ms.
REFERENCE_S = 0.004

_POINTS = tuple(f"c{i}" for i in range(7))
_FACE = _POINTS[1:4]
_BITS = 0b101101101110010110110100111
_TERMS = [((1, 0, 2, 1), 1), ((0, 2, 1, 0), 2), ((2, 1, 0, 0), 1), ((0, 0, 1, 2), 2)]


def unit():
    ref.cylinder(_BITS, _FACE, _POINTS, 3)
    ref.gfp_values(_TERMS, 4, 3)


def samples(n):
    """Wall seconds of n back-to-back units."""
    out = []
    for _ in range(n):
        start = perf_counter()
        unit()
        out.append(perf_counter() - start)
    return out
