"""Reference-speed calibration for a shared, noisy CPU.

On a box shared with other tenants the same pure-Python work can take 60 %
longer from one second to the next, and the slow spells last from
milliseconds to minutes.  Medians over more work do not remove drift that
slow.  So the benchmark times a fixed calibration unit after every
``EVERY_S`` of op time, and scales each stretch of ops between two units by
``REFERENCE_S / (median of the WINDOW units on each side)``.  Every time
metric is then
in *reference seconds*: the time the op would take on a box where one unit
takes ``REFERENCE_S``, which is about this code's fastest speed on a 2-core
2.1 GHz x86-64 VM under CPython 3.11.

The unit mimics the program's inner loops (backtracking over a sparse
pattern, tuple building, sparse dict polynomial products) without importing
the program, so changes to the program never change the yardstick.  Do not
edit it: any change rescales every time the benchmark has recorded.
"""
import statistics
import time

REFERENCE_S = 0.003

#: ops run between two calibration units, in seconds of op time
EVERY_S = 0.02

#: units taken on each side of a stretch of ops to judge its speed
WINDOW = 2

_N = 7
_CANDIDATES = [[c for c in range(_N) if (r * 5 + c * 3) % 4 and abs(r - c) < 4]
               for r in range(_N)]
_WEIGHTS = [{c % 5 - 2: 1, c % 3: -1} for c in range(_N)]


def _kernel():
    used, pick, terms = set(), [], []

    def rec(r):
        if r == _N:
            terms.append(tuple(pick))
            return
        for c in _CANDIDATES[r]:
            if c not in used:
                used.add(c)
                pick.append(c)
                rec(r + 1)
                pick.pop()
                used.discard(c)

    rec(0)
    total = {}
    for t in terms:
        poly = {0: 1}
        for c in t:
            out = {}
            for e1, c1 in poly.items():
                for e2, c2 in _WEIGHTS[c].items():
                    e = e1 + e2
                    v = out.get(e, 0) + c1 * c2
                    if v:
                        out[e] = v
                    else:
                        out.pop(e, None)
            poly = out
        for e, v in poly.items():
            total[e] = total.get(e, 0) + v
    return len(terms), len(total)


def unit():
    """Seconds one calibration unit takes right now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(units):
    """Factor turning seconds measured among these unit times into
    reference seconds."""
    return REFERENCE_S / statistics.median(units)


def rescale(lat, cuts, units):
    """Latencies in reference seconds.

    ``units[j]`` was timed just before the ops ``lat[cuts[j-1]:cuts[j]]``
    (``cuts[-1]`` being 0) and ``units[j+1]`` just after them.  Each stretch
    is scaled by the median of the ``WINDOW`` units on each side of it,
    which follows drift of a fraction of a second while averaging out the
    noise of single units.
    """
    ref = []
    start = 0
    for j, end in enumerate(cuts):
        near = units[max(0, j + 1 - WINDOW):j + 1 + WINDOW]
        k = scale(near)
        ref.extend(t * k for t in lat[start:end])
        start = end
    return ref
