"""Exact Jones and Khovanov-type invariants of pretzel links.

The pipeline: one walk over the crossing labels of P(n1, ..., nk) gives
the activity letters and the faces of the balanced overlay, the faces fix
the Kasteleyn signs of that matrix, and exact elimination over a Laurent
ring gives its determinant; each invariant reads its global sign off its
own value.  The slow routes (the spanning-tree and permanent-term
enumerations, and the state sum's crossing-by-crossing frontier scan)
are ``verify``'s and cross-check every step.
"""

from .evaluate import bracket, jones, jones_in_A, khovanov_poincare
from .laurent import Laurent, Laurent2

__version__ = "0.1.0"

__all__ = [
    "Laurent",
    "Laurent2",
    "bracket",
    "jones",
    "jones_in_A",
    "khovanov_poincare",
]
