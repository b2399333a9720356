"""The paper's word tables and the desk sweep, for the tests that
reproduce them.

The series/parallel word shapes of a twist column, the split of a word into
its columns, the human form of a word, the (u, v) bidegree of a word, the
regions a crossing meets in the balanced overlay and the overlay's perfect
matchings by backtracking, and the one desk sweep of specs the tests run
over.  The program never reads these; the tests hold its words and
matrices to them.
"""
import itertools

from pretzeldimer.activities import split_token
from pretzeldimer.taitgraphs import OUT, TOP


def desk_sweep(max_crossings=12):
    """The desk sweep: k in {2,3,4} columns of entries +-1..4, at most
    max_crossings crossings (4 112 specs at 12), in product order."""
    entries = [v for v in range(-4, 5) if v]
    return [combo for k in (2, 3, 4)
            for combo in itertools.product(entries, repeat=k)
            if sum(abs(v) for v in combo) <= max_crossings]


def word_str(word, ascii_bars=False):
    """Human form of a word; bars become combining macrons unless ascii."""
    if ascii_bars:
        return "".join(word)
    out = []
    for tok in word:
        letter, barred = split_token(tok)
        if letter == "l":
            letter = "ℓ"          # script ell, easier to tell from 1
        out.append(letter + ("̄" if barred else ""))
    return "".join(out)


_SERIES = (
    ("L+", lambda s: set(s) == {"L"}),
    ("D+", lambda s: set(s) == {"D"}),
    ("L+dD*", lambda s: "d" in s and s.index("d") >= 1
     and set(s[:s.index("d")]) == {"L"} and set(s[s.index("d") + 1:]) <= {"D"}),
    ("lD*", lambda s: s[0] == "l" and set(s[1:]) <= {"D"}),
    ("dD*", lambda s: s[0] == "d" and set(s[1:]) <= {"D"}),
)

_PARALLEL = (
    ("l+", lambda s: set(s) == {"l"}),
    ("d+", lambda s: set(s) == {"d"}),
    ("l+Dd*", lambda s: "D" in s and s.index("D") >= 1
     and set(s[:s.index("D")]) == {"l"} and set(s[s.index("D") + 1:]) <= {"d"}),
    ("Ld*", lambda s: s[0] == "L" and set(s[1:]) <= {"d"}),
    ("Dd*", lambda s: s[0] == "D" and set(s[1:]) <= {"d"}),
)


def _classify(segment, table):
    bare = [split_token(tok)[0] for tok in segment]
    if not bare:
        raise ValueError("empty segment")
    for name, test in table:
        if test(bare):
            return name
    return None


def classify_series(segment):
    """Legal shapes of a series (column) segment, or None.

    A twist column contributes consecutive tree edges; a path of edges in
    series admits exactly five letter shapes.
    """
    return _classify(segment, _SERIES)


def classify_parallel(segment):
    """Dual classification for a parallel class of edges."""
    return _classify(segment, _PARALLEL)


def column_segments(word, spec):
    """Split a word into its per-column segments (rank order = label order)."""
    out = []
    pos = 0
    for v in spec:
        m = abs(v)
        out.append(tuple(word[pos:pos + m]))
        pos += m
    return out


def incident_regions(overlay, label):
    """The crossing's corner regions that survive in the overlay."""
    return [r for r in (overlay.corners[label][c] for c in "NSWE")
            if r not in (TOP, OUT)]


def perfect_matchings(overlay):
    """All perfect matchings, backtracking in crossing order.

    Each matching maps every crossing to one of its surviving corner
    regions, using every region exactly once; returned as tuples aligned
    with overlay.crossings.
    """
    candidates = [incident_regions(overlay, c) for c in overlay.crossings]
    used = set()
    results = []
    pick = []

    def rec(i):
        if i == len(candidates):
            results.append(tuple(pick))
            return
        for r in candidates[i]:
            if r not in used:
                used.add(r)
                pick.append(r)
                rec(i + 1)
                pick.pop()
                used.remove(r)

    rec(0)
    return results


def gradings(word):
    """(u, v) bidegree of a word: u = #L - #l - #L~ + #l~, v = #L + #D."""
    u = v = 0
    for tok in word:
        if tok == "L":
            u += 1
            v += 1
        elif tok == "D":
            v += 1
        elif tok == "l":
            u -= 1
        elif tok == "L~":
            u -= 1
        elif tok == "l~":
            u += 1
    return u, v
