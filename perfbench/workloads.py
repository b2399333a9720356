"""Seeded op lists for the four benchmark workloads.

Every op is an argv list for ``pretzeldimer.cli.main``.  A workload is a
fixed list of ops (one *pass*) drawn from a finite universe with
``random.Random(seed)``; the same seed always gives the same list.  The
draw is cost-balanced (stratified over a cost-sorted universe, or a fixed
set of slots whose variants cost the same), so the work in one pass hardly
depends on the seed.

Nothing here imports the program: knots are told from links by the
pretzel parity rule and term counts come from the closed-form law, so the
program sees only the generated argv lists.
"""
import itertools
import random

#: workload name -> one-line reason it exists (mirrored in BENCHMARK.json)
WHY = {
    "desk": "tiny matrices, so fixed per-op cost in cli, diagram, "
            "taitgraphs, matrix build and extend dominates",
    "wide": "growth in k: 300 to 17k expansion terms at n <= 25, so "
            "matrix.expand and letter evaluation dominate",
    "long": "growth in n: few terms but up to 58 rows, dead-branch "
            "backtracking and wide exponent spans; extend at scale",
    "verify": "verify --json, where the oracle layer (2^n state sum, tree "
              "words) does most of the work",
}

#: share of desk ops given one of the other two README spellings
SPELLING_SHARE = 1 / 20

DESK_OPS_PER_PASS = 1200
VERIFY_SPECS_PER_PASS = 120


def is_knot(spec):
    """Pretzel parity rule: one component iff exactly one even entry, or
    every entry odd and an odd number of columns."""
    even = sum(1 for v in spec if v % 2 == 0)
    return even == 1 or (even == 0 and len(spec) % 2 == 1)


def term_count(spec):
    """Expansion terms = spanning trees = sum_i prod_{j != i} |n_j|."""
    total = 0
    for i in range(len(spec)):
        p = 1
        for j, v in enumerate(spec):
            if j != i:
                p *= abs(v)
        total += p
    return total


def label(spec):
    return "P(%s)" % ",".join(str(v) for v in spec)


def desk_specs():
    """The acceptance desk sweep: k in {2,3,4}, 1 <= |n_i| <= 4,
    sum |n_i| <= 12."""
    values = [v for a in range(1, 5) for v in (a, -a)]
    out = []
    for k in (2, 3, 4):
        for spec in itertools.product(values, repeat=k):
            if sum(abs(v) for v in spec) <= 12:
                out.append(spec)
    return out


def desk_ops_for(spec):
    """The ops a desk spec gets: knots three, links the bracket."""
    p = label(spec)
    if is_knot(spec):
        return [["jones", p], ["khovanov", p],
                ["jones", p, "--extend", "r2:parallel"]]
    return [["jones", p, "--bracket"]]


def _stratified(rng, universe, count):
    """One random pick from each of ``count`` equal consecutive blocks."""
    n = len(universe)
    picks = []
    for i in range(count):
        lo = i * n // count
        hi = max(lo + 1, (i + 1) * n // count)
        picks.append(universe[rng.randrange(lo, hi)])
    return picks


# ---------------------------------------------------------------------------
# wide: growth in k.  Each slot is a base spec; the seed picks whether to
# mirror it (all signs flipped), which leaves the work unchanged.  Cyclic
# rotations would keep the term count but not the cost of the expansion, so
# they are not drawn: they made the median op depend on the seed.

WIDE_KNOTS = (
    (2, 3, 3, 3, 3), (1, 3, 3, 3, 5), (3, 3, 3, 3, 3), (3, 3, 3, 3, 4),
    (3, 3, 3, 3, 5), (3, 3, 3, 4, 5), (2, 3, 3, 3, 3, 3), (3, 3, 3, 5, 5),
    (3, 3, 5, 5, 5), (5, 5, 5, 5, 5), (3, 3, 3, 3, 3, 3, 3),
)
WIDE_LINKS = (
    (4, 4, 4, 4), (3, 3, 3, 4, 4), (4, 4, 4, 4, 4), (3, 3, 3, 3, 3, 3),
    (4, 4, 4, 4, 5), (3, 3, 3, 3, 4, 4), (3, 3, 3, 3, 3, 5),
    (3, 3, 3, 3, 5, 5), (4, 4, 4, 4, 4, 4), (3, 3, 3, 3, 3, 3, 3, 3),
)


def _variants(spec):
    """Same-cost variants of a slot: itself and its mirror image."""
    return [spec, tuple(-v for v in spec)]


def _knot_ops(p):
    return [["jones", p], ["khovanov", p], ["jones", p, "--bracket"]]


def wide_ops(rng):
    ops = []
    for base in WIDE_KNOTS:
        ops += _knot_ops(label(rng.choice(_variants(base))))
    for base in WIDE_LINKS:
        ops.append(["jones", label(rng.choice(_variants(base))), "--bracket"])
    return ops


def wide_universe():
    ops = []
    for base in WIDE_KNOTS:
        for spec in _variants(base):
            ops += _knot_ops(label(spec))
    for base in WIDE_LINKS:
        for spec in _variants(base):
            ops.append(["jones", label(spec), "--bracket"])
    return ops


# ---------------------------------------------------------------------------
# long: growth in n.  P(-2,3,2m+1) on a ladder of m, plus the same knots
# reached by growing P(-2,3,11) with 2j subdivide moves.  The seed picks
# the mirror image of each rung.

LONG_RUNGS = tuple(range(2, 27, 2))          # m = 2, 4, ..., 26
LONG_GROWN = tuple(range(2, 17, 2))          # j = 2, 4, ..., 16


def _long_spec(m, mirror):
    s = -1 if mirror else 1
    return (-2 * s, 3 * s, (2 * m + 1) * s)


def _grown_op(j, mirror):
    return (["jones", label(_long_spec(5, mirror))]
            + ["--extend", "subdivide"] * (2 * j))


def long_ops(rng):
    ops = []
    for m in LONG_RUNGS:
        ops += _knot_ops(label(_long_spec(m, rng.random() < 0.5)))
    for j in LONG_GROWN:
        ops.append(_grown_op(j, rng.random() < 0.5))
    return ops


def long_universe():
    ops = []
    for mirror in (False, True):
        for m in LONG_RUNGS:
            ops += _knot_ops(label(_long_spec(m, mirror)))
        for j in LONG_GROWN:
            ops.append(_grown_op(j, mirror))
    return ops


def grown_equivalent(argv):
    """For a subdivide-chain op, the spec-route op of the same knot."""
    if "--extend" not in argv or "subdivide" not in argv:
        return None
    spec = tuple(int(v) for v in argv[1][2:-1].split(","))
    moves = argv.count("subdivide")
    last = spec[-1]
    grown = spec[:-1] + (last + moves if last > 0 else last - moves,)
    return ["jones", label(grown)]


# ---------------------------------------------------------------------------
# desk and verify: stratified samples of the desk sweep

def _desk_by_cost():
    return sorted(desk_specs(), key=lambda s: (
        is_knot(s), term_count(s), sum(abs(v) for v in s), s))


def _spelled(rng, argv):
    """Maybe respell the spec as "(...)" or bare; returns (argv, bare_neg)."""
    if rng.random() >= SPELLING_SHARE:
        return argv, False
    inner = argv[1][1:]                      # "(-2,3,7)"
    spelled = inner if rng.random() < 0.5 else inner[1:-1]
    return [argv[0], spelled] + argv[2:], spelled.startswith("-")


def desk_ops(rng):
    """Returns (ops, probes).

    ``probes`` are the respelled ops whose bare spec starts with a minus
    sign: argparse reads those as an option and exits 2, a known defect.
    They are run and reported apart from the timed ops.
    """
    universe = _desk_by_cost()
    per_spec = sum(len(desk_ops_for(s)) for s in universe) / len(universe)
    count = round(DESK_OPS_PER_PASS / per_spec)
    ops, probes = [], []
    for spec in _stratified(rng, universe, count):
        for argv in desk_ops_for(spec):
            spelled, bare_neg = _spelled(rng, argv)
            (probes if bare_neg else ops).append((spelled, argv))
    return ops, probes


def desk_universe():
    return [argv for s in desk_specs() for argv in desk_ops_for(s)]


def verify_ops(rng):
    specs = sorted(desk_specs(), key=lambda s: (
        sum(abs(v) for v in s), term_count(s), is_knot(s), s))
    return [["verify", "--json", label(s)]
            for s in _stratified(rng, specs, VERIFY_SPECS_PER_PASS)]


def verify_universe():
    return [["verify", "--json", label(s)] for s in desk_specs()]


# ---------------------------------------------------------------------------

def generate(name, seed):
    """(ops, probes) for a workload.

    ``ops`` is a list of (argv, reference argv) pairs in run order; the
    reference argv names the golden entry (it differs from argv only for
    respelled desk ops).  The order is fixed, not shuffled: peak RSS
    depends on the order in which big and small ops fragment the heap.
    ``probes`` has the same shape and holds the ops reported apart as the
    known spelling defect.
    """
    rng = random.Random("%s:%d" % (name, seed))
    probes = []
    if name == "desk":
        ops, probes = desk_ops(rng)
    elif name == "wide":
        ops = [(a, a) for a in wide_ops(rng)]
    elif name == "long":
        ops = [(a, a) for a in long_ops(rng)]
    elif name == "verify":
        ops = [(a, a) for a in verify_ops(rng)]
    else:
        raise ValueError("unknown workload %r" % (name,))
    return ops, probes


def universe():
    """Every reference argv any seed can produce, for the golden file."""
    return (desk_universe() + wide_universe() + long_universe()
            + verify_universe())


def key(argv):
    return " ".join(argv)
