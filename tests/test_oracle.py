import random
import time

from paper_tables import desk_sweep

from pretzeldimer.diagram import build_diagram, trace
from pretzeldimer.extend import (MOVES, apply_moves, initial_state,
                                 state_bracket)
from pretzeldimer.laurent import Laurent
from pretzeldimer.oracle import state_sum_bracket

#: seconds each reference comparison below may take
REFERENCE_BUDGET_S = 60


def L(pairs):
    return Laurent(dict(pairs))


def test_bracket_single_kinks():
    assert state_sum_bracket(build_diagram((1,))) == L([[-3, -1]])
    assert state_sum_bracket(build_diagram((-1,))) == L([[3, -1]])
    assert state_sum_bracket(build_diagram((2,))) == L([[-6, 1]])
    assert state_sum_bracket(build_diagram((3,))) == L([[-9, -1]])


def test_bracket_trefoil():
    got = state_sum_bracket(build_diagram((1, 1, 1)))
    assert got == L([[-5, -1], [3, -1], [7, 1]])


def test_bracket_torus_819():
    got = state_sum_bracket(build_diagram((-2, 3, 3)))
    assert got == L([[12, 1], [4, 1], [-8, -1]])


def test_bracket_pretzel_237():
    got = state_sum_bracket(build_diagram((-2, 3, 7)))
    assert got == L([[16, 1], [8, 1], [-8, -1], [-12, 1], [-16, -1]])


def test_bracket_two_component_link():
    got = state_sum_bracket(build_diagram((2, 2)))
    assert got == L([[6, -1], [-2, -1], [-6, 1], [-10, -1]])


def test_bracket_mirror_symmetry():
    # mirroring every crossing inverts A
    a = state_sum_bracket(build_diagram((1, 1, 1)))
    b = state_sum_bracket(build_diagram((-1, -1, -1)))
    assert b == a.reexpress(-1)
    a = state_sum_bracket(build_diagram((-2, 3, 3)))
    b = state_sum_bracket(build_diagram((2, -3, -3)))
    assert b == a.reexpress(-1)


def test_unknot_normalization():
    # kink diagrams of the unknot: (-A^-3)^w <D> = 1
    for spec in [(1,), (-1,), (2,), (-3,)]:
        d = build_diagram(spec)
        t = trace(d)
        assert t.components == 1
        val = (Laurent.term(-1, -3) ** t.writhe) * state_sum_bracket(d)
        assert val == Laurent.one()


def test_bracket_at_one_counts_components():
    # <D>(A=1) = (-1)^w (-2)^(c-1) for any diagram
    rng = random.Random(99)
    for _ in range(12):
        k = rng.randint(1, 3)
        spec = tuple(rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(k))
        d = build_diagram(spec)
        t = trace(d)
        got = state_sum_bracket(d).at_one()
        assert got == (-1) ** (t.writhe % 2) * (-2) ** (t.components - 1)


# ---------------------------------------------------------------------------
# the reference: a fresh union-find over all 4n ports for every state

_CORNER_IDX = {"NW": 0, "NE": 1, "SW": 2, "SE": 3}

# smoothing port pairings, by over-strand type:
#   A-smoothing rotates the over strand counterclockwise onto the under one
_SMOOTHINGS = {
    "/": {"A": (("NW", "SW"), ("NE", "SE")), "B": (("NW", "NE"), ("SW", "SE"))},
    "\\": {"A": (("NW", "NE"), ("SW", "SE")), "B": (("NW", "SW"), ("NE", "SE"))},
}


def reference_state_sum_bracket(diagram):
    """Kauffman bracket over all 2^n smoothings, each state from scratch.

    Loops are counted with union-find over the 4n ports (arcs plus chosen
    smoothing pairings form a disjoint union of cycles).
    """
    labels = sorted(diagram.crossings)
    n = len(labels)
    pos = {label: i for i, label in enumerate(labels)}

    def pid(port):
        return 4 * pos[port[0]] + _CORNER_IDX[port[1]]

    arc_pairs = [(pid(p), pid(q)) for p, q in diagram.arc_list()]
    smooth = []
    for label in labels:
        byname = _SMOOTHINGS[diagram.crossings[label].over]
        smooth.append(tuple(
            tuple((pid((label, a)), pid((label, b))) for a, b in byname[kind])
            for kind in ("A", "B")))

    size = 4 * n
    counts = {}   # (a_minus_b, loops) -> number of states
    for state in range(1 << n):
        parent = list(range(size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merges = 0
        a_count = 0
        for i in range(n):
            kind = (state >> i) & 1      # 0 = A, 1 = B
            if not kind:
                a_count += 1
            for x, y in smooth[i][kind]:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
                    merges += 1
        for x, y in arc_pairs:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
                merges += 1
        loops = size - merges
        key = (2 * a_count - n, loops)
        counts[key] = counts.get(key, 0) + 1

    delta = Laurent({2: -1, -2: -1})
    total = Laurent.zero()
    for (exp, loops), mult in counts.items():
        total = total + Laurent.term(mult, exp) * delta ** (loops - 1)
    return total


def test_rollback_state_sum_matches_reference_on_desk_sweep():
    t0 = time.perf_counter()
    specs = desk_sweep(10)
    assert len(specs) == 2944
    for spec in specs:
        d = build_diagram(spec)
        assert state_sum_bracket(d) == reference_state_sum_bracket(d), spec
    assert time.perf_counter() - t0 < REFERENCE_BUDGET_S


def test_rollback_state_sum_matches_reference_on_move_chains():
    # grown diagrams have arcs column builds never make, such as a kink
    # joining two ports of one crossing
    t0 = time.perf_counter()
    rng = random.Random(2718)
    specs = desk_sweep(6)
    names = sorted(MOVES)
    used = set()
    checked = 0
    while checked < 200:
        spec = rng.choice(specs)
        chain = [rng.choice(names) for _ in range(rng.randint(1, 3))]
        try:
            d = apply_moves(initial_state(spec), chain).diagram
        except ValueError:            # edge extension after a kink
            continue
        assert state_sum_bracket(d) == reference_state_sum_bracket(d), \
            (spec, chain)
        used.update(chain)
        checked += 1
    assert used == set(MOVES)
    assert time.perf_counter() - t0 < REFERENCE_BUDGET_S


def test_state_sum_builds_its_weights_once(monkeypatch):
    d = build_diagram((-2, 3, 7))
    first = state_sum_bracket(d)
    calls = 0

    def counted(self, n, _pow=Laurent.__pow__):
        nonlocal calls
        calls += 1
        return _pow(self, n)

    monkeypatch.setattr(Laurent, "__pow__", counted)
    assert state_sum_bracket(d) == first
    assert calls == 0


def random_spec(rng, k, knot):
    """Pretzel spec with k columns and at most about 400 crossings.

    All entries odd with k odd is a knot, and so is exactly one even
    entry; two even entries, or all odd with k even, make a link.
    """
    n = rng.randint(k, 400)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    sizes = [(b - a) | 1 for a, b in zip([0] + cuts, cuts + [n])]
    if knot:
        evens = 0 if k % 2 else 1
    else:
        evens = 1 if k == 1 else rng.choice([0, 2] if k % 2 == 0 else [2])
    for i in rng.sample(range(k), evens):
        sizes[i] += 1
    return tuple(rng.choice((1, -1)) * m for m in sizes)


def test_state_sum_matches_determinant_on_large_specs():
    # the scan against the Kasteleyn determinant (epsilon * det), far past
    # the sizes the per-state reference can reach
    t0 = time.perf_counter()
    rng = random.Random(1987)
    seen = {True: 0, False: 0}
    largest = 0
    ks = [25, 25] + [rng.randint(1, 25) for _ in range(10)]
    for i, k in enumerate(ks):
        spec = random_spec(rng, k, knot=i % 2 == 0)
        d = build_diagram(spec)
        assert (trace(d).components == 1) == (i % 2 == 0), spec
        assert state_sum_bracket(d) == state_bracket(initial_state(spec)), spec
        seen[i % 2 == 0] += 1
        largest = max(largest, d.n)
    assert seen == {True: 6, False: 6}
    assert largest > 300
    assert time.perf_counter() - t0 < REFERENCE_BUDGET_S
