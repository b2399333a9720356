"""Write perfbench/golden.json: the reference result of every benchmark op.

    python3 perfbench/make_golden.py

For every argv any seed can generate (``workloads.universe()``) this runs
the CLI in-process, exactly as the benchmark worker does, in one process
per available CPU, and stores the exit code and a digest of stdout.  Before
an output is accepted it is cross-checked against routes that bypass the
activity matrix:

* the bracket from ``oracle.state_sum_bracket`` when n <= 16, else from
  ``oracle.tree_expansion_bracket``; times (-A^-3)^writhe for the Jones
  polynomial, which must satisfy V(1) = 1 for every knot;
* the Poincare polynomial summed over spanning-tree words, whose generator
  total must equal sum_i prod_{j != i} |n_j|;
* grown ops must print what the spec route prints for the same knot.

Any disagreement aborts the run, so the file only ever holds outputs that
the independent routes confirm.
"""
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

STATE_SUM_MAX_N = 16


def _spec_of(argv):
    text = next(a for a in argv if a.startswith("P("))
    return tuple(int(v) for v in text[2:-1].split(","))


class Reference:
    """Independent invariants of one pretzel spec."""

    def __init__(self, spec):
        from pretzeldimer.activities import tree_words
        from pretzeldimer.diagram import build_diagram, trace
        from pretzeldimer.evaluate import KHOVANOV_TABLE
        from pretzeldimer.laurent import Laurent, Laurent2
        from pretzeldimer.oracle import (state_sum_bracket,
                                         tree_expansion_bracket)
        from pretzeldimer.taitgraphs import build_tait

        self.spec = spec
        diagram = build_diagram(spec)
        t = trace(diagram)
        self.knot = t.components == 1
        g = build_tait(spec)
        if len(diagram.crossings) <= STATE_SUM_MAX_N:
            self.bracket = state_sum_bracket(diagram)
        else:
            self.bracket = tree_expansion_bracket(g)
        self.jones = self.poincare = None
        if self.knot:
            jones_a = self.bracket * Laurent.term(-1, -3) ** t.writhe
            self.jones = jones_a.reexpress(-4)
            check(self.jones.at_one() == 1, spec, "V(1) != 1")
            total = Laurent2.zero()
            for _, word in tree_words(g):
                term = Laurent2.one()
                for tok in word:
                    term = term * KHOVANOV_TABLE[tok]
                total = total + term
            self.poincare = total
            generators = sum(c for _, c in total.to_pairs())
            check(generators == workloads.term_count(spec), spec,
                  "generator total != term count law")


def check(ok, what, why):
    if not ok:
        raise AssertionError("%s: %s" % (what, why))


def _expected_stdout(argv, ref):
    """What an op must print, by the independent routes (None = no text
    check, the op is checked structurally instead)."""
    if argv[0] == "jones" and "--bracket" in argv:
        return ref.bracket.format("A") + "\n"
    if argv[0] == "jones":
        return ref.jones.format("t") + "\n"
    return None


def _check_op(argv, code, out, ref, spec_route):
    check(code == 0, argv, "exit code %d" % code)
    label = workloads.label(ref.spec)
    expected = _expected_stdout(argv, ref)
    if expected is not None:
        check(out == expected, argv, "stdout differs from the oracle")
    if argv[0] == "khovanov":
        lines = out.splitlines()
        check(lines[0] == "%s: %s" % (label, ref.poincare.format()), argv,
              "Poincare polynomial differs from the tree-word sum")
        check("total %d generators" % workloads.term_count(ref.spec) in lines,
              argv, "generator total line")
    if argv[0] == "verify":
        blob = json.loads(out)
        check(blob["ok"] and blob["terms"] == workloads.term_count(ref.spec),
              argv, "verify not ok or wrong term count")
        inv = blob["invariants"]
        check(inv["bracket_A"] == ref.bracket.to_pairs(), argv, "bracket")
        if ref.knot:
            check(inv["jones"] == ref.jones.to_pairs(), argv, "jones")
            check(inv["khovanov_uv"] == ref.poincare.to_pairs(), argv,
                  "khovanov")
    if "--extend" in argv:
        check(out == spec_route, argv, "grown op differs from spec route")


def golden_for_spec(task):
    """[(key, [code, digest])] for every universe op of one spec."""
    spec, ops = task
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pretzeldimer.cli as cli
    from worker import call, digest

    ref = Reference(spec)
    rows = []
    for argv in ops:
        code, out, _ = call(cli, argv)
        target = workloads.grown_equivalent(argv)
        if target is not None:
            ref_op = Reference(_spec_of(target))
            spec_route = call(cli, target)[1]
        else:
            ref_op = ref
            spec_route = call(cli, ["jones", workloads.label(spec)])[1] \
                if "--extend" in argv else None
        _check_op(argv, code, out, ref_op, spec_route)
        rows.append((workloads.key(argv), [code, digest(out)]))
    return rows


def write(golden):
    """One entry per line, sorted, so a regeneration diffs cleanly."""
    rows = ",\n".join("%s: %s" % (json.dumps(k), json.dumps(v))
                       for k, v in sorted(golden.items()))
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        fh.write('{"about": "exit code and sha256(stdout)[:16] of every '
                 'benchmark op, cross-checked by perfbench/make_golden.py",\n'
                 '"ops": {\n%s\n}}\n' % rows)


def main():
    by_spec = {}
    for argv in workloads.universe():
        by_spec.setdefault(_spec_of(argv), []).append(argv)
    # largest first, so the slow cross-checks do not trail at the end
    tasks = sorted(by_spec.items(),
                   key=lambda kv: -workloads.term_count(kv[0]) * len(kv[0]))
    ctx = multiprocessing.get_context("spawn")
    golden = {}
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        for i, rows in enumerate(pool.imap_unordered(golden_for_spec, tasks)):
            golden.update(rows)
            if (i + 1) % 500 == 0:
                print("%d/%d specs" % (i + 1, len(tasks)), file=sys.stderr)
    write(golden)
    print("wrote %d entries" % len(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
