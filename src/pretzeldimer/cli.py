"""Command-line surface for the pretzel dimer toolkit.

Four subcommands tie the pipeline together:

* ``jones``    - Jones polynomial in t (or the raw Kauffman bracket in A),
* ``matrix``   - the activity matrix, plain or signed/enhanced, plus dot
  exports of the checkerboard graphs,
* ``verify``   - cross-checks every route against the oracles,
* ``khovanov`` - the bigraded Poincare polynomial with its generator table
  and differential-stencil report.

Exit codes: 0 success, 1 a verification check failed, 2 usage or parse
error (including a spec of more than diagram.MAX_CROSSINGS crossings), 3
domain refusal (a link where a knot is required), 141 standard output
closed by its reader, as by ``| head`` (128 + SIGPIPE, what a shell
reports for a tool cut off that way).

``--extend`` grows the object before evaluation and may be repeated; moves
apply left to right.
"""
import argparse
import functools
import json
import math
import os
import re
import sys

from .activities import tree_words
from .diagram import parse_spec, trace
from .evaluate import scan_differentials, state_invariants, stencil_pair_counts
from .extend import (MOVES, apply_moves, initial_state, normalized,
                     state_bracket, state_jones_raw, state_khovanov_poincare,
                     state_matrix)
from .matrix import (JONES_TABLE, build_graph_matrix, dump_json, expand,
                     pretty, word_sum)
from .oracle import state_sum_bracket
from .taitgraphs import (build_overlay, build_tait, dual_graph,
                         overlay_to_dot, solve_kasteleyn, tait_to_dot,
                         verify_kasteleyn)


def _spec_label(spec):
    return "P(%s)" % ",".join(str(v) for v in spec)


def _grown(spec, moves):
    """Initial state with extension moves applied; ValueError on bad chains."""
    return apply_moves(initial_state(spec), moves)


# ---------------------------------------------------------------------------
# jones

def cmd_jones(spec, args):
    try:
        st = _grown(spec, args.extend)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    if args.bracket:
        val = state_bracket(st)
        if args.json:
            print(json.dumps(val.to_pairs(), separators=(",", ":")))
        else:
            print(val.format("A"))
        return 0

    try:
        raw = state_jones_raw(st)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    val = normalized(raw).reexpress(-4)
    sign = -1 if raw[1] else 1
    if args.json:
        if args.raw_sign:
            blob = {"jones": val.to_pairs(), "raw_sign": sign}
            print(json.dumps(blob, separators=(",", ":"), sort_keys=True))
        else:
            print(json.dumps(val.to_pairs(), separators=(",", ":")))
    else:
        print(val.format("t"))
        if args.raw_sign:
            print("raw determinant sign: %+d" % sign)
    return 0


# ---------------------------------------------------------------------------
# matrix

def cmd_matrix(spec, args):
    if args.dot:
        if args.extend:
            print("error: --dot renders the standard diagram; drop --extend",
                  file=sys.stderr)
            return 2
        if args.dot == "tait":
            print(tait_to_dot(build_tait(spec)))
        elif args.dot == "dual":
            print(tait_to_dot(dual_graph(build_tait(spec)), name="dual"))
        else:
            ov = build_overlay(spec)
            signs = solve_kasteleyn(ov) if args.signed else None
            print(overlay_to_dot(ov, signs))
        return 0

    try:
        st = _grown(spec, args.extend)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        m = state_matrix(st, args.signed, args.enhanced)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    if args.json:
        print(dump_json(m))
    else:
        print(pretty(m, ascii_bars=args.ascii))
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(spec, args):
    st = initial_state(spec)
    diagram, signed = st.diagram, st.matrix
    traced = trace(diagram)
    components = traced.components
    g = build_tait(spec)
    ov = build_overlay(spec)
    # the signs the determinant used, keyed like the overlay's edges
    signs = {(signed.rows[ri], signed.columns[ci].region): e.sign
             for (ri, ci), e in signed.entries.items()}
    terms = expand(signed)
    words = sorted(t.word for t in terms)
    twords = sorted(w for _, w in tree_words(g))
    inv = state_invariants(st, traced)

    checks = []
    checks.append(("block and graph constructors agree",
                   signed.by_region() == build_graph_matrix(ov).by_region()))
    same = words == twords
    checks.append(("expansion words = spanning-tree words", same))
    checks.append(("kasteleyn signing verified",
                   verify_kasteleyn(ov.faces, signs)))
    expect = sum(math.prod(abs(v) for j, v in enumerate(spec) if j != i)
                 for i in range(len(spec)))
    checks.append(("term count law (%d terms)" % len(words),
                   len(words) == expect))
    per = word_sum(words, JONES_TABLE)
    checks.append(("|determinant| = |permanent|",
                   inv.bracket in (per, -per)))
    checks.append(("sign split is a global constant",
                   len({t.parity * t.ksign for t in terms}) == 1))

    notice = None
    if components != 1:
        notice = ("%d-component link; jones checks skipped, "
                  "bracket checked instead" % components)
    # equal multisets of words have equal sums
    tree_sum = per if same else word_sum(twords, JONES_TABLE)
    checks.append(("%s: matrix = trees = state sum"
                   % ("jones" if components == 1 else "bracket"),
                   inv.bracket == tree_sum == state_sum_bracket(diagram)))

    failed = [name for name, ok in checks if not ok]
    if args.json:
        blob = {
            "spec": list(spec),
            "crossings": len(diagram.crossings),
            "components": components,
            "terms": len(words),
            "checks": {name: ok for name, ok in checks},
            "ok": not failed,
            "invariants": inv.to_json(spec),
        }
        print(json.dumps(blob, indent=2, sort_keys=True))
    else:
        print("%s: %d crossings, %d expansion terms"
              % (_spec_label(spec), len(diagram.crossings), len(words)))
        if notice:
            print(notice)
        width = max(len(name) for name, _ in checks)
        for name, ok in checks:
            print("  %-*s  %s" % (width, name, "ok" if ok else "FAIL"))
        print("all checks passed" if not failed
              else "%d check(s) failed" % len(failed))
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# khovanov

def cmd_khovanov(spec, args):
    st = initial_state(spec)
    try:
        val = state_khovanov_poincare(st)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    m = st.matrix
    reports = scan_differentials(m)
    pairs = val.to_pairs()
    total = sum(c for _, c in pairs)

    if args.json:
        blob = {
            "spec": list(spec),
            "poincare": pairs,
            "generators": total,
            "differentials": [r.to_json() for r in reports],
        }
        print(json.dumps(blob, indent=2, sort_keys=True))
        return 0

    print("%s: %s" % (_spec_label(spec), val.format()))
    print("generators by (u, v) bidegree:")
    for (u, v), c in pairs:
        print("  (%+d, %+d)  %d" % (u, v, c))
    print("total %d generators" % total)
    if not reports:
        print("no differential stencils found")
    for r, npairs in zip(reports, stencil_pair_counts(m, reports)):
        blob = r.to_json()
        print("differential: rows (%d, %d)  columns (%s, %s)  stencil %s  "
              "(%d word pair%s)"
              % (blob["rows"][0], blob["rows"][1], blob["cols"][0],
                 blob["cols"][1], blob["stencil"], npairs,
                 "" if npairs == 1 else "s"))
    return 0


# ---------------------------------------------------------------------------
# wiring

@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(
        prog="pretzeldimer",
        description="Exact knot invariants of pretzel links via spanning "
                    "trees, dimers and one determinant.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_spec(sp):
        sp.add_argument("spec", help="pretzel spec, e.g. \"P(-2,3,7)\" "
                                     "or \"-2,3,7\"")

    def add_extend(sp):
        sp.add_argument("--extend", action="append", default=[],
                        choices=sorted(MOVES), metavar="MOVE",
                        help="grow before evaluating; repeatable, applied "
                             "left to right (%s)" % ", ".join(sorted(MOVES)))

    j = sub.add_parser("jones", help="Jones polynomial in t")
    add_spec(j)
    j.add_argument("--json", action="store_true",
                   help="machine form: ascending [exponent, coefficient] "
                        "pairs")
    j.add_argument("--bracket", action="store_true",
                   help="print the Kauffman bracket in A instead "
                        "(links allowed)")
    j.add_argument("--bracket-only", dest="bracket", action="store_true",
                   help=argparse.SUPPRESS)
    j.add_argument("--raw-sign", action="store_true",
                   help="also report the determinant sign before "
                        "normalization")
    add_extend(j)
    j.set_defaults(func=cmd_jones)

    m = sub.add_parser("matrix", help="activity matrix and graph exports")
    add_spec(m)
    m.add_argument("--signed", action="store_true",
                   help="apply the Kasteleyn signing")
    m.add_argument("--enhanced", action="store_true",
                   help="annotate rows with traced crossing signs "
                        "(knots only)")
    m.add_argument("--json", action="store_true", help="machine form")
    m.add_argument("--ascii", action="store_true",
                   help="ASCII bars: L~ instead of L̄")
    m.add_argument("--dot", choices=("tait", "dual", "overlay"),
                   help="emit graphviz for G, G* or the balanced overlay")
    add_extend(m)
    m.set_defaults(func=cmd_matrix)

    v = sub.add_parser("verify", help="cross-check every route")
    add_spec(v)
    v.add_argument("--json", action="store_true",
                   help="machine form, including the invariant bundle")
    v.set_defaults(func=cmd_verify)

    k = sub.add_parser("khovanov", help="bigraded Poincare polynomial")
    add_spec(k)
    k.add_argument("--json", action="store_true", help="machine form")
    k.set_defaults(func=cmd_khovanov)
    return p


#: a bare spec with a leading minus, such as -2,3,7
_NEGATIVE_SPEC = re.compile(r"-\d")


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # argparse reads a leading "-" as an option; a leading space keeps the
    # spec positional, and parse_spec strips it again
    argv = [" " + a if _NEGATIVE_SPEC.match(a) else a for a in argv]
    args = _build_parser().parse_args(argv)
    try:
        spec = parse_spec(args.spec)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        code = args.func(spec, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left in the buffer goes to devnull when Python exits
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
