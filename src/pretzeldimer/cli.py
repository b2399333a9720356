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
reports for a tool cut off that way).  A command returns 0 or 1; codes 2
and 3 are raised as diagram.UsageError and diagram.Refusal and mapped to
their codes once, in main.  Any other exception is a fault and propagates
with its traceback.

``--extend`` grows the object before evaluation and may be repeated; moves
apply left to right.

The grammar is declared once, in COMMANDS.  main reads argv straight off
that table when it has the plain shape: a command name, then only that
command's exact long flags (a valued flag followed by one of its choices)
and one spec.  Any other argv (-h, an abbreviation, --flag=value, --, an
unknown or foreign flag, a bad choice, no spec or two) goes to an argparse
parser built from the same table, so help, usage errors and their exit
codes are argparse's own, and a well-formed call never imports argparse.
The table reader appends --extend moves in place, linear in the chain,
where argparse copies the list at every append.
"""
import functools
import json
import math
import os
import re
import sys
import types

from .activities import tree_words
from .diagram import Refusal, UsageError, parse_spec, trace
from .evaluate import scan_differentials, state_invariants, stencil_pair_counts
from .extend import (MOVES, apply_moves, initial_state, normalized,
                     state_bracket, state_jones_raw, state_khovanov_poincare,
                     state_matrix)
from .matrix import (JONES_TABLE, build_graph_matrix, dump_json, expand,
                     pretty, word_sum)
from .oracle import state_sum_bracket
from .taitgraphs import (build_overlay, build_tait, dual_graph,
                         overlay_to_dot, solve_kasteleyn, tait_graph,
                         tait_to_dot, verify_kasteleyn)


def _spec_label(spec):
    return "P(%s)" % ",".join(str(v) for v in spec)


# ---------------------------------------------------------------------------
# jones

def cmd_jones(spec, args):
    st = apply_moves(initial_state(spec), args.extend)
    if args.bracket:
        val = state_bracket(st)
        if args.json:
            print(json.dumps(val.to_pairs(), separators=(",", ":")))
        else:
            print(val.format("A"))
        return 0

    raw = state_jones_raw(st)
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
            raise UsageError("--dot renders the standard diagram; drop "
                             "--extend")
        if args.dot == "tait":
            print(tait_to_dot(build_tait(spec)))
        elif args.dot == "dual":
            print(tait_to_dot(dual_graph(build_tait(spec)), name="dual"))
        else:
            ov = build_overlay(spec)
            signs = solve_kasteleyn(ov) if args.signed else None
            print(overlay_to_dot(ov, signs))
        return 0

    st = apply_moves(initial_state(spec), args.extend)
    m = state_matrix(st, args.signed, args.enhanced)
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
    ov = build_overlay(spec)
    g = tait_graph(ov.corners, ov.crossing_signs)
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
    val = state_khovanov_poincare(st)
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

#: --extend: a move name per use, appended in order
_EXTEND = ("--extend", "extend", "append", sorted(MOVES),
           "grow before evaluating; repeatable, applied left to right (%s)"
           % ", ".join(sorted(MOVES)))

#: the grammar: command -> (summary, handler, options).  An option is
#: (flag, dest, action, choices, help), action being argparse's name for
#: it; help None hides an alias.  Help lists options in this order.
COMMANDS = {
    "jones": ("Jones polynomial in t", cmd_jones, (
        ("--json", "json", "store_true", None,
         "machine form: ascending [exponent, coefficient] pairs"),
        ("--bracket", "bracket", "store_true", None,
         "print the Kauffman bracket in A instead (links allowed)"),
        ("--bracket-only", "bracket", "store_true", None, None),
        ("--raw-sign", "raw_sign", "store_true", None,
         "also report the determinant sign before normalization"),
        _EXTEND)),
    "matrix": ("activity matrix and graph exports", cmd_matrix, (
        ("--signed", "signed", "store_true", None,
         "apply the Kasteleyn signing"),
        ("--enhanced", "enhanced", "store_true", None,
         "annotate rows with traced crossing signs (knots only)"),
        ("--json", "json", "store_true", None, "machine form"),
        ("--ascii", "ascii", "store_true", None,
         "ASCII bars: L~ instead of L̄"),
        ("--dot", "dot", "store", ("tait", "dual", "overlay"),
         "emit graphviz for G, G* or the balanced overlay"),
        _EXTEND)),
    "verify": ("cross-check every route", cmd_verify, (
        ("--json", "json", "store_true", None,
         "machine form, including the invariant bundle"),)),
    "khovanov": ("bigraded Poincare polynomial", cmd_khovanov, (
        ("--json", "json", "store_true", None, "machine form"),)),
}

#: command -> (flag -> (dest, action, choices), the defaults of the dests
#: that hold one value, the dests that hold a list)
_FLAGS = {
    name: ({flag: (dest, action, choices)
            for flag, dest, action, choices, _ in options},
           {dest: False if action == "store_true" else None
            for _, dest, action, _, _ in options if action != "append"},
           [dest for _, dest, action, _, _ in options if action == "append"])
    for name, (_, _, options) in COMMANDS.items()}


def _read(argv):
    """The arguments argparse would give a well-formed argv, or None.

    Only argv of the plain shape is read: a command, its exact flags each
    with a valid value where one is due, and one token not starting with
    "-" as the spec.  Anything else returns None for argparse to judge.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    command = argv[0]
    flags, defaults, lists = _FLAGS[command]
    fields = dict(defaults, command=command, func=COMMANDS[command][1],
                  spec=None)
    for dest in lists:                    # fresh per call, appended in place
        fields[dest] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if fields["spec"] is not None:
                return None
            fields["spec"] = token
            continue
        option = flags.get(token)
        if option is None:
            return None
        dest, action, choices = option
        if action == "store_true":
            fields[dest] = True
            continue
        value = next(tokens, None)
        if value not in choices:
            return None
        if action == "append":
            fields[dest].append(value)
        else:
            fields[dest] = value
    if fields["spec"] is None:
        return None
    return types.SimpleNamespace(**fields)


@functools.cache
def _build_parser():
    """The argparse parser of COMMANDS, for help and usage errors."""
    import argparse
    p = argparse.ArgumentParser(
        prog="pretzeldimer",
        description="Exact knot invariants of pretzel links via spanning "
                    "trees, dimers and one determinant.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (summary, func, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("spec", help="pretzel spec, e.g. \"P(-2,3,7)\" "
                                     "or \"-2,3,7\"")
        for flag, dest, action, choices, text in options:
            extra = {}
            if choices:
                extra["choices"] = choices
            if action == "append":
                extra.update(default=[], metavar="MOVE")
            sp.add_argument(flag, dest=dest, action=action,
                            help=argparse.SUPPRESS if text is None else text,
                            **extra)
        sp.set_defaults(func=func)
    return p


#: a bare spec with a leading minus, such as -2,3,7
_NEGATIVE_SPEC = re.compile(r"-\d")


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # argparse reads a leading "-" as an option; a leading space keeps the
    # spec positional, and parse_spec strips it again
    argv = [" " + a if _NEGATIVE_SPEC.match(a) else a for a in argv]
    args = _read(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        code = args.func(parse_spec(args.spec), args)
        sys.stdout.flush()
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Refusal as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except BrokenPipeError:
        # what is left in the buffer goes to devnull when Python exits
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
