import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import pretzeldimer
from pretzeldimer import cli, diagram
from pretzeldimer.cli import main
from pretzeldimer.diagram import MAX_CROSSINGS
from pretzeldimer.extend import MOVES

# golden byte-for-byte outputs for the three worked knots
GOLDEN_JONES = {
    "P(1,1,1)": "-t^-4 + t^-3 + t^-1\n",
    "P(-2,3,3)": "t^3 + t^5 - t^8\n",
    "P(-2,3,7)": "t^5 + t^7 - t^11 + t^12 - t^13\n",
}
GOLDEN_JONES_JSON = {
    "P(1,1,1)": "[[-4,-1],[-3,1],[-1,1]]\n",
    "P(-2,3,3)": "[[3,1],[5,1],[8,-1]]\n",
    "P(-2,3,7)": "[[5,1],[7,1],[11,-1],[12,1],[13,-1]]\n",
}
GOLDEN_BRACKET = {
    "P(1,1,1)": "-A^-5 - A^3 + A^7\n",
    "P(-2,3,3)": "-A^-8 + A^4 + A^12\n",
    "P(-2,3,7)": "-A^-16 + A^-12 - A^-8 + A^8 + A^16\n",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("spec", sorted(GOLDEN_JONES))
def test_jones_golden(capsys, spec):
    code, out, err = run(capsys, "jones", spec)
    assert (code, err) == (0, "")
    assert out == GOLDEN_JONES[spec]


@pytest.mark.parametrize("spec", sorted(GOLDEN_JONES_JSON))
def test_jones_json_golden(capsys, spec):
    code, out, _ = run(capsys, "jones", spec, "--json")
    assert code == 0
    assert out == GOLDEN_JONES_JSON[spec]
    # ascending t-exponent pairs, valid JSON
    pairs = json.loads(out)
    assert pairs == sorted(pairs)


@pytest.mark.parametrize("spec", sorted(GOLDEN_BRACKET))
def test_bracket_golden(capsys, spec):
    code, out, _ = run(capsys, "jones", spec, "--bracket")
    assert code == 0 and out == GOLDEN_BRACKET[spec]


def test_bracket_only_alias(capsys):
    code, out, _ = run(capsys, "jones", "P(1,1,1)", "--bracket-only")
    assert code == 0 and out == GOLDEN_BRACKET["P(1,1,1)"]


def test_raw_sign_line(capsys):
    code, out, _ = run(capsys, "jones", "P(-2,3,3)", "--raw-sign")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t^3 + t^5 - t^8"
    assert lines[1].startswith("raw determinant sign: ")
    assert lines[1][-2:] in ("+1", "-1")


def test_raw_sign_json(capsys):
    code, out, _ = run(capsys, "jones", "P(1,1,1)", "--json", "--raw-sign")
    blob = json.loads(out)
    assert code == 0
    assert set(blob) == {"jones", "raw_sign"}
    assert blob["raw_sign"] in (1, -1)


# ---------------------------------------------------------------------------
# exit-code contract: 0 ok, 1 failed check, 2 usage, 3 domain refusal

def test_parse_error_exits_2(capsys):
    for bad in ("P(0)", "P()", "nope", "1,0,1"):
        code, _, err = run(capsys, "jones", bad)
        assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("command", ["jones", "matrix", "khovanov", "verify"])
def test_huge_entries_exit_2(capsys, command):
    # more crossings than MAX_CROSSINGS: refused while parsing, before any
    # label exists, even where every entry fits a list index
    for spec in ("P(99999999999999999999)", "P(2,-3,99999999999999999999)",
                 "P(9223372036854775807)", "P(9223372036854775806,1)",
                 "P(%d)" % (MAX_CROSSINGS + 1)):
        code, _, err = run(capsys, command, spec)
        assert code == 2 and err.startswith("error:")
        assert "more than %d crossings" % MAX_CROSSINGS in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, crossings", [
    (("jones", "P(5,6)"), 11),
    (("jones", "P(-5,4,1)", "--extend", "r2:series", "--extend",
      "r2:parallel"), 14),
    (("matrix", "P(-2,3,4)", "--extend", "subdivide", "--extend",
      "double"), 11),
    (("jones", "P(-2,3,1)", "--extend", "r2:series", "--extend",
      "r2:parallel", "--extend", "r1:loop"), 11),
    (("jones", "P(-2,3,1)", "--extend", "r2:series", "--extend",
      "r2:parallel"), 10),
    (("matrix", "P(-2,3,4)", "--extend", "double"), 10),
])
def test_extend_chains_past_the_limit_exit_2(capsys, monkeypatch, argv,
                                             crossings):
    # a chain counts two crossings per r2 move and one per other move on
    # top of its spec, and one past the limit is refused like such a spec,
    # before any state is built; the limit is patched down so that no
    # test builds a state of a million crossings
    monkeypatch.setattr(diagram, "MAX_CROSSINGS", 10)
    built = []
    real = cli.initial_state
    monkeypatch.setattr(cli, "initial_state",
                        lambda spec: built.append(spec) or real(spec))
    code, out, err = run(capsys, *argv)
    if crossings > 10:
        assert (code, out, built) == (2, "", [])
        assert err == "error: more than 10 crossings\n"
    else:
        assert (code, err) == (0, "") and len(built) == 1
        st = cli.apply_moves(real(built[0]), argv[3::2])
        assert st.n == crossings


def test_bare_leading_negative_spec(capsys):
    # argparse would read "-2,3,7" as an option; it must parse as a spec
    for args in ((), ("--json",), ("--bracket",)):
        assert run(capsys, "jones", "-2,3,7", *args) == \
            run(capsys, "jones", "P(-2,3,7)", *args)
    code, out, _ = run(capsys, "jones", "-2,3,7")
    assert (code, out) == (0, GOLDEN_JONES["P(-2,3,7)"])
    assert run(capsys, "khovanov", "-2,3,3") == \
        run(capsys, "khovanov", "P(-2,3,3)")
    code, _, err = run(capsys, "jones", "-2,0,3")
    assert code == 2 and err.startswith("error:")


def test_consecutive_calls_stay_independent(capsys):
    # the parser is built once per process; no call may leak into the next
    plain = run(capsys, "jones", "P(1,1,3)")
    grown = run(capsys, "jones", "P(1,1,3)", "--extend", "r2:series",
                "--extend", "r1:bridge", "--raw-sign")
    assert run(capsys, "jones", "P(1,1,3)") == plain
    assert run(capsys, "jones", "P(1,1,3)", "--extend", "r2:series",
               "--extend", "r1:bridge", "--raw-sign") == grown
    assert plain[0] == grown[0] == 0
    assert grown[1].splitlines()[0] == plain[1].strip()
    assert "raw determinant sign" not in plain[1]


def test_link_without_bracket_exits_3(capsys):
    code, _, err = run(capsys, "jones", "P(2,2)")
    assert code == 3 and "components" in err
    code, out, _ = run(capsys, "jones", "P(2,2)", "--bracket")
    assert code == 0 and out == "-A^-10 + A^-6 - A^-2 - A^6\n"


def test_khovanov_link_exits_3(capsys):
    code, _, err = run(capsys, "khovanov", "P(2,2)")
    assert code == 3 and "knot" in err


def test_bad_extension_chain_exits_2(capsys):
    code, _, err = run(capsys, "jones", "P(3)", "--extend", "subdivide")
    assert code == 2 and "twist top" in err


@pytest.mark.parametrize("argv", [["jones", "P(-2,3,7)"],
                                  ["khovanov", "P(-2,3,7)"],
                                  ["jones", "P(-2,3,7)", "--bracket"],
                                  ["verify", "P(-2,3,7)"]])
def test_fault_in_elimination_propagates(monkeypatch, capsys, argv):
    # a ValueError that is neither a usage error nor a refusal is a fault:
    # it leaves main with its traceback instead of exiting 3
    def faulty(rows, n):
        raise ValueError("inexact Laurent division")

    monkeypatch.setattr("pretzeldimer.matrix._eliminate", faulty)
    with pytest.raises(ValueError, match="inexact Laurent division") as exc:
        main(argv)
    assert type(exc.value) is ValueError
    assert capsys.readouterr().err == ""


def test_verify_ok_exits_0(capsys):
    code, out, _ = run(capsys, "verify", "P(1,1,1)")
    assert code == 0
    assert "3 expansion terms" in out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_scans_the_state_sum(capsys):
    # 24 crossings: 2^24 states, summed rather than visited
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", "P(-2,3,19)")
    assert time.perf_counter() - t0 < 5
    assert code == 0
    assert "P(-2,3,19): 24 crossings" in out
    assert "all checks passed" in out


def test_verify_link_skips_jones(capsys):
    code, out, _ = run(capsys, "verify", "P(2,2)")
    assert code == 0
    assert "jones checks skipped" in out
    assert "bracket: matrix = trees = state sum" in out


# ---------------------------------------------------------------------------
# matrix rendering

def test_matrix_plain_trefoil(capsys):
    code, out, _ = run(capsys, "matrix", "P(1,1,1)")
    assert code == 0
    assert out == "L | ℓ ·\nD | d ℓ\nD | · d\n"


def test_matrix_k1_edge_case(capsys):
    code, out, _ = run(capsys, "matrix", "P(2)")
    assert code == 0
    assert out == "L | ·\nD | L\n"


def test_matrix_signed_enhanced(capsys):
    code, out, _ = run(capsys, "matrix", "P(-2,3,3)", "--signed",
                       "--enhanced", "--ascii")
    assert code == 0
    assert "-L~" in out          # a negative barred entry, ASCII bars
    assert out.count("(w+1)") == 8
    code, out, _ = run(capsys, "matrix", "P(2,2)", "--enhanced")
    assert code == 3


def test_matrix_json_roundtrip(capsys):
    code, out, _ = run(capsys, "matrix", "P(-2,3,3)", "--signed", "--json")
    blob = json.loads(out)
    assert code == 0
    assert blob["rows"] == list(range(1, 9))
    assert blob["signed"] is True
    assert len(blob["entries"]) == 24
    regions = [c["region"] for c in blob["columns"]]
    assert regions == ["b1_1", "b2_2", "b2_1", "b3_2", "b3_1", "B",
                       "s1", "s2"]


def test_matrix_extend_renders(capsys):
    code, out, _ = run(capsys, "matrix", "P(1,1,3)", "--extend", "subdivide",
                       "--extend", "r1:bridge", "--ascii")
    assert code == 0
    assert len(out.splitlines()) == 7
    assert "-" not in out        # unsigned display by default


def test_unsigned_matrix_json_resets_every_sign(capsys):
    # without --signed every entry's sign reads 1, grown or not; with it
    # the grown matrix keeps the Kasteleyn signs the move placed
    for argv in ([], ["--extend", "subdivide"],
                 ["--extend", "subdivide", "--enhanced"]):
        code, out, _ = run(capsys, "matrix", "P(1,1,1)", "--json", *argv)
        blob = json.loads(out)
        assert code == 0 and blob["signed"] is False
        assert {e["sign"] for e in blob["entries"]} == {1}, argv
    code, out, _ = run(capsys, "matrix", "P(1,1,1)", "--json", "--signed",
                       "--extend", "subdivide")
    assert {e["sign"] for e in json.loads(out)["entries"]} == {1, -1}


def test_verify_json_bundle(capsys):
    code, out, _ = run(capsys, "verify", "P(1,1,1)", "--json")
    blob = json.loads(out)
    assert code == 0 and blob["ok"] is True
    assert blob["terms"] == 3
    assert all(blob["checks"].values())
    assert blob["invariants"]["jones"] == [[-4, -1], [-3, 1], [-1, 1]]


def test_khovanov_report(capsys):
    code, out, _ = run(capsys, "khovanov", "P(-2,3,3)")
    assert code == 0
    assert out.startswith("P(-2,3,3): u^-2v^4 + u^-2v^5 + 2u^-1v^4")
    assert "total 21 generators" in out
    assert "rows (2, 3)  columns (s1, B)  stencil d~L~/dD" in out


#: seconds khovanov may take on P(-2,3,5^7), whose stencil has 78 125 pairs
#: (about 30 s when the pairs were counted by expanding every term)
STENCIL_COUNT_BUDGET_S = 5


def test_khovanov_counts_stencil_pairs_without_expanding(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "khovanov", "P(-2,3,5,5,5,5,5,5,5)")
    took = time.perf_counter() - t0
    assert code == 0
    assert out.endswith("stencil d~L~/dD  (78125 word pairs)\n")
    assert took < STENCIL_COUNT_BUDGET_S


def test_khovanov_json(capsys):
    code, out, _ = run(capsys, "khovanov", "P(1,1,1)", "--json")
    blob = json.loads(out)
    assert code == 0
    assert blob["generators"] == 3
    assert blob["poincare"] == [[[-2, 1], 1], [[-1, 1], 1], [[1, 1], 1]]
    assert blob["differentials"] == []


# ---------------------------------------------------------------------------
# graph exports

def test_dot_exports(capsys):
    for kind, marker in (("tait", "graph tait {"),
                         ("dual", "graph dual {"),
                         ("overlay", "graph overlay {")):
        code, out, _ = run(capsys, "matrix", "P(1,1,1)", "--dot", kind)
        assert code == 0 and out.startswith(marker)


def test_dot_overlay_signed_marks_negatives(capsys):
    code, plain, _ = run(capsys, "matrix", "P(1,1,1)", "--dot", "overlay")
    code2, signed, _ = run(capsys, "matrix", "P(1,1,1)", "--dot", "overlay",
                           "--signed")
    assert code == code2 == 0
    assert "bold" not in plain and "bold" in signed


def test_dot_conflicts_with_extend(capsys):
    code, _, err = run(capsys, "matrix", "P(1,1,1)", "--dot", "tait",
                       "--extend", "double")
    assert code == 2 and "--dot" in err


#: modules whose import cost the CLI start-up must not pay
HEAVY_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
                 "__future__", "argparse", "gettext")


def test_cli_import_loads_no_heavy_module():
    # -S keeps site from preloading typing, which some .pth files import
    src = os.path.dirname(os.path.dirname(pretzeldimer.__file__))
    code = ("import sys; sys.path.insert(0, %r); before = set(sys.modules); "
            "import pretzeldimer.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))" % src)
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert "pretzeldimer.cli" in out.split()
    assert set(HEAVY_IMPORTS).isdisjoint(out.split())


@pytest.mark.parametrize("argv", [["jones", "P(-2,3,7)"],
                                  ["khovanov", "P(-2,3,201)"]])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # stdout is a pipe whose reader already went away, as `| head` leaves
    # it: the short jones line fails at the final flush, the long
    # khovanov line inside its print
    src = os.path.dirname(os.path.dirname(pretzeldimer.__file__))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pretzeldimer.cli"] + argv, stdout=write,
            stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# argv: the option table and argparse read every argv alike

HELP = pathlib.Path(__file__).resolve().parent / "help"


@pytest.mark.parametrize("command", ["top", "jones", "matrix", "verify",
                                     "khovanov"])
def test_help_text_golden(capsys, monkeypatch, command):
    # argparse wraps help to the terminal width; pin it
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["-h"] if command == "top" else [command, "-h"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.encode() == (HELP / ("%s.txt" % command)).read_bytes()


def test_long_extend_chain_reads_without_argparse(monkeypatch):
    # argparse copies the list on every append, quadratic in the chain
    def refuse():
        raise AssertionError("well-formed argv reached argparse")

    seen = []

    def recorded(state, moves):
        seen.append(list(moves))
        return apply_moves(state, moves)

    apply_moves = cli.apply_moves
    monkeypatch.setattr(cli, "_build_parser", refuse)
    monkeypatch.setattr(cli, "apply_moves", recorded)
    argv = ["jones", "P(-2,3,11)"] + ["--extend", "subdivide"] * 4000
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert seen == [["subdivide"] * 4000]


#: every command's flags; a valued flag comes with its choices
GRAMMAR = {
    "jones": ["--json", "--bracket", "--bracket-only", "--raw-sign",
              ("--extend", sorted(MOVES))],
    "matrix": ["--signed", "--enhanced", "--json", "--ascii",
               ("--dot", ["tait", "dual", "overlay"]),
               ("--extend", sorted(MOVES))],
    "verify": ["--json"],
    "khovanov": ["--json"],
}
#: tiny specs: a knot, a link, a bare negative spelling, a refused spec
FUZZ_SPECS = ["P(1,1,1)", "P(2,2)", "-1,-1,-1", "(1,1,2)", "P(0)"]
#: tokens no well-formed argv holds
SOUP = ["--br", "--ext", "--extend=double", "--json=1", "--", "-h", "-", "",
        "--nope", "-2,3,7"]


def _fuzz_corpus(seed):
    """Every flag and every choice once, then seeded mixtures and soup."""
    corpus = []
    for command, flags in GRAMMAR.items():
        corpus.append([command, "P(1,1,1)"])
        for flag in flags:
            if isinstance(flag, str):
                corpus.append([command, flag, "P(1,1,1)"])
            else:
                corpus += [[command, "P(1,1,1)", flag[0], choice]
                           for choice in flag[1]]
    rng = random.Random(seed)
    names = {c: {f if isinstance(f, str) else f[0] for f in flags}
             for c, flags in GRAMMAR.items()}
    foreign = {c: sorted(set().union(*names.values()) - names[c])
               for c in GRAMMAR}
    for _ in range(600):
        command = rng.choice(sorted(GRAMMAR))
        argv = []
        for _ in range(rng.randrange(5)):
            flag = rng.choice(GRAMMAR[command])
            argv += [flag] if isinstance(flag, str) else \
                [flag[0], rng.choice(flag[1])]
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(FUZZ_SPECS))
        for _ in range(rng.choice((0, 0, 1, 2))):
            soup = rng.choice(SOUP + ["FOREIGN", "BADCHOICE", "SPEC", "NOSPEC",
                                      "CUT"])
            if soup == "FOREIGN" and foreign[command]:
                soup = rng.choice(foreign[command])
            elif soup == "BADCHOICE":
                soup = rng.choice(["--extend nope", "--dot nope",
                                   "--extend --json"]).split()
            elif soup == "SPEC":
                soup = rng.choice(FUZZ_SPECS)
            elif soup == "NOSPEC":
                argv = [t for t in argv if t not in FUZZ_SPECS]
                continue
            elif soup == "CUT":                 # a valued flag with no value
                soup = rng.choice(["--dot", "--extend"])
                argv.append(soup)
                continue
            at = rng.randrange(len(argv) + 1)
            argv[at:at] = soup if isinstance(soup, list) else [soup]
        corpus.append([command] + argv)
    corpus += [[], ["-h"], ["nope", "P(1,1,1)"], ["P(1,1,1)"],
               ["-2,3,7"], ["jones"]]
    return corpus


def _outcome(argv):
    """(exit code, stdout, stderr) of main, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", [1, 2])
def test_table_reader_agrees_with_argparse(monkeypatch, seed):
    monkeypatch.setenv("COLUMNS", "80")
    accepted = declined = 0
    for argv in _fuzz_corpus(seed):
        respelled = [" " + a if cli._NEGATIVE_SPEC.match(a) else a
                     for a in argv]
        read = cli._read(respelled)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                parsed = vars(cli._build_parser().parse_args(respelled))
            except SystemExit as exc:
                parsed = exc.code
        if read is None:
            declined += 1
        else:
            accepted += 1
            assert vars(read) == parsed, argv
        if not isinstance(parsed, dict):        # help or a usage error
            assert read is None, argv

        code, out, err = _outcome(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_read", lambda argv: None)
            assert _outcome(argv) == (code, out, err), argv
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err, argv
    assert accepted > 200 and declined > 200
