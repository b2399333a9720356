import json
import os
import subprocess
import sys
import time

import pytest

import pretzeldimer
from pretzeldimer.cli import main

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
    # more crossings than a list index holds: refused while parsing, before
    # any label exists
    for spec in ("P(99999999999999999999)", "P(2,-3,99999999999999999999)"):
        code, _, err = run(capsys, command, spec)
        assert code == 2 and err.startswith("error:")
        assert "Traceback" not in err


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
                 "__future__")


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
