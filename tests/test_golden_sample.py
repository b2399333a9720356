"""Output drift fails here, not only in the benchmark.

perfbench/golden.json holds the exit code and sha256(stdout)[:16] of every
op the benchmark can run, each confirmed by routes that bypass the
activity matrix when the file was made.  The benchmark compares what it
times with that file; this test runs a seeded sample of the same ops
through ``cli.main`` in-process, as the benchmark worker does, and
compares them too; every ``verify --json`` op, one per desk spec, runs in
full.  perfbench/workloads.py is loaded read-only for the op
universe; nothing under perfbench/ is written.
"""
import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import random
import time

import pytest

from pretzeldimer.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

#: ops drawn per workload (all of a smaller workload), and the seconds one
#: workload's sample may take (about 1 s each on a 2-core box, CPython 3.11)
SAMPLE_OPS = 200
SAMPLE_BUDGET_S = 30

#: seconds all 4 112 verify ops may take (about 8 s on a 2-core box)
VERIFY_BUDGET_S = 60


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def _pools():
    """workload -> its ops; together they are workloads.universe()."""
    w = WORKLOADS
    return {"desk": w.desk_universe(), "wide": w.wide_universe(),
            "long": w.long_universe(), "verify": w.verify_universe()}


def _golden():
    return json.loads((PERFBENCH / "golden.json").read_text())["ops"]


def _run(argv):
    """(exit code, sha256(stdout)[:16]) of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:       # argparse refusals
            code = exc.code
    return code or 0, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def test_pools_are_the_golden_universe():
    pools = _pools()
    assert sorted(pools) == sorted(WORKLOADS.WHY)
    assert [op for name in ("desk", "wide", "long", "verify")
            for op in pools[name]] == WORKLOADS.universe()
    golden = _golden()
    assert all(WORKLOADS.key(op) in golden for op in WORKLOADS.universe())


def _drift(ops):
    """[(key, got, golden), ...] over the ops whose run differs."""
    golden = _golden()
    drifted = []
    for argv in ops:
        key = WORKLOADS.key(argv)
        got = list(_run(argv))
        if got != golden[key]:
            drifted.append((key, got, golden[key]))
    return drifted


@pytest.mark.parametrize("workload", ["desk", "wide", "long", "verify"])
def test_sampled_ops_match_golden(workload):
    pool = _pools()[workload]
    ops = random.Random("golden:" + workload).sample(
        pool, min(SAMPLE_OPS, len(pool)))
    t0 = time.perf_counter()
    drifted = _drift(ops)
    elapsed = time.perf_counter() - t0
    assert not drifted, drifted[:5]
    assert elapsed < SAMPLE_BUDGET_S


def test_every_verify_op_matches_golden():
    ops = WORKLOADS.verify_universe()
    assert len(ops) == 4112
    t0 = time.perf_counter()
    drifted = _drift(ops)
    elapsed = time.perf_counter() - t0
    assert not drifted, drifted[:5]
    assert elapsed < VERIFY_BUDGET_S
