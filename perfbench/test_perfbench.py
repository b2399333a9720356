"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import functools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _golden():
    with open(run.GOLDEN) as fh:
        return json.load(fh)["ops"]


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WHY))
def test_same_seed_gives_same_argv_lists(name):
    assert workloads.generate(name, 11) == workloads.generate(name, 11)
    assert any(workloads.generate(name, 11) != workloads.generate(name, s)
               for s in (12, 13, 14))


def test_golden_covers_exactly_the_universe():
    keys = {workloads.key(a) for a in workloads.universe()}
    assert set(_golden()) == keys
    for name in workloads.WHY:
        for seed in range(30):
            ops, probes = workloads.generate(name, seed)
            assert {workloads.key(ref) for _, ref in ops + probes} <= keys


def test_probes_are_the_bare_leading_negative_spellings():
    ops, probes = workloads.generate("desk", 5)
    assert probes and all(a[1].startswith("-") for a, _ in probes)
    respelled = [(a, r) for a, r in ops if a != r]
    assert respelled
    assert all(not a[1].startswith(("P", "-")) for a, _ in respelled)


def test_corrupted_golden_entry_counts_as_failure():
    golden = _golden()
    ops, _ = workloads.generate("desk", 3)
    outs = [golden[workloads.key(ref)] for _, ref in ops]
    assert run.count_failures(ops, outs, golden) == 0
    victim = workloads.key(ops[0][1])
    bad = dict(golden, **{victim: [0, "0" * 16]})
    hits = sum(1 for _, ref in ops if workloads.key(ref) == victim)
    assert run.count_failures(ops, outs, bad) == hits >= 1


def test_tail_takes_highest_percentile_with_ten_beyond():
    assert run.tail(range(40)) == (75, 29, 10)
    assert run.tail(range(120))[::2] == (90, 12)
    assert run.tail(range(1200))[0] == 99


def test_benchmark_json_names_match_the_harness():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WHY)
    assert [w["why"] for w in bench["workloads"]] == list(
        workloads.WHY.values())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        run.PER_LAYER)


def test_tracer_restores_every_namespace():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import pretzeldimer.cli as cli
    from pretzeldimer import evaluate, matrix
    from tracer import Tracer
    from worker import call

    original = matrix.expand
    tracer = Tracer()
    tracer.install()
    try:
        assert evaluate.expand is matrix.expand is not original
        code, _, took = call(cli, ["khovanov", "P(-2,3,7)"])
        figures = tracer.metrics()
    finally:
        tracer.uninstall()
    assert evaluate.expand is matrix.expand is original
    assert code == 0
    assert figures["matrix.expand_calls"] >= 2
    assert figures["matrix.expand_terms"] > 0
    assert figures["laurent.mul_calls"] > 0
    selfs = [v for k, v in figures.items() if k.endswith("_s")]
    assert min(selfs) >= 0 and 0 < sum(selfs) <= took


def test_expand_calls_count_each_expansion_once(monkeypatch):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import pretzeldimer.cli as cli
    from pretzeldimer import matrix
    from tracer import Tracer
    from worker import call

    original, real = matrix.expand, []

    @functools.wraps(original)
    def counted(*args, **kwargs):
        real.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("pretzeldimer") and \
                getattr(module, "expand", None) is original:
            monkeypatch.setattr(module, "expand", counted)
    tracer = Tracer()
    tracer.install()
    try:
        code, _, _ = call(cli, ["verify", "--json", "P(-2,3,7)"])
        figures = tracer.metrics()
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls["matrix.expand"] > len(real)     # word_multiset too
    assert figures["matrix.expand_calls"] == len(real) > 3


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_declared_metrics(trace, capsys):
    assert run.main(["--workload", "long", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    bench = _benchmark_json()
    declared = bench["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_corrupted_golden_file_raises_fail_ratio(tmp_path, monkeypatch,
                                                  capsys):
    ops, _ = workloads.generate("long", 2)
    golden = _golden()
    golden[workloads.key(ops[0][1])] = [0, "0" * 16]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"ops": golden}))
    monkeypatch.setattr(run, "GOLDEN", str(path))
    assert run.main(["--workload", "long", "--seed", "2", "--seconds", "1",
                     "--trace", "0"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // len(ops) >= 1
    assert "fail_ratio" in out
