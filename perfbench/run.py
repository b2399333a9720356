"""pretzeldimer benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Run from the repository root (the program is imported from ``src/``).  The
run generates the workload's op list from the seed, drives
``pretzeldimer.cli.main`` in a fresh interpreter (one client, closed loop,
``PRETZELDIMER_WORKERS`` removed from its environment), checks every op's
exit code and stdout against ``perfbench/golden.json`` and prints
human-readable lines followed by one JSON object as the last line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits the
time between an untraced worker and a worker with the per-module tracer
installed, and reports the per-module metrics plus the tracing overhead.
See perfbench/README.md.
"""
import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
WORKER = os.path.join(HERE, "worker.py")

#: (name, unit) of every end-to-end metric, in print order
END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: (name, unit) of every per-module metric the traced run reports; a
#: figure reads 0 on a workload that never calls its functions
PER_LAYER = (
    ("cli.self_s", "s"), ("diagram.build_s", "s"), ("diagram.trace_s", "s"),
    ("diagram.trace_calls", "count"), ("taitgraphs.overlay_s", "s"),
    ("taitgraphs.kasteleyn_s", "s"), ("taitgraphs.tait_s", "s"),
    ("matrix.build_s", "s"), ("matrix.expand_s", "s"),
    ("matrix.expand_calls", "count"), ("matrix.expand_terms", "count"),
    ("matrix.eval_self_s", "s"), ("matrix.eval_calls", "count"),
    ("laurent.mul_calls", "count"), ("laurent.max_span", "count"),
    ("laurent.max_coeff_bits", "count"), ("evaluate.pipeline_self_s", "s"),
    ("evaluate.scan_s", "s"), ("evaluate.word_pairs_self_s", "s"),
    ("evaluate.word_pairs_calls", "count"), ("extend.moves_s", "s"),
    ("extend.moves", "count"), ("extend.state_self_s", "s"),
    ("activities.tree_words_s", "s"), ("activities.trees", "count"),
    ("oracle.state_sum_s", "s"), ("oracle.states", "count"),
    ("oracle.tree_bracket_self_s", "s"), ("trace.overhead_s", "s"),
)

#: launches per run that only import the CLI, for the set-up median; half
#: run before the measuring worker and half after it
SETUP_PROBES = 12

#: percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.5, 99, 95, 90, 75, 50)

#: hard limit on a whole run, inside the 180 s a run may take
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("PRETZELDIMER_WORKERS", None)
    return env


def launch():
    """Start a worker; returns (process, set-up time until ready as
    (seconds, reference seconds))."""
    before = calibrate.unit()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", WORKER, SRC], cwd=ROOT, env=worker_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError("worker failed to start")
    return proc, (ready, ready * calibrate.scale([before, calibrate.unit()]))


def finish(proc, job, deadline):
    """Send the job, wait for the worker to end, return its JSON lines."""
    try:
        out, _ = proc.communicate(
            json.dumps(job) + "\n" if job else "",
            timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("run exceeded %d s" % RUN_LIMIT_S) from None
    if proc.returncode != 0:
        raise BenchError("worker exited %d" % proc.returncode)
    return [json.loads(s) for s in out.splitlines() if s.strip()]


def setup_samples(count, deadline):
    samples = []
    for _ in range(count):
        proc, ready = launch()
        finish(proc, None, deadline)
        samples.append(ready)
    return samples


def run_worker(ops, probes, seconds, trace, deadline):
    """One worker's passes and final record, plus its set-up time."""
    proc, ready = launch()
    lines = finish(proc, {"ops": [a for a, _ in ops],
                          "probes": [a for a, _ in probes],
                          "seconds": seconds, "trace": trace}, deadline)
    passes, last = lines[:-1], lines[-1]
    if not passes or not last.get("done"):
        raise BenchError("worker output incomplete")
    return passes, last, ready


def count_failures(ops, outs, golden):
    """Ops whose (exit code, stdout digest) differ from the reference."""
    failed = 0
    for (_, ref), got in zip(ops, outs):
        if golden.get(workloads.key(ref)) != list(got):
            failed += 1
    return failed


def tail(values):
    """(percentile, value, samples beyond) at the highest ladder rung that
    leaves at least ten samples above it (nearest-rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10 or p == TAIL_LADDER[-1]:
            return p, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def latency_stats(passes, key="ref"):
    """Per-op medians across passes, then their median and tail."""
    per_op = [statistics.median(lat) for lat in zip(*(p[key] for p in passes))]
    p, value, beyond = tail(per_op)
    return {"p50": statistics.median(per_op), "tail_p": p, "tail": value,
            "beyond": beyond, "ops": len(per_op),
            "samples": len(per_op) * len(passes)}


def commit():
    """HEAD of the checkout read straight from .git, or "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(args):
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return [
        "# pretzeldimer benchmark: workload %s, seed %d, %s s, trace %d"
        % (args.workload, args.seed, args.seconds, args.trace),
        "# python %s, nproc %d, %s" % (platform.python_version(), cpus,
                                       platform.platform()),
        "# commit %s" % commit(),
        "# closed loop, 1 client, fresh interpreter per worker, "
        "PRETZELDIMER_WORKERS unset",
    ]


def _wall(passes, key="ref"):
    return statistics.median(sum(p[key]) for p in passes)


def end_to_end(ops, probes, seconds, deadline):
    setups = setup_samples(SETUP_PROBES // 2, deadline)
    passes, last, ready = run_worker(ops, probes, seconds, False, deadline)
    setups += [ready] + setup_samples(SETUP_PROBES - SETUP_PROBES // 2,
                                      deadline)
    stats = latency_stats(passes)
    raw = latency_stats(passes, "lat")
    metrics = {
        "wall_s": _wall(passes),
        "op_p50_ms": stats["p50"] * 1000,
        "op_tail_ms": stats["tail"] * 1000,
        "setup_s": statistics.median(r for _, r in setups),
        "peak_rss_mb": last["rss_kb"] / 1024,
    }
    notes = {
        "wall_s": "median of %d passes of %d ops; raw %.4f s"
                  % (len(passes), len(ops), _wall(passes, "lat")),
        "op_p50_ms": "median of %d per-op medians, %d samples; raw %.4f ms"
                     % (stats["ops"], stats["samples"], raw["p50"] * 1000),
        "op_tail_ms": "p%g of %d per-op medians, %d beyond, %d samples; "
                      "raw %.4f ms" % (stats["tail_p"], stats["ops"],
                                       stats["beyond"], stats["samples"],
                                       raw["tail"] * 1000),
        "setup_s": "median of %d launches; raw %.4f s"
                   % (len(setups), statistics.median(s for s, _ in setups)),
        "peak_rss_mb": "ru_maxrss of the worker",
    }
    return metrics, notes, passes, last


def traced(ops, probes, seconds, deadline):
    plain, _, _ = run_worker(ops, [], seconds / 2, False, deadline)
    passes, last, _ = run_worker(ops, probes, seconds / 2, True, deadline)
    per_pass = []
    for p in passes:
        k = sum(p["ref"]) / sum(p["lat"])        # to reference seconds
        per_pass.append({name: v * k if name.endswith("_s") else v
                         for name, v in p["layers"].items()})
    layers = {name: statistics.median(f[name] for f in per_pass)
              for name in per_pass[0]}
    layers["trace.overhead_s"] = _wall(passes) - _wall(plain)
    metrics = {name: layers[name] for name, _ in PER_LAYER}
    return metrics, plain + passes, last


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pretzeldimer", "cli.py")):
        print("error: no src/pretzeldimer under %s" % ROOT, file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)["ops"]
    ops, probes = workloads.generate(args.workload, args.seed)

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, passes, last = traced(ops, probes, args.seconds,
                                           deadline)
            units = dict(PER_LAYER)
        else:
            metrics, notes, passes, last = end_to_end(ops, probes,
                                                      args.seconds, deadline)
            units = dict(END_TO_END)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    attempted = len(ops) * len(passes)
    failed = sum(count_failures(ops, p["out"], golden) for p in passes)
    probe_failed = count_failures(probes, last["probes"], golden)

    for line in metadata(args):
        print(line)
    print("# %s: %s" % (args.workload, workloads.WHY[args.workload]))
    for name, value in metrics.items():
        extra = "" if args.trace else "  (%s)" % notes[name]
        shown = ("%14d" % value if units[name] == "count"
                 else "%14.6f" % value)
        print("%-28s %s %-5s%s" % (name, shown, units[name], extra))
    print("%-28s %d/%d = %.6f" % ("fail_ratio", failed, attempted,
                                  failed / attempted))
    if probes:
        print("spelling probes: %d of %d bare leading-negative specs "
              "fail (known defect, outside the counts above)"
              % (probe_failed, len(probes)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
