"""One benchmark client: a fresh interpreter driving ``cli.main`` in-process.

Usage: ``python3 perfbench/worker.py SRC_DIR``.  The worker imports
``pretzeldimer.cli`` from SRC_DIR, prints ``ready`` (the parent stops its
set-up clock there), then reads one JSON job from stdin:

    {"ops": [argv, ...], "probes": [argv, ...], "seconds": 12.5,
     "trace": false}

It runs the op list in passes, one op at a time (a closed loop with one
client), and starts another pass only while one more is predicted to end
within ``seconds``; it always runs at least one.  A calibration unit runs
after every ``calibrate.EVERY_S`` of op time (see calibrate.py).  Objects
that exist once the CLI is imported are frozen out of the cyclic collector,
which keeps the collection before each op cheap.  After each pass the
worker prints one JSON line with the raw per-op latencies (``lat``), the
same latencies in reference seconds (``ref``), and each op's exit code and
stdout digest (plus per-module figures when tracing).  Probes run once,
untimed, after the passes.  The last line holds the process's peak RSS.
Closing stdin without a job makes the worker exit at once, which is how
the parent samples set-up time.
"""
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import calibrate


def _load(src):
    sys.path.insert(0, src)
    import pretzeldimer.cli as cli
    here = os.path.realpath(cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit("pretzeldimer imported from %s, not %s" % (here, src))
    return cli


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def call(cli, argv):
    """(exit code, stdout, latency in s) of one in-process CLI call.

    Garbage left by earlier calls is collected first, outside the timing, so
    each call starts from the same heap state, as a fresh process would.
    Otherwise a call's latency depends on when the cyclic collector last
    ran, which moved single ops by up to 50 %.
    """
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:                   # a traceback exits 1 at the shell
            code = 1
        took = time.perf_counter() - start
    if code is None:
        code = 0
    elif not isinstance(code, int):
        code = 1
    return code, out.getvalue(), took


def main():
    cli = _load(sys.argv[1])
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    job = json.loads(line)
    gc.freeze()                     # import-time objects: never garbage

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    spans = []                                # pass times incl. calibration
    start = time.perf_counter()
    unit = calibrate.unit()
    while True:
        if tracer:
            tracer.reset()
        lat, outs, cuts, units = [], [], [], [unit]
        begun = mark = time.perf_counter()
        for argv in job["ops"]:
            code, text, took = call(cli, argv)
            lat.append(took)
            outs.append([code, digest(text)])
            if time.perf_counter() - mark >= calibrate.EVERY_S:
                units.append(calibrate.unit())
                cuts.append(len(lat))
                mark = time.perf_counter()
        if not cuts or cuts[-1] < len(lat):
            units.append(calibrate.unit())
            cuts.append(len(lat))
        unit = units[-1]
        record = {"lat": lat, "ref": calibrate.rescale(lat, cuts, units),
                  "out": outs}
        if tracer:
            record["layers"] = tracer.metrics()
        print(json.dumps(record), flush=True)
        spans.append(time.perf_counter() - begun)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(spans) > job["seconds"]:
            break

    if tracer:
        tracer.uninstall()
    probes = []
    for argv in job["probes"]:
        code, text, _ = call(cli, argv)
        probes.append([code, digest(text)])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"done": True, "probes": probes, "rss_kb": rss_kb}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
