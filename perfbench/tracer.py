"""Per-module spans around the program's public functions.

The tracer wraps functions from the outside and patches the wrapper into
every ``pretzeldimer.*`` namespace that holds the original (``matrix.expand``
and ``evaluate.expand`` alike), so the program's source is untouched.  Each
wrapped call is a span; a span's self time is its duration minus that of the
wrapped calls nested inside it, so the buckets below add up without double
counting.  Spans are folded into per-bucket totals as they close.
"""
import functools
import sys
import time

#: bucket -> [(module, function name)]; a bucket's time is the self time
#: of all its functions.  Helpers left unwrapped count towards their caller.
BUCKETS = {
    "cli.self": [("cli", "main")],
    "diagram.build": [("diagram", "build_diagram")],
    "diagram.trace": [("diagram", "trace")],
    "taitgraphs.overlay": [("taitgraphs", "build_overlay"),
                           ("taitgraphs", "corner_regions")],
    "taitgraphs.kasteleyn": [("taitgraphs", "solve_kasteleyn"),
                             ("taitgraphs", "verify_kasteleyn")],
    "taitgraphs.tait": [("taitgraphs", "build_tait"),
                        ("taitgraphs", "dual_graph")],
    "matrix.build": [("matrix", "build_block_matrix"),
                     ("matrix", "build_graph_matrix"),
                     ("matrix", "sign_matrix"), ("matrix", "enhance")],
    "matrix.expand": [("matrix", "expand"), ("matrix", "word_multiset")],
    "matrix.eval": [("matrix", "det_value"), ("matrix", "perm_value")],
    "evaluate.pipeline": [("evaluate", name) for name in (
        "pipeline_matrix", "bracket", "jones_in_A_raw", "jones_in_A",
        "jones", "khovanov_poincare", "invariant_bundle")],
    "evaluate.scan": [("evaluate", "scan_differentials")],
    "evaluate.word_pairs": [("evaluate", "stencil_word_pairs")],
    "extend.moves": [("extend", "apply_moves")],
    "extend.state": [("extend", name) for name in (
        "initial_state", "state_bracket", "state_jones_raw",
        "state_jones_in_A", "state_jones")],
    "activities.tree_words": [("activities", "tree_words")],
    "oracle.state_sum": [("oracle", "state_sum_bracket")],
    "oracle.tree_bracket": [("oracle", "tree_expansion_bracket"),
                            ("oracle", "tree_expansion_jones")],
}


def _poly_size(poly):
    """(exponent span, largest coefficient bit length) of a result."""
    if not poly.coeffs:
        return 0, 0
    keys = list(poly.coeffs)
    if isinstance(keys[0], tuple):           # Laurent2: widest variable
        span = max(max(k[i] for k in keys) - min(k[i] for k in keys)
                   for i in (0, 1))
    else:
        span = max(keys) - min(keys)
    return span, max(abs(c).bit_length() for c in poly.coeffs.values())


class Tracer:
    """Collects self time and call counts per bucket, plus work counters."""

    def __init__(self):
        self._stack = []              # child time accumulated per open span
        self._patches = []
        self.reset()

    def reset(self):
        self.self_s = {b: 0.0 for b in BUCKETS}
        self.calls = {b: 0 for b in BUCKETS}
        self.counts = {"expand_calls": 0, "expand_terms": 0, "mul_calls": 0,
                       "states": 0, "trees": 0, "moves": 0, "max_span": 0,
                       "max_coeff_bits": 0}

    # -- work counters read from arguments and results ---------------------

    def _after(self, name, args, result):
        c = self.counts
        if name == "expand":                 # not word_multiset, which
            c["expand_calls"] += 1           # calls expand itself
            c["expand_terms"] += len(result)
        elif name in ("det_value", "perm_value"):
            span, bits = _poly_size(result)
            c["max_span"] = max(c["max_span"], span)
            c["max_coeff_bits"] = max(c["max_coeff_bits"], bits)
        elif name == "state_sum_bracket":
            c["states"] += 1 << len(args[0].crossings)
        elif name == "tree_words":
            c["trees"] += len(result)
        elif name == "apply_moves":
            c["moves"] += len(args[1])

    def _wrap(self, fn, bucket):
        stack = self._stack
        clock = time.perf_counter
        after = self._after
        name = fn.__name__

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                child = stack.pop()
                self.self_s[bucket] += took - child
                self.calls[bucket] += 1
                if stack:
                    stack[-1] += took
            after(name, args, result)
            return result

        return span

    def _count_mul(self, mul):
        @functools.wraps(mul)
        def counted(a, b):
            self.counts["mul_calls"] += 1
            return mul(a, b)

        return counted

    # -- installing ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch every wrapped function into every pretzeldimer namespace."""
        import pretzeldimer.cli  # noqa: F401  (loads every module)
        from pretzeldimer.laurent import Laurent, Laurent2

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "pretzeldimer" or n.startswith("pretzeldimer.")]
        for bucket, funcs in BUCKETS.items():
            for module, name in funcs:
                original = getattr(sys.modules["pretzeldimer." + module], name)
                wrapper = self._wrap(original, bucket)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, attr, wrapper)
        for cls in (Laurent, Laurent2):
            self._set(cls, "__mul__", self._count_mul(cls.__mul__))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reading --------------------------------------------------------------

    def metrics(self):
        """The per-module figures for one pass, keyed by metric name."""
        s, n, c = self.self_s, self.calls, self.counts
        return {
            "cli.self_s": s["cli.self"],
            "diagram.build_s": s["diagram.build"],
            "diagram.trace_s": s["diagram.trace"],
            "diagram.trace_calls": n["diagram.trace"],
            "taitgraphs.overlay_s": s["taitgraphs.overlay"],
            "taitgraphs.kasteleyn_s": s["taitgraphs.kasteleyn"],
            "taitgraphs.tait_s": s["taitgraphs.tait"],
            "matrix.build_s": s["matrix.build"],
            "matrix.expand_s": s["matrix.expand"],
            "matrix.expand_calls": c["expand_calls"],
            "matrix.expand_terms": c["expand_terms"],
            "matrix.eval_self_s": s["matrix.eval"],
            "matrix.eval_calls": n["matrix.eval"],
            "laurent.mul_calls": c["mul_calls"],
            "laurent.max_span": c["max_span"],
            "laurent.max_coeff_bits": c["max_coeff_bits"],
            "evaluate.pipeline_self_s": s["evaluate.pipeline"],
            "evaluate.scan_s": s["evaluate.scan"],
            "evaluate.word_pairs_self_s": s["evaluate.word_pairs"],
            "evaluate.word_pairs_calls": n["evaluate.word_pairs"],
            "extend.moves_s": s["extend.moves"],
            "extend.moves": c["moves"],
            "extend.state_self_s": s["extend.state"],
            "activities.tree_words_s": s["activities.tree_words"],
            "activities.trees": c["trees"],
            "oracle.state_sum_s": s["oracle.state_sum"],
            "oracle.states": c["states"],
            "oracle.tree_bracket_self_s": s["oracle.tree_bracket"],
        }
