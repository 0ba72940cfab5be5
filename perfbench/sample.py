"""One benchmark sample in a fresh interpreter.

Usage: python3 -I perfbench/sample.py '<request JSON>'

The request names the workload, the seed and the kind of sample:
``setup`` (import and load only), ``explore`` (one timed exploration)
or ``trace`` (one exploration with per-layer wrappers installed).  An
audit of the stored states, if asked for, runs after the timing.  The
sample prints one JSON line on stdout.

A fresh interpreter per sample makes ``setup_s`` include import and
parse, and makes ``ru_maxrss`` the peak of this exploration alone.
``ref_s`` is the time of the reference computation (``reference.py``)
run after set-up, and for an exploration the mean of that and a second
run after it, both outside the timed regions.
"""

import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

from reference import reference_s  # noqa: E402
from workloads import Workload, counts_of, permute_start_graph  # noqa: E402


def main(request):
    workload = Workload.from_json(request["workload"])
    out = {}
    t0 = time.perf_counter()
    import shapespace
    from shapespace import (ExploreConfig, explore, load_bundled,
                            parse_grammar, render_grammar)
    if not os.path.realpath(shapespace.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"shapespace imported from {shapespace.__file__}, "
                         f"not from {SRC}")
    tracer = None
    if request["kind"] == "trace":
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        out["missing"] = tracer.install()
    t_load = time.perf_counter()
    bundled = load_bundled(workload.grammar)
    load_s = time.perf_counter() - t_load
    text = render_grammar(bundled)
    grammar = parse_grammar(permute_start_graph(text, request["seed"]),
                            name=workload.grammar)
    config = ExploreConfig(**workload.config)
    out["setup_s"] = time.perf_counter() - t0
    out["ref_s"] = reference_s()
    if request["kind"] == "setup":
        return out

    cpu0 = time.process_time()
    t1 = time.perf_counter()
    try:
        ts, stats = explore(grammar, config)
    except Exception as exc:  # a failed run is reported, not fatal
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    out["wall_s"] = time.perf_counter() - t1
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["counts"] = list(counts_of(stats))

    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer, out["wall_s"])
        out["layers"]["grammar.load_bundled.s"] = load_s
        if request.get("spans_path"):
            tracer.dump(request["spans_path"])
    if request.get("audit"):
        from shapespace.explore import make_engine
        try:
            ts.audit(make_engine(grammar, config.engine))
        except Exception as exc:
            out["error"] = f"audit: {type(exc).__name__}: {exc}"
    # Free what the exploration built, so that its size does not bear on
    # the second reference run.
    del ts, stats, tracer
    gc.collect()
    out["ref_s"] = (out["ref_s"] + reference_s()) / 2
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
