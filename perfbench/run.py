"""The shapespace benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fw4-subsume --seed 1 --seconds 40 --trace 0

Each sample is one exploration in a fresh interpreter (``sample.py``),
run one at a time in a closed loop: the next sample starts when the
previous one has ended.  Samples continue until ``--seconds`` would be
exceeded by one more (at least ``MIN_SAMPLES`` are taken).  Every
sample's count columns are checked against the workload's pinned
answer, and the first sample's stored states are audited.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median over every sample and ``SETUPS_PER_SAMPLE`` set-up-only
samples before each), ``wall_s`` (median exploration time),
``states_per_s`` (generated states over that median) and
``peak_rss_mb`` (median per-sample peak resident set).  Times are
scaled to the reference host speed, sample by sample: a measured time
``t`` is reported as ``t * REF_S / ref_s`` (see ``reference.py``).  The
log lines give the raw times beside the scaled ones.  With
``--trace 1`` one more sample runs with per-layer wrappers installed
and the run reports per-layer metrics, in raw seconds; its spans are
written to ``perfbench/out/<workload>.spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from reference import REF_S
from workloads import COUNT_COLUMNS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
OUT = os.path.join(HERE, "out")

MIN_SAMPLES = 3
SETUPS_PER_SAMPLE = 2
# A run must end within 180 s: no iteration starts that could end after
# LAST_END_S, and every sample is killed at RUN_DEADLINE_S.
LAST_END_S = 120
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def run_sample(request: dict, deadline: float) -> dict:
    """Run one sample in a fresh interpreter and return its JSON line."""
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", SAMPLE, json.dumps(request)], cwd=ROOT,
            capture_output=True, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {request['kind']} sample ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()
        return {"error": f"sample exited {proc.returncode}: "
                         + (err[-1] if err else "no output")}
    return json.loads(lines[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def scaled(r: dict, key: str) -> float:
    """Sample ``r``'s time ``key`` at the reference host speed."""
    return r[key] * REF_S / r["ref_s"]


def unit_of(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(".out_per_call"):
        return "count/call"
    if metric.endswith(".compares_per_add"):
        return "count/add"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "count"


def measure(workload, seed: int, seconds: float, trace: bool,
            log=print) -> dict:
    """Measure ``workload`` for about ``seconds``; returns the result object."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    base = {"workload": workload.to_json(), "seed": seed}

    # Warm-up: compiles the package's bytecode and fills the file cache.
    warm = run_sample({**base, "kind": "setup"}, deadline)
    if "error" in warm:
        raise BenchError(f"set-up failed: {warm['error']}")

    setups, timed, traced = [], [], None
    attempted = failed = 0

    def explore_sample(kind, audit=False, spans_path=None):
        nonlocal attempted, failed
        r = run_sample({**base, "kind": kind, "audit": audit,
                        "spans_path": spans_path}, deadline)
        attempted += 1
        problem = r.get("error")
        if problem is None and tuple(r["counts"]) != workload.pinned:
            got = dict(zip(COUNT_COLUMNS, r["counts"]))
            problem = f"counts {got} differ from pinned {workload.pinned}"
        r["ok"] = problem is None
        if problem is not None:
            failed += 1
            log(f"# {kind} sample {attempted} FAILED: {problem}")
        if kind == "explore" and "setup_s" in r:
            setups.append(scaled(r, "setup_s"))
        if r.get("missing"):
            log(f"# not traced (absent from the library): {r['missing']}")
        return r

    while True:
        t_iter = time.monotonic()
        for _ in range(SETUPS_PER_SAMPLE):
            r = run_sample({**base, "kind": "setup"}, deadline)
            if "error" in r:
                raise BenchError(f"set-up failed: {r['error']}")
            setups.append(scaled(r, "setup_s"))
        r = explore_sample("explore", audit=attempted == 0)
        if "wall_s" in r:
            timed.append(r)
            log(f"# sample {len(timed)}: wall_s={scaled(r, 'wall_s'):.4f} "
                f"raw wall_s={r['wall_s']:.4f} cpu_s={r['cpu_s']:.4f} "
                f"ref_s={r['ref_s']:.4f} setup_s={r['setup_s']:.4f} "
                f"peak_rss_mb={r['peak_rss_mb']:.1f} ok={r['ok']}")
        if trace and traced is None:
            os.makedirs(OUT, exist_ok=True)
            traced = explore_sample(
                "trace", spans_path=os.path.join(OUT, f"{workload.name}.spans.json"))
            if "wall_s" in traced:
                log(f"# traced sample: wall_s={scaled(traced, 'wall_s'):.4f} "
                    f"raw wall_s={traced['wall_s']:.4f} ok={traced['ok']}")
        now = time.monotonic()
        next_end = now - start + (now - t_iter)
        if next_end > LAST_END_S or (len(timed) >= MIN_SAMPLES
                                       and next_end > seconds):
            break

    good = [r for r in timed if r["ok"]] or timed
    if not good:
        raise BenchError("no exploration sample completed")
    walls = [scaled(r, "wall_s") for r in good]
    wall = statistics.median(walls)
    q1, q3 = _quartiles(walls)
    log(f"# wall_s median {wall:.4f} q1 {q1:.4f} q3 {q3:.4f} n={len(walls)}; "
        f"raw wall_s median {statistics.median(r['wall_s'] for r in good):.4f}; "
        f"cpu_s median {statistics.median(r['cpu_s'] for r in good):.4f}; "
        f"setup_s n={len(setups)}; fail_ratio {failed}/{attempted}")

    if trace:
        if traced is None or "layers" not in traced:
            raise BenchError("the traced sample did not complete")
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = scaled(traced, "wall_s") - wall
        layers["trace.ref_s"] = statistics.median(r["ref_s"] for r in good)
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(layers.items())}
    else:
        generated = good[0]["counts"][COUNT_COLUMNS.index("generated")]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "states_per_s": {"value": generated / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(
                [r["peak_rss_mb"] for r in good]), "unit": "MiB"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "shapespace", "__init__.py")):
        print(f"perfbench: no shapespace sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
