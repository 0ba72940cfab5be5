"""The benchmark's own tests: a reduced-size run through the same code.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

from run import ROOT, measure, run_sample
from workloads import WORKLOADS, Workload, permute_start_graph

# Small enough to run in a fraction of a second, large enough to
# subsume, discard and materialise.
SMOKE = Workload("smoke", "firewall-3",
                 dict(engine="abstract", strategy="bfs", subsumption=True,
                      mode="full", max_states=30),
                 (31, 5, 26, 5, 54, 54, False))


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def _quiet(*_):
    pass


def test_workloads_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    assert names == list(WORKLOADS)


def test_every_end_to_end_metric_is_emitted():
    result = measure(SMOKE, seed=0, seconds=0, trace=False, log=_quiet)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_is_emitted_and_accounts_for_wall():
    result = measure(SMOKE, seed=0, seconds=0, trace=True, log=_quiet)
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == _declared("per_layer")
    top = (m["explore.self_s"] + m["explore.successors.s"]
           + m["explore.store.s"] + m["shapes.abstract.s"])
    assert abs(top - m["trace.wall_s"]) < 1e-6
    assert m["explore.store.adds"] == SMOKE.pinned[4] + 1
    assert m["rules.materialise.calls"] > 0
    assert m["rules.concrete_matches.calls"] == 0
    spans = os.path.join(ROOT, "perfbench", "out", "smoke.spans.json")
    with open(spans, encoding="utf-8") as f:
        assert len(json.load(f)["spans"]) > m["explore.store.adds"]


def test_tampered_pinned_count_fails_every_run():
    wrong = Workload(SMOKE.name, SMOKE.grammar, SMOKE.config,
                     (SMOKE.pinned[0] + 1,) + SMOKE.pinned[1:])
    result = measure(wrong, seed=0, seconds=0, trace=False, log=_quiet)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3


def test_two_seeds_give_identical_counts():
    counts = []
    for seed in (0, 7):
        r = run_sample({"workload": SMOKE.to_json(), "seed": seed,
                        "kind": "explore"}, deadline=time.monotonic() + 60)
        counts.append(r["counts"])
    assert counts[0] == counts[1] == list(SMOKE.pinned)


def test_permutation_renames_and_reorders_only_the_start_graph():
    text = ("grammar g\nlabel L unary\nlabel e binary\n\ngraph\n"
            "  node a L\n  node b\n  node c L\n  edge a -e-> b\n"
            "  edge b -e-> c\n\nrule r\n  use node x L\n")
    out = permute_start_graph(text, seed=3)
    lines = out.split("\n")
    body = lines[lines.index("graph") + 1:lines.index("rule r") - 1]
    kinds = [line.split()[0] for line in body]
    assert kinds == ["node"] * 3 + ["edge"] * 2
    assert not {"a", "b", "c"} & {w for line in body for w in line.split()}
    assert out.endswith("rule r\n  use node x L\n")
    assert permute_start_graph(text, seed=3) == out


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fw4-subsume",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
