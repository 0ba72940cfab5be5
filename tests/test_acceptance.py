"""Acceptance criteria for the exploration engine.

Each test prints one PASS/FAIL line.  Time budgets are pinned in the
asserts; quantitative trends follow the published reference behaviour
of neighbourhood abstraction with subsumption, not absolute figures.
"""

import itertools
import random
import time

import pytest

from shapespace import (BOUNDED, ExploreConfig, abstract, add, bounded,
                        certificate, covered, explore, find_isomorphism,
                        load_bundled, normalise, stats_report, subsumes,
                        subtract_one)
from shapespace.multiplicity import OMEGA

from conftest import (brute_force_isomorphism, permuted, random_graph,
                      shape_subsumes, strictly_isomorphic)
from test_multiplicity import members, smallest_enclosing
from test_shapes import relaxed

GRAMMARS = {}
RUNS = {}


def grammar(name):
    if name not in GRAMMARS:
        GRAMMARS[name] = load_bundled(name)
    return GRAMMARS[name]


def run(name, engine="abstract", strategy="dfs", subsumption=True,
        mode="full", max_depth=None, fresh=False):
    key = (name, engine, strategy, subsumption, mode, max_depth)
    if fresh or key not in RUNS:
        result = explore(grammar(name),
                         ExploreConfig(engine=engine, strategy=strategy,
                                       subsumption=subsumption, mode=mode,
                                       max_depth=max_depth))
        if fresh:
            return result
        RUNS[key] = result
    return RUNS[key]


def report(num, desc, ok):
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# firewall-6F ships only as a stress case for the timeout path: its
# fully connected topology makes even the pruned abstract space
# impractical to enumerate, so the exhaustive criteria run on the rest.
BUNDLED = ["circ-buf-0", "counter", "firewall-2", "firewall-3", "firewall-4",
           "linked-list"]


def test_criterion_01_multiplicity_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for mu, nu in itertools.product(BOUNDED, repeat=2):
        sums = {a + b for a, b in itertools.product(members(mu), members(nu))}
        ok &= add(mu, nu) == smallest_enclosing(sums)
        ok &= subsumes(nu, mu) == (members(mu) <= members(nu))
        if mu.hi >= 1:
            reduced = {k - 1 if k != OMEGA else OMEGA
                       for k in members(mu) if k >= 1}
            ok &= subtract_one(mu) == smallest_enclosing(reduced)
    elapsed = time.perf_counter() - t0
    report(1, f"6x6 oracle agreement in {elapsed:.2f}s (< 1s)",
           ok and elapsed < 1.0)


def test_criterion_02_subsumption_order_laws():
    t0 = time.perf_counter()
    ok = True
    for mu in BOUNDED:
        ok &= subsumes(mu, mu)
    for mu, nu in itertools.product(BOUNDED, repeat=2):
        if subsumes(nu, mu) and subsumes(mu, nu):
            ok &= mu == nu
    for mu, nu, pi in itertools.product(BOUNDED, repeat=3):
        if subsumes(nu, mu) and subsumes(pi, nu):
            ok &= subsumes(pi, mu)
    rng = random.Random(2)
    for _ in range(500):
        s = abstract(random_graph(rng, max_nodes=6))
        ok &= shape_subsumes(s, s)[0]
        t = relaxed(rng, s)
        u = relaxed(rng, t)
        ok &= shape_subsumes(t, s)[0] and shape_subsumes(u, t)[0]
        ok &= shape_subsumes(u, s)[0]
    elapsed = time.perf_counter() - t0
    report(2, f"order laws on values and 500 shapes in {elapsed:.1f}s (< 10s)",
           ok and elapsed < 10.0)


def test_criterion_03_certificate_soundness():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(3)
    for _ in range(1000):
        g = random_graph(rng, max_nodes=10)
        c = certificate(g)
        for _ in range(5):
            ok &= certificate(permuted(rng, g)) == c
    for _ in range(300):
        g = random_graph(rng, max_nodes=6)
        h = permuted(rng, g) if rng.random() < 0.5 else random_graph(rng, 6)
        ok &= (find_isomorphism(g, h) is not None) == \
              (brute_force_isomorphism(g, h) is not None)
    elapsed = time.perf_counter() - t0
    report(3, f"certificates and isomorphism oracle in {elapsed:.1f}s (< 30s)",
           ok and elapsed < 30.0)


def test_criterion_04_soundness_oracle():
    t0 = time.perf_counter()
    ok = True
    depths = {"counter": 6, "linked-list": 6, "firewall-2": 5}
    for name, depth in depths.items():
        oracle_ts, oracle_stats = run(name, engine="concrete", max_depth=depth)
        assert oracle_stats.complete
        for strategy in ("bfs", "dfs"):
            for subsumption in (True, False):
                ts, _ = run(name, strategy=strategy, subsumption=subsumption)
                shapes = [ts.states[i] for i in ts.relevant_states()]
                for g in oracle_ts.states.values():
                    if not covered(g, shapes):
                        ok = False
    elapsed = time.perf_counter() - t0
    report(4, f"all concrete reachables covered in {elapsed:.1f}s (< 120s)",
           ok and elapsed < 120.0)


def test_criterion_05_finite_abstraction_of_infinite_systems():
    t0 = time.perf_counter()
    ok = True
    for name in ("firewall-2", "linked-list"):
        _, st = run(name, strategy="dfs", subsumption=True)
        ok &= st.complete and st.generated <= 10_000
    elapsed = time.perf_counter() - t0
    report(5, f"firewall-2 and linked-list terminate in {elapsed:.1f}s (< 60s)",
           ok and elapsed < 60.0)


def test_criterion_06_subsumption_reduction_trend():
    ok = True
    ratios = []
    for name in ("firewall-2", "firewall-3", "firewall-4"):
        _, on_dfs = run(name, strategy="dfs", subsumption=True)
        _, on_bfs = run(name, strategy="bfs", subsumption=True)
        _, off = run(name, strategy="dfs", subsumption=False)
        ok &= on_dfs.generated < off.maximum
        ok &= on_dfs.generated <= on_bfs.generated
        ratios.append(on_dfs.generated / off.maximum)
    ok &= ratios[0] > ratios[1] > ratios[2]
    report(6, f"generated/maximum ratios {['%.3f' % r for r in ratios]} "
              "strictly decreasing, DFS <= BFS", ok)


def test_criterion_07_relevant_states_strategy_invariant():
    ok = True
    for name in BUNDLED:
        _, bfs = run(name, strategy="bfs", subsumption=True)
        _, dfs = run(name, strategy="dfs", subsumption=True)
        if bfs.relevant != dfs.relevant:
            ok = False
    report(7, "relevant(BFS) = relevant(DFS) on every bundled grammar", ok)


def test_criterion_08_accounting_identities():
    ok = True
    for name in ("counter", "linked-list", "firewall-2", "firewall-3",
                 "firewall-4", "circ-buf-0"):
        for strategy in ("bfs", "dfs"):
            for subsumption in (True, False):
                _, st = run(name, strategy=strategy, subsumption=subsumption)
                ok &= st.relevant == st.generated - st.subsumed
                if not subsumption:
                    ok &= st.generated == st.maximum
                    ok &= st.subsumed == 0 and st.discarded == 0
    report(8, "relevant = generated - subsumed; subsumption off implies "
              "generated = maximum, subsumed = discarded = 0", ok)


def test_criterion_09_reachability_mode():
    ok = True
    for name in BUNDLED:
        full_ts, full = run(name, strategy="dfs", subsumption=True)
        reach_ts, reach = run(name, strategy="dfs", subsumption=True,
                              mode="reach")
        ok &= reach.relevant == full.relevant
        ok &= reach_ts.transitions == set()
    report(9, "reach mode matches full-mode relevant counts with an empty "
              "transition store", ok)


def _csv_without_timing(stats):
    cells = stats_report(stats, "csv").splitlines()[1].split(",")
    return ",".join(cells[:12] + cells[14:])


def test_criterion_10_determinism():
    ok = True
    configs = []
    for name in ("counter", "linked-list", "firewall-2", "circ-buf-0"):
        for strategy in ("bfs", "dfs"):
            for subsumption in (True, False):
                configs.append(dict(name=name, strategy=strategy,
                                    subsumption=subsumption))
    configs += [dict(name="firewall-3", strategy="dfs", subsumption=True),
                dict(name="firewall-4", strategy="dfs", subsumption=True),
                dict(name="firewall-2", strategy="dfs", subsumption=True,
                     mode="reach")]
    for cfg in configs:
        name = cfg.pop("name")
        _, first = run(name, **cfg)
        _, second = run(name, fresh=True, **cfg)
        if _csv_without_timing(first) != _csv_without_timing(second):
            ok = False
    report(10, "repeated runs produce identical CSV rows "
               "(time and memory columns excluded)", ok)


def test_criterion_11_normalise_fixpoint():
    ok = True
    rng = random.Random(11)
    for _ in range(500):
        s = abstract(random_graph(rng, max_nodes=8))
        ok &= strictly_isomorphic(normalise(s), s)
    for name in ("firewall-2", "linked-list"):
        ts, _ = run(name, strategy="dfs", subsumption=True)
        for s in ts.states.values():
            ok &= strictly_isomorphic(normalise(s), s)
    report(11, "normalise is the identity on abstractions and on every "
               "stored state", ok)
