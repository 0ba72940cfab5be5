"""The exploration loop: freshness, statistics, strategies, modes."""

import functools
import importlib
import itertools
from collections import Counter

import pytest

from shapespace import (ExploreConfig, ExploreError, Graph, TransitionSystem,
                        abstract, bundled_grammar_names, certificate,
                        compare_shapes, concrete_apply, concrete_matches,
                        covered, explore, load_bundled, parse_grammar,
                        stats_report)
from shapespace.explore import ENGINES, make_engine

from conftest import (concretises, random_grammar_text, reference_concrete,
                      strictly_isomorphic, within_capacity, within_count)

COUNTER = load_bundled("counter")
LINKED_LIST = load_bundled("linked-list")
FIREWALL2 = load_bundled("firewall-2")
FIREWALL3 = load_bundled("firewall-3")


def run(grammar, **kw):
    return explore(grammar, ExploreConfig(**kw))


# --- basic behaviour ------------------------------------------------------


def test_counter_abstract_three_states():
    ts, st = run(COUNTER, engine="abstract", strategy="dfs", subsumption=True)
    assert st.generated == 3 and st.subsumed == 0 and st.complete
    mults = sorted(
        tuple(sorted(m.text() for m in ts.states[i].node_mult.values()))
        for i in ts.relevant_states())
    assert mults == [(), ("1",), ("2+",)]


def test_empty_rule_set():
    g = parse_grammar("label P unary\ngraph\n  node a P\n")
    ts, st = run(g)
    assert st.generated == 1 and st.transitions_generated == 0
    assert ts.transitions == set() and st.complete


def test_concrete_engine_collapses_isomorphic_states():
    ts, st = run(COUNTER, engine="concrete", max_depth=6)
    assert st.generated == 7          # 0..6 isolated nodes
    assert st.complete


# Two twin classes that one rule node can match: (x, y) = (a1, b) and
# (b, a1) are in different orbits, and the negative condition is checked
# per match.
LINKS = parse_grammar("""
label A unary
label B unary
label e binary
graph
  node a1 A
  node a2 A
  node b A B
rule link
  use node x A
  use node y A
  new edge x -e-> y
  not edge x -e-> y
""", name="links")


@pytest.mark.parametrize("mode", ["full", "reach"])
@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
@pytest.mark.parametrize("name", [*bundled_grammar_names(), "links"])
def test_concrete_engine_matches_the_definition(name, strategy, mode):
    # One rewrite per twin orbit of matches and the exact-record lookup
    # must give the state space of applying every match and certifying
    # every successor: the same states in the same order, the same
    # transitions and the same counts.
    grammar = LINKS if name == "links" else load_bundled(name)
    ts, st = run(grammar, engine="concrete", strategy=strategy, mode=mode, max_depth=5)
    forms, transitions, generated = reference_concrete(grammar, strategy, mode, 5)
    assert {i: certificate(g) for i, g in ts.states.items()} == dict(enumerate(forms))
    assert ts.transitions == transitions and not ts.marked
    assert (st.generated, st.subsumed, st.discarded, st.transitions_generated,
            st.transitions_relevant, st.complete) == (
        len(forms), 0, 0, generated, len(transitions), True)


def test_concrete_engine_rewrites_once_per_orbit_and_certifies_once_per_record(
        monkeypatch):
    # firewall-6F to depth 8 (the benchmark's concrete workload): 5,892
    # matches fall into 4,252 twin orbits, and of those successor graphs
    # only 1,533 are not equal, node ids included, to a record the store
    # has met: 690 stored states and 843 dropped duplicates, whose
    # records the store remembers (570 of them are met again).
    explore_module = importlib.import_module("shapespace.explore")
    calls = {"certificate": 0, "apply": 0}
    certify, rewrite = explore_module.graph_certificate, explore_module.concrete_apply

    def counting_certificate(g):
        calls["certificate"] += 1
        return certify(g)

    def counting_apply(*args):
        calls["apply"] += 1
        return rewrite(*args)

    monkeypatch.setattr(explore_module, "graph_certificate", counting_certificate)
    monkeypatch.setattr(explore_module, "concrete_apply", counting_apply)
    _, stats = run(load_bundled("firewall-6F"), engine="concrete", max_depth=8)
    assert (stats.generated, stats.transitions_generated) == (690, 5892)
    assert calls == {"certificate": 1533, "apply": 4252}


@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
@pytest.mark.parametrize("name", bundled_grammar_names())
def test_concrete_engine_certifies_no_record_twice(monkeypatch, name, strategy):
    # The store remembers the record of every state it has met, stored
    # or dropped as a duplicate, so an equal record is never certified
    # again.
    explore_module = importlib.import_module("shapespace.explore")
    certified = Counter()
    certify = explore_module.graph_certificate

    def counting_certificate(g):
        certified[frozenset(g.labels.items()), g.edges] += 1
        return certify(g)

    monkeypatch.setattr(explore_module, "graph_certificate", counting_certificate)
    run(load_bundled(name), engine="concrete", strategy=strategy, max_depth=5)
    assert certified and max(certified.values()) == 1


@pytest.mark.parametrize("name", bundled_grammar_names())
def test_concrete_successors_are_valid_graphs(monkeypatch, name):
    # concrete_apply builds its successors unchecked; each must be the
    # graph that the checking constructor builds from the same fields
    explore_module = importlib.import_module("shapespace.explore")
    rewrite, made = explore_module.concrete_apply, []

    def recording_apply(*args):
        made.append(rewrite(*args))
        return made[-1]

    monkeypatch.setattr(explore_module, "concrete_apply", recording_apply)
    run(load_bundled(name), engine="concrete", strategy="bfs", max_depth=5)
    assert made
    for h in made:
        assert type(h) is Graph and type(h.edges) is frozenset
        assert h == Graph(h.labels, h.edges)


@pytest.mark.parametrize("engine", ["concrete", "abstract"])
def test_equal_transition_labels_are_one_object(engine):
    ts, _ = run(FIREWALL3, engine=engine, max_depth=6)
    labels = [label for _, label, _ in ts.transitions]
    assert len({id(label) for label in labels}) == len(set(labels)) < len(labels)


def test_abstract_engine_rejects_negative_conditions():
    text = ("label P unary\nlabel at binary\n"
            "graph\n  node a P\n"
            "rule r\n  use node x P\n  not node y P\n")
    g = parse_grammar(text)
    with pytest.raises(ExploreError):
        run(g, engine="abstract")
    run(g, engine="concrete", max_depth=2)   # concrete engine accepts it


@pytest.mark.parametrize("field", ["engine", "strategy", "mode"])
def test_config_rejects_unknown_names(field):
    with pytest.raises(ExploreError, match=f"unknown {field} 'nope'"):
        ExploreConfig(**{field: "nope"})


def test_engine_table_names_every_engine():
    assert sorted(ENGINES) == ["abstract", "concrete"]
    for name, cls in ENGINES.items():
        assert type(make_engine(COUNTER, name)) is cls
        ExploreConfig(engine=name)
    with pytest.raises(ExploreError, match="unknown engine 'nope'"):
        make_engine(COUNTER, "nope")


# --- statistics -----------------------------------------------------------


def all_configs():
    for strategy in ("bfs", "dfs"):
        for subsumption in (True, False):
            yield dict(engine="abstract", strategy=strategy,
                       subsumption=subsumption)


@pytest.mark.parametrize("grammar", [COUNTER, LINKED_LIST, FIREWALL2],
                         ids=["counter", "linked-list", "firewall-2"])
def test_accounting_identities(grammar):
    for cfg in all_configs():
        ts, st = run(grammar, **cfg)
        assert st.relevant == st.generated - st.subsumed
        assert st.generated == len(ts.states)
        assert st.subsumed == len(ts.marked)
        if not cfg["subsumption"]:
            assert st.maximum == st.generated
            assert st.subsumed == 0 and st.discarded == 0
        else:
            assert st.maximum is None


@pytest.mark.parametrize("grammar", [COUNTER, LINKED_LIST, FIREWALL2],
                         ids=["counter", "linked-list", "firewall-2"])
def test_relevant_count_strategy_invariant(grammar):
    counts = set()
    for strategy in ("bfs", "dfs"):
        _, st = run(grammar, strategy=strategy, subsumption=True)
        counts.add(st.relevant)
    assert len(counts) == 1


def test_subsumption_generates_no_more_than_maximum():
    for strategy in ("bfs", "dfs"):
        _, on = run(FIREWALL2, strategy=strategy, subsumption=True)
        _, off = run(FIREWALL2, strategy=strategy, subsumption=False)
        assert on.generated <= off.maximum


@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
@pytest.mark.parametrize("grammar", [FIREWALL2, FIREWALL3], ids=["firewall-2", "firewall-3"])
def test_states_never_expanded_are_the_discarded_ones(monkeypatch, grammar, strategy):
    # Run to completion, a stored state goes unexpanded only when a
    # newcomer subsumed it while it waited: it is marked, and
    # ``discarded`` counts exactly these states.
    explore_module = importlib.import_module("shapespace.explore")
    successors = explore_module.AbstractEngine.successors
    expanded = []

    def recorded(engine, s):
        expanded.append(s)
        return successors(engine, s)

    monkeypatch.setattr(explore_module.AbstractEngine, "successors", recorded)
    ts, st = run(grammar, strategy=strategy, subsumption=True)
    assert st.complete
    seen = {id(s) for s in expanded}
    never = {i for i, s in ts.states.items() if id(s) not in seen}
    assert never <= ts.marked
    assert len(never) == st.discarded


def test_transitions_relevant_counts_relevant_sources():
    ts, st = run(FIREWALL2, strategy="dfs", subsumption=True)
    expected = sum(1 for (src, _, _) in ts.transitions if src not in ts.marked)
    assert st.transitions_relevant == expected
    assert st.transitions_relevant <= st.transitions_generated


# --- store audit ----------------------------------------------------------


@pytest.mark.parametrize("engine", ["abstract", "concrete"])
@pytest.mark.parametrize("grammar", [COUNTER, LINKED_LIST, FIREWALL2, FIREWALL3],
                         ids=["counter", "linked-list", "firewall-2", "firewall-3"])
def test_no_stored_pair_strictly_isomorphic(grammar, engine):
    # The audit's isomorphism search cross-checks the store's identities:
    # normal shapes, and the canonical form of concrete graphs.
    limits = {"max_depth": 6} if engine == "concrete" else {}
    for cfg in all_configs():
        ts, _ = run(grammar, **{**cfg, "engine": engine, **limits})
        ts.audit(make_engine(grammar, engine))


def test_audit_flags_duplicates():
    for engine in ENGINES:
        ts, _ = run(COUNTER, engine=engine, max_depth=2)
        dup = TransitionSystem(states={0: ts.states[0], 1: ts.states[0]})
        with pytest.raises(ExploreError, match="stored states 0 and 1 coincide"):
            dup.audit(make_engine(COUNTER, engine))


# --- limits and modes -----------------------------------------------------


def test_max_states_flags_incomplete():
    ts, st = run(COUNTER, engine="concrete", max_states=3)
    assert st.generated == 3 and not st.complete


def test_timeout_flags_incomplete():
    _, st = run(COUNTER, engine="concrete", timeout=0.0)
    assert not st.complete


def test_reachability_mode_matches_full_mode():
    for grammar in (COUNTER, LINKED_LIST, FIREWALL2):
        for strategy in ("bfs", "dfs"):
            full_ts, full = run(grammar, strategy=strategy, mode="full")
            reach_ts, reach = run(grammar, strategy=strategy, mode="reach")
            assert reach.relevant == full.relevant
            assert reach_ts.transitions == set()
            assert set(reach_ts.states) == set(reach_ts.states) - reach_ts.marked


def test_determinism_identical_runs():
    rows = set()
    for _ in range(2):
        _, st = run(FIREWALL2, strategy="dfs", subsumption=True)
        row = stats_report(st, "csv").splitlines()[1].split(",")
        rows.add(",".join(row[:12] + row[14:]))   # drop time and memory
    assert len(rows) == 1


def test_isomorphic_transition_systems_across_runs():
    a, _ = run(LINKED_LIST, strategy="bfs", subsumption=True)
    b, _ = run(LINKED_LIST, strategy="bfs", subsumption=True)
    assert set(a.states) == set(b.states)
    assert a.transitions == b.transitions
    for i in a.states:
        assert strictly_isomorphic(a.states[i], b.states[i])


# --- soundness on a small window ------------------------------------------


def test_abstract_states_cover_concrete_reachables():
    concrete_ts, _ = run(COUNTER, engine="concrete", max_depth=4)
    abstract_ts, _ = run(COUNTER, engine="abstract", subsumption=True)
    shapes = [abstract_ts.states[i] for i in abstract_ts.relevant_states()]
    for g in concrete_ts.states.values():
        assert covered(g, shapes)


# Soundness of a complete abstract run rests on two facts, checked here
# against the concrete graphs reachable within these depths: (a)
# subsumption is gamma-inclusion, and (b) every concrete step from a
# graph in gamma of an expanded state is simulated by a stored transition.
GAMMA_DEPTHS = {"counter": 6, "linked-list": 6, "firewall-2": 5, "firewall-3": 4,
                "circ-buf-0": 6}


def in_gamma(g, s) -> bool:
    return next(concretises(g, s), None) is not None


@functools.cache
def concrete_steps(name):
    """The concrete graphs reachable within ``GAMMA_DEPTHS[name]``, each
    with its steps ``(rule, match, successor)``."""
    grammar = load_bundled(name)
    ts, _ = run(grammar, engine="concrete", max_depth=GAMMA_DEPTHS[name])
    return [(g, [(rule, m, concrete_apply(rule, m, g)) for rule in grammar.rules
                 for m in concrete_matches(rule, g)])
            for g in ts.states.values()]


@pytest.mark.parametrize("name", GAMMA_DEPTHS)
def test_subsumption_is_gamma_inclusion_on_concrete_reachables(name):
    pairs = 0
    for strategy in ("bfs", "dfs"):
        ts, st = run(load_bundled(name), strategy=strategy)
        assert st.complete
        for g, _ in concrete_steps(name):
            s = abstract(g)
            for t in ts.states.values():
                if compare_shapes(s, t)[0] is not None:
                    assert in_gamma(g, t)
                    pairs += 1
    assert pairs >= len(concrete_steps(name))


def unsimulated(name, **config):
    """The concrete steps ``g --(r, m)--> h`` from a graph ``g`` in gamma
    of a relevant state ``S``, witnessed by ``pi``, that no stored
    transition ``S --(r, pi . m)--> T`` with ``h`` in gamma(``T``)
    simulates; and how many triples (step, state, map) were checked."""
    ts, st = run(load_bundled(name), **config)
    assert st.complete
    targets = {}
    for (i, label, j) in ts.transitions:
        targets.setdefault((i, label), []).append(ts.states[j])
    failures, checked = [], 0
    for i in ts.relevant_states():
        for g, steps in concrete_steps(name):
            for pi in concretises(g, ts.states[i]):
                for rule, m, h in steps:
                    label = (rule.name, tuple((a, pi[x]) for a, x in m.items()))
                    if not any(in_gamma(h, t) for t in targets.get((i, label), ())):
                        failures.append((i, label))
                    checked += 1
    return failures, checked


@pytest.mark.parametrize("subsumption", [True, False])
@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
@pytest.mark.parametrize("name", GAMMA_DEPTHS)
def test_abstract_steps_simulate_concrete_steps(name, strategy, subsumption):
    failures, checked = unsimulated(name, strategy=strategy, subsumption=subsumption)
    assert failures == [] and checked >= len(concrete_steps(name))


@pytest.mark.parametrize("name", ["firewall-2", "firewall-3"])
def test_simulation_check_kills_the_first_branch_mutant(name, monkeypatch):
    explore_module = importlib.import_module("shapespace.explore")
    materialise = explore_module.materialise
    monkeypatch.setattr(explore_module, "materialise",
                        lambda *args: materialise(*args)[:1])
    failures, _ = unsimulated(name, strategy="bfs", subsumption=False)
    assert failures


MARK = parse_grammar("""
label L unary
label M unary
label P unary
label at binary
graph
  node x L
  node y L
  node z L
  node p0 P
  node p1 P
  node q0 P
  node q1 P
  node r0 P
  edge p0 -at-> x
  edge p1 -at-> x
  edge q0 -at-> y
  edge q1 -at-> y
  edge r0 -at-> z
rule mark
  use node x L
  new edge x -M-> x
""", name="mark")


@pytest.mark.xfail(strict=True, reason="precision, not soundness: relabelling a "
                   "node next to an unmatched collector widens the collector's "
                   "slots instead of splitting it, so every concrete graph lies in "
                   "the concretisation of a relevant shape, but not every one's "
                   "abstraction is subsumed by one")
def test_relabel_next_to_unmatched_collector_is_covered():
    concrete_ts, _ = run(MARK, engine="concrete")
    assert len(concrete_ts.states) == 6
    for subsumption in (True, False):
        abstract_ts, _ = run(MARK, engine="abstract", subsumption=subsumption)
        shapes = [abstract_ts.states[i] for i in abstract_ts.relevant_states()]
        for g in concrete_ts.states.values():
            assert covered(g, shapes)


@pytest.mark.parametrize("subsumption", [True, False])
def test_relabel_next_to_unmatched_collector_keeps_every_graph_in_gamma(subsumption):
    concrete_ts, _ = run(MARK, engine="concrete")
    assert len(concrete_ts.states) == 6
    abstract_ts, _ = run(MARK, engine="abstract", subsumption=subsumption)
    shapes = [abstract_ts.states[i] for i in abstract_ts.relevant_states()]
    assert all(any(in_gamma(g, s) for s in shapes) for g in concrete_ts.states.values())
    assert sum(covered(g, shapes) for g in concrete_ts.states.values()) == 2


LOOP = parse_grammar("""
label A unary
label B unary
label e binary
graph
  node x A
  edge x -e-> x
rule flip
  use node x
  del edge x -A-> x
  new edge x -B-> x
""", name="loop")


@pytest.mark.parametrize("subsumption", [True, False])
def test_relabelling_a_node_with_a_self_loop_keeps_its_successor(subsumption):
    # Both slots of the e-loop are keyed by the relabelled node's own
    # label set, so both move to {B}; left keyed by {A}, they lost their
    # support and the branch was dropped as infeasible.
    concrete_ts, _ = run(LOOP, engine="concrete")
    assert len(concrete_ts.states) == 2
    abstract_ts, _ = run(LOOP, engine="abstract", subsumption=subsumption)
    assert (len(abstract_ts.states), len(abstract_ts.transitions)) == (2, 1)
    shapes = [abstract_ts.states[i] for i in abstract_ts.relevant_states()]
    for g in concrete_ts.states.values():
        assert covered(g, shapes)


@pytest.mark.parametrize("subsumption", [True, False])
@pytest.mark.parametrize("name", bundled_grammar_names())
def test_stored_states_pass_the_capacity_test(name, subsumption):
    ts, _ = run(load_bundled(name), subsumption=subsumption, max_states=200)
    assert all(within_capacity(s) for s in ts.states.values())
    assert all(within_count(s) for s in ts.states.values())


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1, upper-bound half: materialise "
                   "does not count how many split-off members pick an unsplit "
                   "concrete node, so its slot can keep more neighbours than its hi")
def test_materialise_branches_pass_the_count_test(monkeypatch):
    # e.g. mv-pckt-rev splits packet collector 3, and concrete location 0
    # keeps its in-slot `at` from {P,S} at 1 with two neighbours: part 4
    # (1) and remainder 5 (1+)
    explore_module = importlib.import_module("shapespace.explore")
    materialise, failing = explore_module.materialise, []

    def checked(rule, m, s, neighbours):   # before apply rewrites the branches
        mats = materialise(rule, m, s, neighbours)
        failing.extend((rule.name, m) for branch, _ in mats if not within_count(branch))
        return mats

    monkeypatch.setattr(explore_module, "materialise", checked)
    run(FIREWALL3, subsumption=True)
    assert failing == []


# The first twelve seeds reach states that fail the capacity test when
# materialise leaves an unsplit node's slot unchecked; the last eight
# never do.
CAPACITY_SEEDS = (13, 25, 43, 44, 104, 122, 177, 219, 234, 242, 269, 274,
                  94, 141, 144, 158, 172, 194, 196, 256)


@pytest.mark.parametrize("subsumption", [True, False])
@pytest.mark.parametrize("seed", CAPACITY_SEEDS)
def test_random_grammar_states_pass_the_capacity_test(seed, subsumption):
    text = random_grammar_text(seed)
    ts, _ = run(parse_grammar(text), subsumption=subsumption, max_depth=4)
    assert all(within_capacity(s) for s in ts.states.values()), text


PARALLEL = parse_grammar("""
label P unary
label e binary
graph
  node a P
  node b P
  edge a -e-> b
rule link
  use node x P
  use node y P
  new edge y -e-> x
""", name="parallel")


def test_creating_an_existing_edge_leaves_no_empty_state():
    # The concrete engine reaches 2 graphs.  A branch whose 2+ slot has
    # one concrete node as its only support stands for no graph; keeping
    # such branches grows this run to 562 states, 132 of them empty.
    concrete_ts, _ = run(PARALLEL, engine="concrete", max_depth=3)
    assert len(concrete_ts.states) == 2
    ts, st = run(PARALLEL, subsumption=False, max_depth=3)
    assert (st.generated, st.transitions_generated) == (354, 2202)
    assert all(within_capacity(s) for s in ts.states.values())


def test_abstract_exploration_builds_no_graph(monkeypatch):
    # States stay Shape records from the start state's abstraction on:
    # matching, bucket keys and automorphism searches read the shape.
    grammar = load_bundled("firewall-4")
    built = 0
    check = Graph.__post_init__

    def counting(g):
        nonlocal built
        built += 1
        check(g)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    _, stats = run(grammar, strategy="dfs", subsumption=True)
    assert (stats.generated, stats.transitions_generated, stats.complete) == (267, 1611, True)
    assert built == 0


def test_store_searches_isomorphisms_once_per_bucket(monkeypatch):
    # With subsumption on, the store compares multiplicity tuples in
    # canonical coordinates: the only isomorphism search it makes is
    # the automorphism group of each new bucket.
    explore_module = importlib.import_module("shapespace.explore")
    shapes_module = importlib.import_module("shapespace.shapes")
    searches, forms, in_store = [0], set(), [False]
    search, add = shapes_module.isomorphisms, explore_module._Store.add
    bucket = explore_module.AbstractEngine.bucket

    def counting_search(g, h):
        searches[0] += in_store[0]
        return search(g, h)

    def flagged_add(*args):
        in_store[0] = True
        try:
            return add(*args)
        finally:
            in_store[0] = False

    def recorded_bucket(engine, s):
        form, labelling = bucket(engine, s)
        forms.add(form)
        return form, labelling

    monkeypatch.setattr(shapes_module, "isomorphisms", counting_search)
    monkeypatch.setattr(explore_module._Store, "add", flagged_add)
    monkeypatch.setattr(explore_module.AbstractEngine, "bucket", recorded_bucket)
    _, stats = run(load_bundled("firewall-4"), strategy="dfs", subsumption=True)
    assert (stats.generated, stats.subsumed) == (267, 132)
    assert len(forms) >= 30
    assert searches[0] == len(forms)


def test_rewriting_is_monotone_under_subsumption():
    # If s is below t, every successor of s is below some successor of
    # t: this is what makes dropping and discarding subsumed states sound.
    ts, _ = run(FIREWALL2, engine="abstract", subsumption=False)
    engine = make_engine(FIREWALL2, "abstract")
    succ = {i: [x for _, x in engine.successors(s)] for i, s in ts.states.items()}
    pairs = 0
    for i, j in itertools.permutations(ts.states, 2):
        s, t = ts.states[i], ts.states[j]
        if s == t or compare_shapes(s, t)[0] is None:
            continue
        pairs += 1
        for x in succ[i]:
            assert any(compare_shapes(x, y)[0] is not None for y in succ[j]), (i, j)
    assert pairs >= 20


# --- reporting ------------------------------------------------------------


def test_csv_header_exact():
    _, st = run(COUNTER)
    out = stats_report(st, "csv")
    assert out.splitlines()[0] == (
        "grammar,engine,strategy,subsumption,mode,maximum,generated,subsumed,"
        "relevant,discarded,transitions_generated,transitions_relevant,"
        "time_ms,peak_mem_bytes,complete")


def test_csv_row_basic_fields():
    _, st = run(COUNTER, strategy="dfs", subsumption=True)
    row = stats_report(st, "csv").splitlines()[1].split(",")
    assert row[0] == "counter" and row[1] == "abstract" and row[2] == "dfs"
    assert row[3] == "on" and row[5] == "" and row[6] == "3"
    assert row[14] == "true"


def test_table_report_lists_all_fields():
    _, st = run(COUNTER)
    table = stats_report(st, "table")
    assert "generated" in table and "peak_mem_bytes" in table
    with pytest.raises(ExploreError):
        stats_report(st, "json")
