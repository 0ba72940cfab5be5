"""The exploration loop: freshness, statistics, strategies, modes."""

import csv
import functools
import gc
import importlib
import io
import itertools
from collections import Counter

import pytest

from shapespace import (ExploreConfig, ExploreError, Graph,
                        TransitionSystem, abstract, apply, bundled_grammar_names,
                        canonical, certificate, compare_shapes, concrete_apply,
                        concrete_matches, covered, explore, load_bundled,
                        neighbour_index, parse_grammar, prematch, render_grammar,
                        stats_report)
from shapespace.explore import CSV_HEADER, ENGINES, SETTINGS, make_engine
from shapespace.shapes import canonical_order

from conftest import (MARK, bounded_concretisations, concretises, mutant, narrowed,
                      normalise_agrees, random_grammar_text, reference_concrete,
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


def test_remembered_duplicates_keep_no_colouring(monkeypatch):
    # firewall-6F to depth 8: the store remembers the records of 843
    # dropped duplicates, and none keeps the colouring its certificate
    # computed; the stored records keep theirs
    explore_module = importlib.import_module("shapespace.explore")
    stores, init = [], explore_module._Store.__init__

    def recording_init(self, *args):
        init(self, *args)
        stores.append(self)

    monkeypatch.setattr(explore_module._Store, "__init__", recording_init)
    ts, _ = run(load_bundled("firewall-6F"), engine="concrete", max_depth=8)
    stored = {id(g) for g in ts.states.values()}
    remembered = [g for g in stores[0].live if isinstance(g, Graph) and id(g) not in stored]
    assert len(remembered) == 843
    assert not any("colours" in vars(g) for g in remembered)
    assert all("colours" in vars(g) for g in ts.states.values())


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


@pytest.mark.parametrize("field", ["engine", "strategy", "subsumption", "mode"])
def test_config_rejects_unknown_names(field):
    with pytest.raises(ExploreError, match=f"unknown {field} 'nope'"):
        ExploreConfig(**{field: "nope"})


@pytest.mark.parametrize("value", ["off", None])
def test_config_rejects_a_subsumption_that_is_no_boolean(value):
    # "off" is a true value: unchecked, it ran with subsumption on.
    with pytest.raises(ExploreError, match=f"unknown subsumption {value!r}"):
        ExploreConfig(subsumption=value)


def test_settings_are_the_csv_setting_columns():
    assert list(SETTINGS) == CSV_HEADER.split(",")[1:5]


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


# Seeds 0-119 whose runs stop at a 400-state cap under bfs or dfs; the
# 95 others complete under both.
INCOMPLETE_SEEDS = {1, 13, 14, 23, 25, 33, 34, 39, 43, 44, 49, 50, 53, 66, 70, 79, 80, 87, 89,
                    90, 97, 99, 104, 108, 119}


def test_relevant_count_strategy_invariant_on_random_grammars():
    # seeds 29, 32, 52, 81, 84, 100 and 105 generate different numbers
    # of states under the two strategies
    differ = 0
    for seed in sorted(set(range(120)) - INCOMPLETE_SEEDS):
        grammar = parse_grammar(random_grammar_text(seed))
        (_, bfs), (_, dfs) = (run(grammar, strategy=s, max_states=400) for s in ("bfs", "dfs"))
        assert bfs.complete and dfs.complete and bfs.relevant == dfs.relevant, (
            f"seed {seed}\n{render_grammar(grammar)}")
        differ += bfs.generated != dfs.generated
    assert differ


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


@functools.cache
def stored_pairs():
    """The pairs ``(s, t)`` of distinct stored states with ``s`` below
    ``t``, over the complete bfs and dfs runs, subsumption on, of the
    grammars of ``GAMMA_DEPTHS``: 81 pairs, all on ``firewall-2`` and
    ``firewall-3``."""
    pairs = []
    for name in GAMMA_DEPTHS:
        for strategy in ("bfs", "dfs"):
            ts, st = run(load_bundled(name), strategy=strategy)
            assert st.complete
            pairs += [(s, t) for s, t in itertools.permutations(ts.states.values(), 2)
                      if compare_shapes(s, t)[0] is not None]
    return pairs


def outside_gamma(pairs):
    """The pairs ``(s, t)`` with a bounded concretisation of ``s`` outside
    gamma(``t``), and how many concretisations were checked."""
    failures, checked = [], 0
    for s, t in pairs:
        graphs = list(bounded_concretisations(s))
        if not all(in_gamma(g, t) for g in graphs):
            failures.append((s, t))
        checked += len(graphs)
    return failures, checked


def test_subsumption_is_gamma_inclusion_on_stored_pairs():
    failures, checked = outside_gamma(stored_pairs())
    assert failures == []
    assert len(stored_pairs()) >= 60 and checked >= 300   # 81 and 456


def test_gamma_inclusion_check_rejects_a_narrowed_upper_state(rng):
    # t narrowed at one multiplicity, so that the first concretisation of
    # s leaves it under the map that put it in gamma(t)
    pairs = []
    for s, t in stored_pairs():
        g = next(bounded_concretisations(s))
        pairs.append((s, narrowed(rng, g, t, next(concretises(g, t)))))
    assert len(outside_gamma(pairs)[0]) == len(pairs)


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="precision, not soundness: relabelling a "
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
    # label set, so both move to {B}; left keyed by {A}, they would have
    # no support.
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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1, upper-bound half: materialise "
                   "does not count how many split-off members pick an unsplit "
                   "concrete node, so its slot can keep more neighbours than its hi")
def test_materialise_branches_pass_the_count_test(monkeypatch):
    # e.g. mv-pckt-rev splits packet collector 3, and concrete location 0
    # keeps its in-slot `at` from {P,S} at 1 with two neighbours: part 4
    # (1) and remainder 5 (1+)
    explore_module = importlib.import_module("shapespace.explore")
    materialise, failing = explore_module.materialise, []

    def checked(rule, m, s, neighbours, made):   # before apply rewrites the branches
        mats = materialise(rule, m, s, neighbours, made)
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


# --- apply drops only slots with lower bound 0 ------------------------------

# Step 6 of ``apply`` asserts the lemma in its comment on each slot it drops.
CHECKED_DROP = ("        slots.pop(slot)\n    for slot in support",
                "        assert slots.pop(slot).lo == 0, slot\n    for slot in support")


def drops_only_empty_slots(grammar, *apply_edits, **config):
    """Whether a run of ``grammar`` never drops, at ``apply``'s step 6,
    a slot whose lower bound is positive.  ``apply_edits`` are further
    ``conftest.mutant`` edits of ``apply``."""
    checked = mutant("rules", "apply", *CHECKED_DROP, *apply_edits)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("shapespace.explore"), "apply", checked)
        try:
            run(grammar, **config)
        except AssertionError:
            return False
    return True


@pytest.mark.parametrize("subsumption", [True, False])
@pytest.mark.parametrize("name", bundled_grammar_names())
def test_apply_drops_only_slots_with_lower_bound_0(name, subsumption):
    grammar = load_bundled(name)
    assert drops_only_empty_slots(grammar, strategy="bfs", subsumption=subsumption,
                                  max_states=150), render_grammar(grammar)


# 13, 14, 20, 34 and 43 are the first seeds whose check fails under the
# mutant apply-stale-slot-dec; 149 has the third most drops of seeds
# 0-299 (40 at this depth and cap).
@pytest.mark.parametrize("seed", [13, 14, 20, 34, 43, 149])
def test_apply_drops_only_slots_with_lower_bound_0_on_random_grammars(seed):
    grammar = parse_grammar(random_grammar_text(seed))
    assert drops_only_empty_slots(grammar, max_depth=3, max_states=200), (
        f"seed {seed}\n{render_grammar(grammar)}")


# --- one enumeration per split and pins ------------------------------------


def sharing_changes_nothing(grammar, **config):
    """On every state that a run of ``grammar`` stores, each call of the
    engine's ``materialise`` fed the state's one shared dict returns the
    branches of a call fed a fresh ``{}``, in the same order and with the
    same match; and so does the call repeated after ``apply`` has
    rewritten every branch the first one returned."""
    materialise = importlib.import_module("shapespace.explore").materialise
    ts, _ = run(grammar, **config)
    for s in ts.states.values():
        neighbours, made = neighbour_index(s.labels, s.edges), {}
        for rule in grammar.rules:
            for m in prematch(rule, s):
                alone = materialise(rule, m, s, neighbours, {})
                shared = materialise(rule, m, s, neighbours, made)
                if shared != alone:
                    return False
                for branch, match in shared:
                    apply(rule, branch, match)
                if materialise(rule, m, s, neighbours, made) != alone:
                    return False
    return True


@pytest.mark.parametrize("name", bundled_grammar_names())
def test_sharing_branches_across_a_state_changes_no_call(name):
    assert sharing_changes_nothing(load_bundled(name), strategy="bfs", subsumption=False,
                                   max_states=150)


# Seeds 1 and 87 change their state spaces, and 120 raises, when the key
# leaves out the part counts.
@pytest.mark.parametrize("subsumption", [True, False])
@pytest.mark.parametrize("seed", [1, 87, 120, 0, 13, 44])
def test_sharing_branches_across_a_state_changes_no_call_on_random_grammars(
        seed, subsumption):
    text = random_grammar_text(seed)
    assert sharing_changes_nothing(parse_grammar(text), subsumption=subsumption,
                                   max_depth=3, max_states=400), text


def test_abstract_engine_enumerates_once_per_split_and_pins(monkeypatch):
    # firewall-6F, bfs, subsumption off, to 800 states (the benchmark's
    # strict abstract workload): the expanded states make 1,553
    # materialise calls, which return 2,322 branches, but only 366
    # (split, pins) pairs are enumerated, summed over the states' dicts.
    explore_module = importlib.import_module("shapespace.explore")
    materialise, counts, dicts = explore_module.materialise, Counter(), {}

    def counting(rule, m, s, neighbours, made):
        mats = materialise(rule, m, s, neighbours, made)
        counts["calls"] += 1
        counts["branches"] += len(mats)
        dicts[id(made)] = made   # kept, so that no id is reused
        return mats

    monkeypatch.setattr(explore_module, "materialise", counting)
    _, stats = run(load_bundled("firewall-6F"), subsumption=False, max_states=800)
    assert (stats.generated, stats.transitions_generated) == (802, 2322)
    assert counts == {"calls": 1553, "branches": 2322}
    assert sum(map(len, dicts.values())) == 366


# --- one table per shape graph --------------------------------------------


def fields_of(s) -> tuple:
    """The four fields of the shape ``s`` as values, in stored order."""
    return (list(s.node_mult.items()), list(s.labels.items()), frozenset(s.edges),
            list(s.slots.items()))


def memo_changes_nothing(grammar, **config):
    """In an abstract run of ``grammar``, every shape that ``identity``
    rewrites keeps its four fields, in order; every bucket key and order
    the engine returns equal a fresh ``canonical`` of the shape and the
    ``canonical_order`` of its labelling; and every expanded
    state's matches, rule by rule and in order, are those of a fresh
    ``prematch``: the engine's table of shape graphs changes no call.
    The run stops at the first call that differs."""
    explore_module = importlib.import_module("shapespace.explore")
    engine = explore_module.AbstractEngine
    identity, bucket, successors = engine.identity, engine.bucket, engine.successors
    materialise = explore_module.materialise
    expected, checked = [], Counter()

    class Differs(Exception):
        pass

    def checked_identity(self, s):
        given = fields_of(s)
        if identity(self, s) is not s or fields_of(s) != given:
            raise Differs
        checked["identity"] += 1
        return s

    def checked_bucket(self, s):
        key = bucket(self, s)
        form, labelling = canonical(s)
        if key != (form, canonical_order(s, labelling)):
            raise Differs
        checked["bucket"] += 1
        return key

    def checked_successors(self, s):
        expected[:] = reversed([(rule, m) for rule in grammar.rules for m in prematch(rule, s)])
        out = successors(self, s)
        if expected:
            raise Differs
        checked["successors"] += 1
        return out

    def checked_materialise(rule, m, s, neighbours, made):
        if not expected or expected.pop() != (rule, m):
            raise Differs
        return materialise(rule, m, s, neighbours, made)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "identity", checked_identity)
        patch.setattr(engine, "bucket", checked_bucket)
        patch.setattr(engine, "successors", checked_successors)
        patch.setattr(explore_module, "materialise", checked_materialise)
        try:
            run(grammar, engine="abstract", **config)
        except Differs:
            return False
    assert checked["identity"] and checked["bucket"] and checked["successors"]
    return True


@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
@pytest.mark.parametrize("name", bundled_grammar_names())
def test_memo_of_bucket_keys_and_matches_changes_no_call(name, strategy):
    assert memo_changes_nothing(load_bundled(name), strategy=strategy, subsumption=True,
                                max_states=150)


@pytest.mark.parametrize("seed", [0, 1, 13, 87])
def test_memo_of_bucket_keys_and_matches_changes_no_call_on_random_grammars(seed):
    text = random_grammar_text(seed)
    assert memo_changes_nothing(parse_grammar(text), subsumption=True, max_depth=3,
                                max_states=400), text


def test_abstract_engine_certifies_and_prematches_each_graph_once(monkeypatch):
    # firewall-4, dfs, subsumption on (the benchmark's headline workload):
    # the store looks up the graph of each of its 1,008 misses once, and
    # their 1,008 bucket keys are of shapes over 40 graphs; the 162
    # expanded states, with 5 rules each, make 810 (rule, state) searches
    # over 200 (rule, graph) pairs.
    explore_module = importlib.import_module("shapespace.explore")
    counts = Counter()

    def counting(name, function):
        def counted(*args):
            counts[name] += 1
            return function(*args)
        return counted

    for name in ("_entry", "canonical", "prematch"):
        monkeypatch.setattr(explore_module, name, counting(name, getattr(explore_module, name)))
    for name in ("bucket", "successors"):
        monkeypatch.setattr(explore_module.AbstractEngine, name,
                            counting(name, getattr(explore_module.AbstractEngine, name)))
    grammar = load_bundled("firewall-4")
    _, stats = run(grammar, strategy="dfs", subsumption=True)
    assert (stats.generated, stats.subsumed) == (267, 132) and len(grammar.rules) == 5
    assert counts == {"_entry": 1008, "bucket": 1008, "canonical": 40, "successors": 162,
                      "prematch": 200}


def stores_what_it_is_given(grammar, **config):
    """In an abstract run of ``grammar``, every stored state ends the run
    with the four fields, in order, of the shape handed to the store:
    sharing its graph's objects changed no value, and nothing wrote a
    stored shape after the store took it."""
    explore_module = importlib.import_module("shapespace.explore")
    add, given = explore_module._Store.add, {}

    class Differs(Exception):
        pass

    def copying(self, state):
        copy = fields_of(state)
        fresh, i, below = add(self, state)
        if fresh:
            given[i] = copy
            if fields_of(state) != copy:   # stop before the run expands it
                raise Differs
        return fresh, i, below

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explore_module._Store, "add", copying)
        try:
            ts, _ = run(grammar, engine="abstract", **config)
        except Differs:
            return False
    assert ts.states.keys() == given.keys()
    return all(fields_of(s) == given[i] for i, s in ts.states.items())


def table_changes_no_answer(grammar, **config):
    """An abstract run of ``grammar`` stores the states, marks the states
    and keeps the transitions of the same run with a fresh entry made on
    every ``_entry`` call, which shares and remembers nothing."""
    explore_module = importlib.import_module("shapespace.explore")
    entry = explore_module._entry
    ts, _ = run(grammar, engine="abstract", **config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explore_module, "_entry", lambda graphs, s: entry({}, s))
        alone, _ = run(grammar, engine="abstract", **config)
    return ([(i, fields_of(s)) for i, s in ts.states.items()]
            == [(i, fields_of(s)) for i, s in alone.states.items()]
            and (ts.marked, ts.transitions) == (alone.marked, alone.transitions))


@pytest.mark.parametrize("grammar, config, stored, graphs", [
    ("firewall-4", dict(strategy="dfs", subsumption=True), 267, 40),
    ("firewall-6F", dict(strategy="bfs", subsumption=False, max_states=800), 802, 159)])
def test_stored_shapes_of_one_graph_share_its_objects(grammar, config, stored, graphs):
    # and each is its graph's objects and one multiplicity tuple, with no
    # dict of its own: the node and slot multiplicities, in order; the
    # bucket keys and match lists of the run's entries end with the run
    ts, _ = run(load_bundled(grammar), **config)
    first = {}   # graph -> its first stored shape
    for s in ts.states.values():
        t = first.setdefault((frozenset(s.labels.items()), s.edges), s)
        assert s.labels is t.labels and s.edges is t.edges and s.keys is t.keys
        assert s.slots.keys() == t.slots.keys()
        assert all(k is t_k for k, t_k in zip(s.slots, t.slots))
        assert type(s.mults) is tuple and len(s.mults) == len(s.labels) + len(s.keys)
        assert s.mults == (*s.node_mult.values(), *s.slots.values())
        assert not {"node_mult", "slots"} & vars(s).keys()
        assert [k for k, v in vars(s).items() if isinstance(v, dict)] in (
            ["labels"], ["labels", "colours"])   # a graph's colouring, computed on one shape
        assert s.entry == [s.labels, s.edges, s.keys, None, None]
    assert (len(ts.states), len(first)) == (stored, graphs)
    assert len({id(s.labels) for s in ts.states.values()}) == graphs
    assert len({id(s.keys) for s in ts.states.values()}) == graphs


@pytest.mark.parametrize("subsumption", [True, False])
@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
@pytest.mark.parametrize("name", bundled_grammar_names())
def test_stored_shapes_keep_what_the_store_was_given(name, strategy, subsumption):
    assert stores_what_it_is_given(load_bundled(name), strategy=strategy,
                                   subsumption=subsumption, max_states=150)


@pytest.mark.parametrize("subsumption", [True, False])
@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
@pytest.mark.parametrize("name", bundled_grammar_names())
def test_table_of_shape_graphs_changes_no_answer(name, strategy, subsumption):
    assert table_changes_no_answer(load_bundled(name), strategy=strategy,
                                   subsumption=subsumption, max_states=150)


@pytest.mark.parametrize("subsumption", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 13, 87])
def test_table_of_shape_graphs_changes_no_answer_on_random_grammars(seed, subsumption):
    text = random_grammar_text(seed)
    assert table_changes_no_answer(parse_grammar(text), subsumption=subsumption,
                                   max_depth=3, max_states=400), text


def test_exploration_leaves_no_reference_cycle():
    # canonical's least-leaf search and materialise's slot search recurse;
    # neither leaves a cycle for the collector, so with it off nothing is left
    runs = [(FIREWALL3, dict(subsumption=True)), (FIREWALL3, dict(subsumption=False)),
            (load_bundled("firewall-6F"), dict(engine="concrete", max_depth=6))]
    gc.collect()
    gc.disable()
    try:
        for grammar, config in runs:
            run(grammar, **config)
            assert gc.collect() == 0, config
    finally:
        gc.enable()


def test_peak_memory_is_the_growth_of_this_run():
    # the process-wide peak stays where a larger run left it, so a small
    # run after it reads 0
    _, large = run(FIREWALL3, subsumption=False)
    _, small = run(COUNTER)
    assert large.peak_mem_bytes >= 0 and small.peak_mem_bytes == 0


# --- seeded mutants -------------------------------------------------------

# A mutant replaces the one occurrence of a snippet in a function of the
# package (``conftest.mutant``).  Each row of the table pairs a mutant
# with a property that the tests above check on the program and that
# the mutant breaks; none of them is a pinned count.
FIRST_BRANCH = ("rules", "materialise", "    made[split] = out\n", "    made[split] = out[:1]\n")
LAST_BRANCH = ("rules", "materialise", "    made[split] = out\n",
               "    made[split] = out[:-1] or out\n")
EXACT_SLOT_DEC = ("rules", "apply", "subtract_one(cur) if exact else bounded(max(cur.lo - 1, 0), "
                  "cur.hi)", "subtract_one(cur)")
STALE_SLOT_DEC = ("rules", "apply", "else bounded(max(cur.lo - 1, 0), cur.hi)", "else cur")
NO_CAPACITY_CHECK = ("rules", "materialise", "if mu.lo > cap:", "if False:")
KEY_WITHOUT_PINS = ("rules", "materialise", "if slot[0] not in s.node_mult))", "if False))")
KEY_WITHOUT_PART_COUNTS = ("rules", "materialise",
                           "tuple((u, len(ps)) for u, (ps, _) in parts.items())", "tuple(parts)")
GRAPH_WITHOUT_EDGES = ("explore", "_entry", "(frozenset(s.labels.items()), s.edges)",
                       "frozenset(s.labels.items())")
GRAPH_WITHOUT_LABELS = ("explore", "_entry", "(frozenset(s.labels.items()), s.edges)", "s.edges")
GRAPH_WITHOUT_LABEL_SETS = ("explore", "_entry", "(frozenset(s.labels.items()), s.edges)",
                            "(frozenset(s.labels), s.edges)")
NO_BARE_SPLIT = ("rules", "materialise", "([None] if lo == 0 else [])", "[]")
FOLD_BY_LABELS = ("shapes", "normalise", "if sig == last:", "if last and sig[0] == last[0]:")
REUSE_WITHOUT_LABELS = ("shapes", "normalise", "known[0] == row and known[1] == s.labels[v]",
                        "known[0] == row")
# the entry also keeps its first shape's tuple, and every later shape of
# the graph takes it
FIRST_TUPLE = ("explore", "_entry", "[s.labels, s.edges, s.keys, None, None]",
               "[s.labels, s.edges, s.keys, None, None, s.mults]",
               "s.labels, s.edges, s.keys = s.entry[:3]",
               "s.labels, s.edges, s.keys, s.mults = s.entry[:3] + s.entry[5:]")


def simulated(name):
    """Every concrete step of ``name`` is simulated (bfs, subsumption off)."""
    return unsimulated(name, strategy="bfs", subsumption=False)[0] == []


def mark_graphs_in_gamma():
    """Every concrete graph of ``MARK`` lies in gamma of a relevant state,
    with subsumption on and off."""
    graphs = run(MARK, engine="concrete")[0].states.values()
    for subsumption in (True, False):
        ts, _ = run(MARK, subsumption=subsumption)
        shapes = [ts.states[i] for i in ts.relevant_states()]
        if not all(any(in_gamma(g, s) for s in shapes) for g in graphs):
            return False
    return True


def random_states_within_capacity(seed):
    ts, _ = run(parse_grammar(random_grammar_text(seed)), max_depth=4)
    return all(within_capacity(s) for s in ts.states.values())


MUTANTS = {
    # 7 and 2 concrete steps unsimulated
    "materialise-first-branch-firewall-2": (FIRST_BRANCH, functools.partial(simulated, "firewall-2")),
    "materialise-first-branch-firewall-3": (FIRST_BRANCH, functools.partial(simulated, "firewall-3")),
    # the same 7 and 2: the branches lost come in pairs
    "materialise-last-branch-firewall-2": (LAST_BRANCH, functools.partial(simulated, "firewall-2")),
    "materialise-last-branch-firewall-3": (LAST_BRANCH, functools.partial(simulated, "firewall-3")),
    # moves no bundled count and fails no simulation check, but 2 of the 6
    # concrete graphs of MARK fall outside gamma of every relevant state
    "apply-exact-slot-dec-mark": (EXACT_SLOT_DEC, mark_graphs_in_gamma),
    # passes simulation and the capacity test on the bundled grammars
    "materialise-no-capacity-check-seed-13": (
        NO_CAPACITY_CHECK, functools.partial(random_states_within_capacity, 13)),
    # the same mutant: a branch fails the capacity test, and step 6 of
    # ``apply`` drops a slot with a positive lower bound
    "materialise-no-near-capacity-firewall-3": (NO_CAPACITY_CHECK, functools.partial(
        drops_only_empty_slots, FIREWALL3, strategy="bfs", max_states=150)),
    # an inexact decrement keeps the lower bound, so a slot left with no
    # edge can keep a positive one; the property edits ``apply`` itself,
    # so it makes the same edit beside its check
    "apply-stale-slot-dec-seed-13": (STALE_SLOT_DEC, functools.partial(
        drops_only_empty_slots, parse_grammar(random_grammar_text(13)), *STALE_SLOT_DEC[2:],
        max_depth=3, max_states=200)),
    # neither fails a simulation check nor moves a MARK graph out of gamma
    "materialise-key-without-pins-firewall-3": (KEY_WITHOUT_PINS, functools.partial(
        sharing_changes_nothing, FIREWALL3, strategy="bfs", subsumption=False)),
    "materialise-key-without-part-counts-seed-1": (KEY_WITHOUT_PART_COUNTS, functools.partial(
        sharing_changes_nothing, parse_grammar(random_grammar_text(1)), subsumption=False,
        max_depth=3)),
    # on firewall-2, two label maps and two edge sets are each shared by
    # different graphs among the bucket lookups
    "memo-key-without-edges-firewall-2": (GRAPH_WITHOUT_EDGES, functools.partial(
        memo_changes_nothing, FIREWALL2, strategy="bfs", subsumption=True)),
    "memo-key-without-labels-firewall-2": (GRAPH_WITHOUT_LABELS, functools.partial(
        memo_changes_nothing, FIREWALL2, strategy="bfs", subsumption=True)),
    # a relabelled node whose own slots are unchanged keeps its old signature;
    # no bundled grammar relabels a node
    "normalise-reuse-without-labels-mark": (REUSE_WITHOUT_LABELS, functools.partial(
        normalise_agrees, MARK, max_states=150)),
    # two pairs of firewall-2's stored graphs differ only in label sets:
    # keyed without them, a later shape takes an earlier one's labels
    "intern-key-without-labels-firewall-2": (GRAPH_WITHOUT_LABEL_SETS, functools.partial(
        stores_what_it_is_given, FIREWALL2, strategy="bfs", subsumption=False)),
    # a stored shape keeps the multiplicities of the first shape of its graph
    "intern-first-tuple-firewall-2": (FIRST_TUPLE, functools.partial(
        stores_what_it_is_given, FIREWALL2, strategy="bfs", subsumption=False)),
    # a collector always keeps a remainder: 5 concrete steps unsimulated
    "materialise-no-bare-split-firewall-2": (NO_BARE_SPLIT, functools.partial(
        simulated, "firewall-2")),
    # nodes of one label set with different slots folded into one; the
    # successor's slots no longer match its edges, so a later step raises
    "normalise-fold-by-labels-firewall-2": (FOLD_BY_LABELS, functools.partial(
        normalise_agrees, FIREWALL2, max_states=150)),
}


@pytest.mark.parametrize("row", MUTANTS)
def test_seeded_mutant_fails_a_property(row, monkeypatch):
    (module, function, *edits), holds = MUTANTS[row]
    monkeypatch.setattr(importlib.import_module("shapespace.explore"), function,
                        mutant(module, function, *edits))
    assert not holds()


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


# Seeds whose runs (depth 3, subsumption off, 400-state cap) hold pairs
# s below t, among their first 120 stored states, for which the strong
# form above fails: 29 pairs in all.  In seed 13, normalise folds a node
# that create-1 makes into s's 2+ collector but not into t's, whose slot
# there is 0..1, so no successor of t is isomorphic to that of s.
WEAKLY_MONOTONE_SEEDS = (13, 14, 34, 43, 50, 81, 87, 97, 104, 125, 149)


@pytest.mark.parametrize("seed", WEAKLY_MONOTONE_SEEDS)
def test_rewriting_is_concretely_monotone_on_random_grammars(seed):
    # Every concrete step from a bounded concretisation of s lands in
    # gamma of a successor of t, which is what soundness needs.
    grammar = parse_grammar(random_grammar_text(seed))
    ts, _ = run(grammar, subsumption=False, max_depth=3, max_states=400)
    engine = make_engine(grammar, "abstract")
    succ = functools.cache(lambda i: [x for _, x in engine.successors(ts.states[i])])
    pairs = steps = 0
    for i, j in itertools.permutations(sorted(ts.states)[:120], 2):
        s = ts.states[i]
        if compare_shapes(s, ts.states[j])[0] is None or all(
                any(compare_shapes(x, y)[0] is not None for y in succ(j)) for x in succ(i)):
            continue
        pairs += 1
        for g in bounded_concretisations(s):
            for rule in grammar.rules:
                for m in concrete_matches(rule, g):
                    h = concrete_apply(rule, m, g)
                    assert any(in_gamma(h, y) for y in succ(j)), (seed, i, j)
                    steps += 1
    assert pairs and steps >= pairs


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


@pytest.mark.parametrize("name", ["counter", "a,b", 'say "hi"', "a\nb", " x ", "", "é"])
def test_csv_report_writes_what_the_csv_module_writes(name):
    # The cells are quoted by hand; with no carriage return in them, the
    # bytes are those that csv.writer writes on every supported Python.
    _, st = run(COUNTER)
    st.grammar = name
    text = stats_report(st, "csv")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert [len(row) for row in rows] == [15, 15] and rows[1][0] == name
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    assert out.getvalue() == text


def test_table_report_lists_all_fields():
    _, st = run(COUNTER)
    table = stats_report(st, "table")
    assert "generated" in table and "peak_mem_bytes" in table
    with pytest.raises(ExploreError):
        stats_report(st, "json")
