"""DOT output of graphs and transition systems."""

import re
from collections import Counter

from shapespace import (ExploreConfig, Shape, abstract, binary, explore, graph, graph_dot,
                        load_bundled, shape_dot, transition_system_dot, unary)


def test_transition_system_dot_dashes_marked_states_and_draws_every_transition():
    ts, _ = explore(load_bundled("firewall-2"), ExploreConfig())
    lines = transition_system_dot(ts, name="fw2").splitlines()
    assert lines[:2] == ['digraph "fw2" {', "  node [shape=circle];"] and lines[-1] == "}"
    nodes = {int(m[1]): line for line in lines if (m := re.match(r"  s(\d+) \[", line))}
    assert sorted(nodes) == sorted(ts.states) and len(nodes) == 24
    assert {i for i, line in nodes.items() if "style=dashed" in line} == ts.marked
    assert len(ts.marked) == 3
    assert [i for i, line in nodes.items() if "penwidth=2" in line] == [ts.start]
    arrows = Counter(re.fullmatch(r'  s(\d+) -> s(\d+) \[label="(.*)"\];', line).groups()
                     for line in lines if " -> " in line)
    assert arrows == Counter((str(i), str(j), rule) for i, (rule, _), j in ts.transitions)
    assert sum(arrows.values()) == len(ts.transitions) == 60


def test_graph_dot_writes_every_label_and_edge():
    A, B, e = unary("A"), unary("B"), binary("e")
    g = graph([0, 1, 2], [(0, A, 0), (0, B, 0), (1, B, 1),
                          (0, e, 1), (1, e, 2), (2, e, 2)])
    assert graph_dot(g, name='say "g"').splitlines() == [
        r'digraph "say \"g\"" {',
        "  node [shape=ellipse];",
        '  n0 [label="A,B"];',
        '  n1 [label="B"];',
        '  n2 [label="2"];',   # no labels: the node's id
        '  n0 -> n1 [label="e"];',
        '  n1 -> n2 [label="e"];',
        '  n2 -> n2 [label="e"];',
        "}"]


def test_names_escape_backslashes_then_quotes_and_keep_other_bytes():
    g = graph([0], [])
    assert graph_dot(g, name='a\\b"c').splitlines()[0] == r'digraph "a\\b\"c" {'
    assert graph_dot(g, name="a\\").splitlines()[0] == r'digraph "a\\" {'
    assert graph_dot(g, name="fw-2 é,\tx").splitlines()[0] == 'digraph "fw-2 é,\tx" {'


def test_shape_dot_draws_collectors_bold_and_both_slots_on_each_edge():
    L, P, at = unary("L"), unary("P"), binary("at")
    g = graph([0, 1, 2], [(0, L, 0), (1, P, 1), (2, P, 2), (1, at, 0), (2, at, 0)])
    assert shape_dot(abstract(g), name="two").splitlines() == [
        'digraph "two" {',
        "  node [shape=ellipse];",
        '  n0 [label="L : 1"];',
        '  n1 [label="P : 2+", style=bold, peripheries=2];',
        '  n1 -> n0 [label="at [1|2+]"];',   # [out-slot|in-slot]
        "}"]


def test_shape_dot_reads_each_dict_of_a_stored_shape_once(monkeypatch):
    # A stored shape builds ``node_mult`` and ``slots`` afresh on every
    # read: the drawing reads each once, and draws what it draws of the
    # same shape with its dicts as fields.
    ts, _ = explore(load_bundled("firewall-3"), ExploreConfig(max_states=60))
    states = list(ts.states.values())
    want = [shape_dot(Shape(s.node_mult, s.labels, s.edges, s.slots)) for s in states]
    reads, stored = Counter(), type(states[0])
    for name in ("node_mult", "slots"):
        read = getattr(stored, name).fget
        monkeypatch.setattr(stored, name, property(
            lambda s, read=read, name=name: reads.update([name]) or read(s)))
    assert [shape_dot(s) for s in states] == want
    assert reads == {"node_mult": len(states), "slots": len(states)} and len(states) > 50
