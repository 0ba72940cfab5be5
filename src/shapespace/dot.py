"""Graphviz DOT rendering for graphs, shapes and transition systems."""

from __future__ import annotations

from .graphs import Graph
from .shapes import Shape, edge_slots
from .explore import TransitionSystem


def _quote(text: str) -> str:
    return '"' + text.replace('\\', '\\\\').replace('"', r'\"') + '"'


def graph_dot(g: Graph, name: str = "G") -> str:
    lines = [f"digraph {_quote(name)} {{", "  node [shape=ellipse];"]
    for v in sorted(g.nodes):
        labs = ",".join(sorted(l.text for l in g.labels[v]))
        lines.append(f"  n{v} [label={_quote(labs or str(v))}];")
    for (a, l, b) in sorted(g.edges, key=lambda e: (e[0], e[1].text, e[2])):
        lines.append(f"  n{a} -> n{b} [label={_quote(l.text)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def shape_dot(s: Shape, name: str = "shape") -> str:
    """Shape drawing: collector nodes bold, multiplicities as labels."""
    lines = [f"digraph {_quote(name)} {{", "  node [shape=ellipse];"]
    for v in sorted(s.node_mult):
        labs = ",".join(sorted(l.text for l in s.labels[v]))
        text = f"{labs or v} : {s.node_mult[v].text()}"
        style = "" if s.node_mult[v].is_concrete else ", style=bold, peripheries=2"
        lines.append(f"  n{v} [label={_quote(text)}{style}];")
    for (a, l, b) in sorted(s.edges, key=lambda e: (e[0], e[1].text, e[2])):
        om, im = (s.slots.get(slot) for slot in edge_slots(s.labels, a, l, b))
        text = f"{l.text} [{om.text() if om else '?'}|{im.text() if im else '?'}]"
        lines.append(f"  n{a} -> n{b} [label={_quote(text)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def transition_system_dot(ts: TransitionSystem, name: str = "lts") -> str:
    """States as numbered nodes; subsumed states dashed."""
    lines = [f"digraph {_quote(name)} {{", "  node [shape=circle];"]
    for i in sorted(ts.states):
        attrs = [f"label={_quote(str(i))}"]
        if i == ts.start:
            attrs.append("penwidth=2")
        if i in ts.marked:
            attrs.append("style=dashed")
        lines.append(f"  s{i} [{', '.join(attrs)}];")
    for (src, (rule_name, _), tgt) in sorted(
            ts.transitions, key=lambda t: (t[0], t[2], t[1][0], t[1][1])):
        lines.append(f"  s{src} -> s{tgt} [label={_quote(rule_name)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
