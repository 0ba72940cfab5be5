"""Neighbourhood abstraction: equivalences, shapes, subsumption.

A shape is a graph together with a similarity partition and node/edge
multiplicity maps.  Throughout this package the similarity relation is
label equality (radius-0 neighbourhood equivalence), so a similarity
block is identified by its unary label set.  Edge multiplicities live
in one table of slots: a slot is ``(node, direction, binary label,
label set at the other end)`` with direction ``"out"`` or ``"in"``, and
each binary edge supports two slots, given by ``edge_slots``.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field

from .graphs import Graph, Morphism, certificate, graph, isomorphisms
from . import multiplicity as mult
from .multiplicity import approx_card, subsumes


class ShapeError(ValueError):
    pass


def label_partition(g: Graph):
    """Radius-0 blocks: nodes grouped by unary label set."""
    blocks = {}
    for v in g.nodes:
        blocks.setdefault(g.node_labels(v), set()).add(v)
    return tuple(sorted((frozenset(b) for b in blocks.values()),
                        key=lambda b: sorted(b)))


def edge_slots(labels, v, l, w):
    """The two slots of the edge ``(v, l, w)``: ``v``'s out-slot and
    ``w``'s in-slot; ``labels`` maps nodes to their label sets."""
    return (v, "out", l, labels[w]), (w, "in", l, labels[v])


def _edge_counts(g: Graph) -> dict:
    """Node -> edge counts keyed by the rest of the slot key,
    ``(direction, binary label, label set at the other end)``."""
    counts = {v: Counter() for v in g.nodes}
    for (v, l, w) in g.edges:
        if not l.is_unary:
            for slot in edge_slots(g.labels, v, l, w):
                counts[slot[0]][slot[1:]] += 1
    return counts


def neighbourhood_partition(g: Graph):
    """Radius-0 and radius-1 partitions of ``g``'s nodes.

    Radius 1 refines radius 0 by equality of the per-block approximated
    in/out edge counts, for every binary label and every radius-0 block.
    """
    counts = _edge_counts(g)
    refined = {}
    for v in g.nodes:
        signature = frozenset((slot, approx_card(n)) for slot, n in counts[v].items())
        refined.setdefault((g.labels[v], signature), set()).add(v)
    level1 = tuple(sorted((frozenset(b) for b in refined.values()),
                          key=lambda b: sorted(b)))
    return label_partition(g), level1


@dataclass
class Shape:
    """Graph plus similarity partition and multiplicity maps.

    ``node_mult`` maps each node to its multiplicity.  ``slots`` maps
    slot keys ``(node, direction, binary label, label set at the other
    end)`` to edge multiplicities: how many such edges each concrete
    node the shape node stands for has.  It is sparse: its keys are
    exactly the slots that some shape edge supports (``edge_slots``),
    and a missing slot denotes multiplicity 0.  Shapes are immutable by
    convention after construction.  Normal shapes (``normalise``) are
    strictly isomorphic exactly when equal, and equal shapes have equal
    graphs, which they hash by.
    """

    graph: Graph
    node_mult: dict = field(default_factory=dict)
    slots: dict = field(default_factory=dict)

    def __hash__(self):
        return hash(self.graph)

    def class_key(self, v) -> frozenset:
        return self.graph.node_labels(v)

    def is_concrete(self, v) -> bool:
        return self.node_mult[v].is_concrete

    def validate(self):
        """Raise ShapeError when the shape invariants do not hold."""
        g = self.graph
        if set(self.node_mult) != set(g.nodes):
            raise ShapeError("node multiplicity map is not total")
        for v, m in self.node_mult.items():
            if m == mult.ZERO:
                raise ShapeError(f"zero-population node {v} present")
        support = set()
        for (v, l, w) in g.binary_edges():
            support.add((v, "out", l, self.class_key(w)))
            support.add((w, "in", l, self.class_key(v)))
        if not support <= self.slots.keys():
            raise ShapeError("an edge lacks a slot multiplicity")
        for (v, d, l, key), m in self.slots.items():
            if v not in g.nodes:
                raise ShapeError(f"multiplicity entry for unknown node {v}")
            if m == mult.ZERO:
                raise ShapeError(f"zero multiplicity stored for ({v},{d},{l},{set(key)})")
        if not self.slots.keys() <= support:
            raise ShapeError("a slot multiplicity lacks a support edge")

    def __repr__(self):
        return (f"Shape({len(self.graph.nodes)} nodes, "
                f"{len(self.graph.binary_edges())} edges)")


def abstract(g: Graph, normal: bool = False) -> Shape:
    """Fold the radius-1 equivalence classes of ``g`` into a shape, its
    nodes numbered in order of their least member or, if ``normal``, in
    normal form (``normalise``)."""
    _, level1 = neighbourhood_partition(g)
    counts = _edge_counts(g)
    node_of = {v: i for i, block in enumerate(level1) for v in block}
    edges = {(node_of[v], l, node_of[w]) for (v, l, w) in g.edges}
    node_mult, slots = {}, {}
    for i, block in enumerate(level1):
        node_mult[i] = approx_card(len(block))
        slots.update(((i, *k), approx_card(n)) for k, n in counts[min(block)].items())
    s = Shape(graph(node_mult, edges), node_mult, slots)
    return normalise(s) if normal else s


def normalise(s: Shape) -> Shape:
    """Fold same-signature nodes together in one pass; idempotent.

    A node's signature is its label set, its out-slots and its in-slots,
    which are keyed by label sets, never by node ids.  Nodes are
    numbered in signature order.  A merged node keeps its
    representative's slots, so nodes that differ before the pass still
    differ after it, and a second pass would merge nothing.
    """
    own = {v: [] for v in s.graph.nodes}   # node -> its (slot key rest, mu)
    for (v, *rest), mu in s.slots.items():
        own[v].append((rest, mu))
    groups = {}
    for v in sorted(s.graph.nodes):
        sig = (tuple(sorted(l.text for l in s.class_key(v))),
               _slot_items(own[v], "out"), _slot_items(own[v], "in"))
        groups.setdefault(sig, []).append(v)
    ordered = [groups[sig] for sig in sorted(groups)]
    new_id = {v: i for i, grp in enumerate(ordered) for v in grp}

    node_mult, slots = {}, {}
    for i, grp in enumerate(ordered):
        node_mult[i] = functools.reduce(mult.add, (s.node_mult[v] for v in grp))
        slots.update(((i, *rest), mu) for rest, mu in own[grp[0]])
    edges = {(new_id[v], l, new_id[w]) for (v, l, w) in s.graph.edges}
    return Shape(graph(node_mult, edges), node_mult, slots)


def _slot_items(entries, direction):
    return tuple(sorted((l.text, tuple(sorted(x.text for x in key)), mu)
                        for (d, l, key), mu in entries if d == direction))


# --- comparison -----------------------------------------------------------


def _mults_below(s: Shape, t: Shape, phi: dict) -> bool:
    """All multiplicities of ``s`` subsumed by ``t``'s under ``phi``.

    ``phi`` is an isomorphism, so it keeps label sets, and both shapes'
    slot keys are exactly their supported ones: each slot of ``s`` has
    its image slot in ``t``.
    """
    for v in s.graph.nodes:
        if not subsumes(t.node_mult[phi[v]], s.node_mult[v]):
            return False
    for (v, *rest), mu in s.slots.items():
        if not subsumes(t.slots[(phi[v], *rest)], mu):
            return False
    return True


def compare_shapes(s: Shape, t: Shape):
    """Subsumption in both directions with a single isomorphism search.

    Returns ``(s_below_t, t_below_s)`` where each entry is a witness
    Morphism ``s.graph -> t.graph`` (respectively its direction) or
    None.  Every graph isomorphism is tried before a direction is
    declared to fail; one failing candidate proves nothing.
    """
    wit_st = None
    wit_ts = None
    for phi in isomorphisms(s.graph, t.graph):
        inv = {w: v for v, w in phi.items()}
        if wit_st is None and _mults_below(s, t, phi):
            wit_st = Morphism(dict(phi))
        if wit_ts is None and _mults_below(t, s, inv):
            wit_ts = Morphism(inv)
        if wit_st is not None and wit_ts is not None:
            break
    return wit_st, wit_ts


def shape_subsumes(t: Shape, s: Shape):
    """Whether ``s`` is below ``t``; returns ``(bool, witness or None)``."""
    wit, _ = compare_shapes(s, t)
    return wit is not None, wit


def strictly_isomorphic(s: Shape, t: Shape) -> bool:
    """Mutual subsumption, which forces equal multiplicities: the two
    witnesses compose to an automorphism that can only widen them."""
    return None not in compare_shapes(s, t)


def covered(g: Graph, states) -> bool:
    """Whether some shape in ``states`` subsumes the abstraction of ``g``."""
    s = abstract(g)
    cert = certificate(s.graph)
    return any(compare_shapes(s, t)[0] is not None
               for t in states if certificate(t.graph) == cert)
