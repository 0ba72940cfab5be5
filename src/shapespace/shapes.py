"""Neighbourhood abstraction: equivalences, shapes, subsumption.

A shape is a graph together with a similarity partition and node/edge
multiplicity maps.  Throughout this package the similarity relation is
label equality (radius-0 neighbourhood equivalence), so a similarity
block is identified by its unary label set.  Edge multiplicities live
in one table of slots: a slot is ``(node, direction, binary label,
label set at the other end)`` with direction ``"out"`` or ``"in"``, and
each binary edge supports two slots, given by ``edge_slots``.  A
``Branch`` holds the same data as plain dicts, for the rewrite pipeline.
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


def edge_slots(labels, v, l, w):
    """The two slots of the edge ``(v, l, w)``: ``v``'s out-slot and
    ``w``'s in-slot; ``labels`` maps nodes to their label sets."""
    return (v, "out", l, labels[w]), (w, "in", l, labels[v])


def _blocks(g: Graph):
    """The radius-1 blocks of ``g``'s nodes, ordered by least member.

    Nodes share a block when they have the same label set and the same
    approximated edge counts per rest of slot key, ``(direction, binary
    label, label set at the other end)``.  Each block comes with that
    label set and those ``(rest, count)`` pairs.
    """
    counts = {v: Counter() for v in g.nodes}
    for (v, l, w) in g.edges:
        if not l.is_unary:
            for slot in edge_slots(g.labels, v, l, w):
                counts[slot[0]][slot[1:]] += 1
    blocks = {}
    for v in g.nodes:
        signature = frozenset((rest, approx_card(n)) for rest, n in counts[v].items())
        blocks.setdefault((g.labels[v], signature), set()).add(v)
    return sorted(((frozenset(b), sig) for sig, b in blocks.items()),
                  key=lambda item: min(item[0]))


def neighbourhood_partition(g: Graph):
    """The radius-1 partition of ``g``'s nodes, blocks ordered by least
    member (``_blocks``)."""
    return tuple(block for block, _ in _blocks(g))


@dataclass
class Shape:
    """Graph plus similarity partition and multiplicity maps.

    ``node_mult`` maps each node to its multiplicity.  ``slots`` maps
    slot keys ``(node, direction, binary label, label set at the other
    end)`` to edge multiplicities: how many such edges each concrete
    node the shape node stands for has.  It is sparse: its keys are
    exactly the slots that some shape edge supports (``edge_slots``),
    and a missing slot denotes multiplicity 0.  Shapes are immutable by
    convention after construction, and hash by all three fields.  Normal
    shapes (``normalise``) are strictly isomorphic exactly when equal.
    ``labels`` and ``edges`` give a shape the fields of a ``Branch``.
    """

    graph: Graph
    node_mult: dict = field(default_factory=dict)
    slots: dict = field(default_factory=dict)

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.graph, frozenset(self.node_mult.items()),
                     frozenset(self.slots.items())))

    def __hash__(self):
        return self._hash

    @property
    def labels(self) -> dict:
        return self.graph.labels

    @property
    def edges(self) -> frozenset:
        return self.graph.binary_edges()

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
            support.add((v, "out", l, g.labels[w]))
            support.add((w, "in", l, g.labels[v]))
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


@dataclass
class Branch:
    """A shape under construction, as plain data.  ``materialise`` makes
    one per rewrite branch, ``apply`` rewrites it in place, and
    ``normalise`` reads it and builds the one Shape of the successor."""

    node_mult: dict   # node -> multiplicity
    labels: dict      # node -> unary label set
    edges: set        # binary edges (v, l, w)
    slots: dict       # slot key -> multiplicity

    def shape(self) -> Shape:
        """The Shape of this branch, with the same node ids."""
        loops = [(v, l, v) for v, ls in self.labels.items() for l in ls]
        return Shape(graph(self.node_mult, [*self.edges, *loops]),
                     self.node_mult, self.slots)


def abstract(g: Graph, normal: bool = False) -> Shape:
    """Fold the radius-1 equivalence classes of ``g`` into a shape, its
    nodes numbered in order of their least member or, if ``normal``, in
    normal form (``normalise``)."""
    blocks = _blocks(g)
    node_of = {v: i for i, (block, _) in enumerate(blocks) for v in block}
    edges = {(node_of[v], l, node_of[w]) for (v, l, w) in g.edges if not l.is_unary}
    node_mult, labels, slots = {}, {}, {}
    for i, (block, (key, counts)) in enumerate(blocks):
        node_mult[i] = approx_card(len(block))
        labels[i] = key
        slots.update(((i, *rest), mu) for rest, mu in counts)
    b = Branch(node_mult, labels, edges, slots)
    return normalise(b) if normal else b.shape()


def normalise(b) -> Shape:
    """Fold same-signature nodes of a Branch (or Shape) together in one
    pass; idempotent.

    A node's signature is its label set, its out-slots and its in-slots,
    which are keyed by label sets, never by node ids.  Nodes are
    numbered in signature order.  A merged node keeps its
    representative's slots, so nodes that differ before the pass still
    differ after it, and a second pass would merge nothing.
    """
    own = {v: [] for v in b.node_mult}   # node -> its (slot key rest, mu)
    for (v, *rest), mu in b.slots.items():
        own[v].append((rest, mu))
    groups = {}
    for v in sorted(b.node_mult):
        sig = (tuple(sorted(l.text for l in b.labels[v])),
               _slot_items(own[v], "out"), _slot_items(own[v], "in"))
        groups.setdefault(sig, []).append(v)
    ordered = [groups[sig] for sig in sorted(groups)]
    new_id = {v: i for i, grp in enumerate(ordered) for v in grp}

    node_mult, labels, slots = {}, {}, {}
    for i, grp in enumerate(ordered):
        node_mult[i] = functools.reduce(mult.add, (b.node_mult[v] for v in grp))
        labels[i] = b.labels[grp[0]]
        slots.update(((i, *rest), mu) for rest, mu in own[grp[0]])
    edges = {(new_id[v], l, new_id[w]) for (v, l, w) in b.edges}
    return Branch(node_mult, labels, edges, slots).shape()


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
