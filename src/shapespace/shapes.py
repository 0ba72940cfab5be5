"""Neighbourhood abstraction: equivalences, shapes, subsumption.

A shape is a graph together with a similarity partition and node/edge
multiplicity maps.  Throughout this package the similarity relation is
label equality (radius-0 neighbourhood equivalence), so a similarity
block is identified by its unary label set; edge multiplicity maps are
keyed by ``(node, binary label, label set of the target block)``.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field

from .graphs import Graph, Morphism, certificate, graph, isomorphisms
from . import multiplicity as mult
from .multiplicity import Multiplicity, approx_card, subsumes


class ShapeError(ValueError):
    pass


def label_partition(g: Graph):
    """Radius-0 blocks: nodes grouped by unary label set."""
    blocks = {}
    for v in g.nodes:
        blocks.setdefault(g.node_labels(v), set()).add(v)
    return tuple(sorted((frozenset(b) for b in blocks.values()),
                        key=lambda b: sorted(b)))


def _edge_counts(g: Graph) -> dict:
    """Node -> edge counts keyed by (binary label, label set at the
    other end, "out" or "in")."""
    counts = {v: Counter() for v in g.nodes}
    for (v, l, w) in g.edges:
        if not l.is_unary:
            counts[v][l, g.labels[w], "out"] += 1
            counts[w][l, g.labels[v], "in"] += 1
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

    ``out_mult``/``in_mult`` are sparse: a missing entry denotes
    multiplicity 0 and the absence of shape edges for that slot.
    Shapes are immutable by convention after construction.  Normal
    shapes (``normalise``) are strictly isomorphic exactly when equal,
    and equal shapes have equal graphs, which they hash by.
    """

    graph: Graph
    node_mult: dict = field(default_factory=dict)
    out_mult: dict = field(default_factory=dict)
    in_mult: dict = field(default_factory=dict)

    def __hash__(self):
        return hash(self.graph)

    def class_key(self, v) -> frozenset:
        return self.graph.node_labels(v)

    def is_concrete(self, v) -> bool:
        return self.node_mult[v].is_concrete

    def out_multiplicity(self, v, l, block) -> Multiplicity:
        """Multiplicity of outgoing ``l``-edges from ``v`` into ``block``.

        ``block`` may be a similarity block (set of node ids) or its
        label-set key.
        """
        return self.out_mult.get((v, l, self._key_of(block)), mult.ZERO)

    def in_multiplicity(self, v, l, block) -> Multiplicity:
        return self.in_mult.get((v, l, self._key_of(block)), mult.ZERO)

    def _key_of(self, block):
        if block and isinstance(next(iter(block)), int):
            keys = {self.class_key(v) for v in block}
            if len(keys) != 1:
                raise ShapeError("node set spans several similarity blocks")
            return keys.pop()
        return frozenset(block)

    def validate(self):
        """Raise ShapeError when the shape invariants do not hold."""
        g = self.graph
        if set(self.node_mult) != set(g.nodes):
            raise ShapeError("node multiplicity map is not total")
        for v, m in self.node_mult.items():
            if m == mult.ZERO:
                raise ShapeError(f"zero-population node {v} present")
        out_support, in_support = set(), set()
        for (v, l, w) in g.binary_edges():
            out_support.add((v, l, self.class_key(w)))
            in_support.add((w, l, self.class_key(v)))
        if not out_support <= self.out_mult.keys():
            raise ShapeError("an edge lacks an outgoing multiplicity")
        if not in_support <= self.in_mult.keys():
            raise ShapeError("an edge lacks an incoming multiplicity")
        for (v, l, key), m in list(self.out_mult.items()) + list(self.in_mult.items()):
            if v not in g.nodes:
                raise ShapeError(f"multiplicity entry for unknown node {v}")
            if m == mult.ZERO:
                raise ShapeError(f"zero multiplicity stored for ({v},{l},{set(key)})")
        if not self.out_mult.keys() <= out_support:
            raise ShapeError("an outgoing multiplicity lacks a support edge")
        if not self.in_mult.keys() <= in_support:
            raise ShapeError("an incoming multiplicity lacks a support edge")

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
    node_mult, out_mult, in_mult = {}, {}, {}
    for i, block in enumerate(level1):
        node_mult[i] = approx_card(len(block))
        for (l, key, direction), n in counts[min(block)].items():
            table = out_mult if direction == "out" else in_mult
            table[(i, l, key)] = approx_card(n)
    s = Shape(graph(node_mult, edges), node_mult, out_mult, in_mult)
    return normalise(s) if normal else s


def normalise(s: Shape) -> Shape:
    """Fold same-signature nodes together in one pass; idempotent.

    A node's signature is its label set and its slot tables, which are
    keyed by label sets, never by node ids.  Nodes are numbered in
    signature order.  A merged node keeps its representative's slots,
    so nodes that differ before the pass still differ after it, and a
    second pass would merge nothing.
    """
    slots = {v: ([], []) for v in s.graph.nodes}   # node -> (out, in) entries
    for side, table in enumerate((s.out_mult, s.in_mult)):
        for (v, l, key), mu in table.items():
            slots[v][side].append((l, key, mu))
    groups = {}
    for v in sorted(s.graph.nodes):
        sig = (tuple(sorted(l.text for l in s.class_key(v))),
               _slot_items(slots[v][0]), _slot_items(slots[v][1]))
        groups.setdefault(sig, []).append(v)
    ordered = [groups[sig] for sig in sorted(groups)]
    new_id = {v: i for i, grp in enumerate(ordered) for v in grp}

    node_mult, out_m, in_m = {}, {}, {}
    for i, grp in enumerate(ordered):
        node_mult[i] = functools.reduce(mult.add, (s.node_mult[v] for v in grp))
        rep_out, rep_in = slots[grp[0]]
        out_m.update(((i, l, key), mu) for l, key, mu in rep_out)
        in_m.update(((i, l, key), mu) for l, key, mu in rep_in)
    edges = {(new_id[v], l, new_id[w]) for (v, l, w) in s.graph.edges}
    return Shape(graph(node_mult, edges), node_mult, out_m, in_m)


def _slot_items(entries):
    return tuple(sorted((l.text, tuple(sorted(x.text for x in key)), mu)
                        for l, key, mu in entries))


# --- comparison -----------------------------------------------------------


def _mults_below(s: Shape, t: Shape, phi: dict) -> bool:
    """All multiplicities of ``s`` subsumed by ``t``'s under ``phi``."""
    for v in s.graph.nodes:
        if not subsumes(t.node_mult[phi[v]], s.node_mult[v]):
            return False
    for (v, l, w) in s.graph.binary_edges():
        ks = s.class_key(w)
        kt = t.class_key(phi[w])
        if not subsumes(t.out_mult.get((phi[v], l, kt), mult.ZERO),
                        s.out_mult.get((v, l, ks), mult.ZERO)):
            return False
        ks = s.class_key(v)
        kt = t.class_key(phi[v])
        if not subsumes(t.in_mult.get((phi[w], l, kt), mult.ZERO),
                        s.in_mult.get((w, l, ks), mult.ZERO)):
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
