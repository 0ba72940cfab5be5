"""Neighbourhood abstraction: equivalences, shapes, subsumption.

A shape is a graph together with a similarity partition and node/edge
multiplicity maps.  Throughout this package the similarity relation is
label equality (radius-0 neighbourhood equivalence), so a similarity
block is identified by its unary label set; edge multiplicity maps are
keyed by ``(node, binary label, label set of the target block)``.
"""

from __future__ import annotations

import hashlib
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
    Shapes are immutable by convention after construction.
    """

    graph: Graph
    node_mult: dict = field(default_factory=dict)
    out_mult: dict = field(default_factory=dict)
    in_mult: dict = field(default_factory=dict)

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


def abstract(g: Graph) -> Shape:
    """Fold the radius-1 equivalence classes of ``g`` into a shape."""
    _, level1 = neighbourhood_partition(g)
    counts = _edge_counts(g)
    node_of = {v: i for i, block in enumerate(level1) for v in block}

    edges = {(node_of[v], l, node_of[w]) for (v, l, w) in g.edges}
    node_mult = {}
    out_mult = {}
    in_mult = {}
    for i, block in enumerate(level1):
        node_mult[i] = approx_card(len(block))
        for (l, key, direction), n in counts[min(block)].items():
            table = out_mult if direction == "out" else in_mult
            table[(i, l, key)] = approx_card(n)
    return Shape(graph(node_mult, edges), node_mult, out_mult, in_mult)


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
    """Mutual subsumption through one witness: equal multiplicities."""
    for phi in isomorphisms(s.graph, t.graph):
        inv = {w: v for v, w in phi.items()}
        if _mults_below(s, t, phi) and _mults_below(t, s, inv):
            return True
    return False


def shape_certificate(s: Shape) -> str:
    """Hash from graph structure and similarity only.

    Multiplicities are deliberately excluded so that mutually
    subsumable shapes land in the same store bucket.
    """
    return hashlib.sha256(("shape:" + certificate(s.graph))
                          .encode("utf-8")).hexdigest()[:16]


def strict_shape_certificate(s: Shape) -> str:
    """Hash that additionally folds in the multiplicity multisets.

    Strictly isomorphic shapes collide; merely subsumable ones need
    not.  Useful for bucketing when freshness is strict isomorphism.
    """
    def key_text(key):
        return ",".join(sorted(l.text for l in key))

    node_part = sorted(f"{m.lo}:{m.hi}" for m in s.node_mult.values())
    out_part = sorted(f"{l.text}|{key_text(k)}|{m.lo}:{m.hi}"
                      for (_, l, k), m in s.out_mult.items())
    in_part = sorted(f"{l.text}|{key_text(k)}|{m.lo}:{m.hi}"
                     for (_, l, k), m in s.in_mult.items())
    text = (shape_certificate(s) + ";" + ";".join(node_part) + "#"
            + ";".join(out_part) + "#" + ";".join(in_part))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def covered(g: Graph, states) -> bool:
    """Whether some shape in ``states`` subsumes the abstraction of ``g``."""
    s = abstract(g)
    cert = shape_certificate(s)
    for t in states:
        if shape_certificate(t) != cert:
            continue
        wit, _ = compare_shapes(s, t)
        if wit is not None:
            return True
    return False
