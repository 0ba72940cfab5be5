"""Neighbourhood abstraction: shapes, their normal form, subsumption.

A shape is a record of node multiplicities, unary label sets, binary
edges and edge multiplicities.  The similarity relation is label
equality (radius-0 neighbourhood equivalence), so a similarity block is
identified by its label set.  Edge multiplicities live in one table of
slots: a slot is ``(node, direction, binary label, label set at the
other end)`` with direction ``"out"`` or ``"in"``, and each binary edge
supports two slots, given by ``edge_slots``.  A shape's ``labels`` and
``edges`` are laid out as a ``Graph``'s, so matching, certificates and
isomorphism search take the shape itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

from .graphs import Graph, Labelled, _texts, isomorphisms
from . import multiplicity as mult
from .multiplicity import approx_card, subsumes


class ShapeError(ValueError):
    pass


def edge_slots(labels, v, l, w):
    """The two slots of the edge ``(v, l, w)``: ``v``'s out-slot and
    ``w``'s in-slot; ``labels`` maps nodes to their label sets."""
    return (v, "out", l, labels[w]), (w, "in", l, labels[v])


@dataclass(eq=False)
class Shape(Labelled):
    """Node multiplicities, label sets, binary edges and slots.

    ``slots`` maps slot keys to edge multiplicities: how many such edges
    each concrete node the shape node stands for has.  It is sparse: its
    keys are exactly the slots that some shape edge supports
    (``edge_slots``), and a missing slot denotes multiplicity 0.
    ``materialise`` builds shapes that ``apply`` rewrites in place;
    ``normalise`` returns them ``stored``, immutable by convention: slot
    ``keys`` and one tuple ``mults``, node multiplicities in node order,
    then slot multiplicities in ``keys`` order, stand for the two dicts,
    which each read builds afresh.  Normal shapes are strictly isomorphic
    exactly when equal, keep slot order, and compare as tuples."""

    node_mult: dict   # node -> multiplicity
    labels: dict      # node -> unary label set
    edges: set        # binary edges (v, l, w); a frozenset once normal
    slots: dict       # slot key -> multiplicity
    mults = None      # a stored shape's multiplicities

    @staticmethod
    def stored(labels, edges, keys, mults) -> Shape:
        s = object.__new__(_Stored)
        s.labels, s.edges, s.keys, s.mults = labels, edges, keys, mults
        return s

    def __eq__(self, other):   # stored shapes compare tuples; a branch, its dicts
        if not isinstance(other, Shape):
            return NotImplemented
        if None in (self.mults, other.mults):
            return all(getattr(self, f.name) == getattr(other, f.name) for f in fields(Shape))
        return (self.mults, self.keys, self.edges, self.labels) == (
            other.mults, other.keys, other.edges, other.labels)

    @functools.cached_property
    def _hash(self) -> int:   # by (node or slot, multiplicity) pairs, whatever the form
        pairs = ((*self.node_mult.items(), *self.slots.items()) if self.mults is None
                 else zip((*self.labels, *self.keys), self.mults))
        return hash((frozenset(self.labels.items()), frozenset(self.edges), frozenset(pairs)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Shape({len(self.labels)} nodes, {len(self.edges)} edges)"


class _Stored(Shape):   # a __getattr__ on Shape would slow every read of a branch's fields
    node_mult = property(lambda s: dict(zip(s.labels, s.mults)))
    slots = property(lambda s: dict(zip(s.keys, s.mults[len(s.labels):])))


def neighbour_index(labels, edges) -> dict:
    """Slot -> the nodes at the other end of its ``edges``."""
    index = {}
    for (v, l, w) in edges:
        for slot, end in zip(edge_slots(labels, v, l, w), (w, v)):
            index.setdefault(slot, set()).add(end)
    return index


def _concrete(g: Graph) -> Shape:
    """``g`` as a shape: each node of multiplicity 1, and each slot
    holding its approximated edge count."""
    ends = neighbour_index(g.labels, g.edges)
    return Shape(dict.fromkeys(g.labels, mult.ONE), g.labels, g.edges,
                 {slot: approx_card(len(ws)) for slot, ws in ends.items()})


def _rows(s: Shape) -> dict:
    """Node -> its slot items, in stored order."""
    rows = {v: [] for v in s.node_mult}
    for item in s.slots.items():
        rows[item[0][0]].append(item)
    return rows


def _sign(ls, row) -> tuple:
    """A node's signature, which names no node id: its label set's texts,
    then its out- and its in-slots, each sorted as ``(label text, key
    texts, multiplicity, direction, label, key)``."""
    outs, ins = [], []
    for (_, d, l, key), mu in row:
        (outs if d == "out" else ins).append((l.text, _texts(key), mu, d, l, key))
    return _texts(ls), tuple(sorted(outs)), tuple(sorted(ins))


def signatures(s: Shape) -> dict:
    """Node -> ``(row, label set, signature)`` of the normal shape ``s``."""
    return {v: (row, s.labels[v], _sign(s.labels[v], row)) for v, row in _rows(s).items()}


def abstract(g: Graph) -> Shape:
    """Fold the radius-1 equivalence classes of ``g`` into its normal
    shape: ``normalise`` of ``g`` as a shape."""
    return normalise(_concrete(g))


def normalise(s: Shape, signed: dict | None = None) -> Shape:
    """Fold same-signature nodes together in one pass; idempotent.

    Nodes are numbered in signature order (``_sign``), and slots are
    stored in slot order: by node, out- before in-slots, each by label and
    key texts; only this pass orders slots.  A node whose row and label
    set equal those of its id in ``signed``, the ``signatures`` of the
    normal shape ``s`` came from, takes its signature there and, if it
    keeps its id, its row as stored.  A merged node keeps its
    representative's slots; folding n nodes of 1 gives ``approx_card(n)``.
    """
    signs, signed = [], signed or {}   # (signature, node, its stored row or None)
    for v, row in _rows(s).items():
        known = signed.get(v)
        if known is not None and known[0] == row and known[1] == s.labels[v]:
            signs.append((known[2], v, row))
        else:
            signs.append((_sign(s.labels[v], row), v, None))
    node_mult, labels, slots, new_id = {}, {}, {}, {}
    i, last = -1, None
    for sig, v, row in sorted(signs):
        if sig == last:   # folded into node i
            new_id[v], node_mult[i] = i, mult.add(node_mult[i], s.node_mult[v])
            continue
        i, last = i + 1, sig
        new_id[v], node_mult[i], labels[i] = i, s.node_mult[v], s.labels[v]
        if row is not None and v == i:
            slots.update(row)
            continue
        for part in sig[1:]:
            for _, _, mu, d, l, key in part:
                slots[i, d, l, key] = mu
    edges = frozenset([(new_id[v], l, new_id[w]) for v, l, w in s.edges])
    return Shape.stored(labels, edges, tuple(slots), (*node_mult.values(), *slots.values()))


# --- comparison -----------------------------------------------------------


def _mults_below(s: tuple, t: tuple, phi: dict) -> bool:
    """All of ``s``'s ``(node_mult, slots)`` subsumed by ``t``'s under
    ``phi``.  ``phi`` is an isomorphism, so it keeps label sets, and both
    shapes' slot keys are exactly their supported ones: each slot of
    ``s`` has its image slot in ``t``."""
    for v, mu in s[0].items():
        if not subsumes(t[0][phi[v]], mu):
            return False
    for (v, *rest), mu in s[1].items():
        if not subsumes(t[1][(phi[v], *rest)], mu):
            return False
    return True


def compare_shapes(s: Shape, t: Shape):
    """Subsumption in both directions with a single isomorphism search.

    Returns ``(s_below_t, t_below_s)`` where each entry is a witness
    node map ``s -> t`` (respectively its direction) or
    None; an empty shape's witness is ``{}``, so test ``is not None``.
    Every graph isomorphism is tried before a direction is declared to
    fail; one failing candidate proves nothing.
    """
    wit_st = wit_ts = None
    ms, mt = (s.node_mult, s.slots), (t.node_mult, t.slots)
    for phi in isomorphisms(s, t):
        inv = {w: v for v, w in phi.items()}
        if wit_st is None and _mults_below(ms, mt, phi):
            wit_st = phi
        if wit_ts is None and _mults_below(mt, ms, inv):
            wit_ts = inv
        if wit_st is not None and wit_ts is not None:
            break
    return wit_st, wit_ts


def canonical_order(s: Shape, labelling: dict) -> tuple:
    """``s.mults``'s positions by node place in ``graphs.canonical``'s ``labelling``,
    nodes first, then slots by direction, label and key texts."""
    coords = [(0, labelling[v]) for v in s.labels] + [
        (1, labelling[v], d, l.text, _texts(key)) for v, d, l, key in s.keys]
    return tuple(sorted(range(len(coords)), key=coords.__getitem__))


class Frame:
    """Canonical coordinates of the shapes over one graph (up to
    isomorphism): ``mults`` in its graph's ``canonical_order``.  ``perms``
    holds the graph's other automorphisms, found once by ``isomorphisms``,
    as index permutations.  A shape is below another exactly when, under
    some automorphism, every entry is below the other's."""

    def __init__(self, s: Shape, order: tuple):
        place = {j: i for i, j in enumerate(order)}   # position in mults -> coordinate
        at = {x: j for j, x in enumerate((*s.labels, *s.keys))}   # node or slot -> position
        self.perms = []
        for phi in isomorphisms(s, s):
            if any(v != w for v, w in phi.items()):
                image = [at[phi[v]] for v in s.labels] + [at[(phi[v], *k)] for v, *k in s.keys]
                self.perms.append(tuple(place[image[j]] for j in order))

    def orbit(self, s: Shape, order: tuple) -> list:
        """``s``'s coordinates, then their images under ``perms``."""
        vec = tuple(map(s.mults.__getitem__, order))
        return [vec, *(tuple(map(vec.__getitem__, a)) for a in self.perms)]

    @staticmethod
    def compare(orbit: list, old: tuple):
        """``(new below old, old below new)``, given the orbit of new."""
        return (any(all(map(subsumes, old, x)) for x in orbit),
                any(all(map(subsumes, x, old)) for x in orbit))


def covered(g: Graph, states) -> bool:
    """Whether some shape in ``states`` subsumes the abstraction of ``g``.
    ``isomorphisms`` rejects at once a shape whose counts or colours differ."""
    s = abstract(g)
    return any(compare_shapes(s, t)[0] is not None for t in states)
