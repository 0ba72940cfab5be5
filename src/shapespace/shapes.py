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
from dataclasses import dataclass

from .graphs import Graph, Labelled, _texts, isomorphisms
from . import multiplicity as mult
from .multiplicity import approx_card, subsumes


class ShapeError(ValueError):
    pass


def edge_slots(labels, v, l, w):
    """The two slots of the edge ``(v, l, w)``: ``v``'s out-slot and
    ``w``'s in-slot; ``labels`` maps nodes to their label sets."""
    return (v, "out", l, labels[w]), (w, "in", l, labels[v])


@dataclass
class Shape(Labelled):
    """Node multiplicities, label sets, binary edges and slots.

    ``slots`` maps slot keys to edge multiplicities: how many such edges
    each concrete node the shape node stands for has.  It is sparse: its
    keys are exactly the slots that some shape edge supports
    (``edge_slots``), and a missing slot denotes multiplicity 0.
    ``materialise`` builds shapes that ``apply`` rewrites in place;
    ``normalise`` returns shapes that are immutable by convention and
    hash by all four fields.  Normal shapes are strictly isomorphic
    exactly when equal, and keep their slots in slot order (``normalise``).
    """

    node_mult: dict   # node -> multiplicity
    labels: dict      # node -> unary label set
    edges: set        # binary edges (v, l, w); a frozenset once normal
    slots: dict       # slot key -> multiplicity

    @functools.cached_property
    def _hash(self) -> int:
        return hash((frozenset(self.node_mult.items()), frozenset(self.labels.items()),
                     frozenset(self.edges), frozenset(self.slots.items())))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Shape({len(self.node_mult)} nodes, {len(self.edges)} edges)"


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


def _signature_groups(s: Shape):
    """``(signature, nodes)`` pairs of ``s`` in signature order.

    A signature is a label set's texts, then the out-slots and the
    in-slots in slot order, each ``(label text, key texts, multiplicity,
    direction, label, key)``; it names no node id.
    """
    own = {v: ([], []) for v in s.node_mult}
    for (v, d, l, key), mu in s.slots.items():
        own[v][d == "in"].append((l.text, _texts(key), mu, d, l, key))
    groups = {}
    for v, (outs, ins) in own.items():
        sig = _texts(s.labels[v]), tuple(sorted(outs)), tuple(sorted(ins))
        groups.setdefault(sig, []).append(v)
    return sorted(groups.items())


def abstract(g: Graph) -> Shape:
    """Fold the radius-1 equivalence classes of ``g`` into its normal
    shape: ``normalise`` of ``g`` as a shape."""
    return normalise(_concrete(g))


def normalise(s: Shape) -> Shape:
    """Fold same-signature nodes together in one pass; idempotent.

    Nodes are numbered in signature order (``_signature_groups``), and
    slots are stored in slot order: by node, out-slots before in-slots,
    each by label text and key texts.  Only this pass orders slots.  A
    merged node keeps its representative's slots, so nodes that differ
    before the pass still differ after it, and a second pass would merge
    nothing.  Folding n nodes of multiplicity 1 gives ``approx_card(n)``.
    """
    ordered = _signature_groups(s)
    new_id = {v: i for i, (_, grp) in enumerate(ordered) for v in grp}
    node_mult, labels, slots = {}, {}, {}
    for i, (sig, grp) in enumerate(ordered):
        node_mult[i] = functools.reduce(mult.add, (s.node_mult[v] for v in grp))
        labels[i] = s.labels[grp[0]]
        slots.update(((i, *slot), mu) for part in sig[1:] for _, _, mu, *slot in part)
    edges = frozenset((new_id[v], l, new_id[w]) for (v, l, w) in s.edges)
    return Shape(node_mult, labels, edges, slots)


# --- comparison -----------------------------------------------------------


def _mults_below(s: Shape, t: Shape, phi: dict) -> bool:
    """All multiplicities of ``s`` subsumed by ``t``'s under ``phi``.

    ``phi`` is an isomorphism, so it keeps label sets, and both shapes'
    slot keys are exactly their supported ones: each slot of ``s`` has
    its image slot in ``t``.
    """
    for v, mu in s.node_mult.items():
        if not subsumes(t.node_mult[phi[v]], mu):
            return False
    for (v, *rest), mu in s.slots.items():
        if not subsumes(t.slots[(phi[v], *rest)], mu):
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
    wit_st = None
    wit_ts = None
    for phi in isomorphisms(s, t):
        inv = {w: v for v, w in phi.items()}
        if wit_st is None and _mults_below(s, t, phi):
            wit_st = phi
        if wit_ts is None and _mults_below(t, s, inv):
            wit_ts = inv
        if wit_st is not None and wit_ts is not None:
            break
    return wit_st, wit_ts


class Frame:
    """Canonical coordinates of the shapes over one graph (up to
    isomorphism): node multiplicities by position in the labelling of
    ``graphs.canonical``, then slots, keyed ``(position, direction,
    label, key)``, each at the place ``index`` gives.  ``perms`` holds
    the graph's other automorphisms, found once by the full
    ``isomorphisms``, as index permutations.  A shape is below another
    exactly when, under some automorphism, every entry is below the
    other's."""

    def __init__(self, s: Shape, labelling: dict):
        keys = [(labelling[v], *rest) for v, *rest in s.slots]
        self.index = {k: i for i, k in enumerate(keys, len(s.node_mult))}
        self.perms = []
        for phi in isomorphisms(s, s):
            sigma = {labelling[v]: labelling[w] for v, w in phi.items()}
            if any(p != q for p, q in sigma.items()):
                self.perms.append((*(sigma[p] for p in range(len(sigma))),
                                   *(self.index[(sigma[p], *rest)] for p, *rest in keys)))

    def orbit(self, s: Shape, labelling: dict) -> list:
        """``s``'s tuple, then its images under ``perms``."""
        vec = [None] * (len(s.node_mult) + len(self.index))
        for v, mu in s.node_mult.items():
            vec[labelling[v]] = mu
        for (v, *rest), mu in s.slots.items():
            vec[self.index[(labelling[v], *rest)]] = mu
        return [tuple(vec), *(tuple(map(vec.__getitem__, a)) for a in self.perms)]

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
