"""Simple directed labelled graphs, canonical forms and isomorphism.

A graph is ``labels``, node -> unary label set (its keys are the
nodes), and binary ``edges``.  ``shapes.Shape`` has the same two fields,
and every algorithm here reads only them (``Labelled``), so it takes
either record.  ``graph(nodes, edges)`` reads unary labels written as
self-loops.  Node ids are opaque integers local to each graph: equality
of graphs is structural under identical ids, isomorphism is the semantic
equality.

Labels are interned: one object per text and arity, compared and
hashed by identity.  Each record keeps its stable colouring
(``colours``) once computed.  The canonical form refines once per
record and branches only on cells of several twin classes; a cell of
twins is made discrete in one step.  One backtracking search,
``morphisms``, serves rule matching, negative conditions and
isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property


class GraphError(ValueError):
    pass


class Label:
    """A label: its text and arity ("unary" or "binary").

    Labels are interned: ``Label(text, arity)`` returns the one object
    for that pair, so equality and hashing are by identity.  A label is
    immutable, and ``copy`` and ``pickle`` return the interned object.
    """

    __slots__ = ("text", "arity", "is_unary")

    def __new__(cls, text: str, arity: str):
        label = _LABELS.get((text, arity))
        if label is not None:
            return label
        if not text:
            raise GraphError("empty label identifier")
        if arity not in ("unary", "binary"):
            raise GraphError(f"bad arity {arity!r}")
        label = object.__new__(cls)
        object.__setattr__(label, "text", text)
        object.__setattr__(label, "arity", arity)
        object.__setattr__(label, "is_unary", arity == "unary")
        return _LABELS.setdefault((text, arity), label)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self!r} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self!r} is immutable")

    def __reduce__(self):
        return Label, (self.text, self.arity)

    def __repr__(self):
        return f"{self.text}/{self.arity[0]}"


_LABELS = {}   # (text, arity) -> its one Label


def unary(text: str) -> Label:
    return Label(text, "unary")


def binary(text: str) -> Label:
    return Label(text, "binary")


class Labelled:
    """What the algorithms here read of a record: ``labels``, node ->
    unary label set, whose keys are the nodes, and the binary ``edges``.
    ``Graph`` and ``shapes.Shape`` are both."""

    @property
    def nodes(self):
        return self.labels.keys()

    @cached_property
    def colours(self) -> dict:
        """Node -> stable colour, independent of numbering (``_refine``)."""
        return _stable_colours(self)[0]


@dataclass(frozen=True)
class Graph(Labelled):
    labels: dict       # node -> frozenset of unary labels
    edges: frozenset   # binary edges (source id, Label, target id)

    def __post_init__(self):
        if any(not l.is_unary for ls in self.labels.values() for l in ls):
            raise GraphError("binary label in a node's label set")
        for v, l, w in self.edges:
            if v not in self.labels or w not in self.labels:
                raise GraphError(f"edge ({v},{l},{w}) has endpoint outside node set")
            if l.is_unary:
                raise GraphError(f"unary label {l.text} on edge ({v},{w})")

    def __hash__(self):
        return hash((frozenset(self.labels.items()), self.edges))

    def __repr__(self):
        return f"Graph({len(self.labels)} nodes, {len(self.edges)} edges)"


def _unchecked(labels: dict, edges: frozenset) -> Graph:
    """A ``Graph`` built without ``__post_init__``'s checks, for
    ``rules.concrete_apply``: a validated ``Rule``'s edit lists create
    only binary edges between kept or new nodes, add only unary labels
    and drop every edge at an erased node, so they keep a graph valid."""
    g = object.__new__(Graph)
    # set as the frozen __init__ sets them, so they stay in a compact dict
    object.__setattr__(g, "labels", labels)
    object.__setattr__(g, "edges", edges)
    return g


def graph(nodes, edges=()) -> Graph:
    """The graph of ``nodes`` and ``edges``, where a unary label is
    written as a self-loop on the node that carries it."""
    labels = {v: set() for v in nodes}
    binary = []
    for (v, l, w) in edges:
        if not (l.is_unary and v == w):
            binary.append((v, l, w))
        elif v in labels:
            labels[v].add(l)
        else:
            raise GraphError(f"label {l.text} on undeclared node {v}")
    return Graph({v: frozenset(ls) for v, ls in labels.items()}, frozenset(binary))


# --- canonical form -------------------------------------------------------
#
# A colour is the rank of a node's signature among the graph's sorted
# signatures, so it does not depend on node numbering.  Signatures start
# as unary label texts; refinement adds the codes ``(2i or 2i + 1) * n + c``
# of the node's edges with the i-th binary label, out or in, to colour c.


def _refine(colour: dict, near: dict) -> dict:
    """Refine ``colour`` until no cell splits.  A new colour is the rank
    of a signature that leads with the old colour, so cells keep order;
    a one-node cell cannot split and takes its rank with no signature."""
    n = len(colour)
    while True:
        cells = {}
        for v, c in colour.items():
            cells.setdefault(c, []).append(v)
        new, base = {}, 0
        for c in sorted(cells):
            vs = cells[c]
            if len(vs) == 1:
                new[vs[0]] = base
                base += 1
                continue
            sig = {v: tuple(sorted([t * n + colour[w] for t, w in near[v]])) for v in vs}
            rank = {s: i for i, s in enumerate(sorted(set(sig.values())), base)}
            new.update((v, rank[s]) for v, s in sig.items())
            base += len(rank)
        colour = {v: new[v] for v in colour}
        if base == len(cells):
            return colour


@cache
def _texts(ls) -> tuple:   # a label set's sort key
    return tuple(sorted(l.text for l in ls))


def _near(g: Labelled):
    """Sorted binary label texts, and per node ``(2i or 2i + 1,
    neighbour)`` pairs for its out- and in-edges with the i-th."""
    tags = sorted({l.text for _, l, _ in g.edges})
    code = {t: 2 * i for i, t in enumerate(tags)}
    near = {v: [] for v in g.labels}
    for (v, l, w) in g.edges:
        near[v].append((code[l.text], w))
        near[w].append((code[l.text] + 1, v))
    return tags, near


def _stable_colours(g: Labelled):
    """The stable colouring (refined once, then kept as ``g.colours``),
    sorted unary label texts per node, and ``_near``'s two values."""
    texts = {v: _texts(ls) for v, ls in g.labels.items()}
    tags, near = _near(g)
    colour = g.__dict__.get("colours")
    if colour is None:   # refine at most once per record
        order = sorted(set(texts.values()))
        colour = _refine({v: order.index(ts) for v, ts in texts.items()}, near)
        g.__dict__["colours"] = colour
    return colour, texts, tags, near


def canonical(g: Labelled):
    """Canonical form, equal exactly for isomorphic graphs, and the
    labelling that gives it: node -> position in the least leaf.

    Individualisation refines the stable colouring to one node per cell
    and keeps a least leaf, ranked by its code alone: the sorted codes
    of the binary edges between colours.  Cells are taken least colour
    first.  Twins (nodes with the same labelled neighbours) are never
    adjacent, and every other node sees all of a twin class or none of
    it, so a cell that is one twin class is made discrete in one step:
    its nodes take consecutive colours, no other cell splits, the
    colouring stays equitable, and the order does not change the leaf
    (swapping twins is an automorphism).  Only a cell of several twin
    classes branches, once per class, with a refinement after each
    choice.  Colours keep the order of the label sets, so the sorted
    label sets and the leaf fix the graph: isomorphic graphs relabelled
    by their labellings are equal.
    """
    colour, texts, tags, near = _stable_colours(g)
    edges = [(v, c // 2, w) for v, ns in near.items() for c, w in ns if c % 2 == 0]
    code, labelling = _least(colour, near, edges, len(tags))
    return repr((len(g.labels), sorted(texts.values()), tags, code)), labelling


def _least(colour, near, edges, t):
    """``canonical``'s least leaf below ``colour``: its code and labelling."""
    n = len(colour)
    while True:
        cells = {}
        for v, c in colour.items():
            cells.setdefault(c, []).append(v)
        if len(cells) == n:
            return sorted([(colour[v] * t + k) * n + colour[w]
                           for v, k, w in edges]), colour
        x = min(c for c, vs in cells.items() if len(vs) > 1)
        reps = {_twin_key(v, near): v for v in cells[x]}
        if len(reps) > 1:
            break
        # One twin class: consecutive colours, last node first, as
        # individualising the class's representative (the cell's
        # last node) level by level would give them.
        k = len(cells[x]) - 1
        pos = {v: x + k - i for i, v in enumerate(cells[x])}
        colour = {u: pos[u] if c == x else c + k * (c > x)
                  for u, c in colour.items()}
    return min((_least(_refine({u: c + (c > x or (c == x and u != v))
                                for u, c in colour.items()}, near), near, edges, t)
                for v in reps.values()), key=lambda r: r[0])


def _twin_key(v, near) -> frozenset:
    """What twins share: ``v``'s labelled neighbours, ``v`` itself as -1."""
    return frozenset((c, -1 if w == v else w) for c, w in near[v])


def twins(g: Labelled) -> dict:
    """Node -> number of its twin class.  Twins have the same label set
    and the same labelled neighbours, so swapping two is an automorphism."""
    classes, near = {}, _near(g)[1]
    return {v: classes.setdefault((g.labels[v], _twin_key(v, near)), len(classes))
            for v in g.labels}


def certificate(g: Labelled) -> str:
    return canonical(g)[0]


# --- morphism and isomorphism search --------------------------------------


def morphisms(pattern: Labelled, host: Labelled, injective: bool,
              candidates: dict | None = None, ends: dict | None = None):
    """All label/structure-preserving node maps of ``pattern`` into ``host``:
    each node's labels are among its image's, each edge's image is an edge.

    ``candidates`` lists, per pattern node, its possible images in
    search order (every host node by default); it is the one constraint
    on images.  Nodes with fewer candidates are placed first, and each
    pattern edge is checked as soon as both of its ends are placed.  A
    stack of candidate iterators, one per placed node, stands in for
    recursion, so large patterns fit.  With the default candidates,
    nodes are placed in id order and images tried in ascending order,
    so the maps come sorted, each with its items in pattern-node order.

    With the default candidates, a node joined by a pattern edge to an
    earlier-placed node, its anchor, draws its images from the host
    edges of that label and direction at the anchor's image, ascending:
    exactly the ascending host nodes that pass that edge's check, so the
    maps and their order are unchanged.  The index of those ends is
    built once per ``ends`` dict.  Explicit candidates are tried as given.
    """
    want, have = pattern.labels, host.labels
    anchors = {}   # node -> (earlier node, label, direction of its edges)
    if candidates is None:
        every = sorted(have)
        candidates = {v: every for v in want}
        for (a, l, b) in sorted(pattern.edges, key=lambda e: (e[0], e[1].text, e[2])):
            v, u = (a, b) if a > b else (b, a)
            if a != b and v not in anchors:
                anchors[v] = (u, l, "in" if v == a else "out")
    free = sorted(want, key=lambda v: (len(candidates[v]), v))
    if not free:
        yield {}
        return
    rank = {v: i for i, v in enumerate(free)}
    checks = [[] for _ in free]
    for (v, l, w) in pattern.edges:
        checks[max(rank[v], rank[w])].append((v, l, w))
    edges = host.edges
    ends = {} if ends is None else ends   # (host node, label, direction) -> the other ends
    if anchors and not ends:
        for (x, l, y) in edges:
            ends.setdefault((x, l, "out"), []).append(y)
            ends.setdefault((y, l, "in"), []).append(x)
        for ys in ends.values():
            ys.sort()
    mapping, used = {}, set()
    stack = [iter(candidates[free[0]])]
    while stack:
        i = len(stack) - 1
        v = free[i]
        used.discard(mapping.pop(v, None))
        for x in stack[i]:
            if x in used or not want[v] <= have[x]:
                continue
            mapping[v] = x
            if all((mapping[a], l, mapping[b]) in edges for (a, l, b) in checks[i]):
                break
            del mapping[v]
        else:
            stack.pop()
            continue
        if injective:
            used.add(x)
        if i + 1 == len(free):
            yield dict(mapping)
        else:
            u = free[i + 1]
            if u in anchors:
                w, l, d = anchors[u]
                stack.append(iter(ends.get((mapping[w], l, d), ())))
            else:
                stack.append(iter(candidates[u]))


def isomorphisms(g: Labelled, h: Labelled):
    """Yield every node bijection preserving labels and edges both ways.

    Only same-colour nodes are candidate images.  With equal node, edge
    and label counts, an injective map that keeps labels and edges is a
    bijection on each, so its inverse keeps them too.
    """
    if (len(g.labels), len(g.edges), sum(map(len, g.labels.values()))) != \
            (len(h.labels), len(h.edges), sum(map(len, h.labels.values()))):
        return
    cg, ch = g.colours, h.colours
    if sorted(cg.values()) != sorted(ch.values()):
        return
    by_colour = {}
    for w in sorted(h.labels):
        by_colour.setdefault(ch[w], []).append(w)
    yield from morphisms(g, h, True,
                         candidates={v: by_colour[cg[v]] for v in g.labels})


def find_isomorphism(g: Labelled, h: Labelled):
    """First isomorphism between ``g`` and ``h`` as a node map, or None."""
    return next(isomorphisms(g, h), None)
