"""Shared test fixtures: deterministic random graph and grammar
generation, the symmetric graph families, the brute-force morphism and
isomorphism oracles, the morphism search that tries every host node,
the shape invariants, the multiplicity texts and membership, the
radius-1 partition, the concretisation (gamma) oracle, the capacity and
count tests, the text-sorting normal form, the full-support reconcile,
colour refinement and the concrete state space by definition."""

import functools
import random
from collections import Counter, deque
from itertools import permutations

import pytest

from shapespace import (ONE_PLUS, ZERO, ApplyInfeasible, Graph, GraphError,
                        Label, Shape, ShapeError, add, binary, canonical,
                        compare_shapes, graph, unary)
from shapespace.graphs import morphisms
from shapespace.multiplicity import _TEXT
from shapespace.rules import concrete_apply, concrete_matches
from shapespace.shapes import _concrete, _signature_groups, edge_slots, neighbour_index

UNARY = (unary("A"), unary("B"))
BINARY = (binary("e"), binary("f"))


def random_graph(rng: random.Random, max_nodes: int = 6, edge_prob: float = 0.3):
    n = rng.randint(0, max_nodes)
    nodes = list(range(n))
    edges = []
    for v in nodes:
        for l in UNARY:
            if rng.random() < 0.5:
                edges.append((v, l, v))
    for v in nodes:
        for w in nodes:
            for l in BINARY:
                if rng.random() < edge_prob:
                    edges.append((v, l, w))
    return graph(nodes, edges)


RULE_KINDS = ("create", "delete-edge", "move-edge", "relabel", "delete-node")


def random_grammar_text(seed: int) -> str:
    """A small random grammar in the text format: 2-3 unary labels, 1-2
    binary labels, 2-5 start nodes and 1-3 rules, each of one of
    ``RULE_KINDS``.  It has no ``not`` lines, so both engines run it."""
    rng = random.Random(seed)
    unaries = [f"U{i}" for i in range(rng.randint(2, 3))]
    binaries = [f"b{i}" for i in range(rng.randint(1, 2))]

    def node(word, ident):   # a node line with random unary labels
        labs = [t for t in unaries if rng.random() < 0.4]
        return " ".join([f"  {word}node {ident}", *labs])

    lines = [f"grammar random-{seed}"]
    lines += [f"label {t} unary" for t in unaries]
    lines += [f"label {t} binary" for t in binaries]
    lines.append("graph")
    n = rng.randint(2, 5)
    lines += [node("", f"s{v}") for v in range(n)]
    lines += [f"  edge s{v} -{rng.choice(binaries)}-> s{w}"
              for v in range(n) for w in range(n) if rng.random() < 0.25]
    lines += [f"  edge s{v} -{rng.choice(unaries)}-> s{v}"  # a label in edge syntax
              for v in range(n) if rng.random() < 0.2]
    for r in range(rng.randint(1, 3)):
        kind, b = rng.choice(RULE_KINDS), rng.choice(binaries)
        lines.append(f"rule {kind}-{r}")
        if kind == "create":
            x, y = ("x", "y") if rng.random() < 0.5 else ("y", "x")
            lines += [node("use ", "x"), node("new ", "y"), f"  new edge {x} -{b}-> {y}"]
        elif kind == "delete-edge":
            lines += [node("use ", "x"), node("use ", "y"), f"  del edge x -{b}-> y"]
        elif kind == "move-edge":
            lines += [node("use ", v) for v in "xyz"]
            lines += [f"  del edge x -{b}-> y", f"  new edge x -{b}-> z"]
        elif kind == "relabel":
            old, new = rng.sample(unaries, 2)
            lines += ["  use node x", f"  del edge x -{old}-> x", f"  new edge x -{new}-> x"]
        else:
            lines += [node("use ", "x"), node("del ", "y"), f"  del edge y -{b}-> x"]
    return "\n".join(lines) + "\n"


def permuted(rng: random.Random, g):
    nodes = sorted(g.nodes)
    images = list(range(100, 100 + len(nodes)))
    rng.shuffle(images)
    return relabel(g, dict(zip(nodes, images)))


def relabel(g, mapping):
    """``g`` with its node ids renamed through the bijection ``mapping``."""
    return Graph({mapping[v]: ls for v, ls in g.labels.items()},
                 frozenset((mapping[v], l, mapping[w]) for (v, l, w) in g.edges))


def shape_subsumes(t, s):
    """Whether ``s`` is below ``t``: ``(bool, witness or None)``."""
    wit = compare_shapes(s, t)[0]
    return wit is not None, wit


def strictly_isomorphic(s, t) -> bool:
    """Mutual subsumption, which forces equal multiplicities: the two
    witnesses compose to an automorphism that can only widen them."""
    return None not in compare_shapes(s, t)


def within_capacity(s) -> bool:
    """The capacity test, which a shape with a non-empty concretisation
    passes: every slot's lower bound is at most the sum of
    ``node_mult[w].hi`` over the nodes ``w`` at the other end of its
    edges.  A concrete node has at most one edge of a label to another."""
    ends = neighbour_index(s.labels, s.edges)
    return all(mu.lo <= sum(s.node_mult[w].hi for w in ends.get(slot, ()))
               for slot, mu in s.slots.items())


def within_count(s) -> bool:
    """The count test, which a shape with a non-empty concretisation
    passes: every slot of a concrete node has at most ``hi`` neighbours,
    since each neighbour stands for at least one edge."""
    ends = neighbour_index(s.labels, s.edges)
    return all(len(ends.get(slot, ())) <= mu.hi for slot, mu in s.slots.items()
               if s.node_mult[slot[0]].is_concrete)


def slot_order(slot):
    """Per node: out-slots, then in-slots, each by label and key texts."""
    v, d, l, key = slot
    return v, d == "in", l.text, sorted(x.text for x in key)


def reference_normalise(s):
    """``normalise`` by its definition: signatures built from sorted label
    texts on every call, nodes numbered in signature order."""
    own = {v: [] for v in s.node_mult}
    for (v, *rest), mu in s.slots.items():
        own[v].append((rest, mu))

    def slot_items(entries, direction):
        return tuple(sorted((l.text, tuple(sorted(x.text for x in key)), mu)
                            for (d, l, key), mu in entries if d == direction))

    groups = {}
    for v in sorted(s.node_mult):
        sig = (tuple(sorted(l.text for l in s.labels[v])),
               slot_items(own[v], "out"), slot_items(own[v], "in"))
        groups.setdefault(sig, []).append(v)
    ordered = [groups[sig] for sig in sorted(groups)]
    new_id = {v: i for i, grp in enumerate(ordered) for v in grp}
    node_mult, labels, slots = {}, {}, {}
    for i, grp in enumerate(ordered):
        node_mult[i] = functools.reduce(add, (s.node_mult[v] for v in grp))
        labels[i] = s.labels[grp[0]]
        slots.update(((i, *rest), mu) for rest, mu in own[grp[0]])
    edges = frozenset((new_id[v], l, new_id[w]) for (v, l, w) in s.edges)
    return Shape(node_mult, labels, edges, slots)


def validate(s):
    """Raise ShapeError when the shape invariants do not hold.  It
    reads the four fields only and never caches ``colours``, which
    would go stale on a branch that ``apply`` rewrites later."""
    nodes = s.node_mult.keys()
    if s.labels.keys() != nodes:
        raise ShapeError("label map and node multiplicity map differ in nodes")
    for v, m in s.node_mult.items():
        if m == ZERO:
            raise ShapeError(f"zero-population node {v} present")
    for (v, l, w) in s.edges:
        if l.is_unary or v not in nodes or w not in nodes:
            raise ShapeError(f"({v},{l},{w}) is not a binary edge between nodes")
    support = neighbour_index(s.labels, s.edges).keys()
    if not support <= s.slots.keys():
        raise ShapeError("an edge lacks a slot multiplicity")
    if not s.slots.keys() <= support:
        raise ShapeError("a slot multiplicity lacks a support edge")
    for (v, d, l, key), m in s.slots.items():
        if m == ZERO:
            raise ShapeError(f"zero multiplicity stored for ({v},{d},{l},{set(key)})")


def from_text(text: str):
    """The multiplicity written ``text`` (``Multiplicity.text``)."""
    for m, t in _TEXT.items():
        if t == text:
            return m
    raise ValueError(f"unknown multiplicity {text!r}")


def contains(mu, k) -> bool:
    """Whether the natural (or omega) ``k`` lies in ``mu``'s interval."""
    return mu.lo <= k <= mu.hi


def neighbourhood_partition(g):
    """The radius-1 partition of ``g``'s nodes: the groups that
    ``normalise`` folds in ``abstract(g)``, in signature order."""
    return tuple(frozenset(grp) for _, grp in _signature_groups(_concrete(g)))


def concretises(g, s):
    """The maps that witness ``g`` in gamma(``s``): node maps of ``g``
    into ``s`` that keep label sets exactly and send every edge to an
    edge, under which every shape node's population lies in its
    ``node_mult``, and every concrete node's edge count per slot key lies
    in its image's slot (a missing slot is 0).  Edges need not be hit."""
    same = {}
    for x in sorted(s.labels):
        same.setdefault(s.labels[x], []).append(x)
    candidates = {v: same.get(ls, []) for v, ls in g.labels.items()}
    ends = neighbour_index(g.labels, g.edges)   # a slot's count is its number of ends
    own = {x: [] for x in s.node_mult}
    for (x, *key), mu in s.slots.items():
        own[x].append((key, mu))
    for pi in morphisms(g, s, injective=False, candidates=candidates):
        population = Counter(pi.values())
        if (all(contains(mu, population[x]) for x, mu in s.node_mult.items())
                and all((pi[v], *key) in s.slots for (v, *key) in ends)
                and all(contains(mu, len(ends.get((v, *key), ())))
                        for v in g.labels for key, mu in own[pi[v]])):
            yield pi


def full_reconcile(s):
    """Step 6 of ``apply`` over every slot: a copy of ``s`` whose slot
    keys are exactly the supported ones.  An unsupported slot is dropped,
    or raises ApplyInfeasible if it must be positive; a supported slot
    without an entry becomes 1+."""
    slots = dict(s.slots)
    support = {slot for e in s.edges for slot in edge_slots(s.labels, *e)}
    for slot in [k for k in slots if k not in support]:
        if slots.pop(slot).lo > 0:
            raise ApplyInfeasible(f"slot without support at node {slot[0]}")
    for slot in support:
        slots.setdefault(slot, ONE_PLUS)
    return Shape(dict(s.node_mult), dict(s.labels), set(s.edges), slots)


def reference_refine(colour: dict, near: dict) -> dict:
    """Colour refinement by its definition: every round signs every
    node, its old colour then its neighbours' sorted codes, and a new
    colour is the rank of its signature, until no cell splits."""
    n, cells = len(colour), len(set(colour.values()))
    while True:
        sig = {v: (c, tuple(sorted([t * n + colour[w] for t, w in near[v]])))
               for v, c in colour.items()}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        colour = {v: rank[s] for v, s in sig.items()}
        if len(rank) == cells:
            return colour
        cells = len(rank)


def cycles(*lengths, both_ways=False):
    """Disjoint directed e-cycles of the given lengths."""
    e = BINARY[0]
    edges, base = [], 0
    for k in lengths:
        for i in range(k):
            edges.append((base + i, e, base + (i + 1) % k))
            if both_ways:
                edges.append((base + (i + 1) % k, e, base + i))
        base += k
    return graph(range(base), edges)


def union(g, h):
    """Disjoint union, ``h``'s nodes renumbered after ``g``'s."""
    shift = {v: len(g.nodes) + i for i, v in enumerate(sorted(h.nodes))}
    return Graph({**g.labels, **{shift[v]: ls for v, ls in h.labels.items()}},
                 g.edges | {(shift[v], l, shift[w]) for (v, l, w) in h.edges})


def star(*leaf_labels):
    """A centre with one out-edge to each leaf, leaf i labelled leaf_labels[i]."""
    return graph(range(len(leaf_labels) + 1),
                 [(0, BINARY[0], i) for i in range(1, len(leaf_labels) + 1)]
                 + [(i, l, i) for i, l in enumerate(leaf_labels, 1)])


@pytest.fixture
def rng():
    return random.Random(20260825)


def is_morphism(phi: dict, g, h) -> bool:
    """Check the structure/label preservation condition of ``phi : g -> h``:
    each node's labels are among its image's, each edge maps to an edge."""
    if set(phi) != set(g.nodes):
        return False
    if not set(phi.values()) <= set(h.nodes):
        return False
    return (all(g.labels[v] <= h.labels[phi[v]] for v in g.nodes)
            and all((phi[v], l, phi[w]) in h.edges for (v, l, w) in g.edges))


def inverse(phi: dict) -> dict:
    if len(set(phi.values())) != len(phi):
        raise GraphError("non-injective morphism has no inverse")
    return {w: v for v, w in phi.items()}


def reference_morphisms(pattern, host, injective, candidates=None):
    """``graphs.morphisms`` as it was before anchored candidates: every
    node's images are drawn from its candidate list (every host node,
    ascending, by default), and each pattern edge is checked once both
    of its ends are placed."""
    want, have = pattern.labels, host.labels
    if candidates is None:
        every = sorted(have)
        candidates = {v: every for v in want}
    free = sorted(want, key=lambda v: (len(candidates[v]), v))
    if not free:
        yield {}
        return
    rank = {v: i for i, v in enumerate(free)}
    checks = [[] for _ in free]
    for (v, l, w) in pattern.edges:
        checks[max(rank[v], rank[w])].append((v, l, w))
    edges = host.edges
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
            stack.append(iter(candidates[free[i + 1]]))


def brute_force_isomorphism(g, h):
    """Oracle: enumerate all bijections (only sensible for tiny graphs);
    morphisms both ways make the label sets equal."""
    if len(g.nodes) != len(h.nodes):
        return None
    gs = sorted(g.nodes)
    for perm in permutations(sorted(h.nodes)):
        m = dict(zip(gs, perm))
        if is_morphism(m, g, h) and is_morphism(inverse(m), h, g):
            return m
    return None


def reference_concrete(grammar, strategy, mode, max_depth):
    """The concrete exploration by definition: every match is applied and
    every successor certified.  Returns the certificates in id order,
    the transitions (none in reach mode) and how many were generated."""
    forms, states, ids, transitions, generated = [], [], {}, set(), 0

    def store(g):
        form = canonical(g)[0]
        if form in ids:
            return ids[form], False
        ids[form] = len(forms)
        forms.append(form)
        states.append(g)
        return ids[form], True

    store(grammar.start)
    frontier, depth = deque([0]), {0: 0}
    while frontier:
        i = frontier.popleft() if strategy == "bfs" else frontier.pop()
        if depth[i] >= max_depth:
            continue
        for rule in grammar.rules:
            for m in concrete_matches(rule, states[i]):
                j, fresh = store(concrete_apply(rule, m, states[i]))
                generated += 1
                if mode == "full":
                    transitions.add((i, (rule.name, tuple(sorted(m.items()))), j))
                if fresh:
                    depth[j] = depth[i] + 1
                    frontier.append(j)
    return forms, transitions, generated
