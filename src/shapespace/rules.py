"""Rules and the rewrite pipelines.

A rule is a single graph whose elements carry roles: readers are
matched and kept, erasers matched and deleted, creators added, and
embargo elements form a negative application condition (concrete
engine only).  The abstract pipeline is prematch / materialise /
apply, then ``shapes.normalise``; the concrete pipeline is match / apply.

Each rewrite branch is a ``shapes.Shape``: ``materialise`` builds one
per branch, ``apply`` rewrites it in place, and ``normalise`` folds it
into the successor; ``prematch`` searches the state itself.  None of
them builds a Graph.  A rule's unary labels are self-loops, which
``Rule`` alone reads: into label sets for its LHS and negative
condition, and into the edit lists that both rewrites apply in the same
steps.  Materialisation builds only valid, pairwise distinct branches.
Matches are plain node maps, their items in rule-node order.

Deletion is SPO-style: erasing a node silently drops its remaining
incident edges.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .graphs import Graph, graph, morphisms
from . import multiplicity as mult
from .multiplicity import (Multiplicity, add, bounded, positive_part,
                           subtract_one)
from .shapes import Shape, ShapeError, edge_slots, neighbour_index

READER = "reader"
ERASER = "eraser"
CREATOR = "creator"
EMBARGO = "embargo"
ROLES = (READER, ERASER, CREATOR, EMBARGO)

# Safety valve for the two non-deterministic materialisation steps.
MAX_BRANCHES = 50_000
_BACK = {"out": "in", "in": "out"}   # the reciprocal slot's direction


class RuleError(ValueError):
    pass


class ApplyInfeasible(RuntimeError):
    """A rewrite branch turned out to describe no concretisation at all."""


@dataclass
class Rule:
    """Single-graph rule; ``edges`` entries are (src, label, tgt, role).

    ``__post_init__`` is the one reader of the roles.  Besides ``lhs``
    and the negative condition, it builds five edit lists, which
    ``concrete_apply`` and ``apply`` read in the same steps:
    ``erase_edges`` and ``create_edges`` (binary edges only),
    ``erase_nodes``, ``new_nodes`` (creator node -> label set) and
    ``relabel`` (reader node -> (labels removed, labels added)).
    """

    name: str
    node_roles: dict
    edges: tuple

    def __post_init__(self):
        if not self.name:
            raise RuleError("rule without a name")
        # Canonical element order, so equal rules compare equal however
        # their elements were listed.
        self.edges = tuple(sorted(
            self.edges, key=lambda e: (e[0], e[1].text, e[1].arity, e[2], e[3])))
        for v, role in self.node_roles.items():
            if role not in ROLES:
                raise RuleError(f"bad node role {role!r}")
        for (v, l, w, role) in self.edges:
            if role not in ROLES:
                raise RuleError(f"bad edge role {role!r}")
            for x in (v, w):
                if x not in self.node_roles:
                    raise RuleError(f"edge endpoint {x} undeclared in rule {self.name}")
            if l.is_unary and v != w:
                raise RuleError(f"unary label {l.text} on non-loop rule edge")
            ends = {self.node_roles[v], self.node_roles[w]}
            if role == CREATOR and not ends <= {READER, CREATOR}:
                raise RuleError(f"creator edge touches a non-reader/creator node in {self.name}")
            if role == ERASER and not ends <= {READER, ERASER}:
                raise RuleError(f"eraser edge touches a non-reader/eraser node in {self.name}")
            if role == EMBARGO and not ends <= {READER, EMBARGO}:
                raise RuleError(f"embargo edge must attach to reader nodes in {self.name}")
            if role == READER and not ends <= {READER}:
                raise RuleError(f"reader edge touches a non-reader node in {self.name}")
        nodes = {r: sorted(v for v, x in self.node_roles.items() if x == r) for r in ROLES}
        self.lhs = graph(sorted(nodes[READER] + nodes[ERASER]),
                         ((v, l, w) for (v, l, w, r) in self.edges if r in (READER, ERASER)))
        embargo = [(v, l, w) for (v, l, w, r) in self.edges if r == EMBARGO]
        involved = {x for (v, _, w) in embargo for x in (v, w)} | set(nodes[EMBARGO])
        self._nac = (graph(involved, embargo),
                     [v for v in involved if self.node_roles[v] == READER])
        self.has_nac = bool(involved)
        self.erase_nodes = tuple(nodes[ERASER])
        self.erase_edges = tuple((v, l, w) for (v, l, w, r) in self.edges
                                 if r == ERASER and not l.is_unary)
        self.create_edges = tuple((v, l, w) for (v, l, w, r) in self.edges
                                  if r == CREATOR and not l.is_unary)
        self.new_nodes = {v: frozenset(l for (a, l, _, r) in self.edges
                                       if a == v and l.is_unary) for v in nodes[CREATOR]}
        self.relabel = {}   # reader node -> (labels removed, labels added)
        for (v, l, _, r) in self.edges:
            if l.is_unary and self.node_roles[v] == READER and r in (ERASER, CREATOR):
                removed, added = self.relabel.setdefault(v, (set(), set()))
                (removed if r == ERASER else added).add(l)


# --- concrete engine ------------------------------------------------------


def _nac_blocked(rule: Rule, m: dict, g: Graph) -> bool:
    if not rule.has_nac:
        return False
    pattern, readers = rule._nac
    base = {v: m[v] for v in readers}
    avoid = set(m.values()) - set(base.values())
    return next(morphisms(pattern, g, injective=True, base=base, avoid=avoid), None) is not None


def concrete_matches(rule: Rule, g: Graph):
    """Injective matches of the rule's LHS in ``g``, NACs respected."""
    return [m for m in morphisms(rule.lhs, g, injective=True)
            if not _nac_blocked(rule, m, g)]


def concrete_apply(rule: Rule, phi: dict, g: Graph) -> Graph:
    """SPO rewrite of ``g`` at match ``phi``: the rule's edit lists in
    ``apply``'s order."""
    phi = dict(phi)
    edges = g.edges.difference((phi[a], l, phi[b]) for (a, l, b) in rule.erase_edges)
    erased = {phi[a] for a in rule.erase_nodes}
    labels = {v: ls for v, ls in g.labels.items() if v not in erased}
    edges = {e for e in edges if e[0] not in erased and e[2] not in erased}
    fresh = itertools.count(max(g.labels, default=-1) + 1)
    for a, ls in rule.new_nodes.items():
        phi[a] = next(fresh)
        labels[phi[a]] = ls
    for a, (removed, added) in rule.relabel.items():
        labels[phi[a]] = (labels[phi[a]] - removed) | added
    edges.update((phi[a], l, phi[b]) for (a, l, b) in rule.create_edges)
    return Graph(labels, frozenset(edges))


# --- abstract engine: prematch -------------------------------------------


def prematch(rule: Rule, s: Shape):
    """Possibly non-injective morphisms of the LHS into the shape
    whose shared images remain multiplicity-feasible."""
    return [m for m in morphisms(rule.lhs, s, injective=False)
            if _prematch_feasible(rule, m, s)]


def _prematch_feasible(rule: Rule, m: dict, s: Shape) -> bool:
    for u, k in Counter(m.values()).items():
        if k > s.node_mult[u].hi:
            return False
    shared = Counter((m[a], l, m[b]) for (a, l, b) in rule.lhs.edges)
    for (v, l, w), k in shared.items():
        if k > 1 and k > min(
                s.node_mult[slot[0]].hi * s.slots[slot].hi
                for slot in edge_slots(s.labels, v, l, w)):
            return False
    return True


# --- abstract engine: materialise ----------------------------------------


def materialise(rule: Rule, phi: dict, s: Shape, neighbours: dict):
    """Pull concrete copies of the match image out of collector elements.

    Each non-concrete node in the image is split into one concrete part
    per LHS node mapped onto it, plus a remainder.  The branches range
    over (a) whether each remainder is present and (b) how the unmatched
    adjacency of the split-off nodes distributes, so that every
    concretisation of ``s`` in which ``phi`` extends to an injective
    concrete match is covered by some returned branch.  Each entry is a
    ``(Shape, match)`` pair; every branch shares the one concrete match.
    ``neighbours`` is ``neighbour_index`` of ``s``, built once per state.

    ``phi`` comes from ``prematch``, so no node has more LHS nodes mapped
    onto it than its multiplicity allows.  Every branch is built valid
    and no two are equal.  They come in ``itertools.product`` order over
    the remainder choices of the split nodes (in node order), then in
    depth-first order of slot choices, in the order ``s`` stores them.
    """
    groups = {}
    for a in sorted(rule.lhs.nodes):
        groups.setdefault(phi[a], []).append(a)
    split = [u for u in sorted(groups) if not s.node_mult[u].is_concrete]

    fresh = itertools.count(max(s.node_mult, default=-1) + 1)
    parts = {}       # split node -> (concrete parts, remainder id)
    assign = {}
    for u in split:
        parts[u] = [next(fresh) for _ in groups[u]], next(fresh)
        assign.update(zip(groups[u], parts[u][0]))
    for u, grp in groups.items():
        if u not in parts:
            assign[grp[0]] = u

    remainders = []  # per split node: None (no remainder) or its multiplicity
    for u in split:
        mu, k = s.node_mult[u], len(groups[u])
        lo, hi = max(mu.lo - k, 0), mu.hi - k
        remainders.append(([None] if lo == 0 else [])
                          + ([positive_part(bounded(lo, hi))] if hi >= 1 else []))

    labels = dict(s.labels)   # every node id a branch may use
    for u, (ps, r) in parts.items():
        labels.update((p, labels[u]) for p in (*ps, r))
    pinned = neighbour_index(   # slot of a part -> matched neighbours it must keep
        labels, {(assign[x], l, assign[y]) for (x, l, y) in rule.lhs.edges})
    own = {u: [] for u in split}   # split node -> its slots, in slot order
    safe, at_risk = {}, []   # other nodes' slots: with an edge to a node not split, or without
    for slot, mu in s.slots.items():
        if slot[0] in own:
            own[slot[0]].append((*slot[1:], mu))
        elif parts.keys() >= neighbours[slot]:
            at_risk.append((slot, mu))
        else:
            safe[slot] = mu
    kept = frozenset(e for e in s.edges if e[0] not in parts and e[2] not in parts)

    out = []
    for combo in itertools.product(*remainders):
        for branch in _branches(s, parts, dict(zip(split, combo)), labels, own,
                                pinned, neighbours, safe, at_risk, kept):
            out.append((branch, assign))
            if len(out) > MAX_BRANCHES:
                raise ShapeError("materialisation branch explosion "
                                 f"(over {MAX_BRANCHES} branches)")
    return out


def _branches(s, parts, rem, labels, own, pinned, neighbours, safe, at_risk, kept):
    """The branches for one choice of remainders, depth first."""
    node_mult = {x: mu for x, mu in s.node_mult.items() if x not in parts}
    members = {x: [x] for x in node_mult}
    for u, (ps, r) in parts.items():
        members[u] = ps if rem[u] is None else [*ps, r]
        node_mult.update((p, mult.ONE if p != r else rem[u]) for p in members[u])

    axes = []        # (part, direction, label, key, options)
    for u, entries in own.items():
        for p in members[u]:
            for (d, l, key, mu) in entries:
                fixed = frozenset(pinned.get((p, d, l, key), ()))
                universe = {y for w in neighbours.get((u, d, l, key), ())
                            for y in members[w]}
                options = _slot_options(mu, fixed, sorted(universe - fixed),
                                        p == parts[u][1], node_mult)
                if not options:
                    return
                axes.append((p, d, l, key, options))

    index = {axis[:4]: i for i, axis in enumerate(axes)}
    risky = []       # (slot, multiplicity, the axes that could support it)
    checks = [[] for _ in axes]   # per axis: (node, axes) to test once it is set
    for (v, d, l, key), mu in at_risk:
        js = [index[p, _BACK[d], l, labels[v]] for w in neighbours[v, d, l, key]
              for p in members[w]]
        risky.append(((v, d, l, key), mu, js))
        if mu.lo > 0:
            checks[max(js)].append((v, js))
    for choice in _consistent_choices(axes, index, labels, checks):
        slots = dict(safe)
        edges = set(kept)
        for (p, d, l, key, _), (val, support) in zip(axes, choice):
            if val is not None:
                slots[p, d, l, key] = val
            edges.update((p, l, w) if d == "out" else (w, l, p) for w in support)
        slots.update((slot, mu) for slot, mu, js in risky
                     if any(slot[0] in choice[j][1] for j in js))
        yield Shape(dict(node_mult), {x: labels[x] for x in node_mult}, edges, slots)


def _consistent_choices(axes, index, labels, checks):
    """Depth-first assignment of slot options.

    An edge between two split-off nodes is demanded by the out-slot of
    one and the reciprocal in-slot of the other; an option is taken only
    if it agrees with the reciprocal slots assigned before it.  (A node a
    slot may name is a member of an original neighbour, so in a valid
    shape its reciprocal slot exists.)  ``checks[i]`` pairs untouched
    nodes with axes up to ``i``, one of which must give the node an edge.
    """
    new_nodes = {axis[0] for axis in axes}
    links = []       # per axis: (split-off node, its earlier reciprocal axis)
    for i, (p, d, l, key, _) in enumerate(axes):
        earlier = ((q, index.get((q, _BACK[d], l, labels[p])))
                   for q in new_nodes if labels[q] == key)
        links.append([(q, j) for q, j in earlier if j is not None and j < i])

    chosen = [None] * len(axes)

    def extend(i):
        if i == len(axes):
            yield tuple(chosen)
            return
        p = axes[i][0]
        for option in axes[i][4]:
            if any((q in option[1]) != (p in chosen[j][1]) for q, j in links[i]):
                continue
            chosen[i] = option
            if all(any(v in chosen[j][1] for j in js) for v, js in checks[i]):
                yield from extend(i + 1)

    yield from extend(0)


def _slot_options(mu, fixed, extras, is_rem, node_mult):
    """(value, support) branches for one slot of a split-off node.

    ``fixed`` holds the matched neighbours the slot keeps, ``extras`` the
    other candidates.  A remainder keeps the collector's value; a
    concrete part takes each approximation class its support can reach.
    A value of None stands for an empty slot.
    """
    if is_rem:
        return ([(None, frozenset())] if mu.lo == 0 else []) \
            + [(mu, extra) for extra in _subsets(extras) if extra]
    t = len(fixed)
    if t > mu.hi:
        return []
    options = []
    for val in _value_options(mu, t):
        if val == mult.ZERO:
            options.append((None, frozenset()))
            continue
        for extra in _subsets(extras):
            upper = t + sum(node_mult[w].hi for w in extra)
            if (fixed or extra) and val.lo <= upper and val.hi >= t + len(extra):
                options.append((val, fixed | extra))
    return options


def _value_options(mu: Multiplicity, at_least: int):
    """Approximation classes of the naturals in ``mu`` that are >= at_least."""
    lo = max(mu.lo, at_least)
    opts = []
    if lo == 0:
        opts.append(mult.ZERO)
    if lo <= 1 <= mu.hi:
        opts.append(mult.ONE)
    if mu.hi >= 2:
        opts.append(mult.TWO_PLUS)
    return opts


def _subsets(items):
    """All subsets of the sorted ``items``, smallest first."""
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


# --- abstract engine: apply ----------------------------------------------


def apply(rule: Rule, branch: Shape, match: dict) -> Shape:
    """Rewrite ``branch`` in place at its concrete match; returns it."""
    phi = dict(match)
    node_mult, labels = branch.node_mult, branch.labels
    edges, slots = branch.edges, branch.slots

    touched = set()   # nodes that lost an edge or a neighbour's label set

    def slot_dec(slot, exact):
        touched.add(slot[0])
        cur = slots.get(slot)
        if cur is None:
            return
        new = subtract_one(cur) if exact else bounded(max(cur.lo - 1, 0), cur.hi)
        if new == mult.ZERO:
            slots.pop(slot)
        else:
            slots[slot] = new

    def slot_inc(slot, exact=True):
        cur = slots.get(slot, mult.ZERO)
        slots[slot] = add(cur, mult.ONE) if exact else bounded(cur.lo, cur.hi + 1)

    def remove_edge(e):
        if e in edges:
            edges.discard(e)
            exact = node_mult[e[0]].is_concrete and node_mult[e[2]].is_concrete
            for slot in edge_slots(labels, *e):
                slot_dec(slot, exact)

    # 1. matched eraser edges
    for (a, l, b) in rule.erase_edges:
        remove_edge((phi[a], l, phi[b]))

    # 2. erased nodes, SPO-style
    for a in rule.erase_nodes:
        x = phi[a]
        for e in [e for e in edges if x in (e[0], e[2])]:
            remove_edge(e)
        labels.pop(x)
        node_mult.pop(x)
        for slot in [k for k in slots if k[0] == x]:
            slots.pop(slot)

    # 3. fresh creator nodes
    fresh = itertools.count(max(node_mult, default=-1) + 1)
    for a, ls in rule.new_nodes.items():
        x = phi[a] = next(fresh)
        node_mult[x] = mult.ONE
        labels[x] = ls

    # 4. label changes on kept reader nodes: each slot whose other end
    # is the relabelled node moves one edge to the new label set
    for x, (removed, added) in sorted((phi[a], edit) for a, edit in rule.relabel.items()):
        new_key = (labels[x] - removed) | added
        if new_key == labels[x]:
            continue
        for (v, l, w) in edges:
            if x not in (v, w):
                continue
            exact = node_mult[v].is_concrete and node_mult[w].is_concrete
            for slot, end in zip(edge_slots(labels, v, l, w), (w, v)):
                if end == x:
                    slot_dec(slot, exact)
                    slot_inc((*slot[:3], new_key), exact)
        labels[x] = new_key

    # 5. creator edges
    for (a, l, b) in rule.create_edges:
        e = (phi[a], l, phi[b])
        if e not in edges:
            edges.add(e)
            for slot in edge_slots(labels, *e):
                slot_inc(slot)

    # 6. reconcile the touched nodes' slots with their surviving edges; a
    # slot that gained an edge has its entry, and no other slot changed
    support = {slot for e in edges if e[0] in touched or e[2] in touched
               for slot in edge_slots(labels, *e) if slot[0] in touched}
    for slot in [k for k in slots if k[0] in touched and k not in support]:
        if slots.pop(slot).lo > 0:
            raise ApplyInfeasible(f"slot without support at node {slot[0]}")
    for slot in support:
        slots.setdefault(slot, mult.ONE_PLUS)
    return branch
