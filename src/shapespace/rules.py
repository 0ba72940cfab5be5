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
from dataclasses import dataclass

from .graphs import Graph, _unchecked, graph, morphisms
from . import multiplicity as mult
from .multiplicity import add, bounded, positive_part, subtract_one
from .shapes import Shape, ShapeError, edge_slots, neighbour_index

READER = "reader"
ERASER = "eraser"
CREATOR = "creator"
EMBARGO = "embargo"
ROLES = (READER, ERASER, CREATOR, EMBARGO)
# Edge role -> the node roles its two ends may have.
_ENDS = {READER: (READER,), ERASER: (READER, ERASER),
         CREATOR: (READER, CREATOR), EMBARGO: (READER, EMBARGO)}

# Safety valve for the two non-deterministic materialisation steps.
MAX_BRANCHES = 50_000
_BACK = {"out": "in", "in": "out"}   # the reciprocal slot's direction


class RuleError(ValueError):
    pass


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
            if not {self.node_roles[v], self.node_roles[w]} <= set(_ENDS[role]):
                raise RuleError(f"{role} edge touches a non-{'/'.join(_ENDS[role])} "
                                f"node in {self.name}")
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
    taken = set(m.values())
    others = [x for x in sorted(g.labels) if x not in taken]
    candidates = {v: [m[v]] if v in readers else others for v in pattern.labels}
    return next(morphisms(pattern, g, injective=True, candidates=candidates), None) is not None


def concrete_matches(rule: Rule, g: Graph):
    """Injective matches of the rule's LHS in ``g``, NACs respected."""
    return [m for m in morphisms(rule.lhs, g, injective=True)
            if not _nac_blocked(rule, m, g)]


def concrete_apply(rule: Rule, phi: dict, g: Graph) -> Graph:
    """SPO rewrite of ``g`` at match ``phi``: the rule's edit lists in
    ``apply``'s order.  A rule that creates, erases and relabels no node
    shares ``g``'s ``labels`` dict.  The edit lists keep ``g`` valid, so
    the successor is built unchecked (``graphs._unchecked``)."""
    phi = dict(phi)
    edges = g.edges.difference((phi[a], l, phi[b]) for (a, l, b) in rule.erase_edges)
    erased = {phi[a] for a in rule.erase_nodes}
    labels = g.labels
    if erased or rule.new_nodes or rule.relabel:
        labels = {v: ls for v, ls in labels.items() if v not in erased}
    if erased:
        edges = frozenset(e for e in edges if e[0] not in erased and e[2] not in erased)
    fresh = itertools.count(max(g.labels, default=-1) + 1)
    for a, ls in rule.new_nodes.items():
        phi[a] = next(fresh)
        labels[phi[a]] = ls
    for a, (removed, added) in rule.relabel.items():
        labels[phi[a]] = (labels[phi[a]] - removed) | added
    edges = edges.union((phi[a], l, phi[b]) for (a, l, b) in rule.create_edges)
    return _unchecked(labels, edges)


# --- abstract engine: prematch -------------------------------------------


def prematch(rule: Rule, s: Shape):
    """The bare search: every morphism of the LHS into the shape,
    injective or not.  ``materialise`` rejects those that have no
    concrete instance."""
    return list(morphisms(rule.lhs, s, injective=False))


# --- abstract engine: materialise ----------------------------------------


def materialise(rule: Rule, phi: dict, s: Shape, neighbours: dict, made: dict):
    """Pull concrete copies of the match image out of collector elements.

    Each non-concrete node in the image is split into one concrete part
    per LHS node mapped onto it, plus a remainder.  The branches range
    over (a) whether each remainder is present and (b) how the unmatched
    adjacency of the split-off nodes distributes, so that every
    concretisation of ``s`` in which ``phi`` extends to an injective
    concrete match is covered by some returned branch.  Each entry is a
    new ``(Shape, match)`` pair; every branch shares the one concrete match.
    ``neighbours`` is ``neighbour_index`` of ``s``, built once per state.

    The branches depend on the match only through its split (the split
    nodes in node order, each with its part count) and its pins (the
    matched edges at the parts).  ``made``, one dict per state, maps each
    pair met to its branches' fields, so each pair is enumerated once.

    It alone rejects a match, with no branch, at two gates: a node has
    more LHS nodes on it than its multiplicity allows, or a slot of an
    unsplit (concrete) node has more matched neighbours, each a distinct
    edge, than its upper bound.  ``_slot_options`` does the same for a
    split-off part's slot.  Every branch is built valid and no two are
    equal.  They come in ``itertools.product`` order over the remainder
    choices of the split nodes (in node order), then in depth-first
    order of slot choices, in the order ``s`` stores them.

    Each branch passes the capacity test, necessary for a non-empty
    concretisation: a slot's lower bound is at most its capacity, the
    sum of ``node_mult[w].hi`` over the nodes ``w`` at its edges' other
    ends.  An unsplit node's slot next to a split one is tested once the
    last axis that could add capacity is set, and kept where that is
    positive.  An edge between split-off nodes is demanded by both ends.
    """
    groups = {}
    for a in sorted(rule.lhs.nodes):
        groups.setdefault(phi[a], []).append(a)
    fresh = itertools.count(max(s.node_mult, default=-1) + 1)
    parts = {}       # split node -> (concrete parts, remainder id)
    assign = {}      # the concrete match
    remainders = []  # per split node: its remainder options, None for no remainder
    labels = dict(s.labels)   # every node id a branch may use
    for u in sorted(groups):
        grp, mu = groups[u], s.node_mult[u]
        if len(grp) > mu.hi:
            return []
        if mu.is_concrete:
            assign[grp[0]] = u
            continue
        ps, r = parts[u] = [next(fresh) for _ in grp], next(fresh)
        assign.update(zip(grp, ps))
        labels.update((p, labels[u]) for p in (*ps, r))
        lo, hi = max(mu.lo - len(grp), 0), mu.hi - len(grp)
        remainders.append(([None] if lo == 0 else [])
                          + ([positive_part(bounded(lo, hi))] if hi >= 1 else []))

    pinned = neighbour_index(   # slot -> matched neighbours it must keep
        labels, {(assign[x], l, assign[y]) for (x, l, y) in rule.lhs.edges})
    if any(len(ws) > s.slots[slot].hi for slot, ws in pinned.items() if slot[0] in s.node_mult):
        return []
    split = (tuple((u, len(ps)) for u, (ps, _) in parts.items()),   # the split and its pins
             frozenset((slot, frozenset(ws)) for slot, ws in pinned.items()
                       if slot[0] not in s.node_mult))
    if split not in made:
        own = {u: [] for u in parts}   # split node -> its slots, in slot order
        kept, near = {}, []   # other nodes' slots: with no split neighbour, or with one
        for slot, mu in s.slots.items():
            if slot[0] in own:
                own[slot[0]].append((*slot[1:], mu))
            elif neighbours[slot].isdisjoint(own):
                kept[slot] = mu
            else:   # with the capacity of its unsplit neighbours
                near.append((slot, mu, sum(s.node_mult[w].hi
                                           for w in neighbours[slot] - own.keys())))
        kept_edges = frozenset(e for e in s.edges if e[0] not in parts and e[2] not in parts)

        out = []
        for combo in itertools.product(*remainders):
            node_mult = {x: mu for x, mu in s.node_mult.items() if x not in parts}
            members = {x: [x] for x in node_mult}
            for (u, (ps, r)), rem in zip(parts.items(), combo):
                members[u] = ps if rem is None else [*ps, r]
                node_mult.update((p, mult.ONE if p != r else rem) for p in members[u])

            axes = []        # per slot of a split-off node: (part, direction, label, key, options)
            index = {}       # axis key -> its position
            links = []       # per axis: (split-off node, its earlier reciprocal axis)
            for u, entries in own.items():
                for p in members[u]:
                    for (d, l, key, mu) in entries:
                        fixed = frozenset(pinned.get((p, d, l, key), ()))
                        universe = {y for w in neighbours.get((u, d, l, key), ())
                                    for y in members[w]}
                        links.append([(q, index[q, _BACK[d], l, labels[p]]) for q in universe
                                      if (q, _BACK[d], l, labels[p]) in index])
                        index[p, d, l, key] = len(axes)
                        axes.append((p, d, l, key, _slot_options(
                            mu, fixed, sorted(universe - fixed), p == parts[u][1], node_mult)))
            if not all(axis[4] for axis in axes):
                continue
            sides = []       # per near slot: (hi, reciprocal axis) of its split-off neighbours
            checks = [[] for _ in axes]   # per axis: (node, capacity lacking, side): test once set
            for (v, d, l, key), mu, cap in near:
                sides.append([(node_mult[p].hi, index[p, _BACK[d], l, labels[v]])
                              for w in neighbours[v, d, l, key] if w in parts for p in members[w]])
                if mu.lo > cap:
                    checks[max(j for _, j in sides[-1])].append((v, mu.lo - cap, sides[-1]))

            def search(i):   # depth first from axis i; yields once per leaf
                if i == len(axes):
                    yield
                    return
                p = axes[i][0]
                for option in axes[i][4]:
                    if any((q in option[1]) != (p in chosen[j][1]) for q, j in links[i]):
                        continue
                    chosen[i] = option
                    if all(sum(hi for hi, j in side if v in chosen[j][1]) >= lack
                           for v, lack, side in checks[i]):
                        yield from search(i + 1)

            chosen = [None] * len(axes)
            for _ in search(0):
                slots = dict(kept)
                edges = set(kept_edges)
                for (p, d, l, key, _), (val, support) in zip(axes, chosen):
                    if val is not None:
                        slots[p, d, l, key] = val
                    edges.update((p, l, w) if d == "out" else (w, l, p) for w in support)
                slots.update((slot, mu) for (slot, mu, cap), side in zip(near, sides)   # cap > 0
                             if cap or any(slot[0] in chosen[j][1] for _, j in side))
                out.append((dict(node_mult), {x: labels[x] for x in node_mult}, edges, slots))
                if len(out) > MAX_BRANCHES:
                    raise ShapeError("materialisation branch explosion "
                                     f"(over {MAX_BRANCHES} branches)")
            del search   # it refers to itself through a cell: break that cycle
        made[split] = out
    return [(Shape(dict(n), dict(ls), set(es), dict(ss)), assign) for n, ls, es, ss in made[split]]


def _slot_options(mu, fixed, extras, is_rem, node_mult):
    """(value, support) branches for one slot of a split-off node.

    ``fixed`` holds the matched neighbours the slot keeps, ``extras`` the
    other candidates.  A concrete part takes each approximation class its
    support can reach, a remainder ``mu`` on each support whose capacity
    (the sum of ``node_mult[w].hi``) reaches ``mu.lo``; None is no slot.
    """
    t = len(fixed)
    lo = max(mu.lo, t)   # the classes 0, 1, 2+ that meet [lo, mu.hi]: none if t > mu.hi
    options = [(None, frozenset())] if lo == 0 else []
    for val in [mu] if is_rem else (mult.ONE, mult.TWO_PLUS):
        if lo > val.hi or val.lo > mu.hi:
            continue
        for extra in _subsets(extras):
            least = t + len(extra)   # at most the capacity: every hi is 1 or more
            if (fixed or extra) and (is_rem or val.hi >= least) and (
                    val.lo <= least or val.lo <= t + sum(node_mult[w].hi for w in extra)):
                options.append((val, fixed | extra))
    return options


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

    # 6. reconcile the touched nodes' slots with their surviving edges; no
    # other slot changed.  A slot it drops has lo 0: the branch passed the
    # capacity test, and each edge that steps 1, 2 and 4 take out of a kept
    # node's slot has a concrete end, so takes 1 off its capacity and its lo.
    support = {slot for e in edges if e[0] in touched or e[2] in touched
               for slot in edge_slots(labels, *e) if slot[0] in touched}
    for slot in [k for k in slots if k[0] in touched and k not in support]:
        slots.pop(slot)
    for slot in support:
        slots.setdefault(slot, mult.ONE_PLUS)
    return branch
