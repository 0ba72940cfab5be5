"""Rules and the rewrite pipelines.

A rule is a single graph whose elements carry roles: readers are
matched and kept, erasers matched and deleted, creators added, and
embargo elements form a negative application condition (concrete
engine only).  The abstract pipeline is prematch / materialise /
apply / normalise; the concrete pipeline is match / apply.

Deletion is SPO-style: erasing a node silently drops its remaining
incident edges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .graphs import Graph, Morphism, graph, morphisms
from . import multiplicity as mult
from .multiplicity import (Multiplicity, add, bounded, OMEGA, positive_part,
                           subtract_one)
from .shapes import Shape, ShapeError

READER = "reader"
ERASER = "eraser"
CREATOR = "creator"
EMBARGO = "embargo"
ROLES = (READER, ERASER, CREATOR, EMBARGO)

# Safety valve for the two non-deterministic materialisation steps.
MAX_BRANCHES = 50_000


class RuleError(ValueError):
    pass


class ApplyInfeasible(RuntimeError):
    """A rewrite branch turned out to describe no concretisation at all."""


@dataclass
class Rule:
    """Single-graph rule; ``edges`` entries are (src, label, tgt, role)."""

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
        self._lhs = graph(self.nodes_with(READER, ERASER),
                          ((v, l, w) for (v, l, w, _) in self.edges_with(READER, ERASER)))
        self.rhs_elements()  # well-formedness

    def nodes_with(self, *roles):
        return sorted(v for v, r in self.node_roles.items() if r in roles)

    def edges_with(self, *roles):
        return [e for e in self.edges if e[3] in roles]

    def lhs(self) -> Graph:
        return self._lhs

    def rhs_elements(self):
        return (self.nodes_with(READER, CREATOR),
                [(v, l, w) for (v, l, w, _) in self.edges_with(READER, CREATOR)])

    @property
    def has_nac(self) -> bool:
        return bool(self.nodes_with(EMBARGO)) or bool(self.edges_with(EMBARGO))


@dataclass
class Materialisation:
    """A partially materialised shape plus the now-concrete injective match."""

    shape: Shape
    match: Morphism


# --- concrete engine ------------------------------------------------------


def _nac_blocked(rule: Rule, m: dict, g: Graph) -> bool:
    emb_nodes = rule.nodes_with(EMBARGO)
    emb_edges = rule.edges_with(EMBARGO)
    if not emb_nodes and not emb_edges:
        return False
    involved = set(emb_nodes)
    for (v, _, w, _) in emb_edges:
        involved |= {v, w}
    base = {v: m[v] for v in involved if rule.node_roles[v] == READER}
    pattern = graph(involved, ((v, l, w) for (v, l, w, _) in emb_edges))
    avoid = set(m.values()) - set(base.values())
    for _ in morphisms(pattern, g, injective=True, base=base, avoid=avoid):
        return True
    return False


def concrete_matches(rule: Rule, g: Graph):
    """Injective matches of the rule's LHS in ``g``, NACs respected."""
    out = []
    for m in morphisms(rule.lhs(), g, injective=True):
        if not _nac_blocked(rule, m, g):
            out.append(Morphism(m))
    out.sort(key=lambda m: m.as_tuple())
    return out


def concrete_apply(rule: Rule, m: Morphism, g: Graph) -> Graph:
    """SPO rewrite of ``g`` at match ``m``."""
    phi = m.node_map
    erased_nodes = {phi[v] for v in rule.nodes_with(ERASER)}
    erased_edges = {(phi[v], l, phi[w]) for (v, l, w, _) in rule.edges_with(ERASER)}
    nodes = set(g.nodes) - erased_nodes
    edges = {e for e in g.edges
             if e not in erased_edges
             and e[0] not in erased_nodes and e[2] not in erased_nodes}
    fresh = itertools.count(max(g.nodes, default=-1) + 1)
    out_map = dict(phi)
    for v in rule.nodes_with(CREATOR):
        out_map[v] = next(fresh)
        nodes.add(out_map[v])
    for (v, l, w, _) in rule.edges_with(CREATOR):
        edges.add((out_map[v], l, out_map[w]))
    return graph(nodes, edges)


# --- abstract engine: prematch -------------------------------------------


def prematch(rule: Rule, s: Shape):
    """Possibly non-injective morphisms of the LHS into the shape graph
    whose shared images remain multiplicity-feasible."""
    lhs = rule.lhs()
    out = []
    for m in morphisms(lhs, s.graph, injective=False):
        if _prematch_feasible(lhs, m, s):
            out.append(Morphism(m))
    out.sort(key=lambda m: m.as_tuple())
    return out


def _prematch_feasible(lhs: Graph, m: dict, s: Shape) -> bool:
    images = {}
    for a in lhs.nodes:
        images.setdefault(m[a], []).append(a)
    for u, grp in images.items():
        if len(grp) > s.node_mult[u].max_count:
            return False
    shared = {}
    for (a, l, b) in lhs.binary_edges():
        shared.setdefault((m[a], l, m[b]), []).append((a, b))
    for (v, l, w), grp in shared.items():
        if len(grp) == 1:
            continue
        ub_out = s.node_mult[v].max_count * s.out_multiplicity(v, l, s.class_key(w)).max_count
        ub_in = s.node_mult[w].max_count * s.in_multiplicity(w, l, s.class_key(v)).max_count
        if len(grp) > min(ub_out, ub_in):
            return False
    return True


# --- abstract engine: materialise ----------------------------------------


def _value_options(mu: Multiplicity, at_least: int):
    """Approximation classes of the naturals in ``mu`` that are >= at_least."""
    lo = max(mu.lo, at_least)
    opts = []
    if lo == 0 and mu.hi >= 0:
        opts.append(mult.ZERO)
    if lo <= 1 <= mu.hi:
        opts.append(mult.ONE)
    if mu.hi >= 2:
        opts.append(mult.TWO_PLUS)
    return opts


def _subsets(items, limit=None):
    items = sorted(items)
    for r in range(len(items) + 1):
        if limit is not None and r > limit:
            return
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def materialise(rule: Rule, m: Morphism, s: Shape):
    """Pull concrete copies of the match image out of collector elements.

    Branches over (a) whether a drained collector keeps a remainder and
    (b) how the unmatched adjacency of the split-off nodes distributes,
    so that every concretisation of ``s`` in which ``m`` extends to an
    injective concrete match is covered by some returned branch.
    """
    lhs = rule.lhs()
    phi = m.node_map
    groups = {}
    for a in sorted(lhs.nodes):
        groups.setdefault(phi[a], []).append(a)
    for u, grp in groups.items():
        if len(grp) > s.node_mult[u].max_count:
            return []
    split = {u: grp for u, grp in sorted(groups.items())
             if not s.node_mult[u].is_concrete}

    fresh = itertools.count(max(s.graph.nodes, default=-1) + 1)
    assign = {}
    parts = {}
    rem_id = {}
    for u in sorted(split):
        parts[u] = [next(fresh) for _ in split[u]]
        for a, i in zip(split[u], parts[u]):
            assign[a] = i
        rem_id[u] = next(fresh)
    for u, grp in groups.items():
        if u not in split:
            assign[grp[0]] = u

    rem_options = {}
    for u in sorted(split):
        k = len(split[u])
        mu = s.node_mult[u]
        lo = max(mu.lo - k, 0)
        hi = mu.hi if math.isinf(mu.hi) else mu.hi - k
        opts = []
        if lo == 0:
            opts.append((False, None))
        if hi >= 1:
            opts.append((True, positive_part(bounded(lo, hi))))
        rem_options[u] = opts

    results = []
    order = sorted(split)
    for combo in itertools.product(*(rem_options[u] for u in order)):
        rem = dict(zip(order, combo))
        results.extend(_materialise_combo(lhs, phi, s, assign, parts, rem, rem_id))

    seen = set()
    unique = []
    for mat in results:
        key = _structural_key(mat)
        if key not in seen:
            seen.add(key)
            unique.append(mat)
    return unique


def _structural_key(mat: Materialisation):
    s = mat.shape
    return (tuple(sorted((v, s.node_mult[v]) for v in s.graph.nodes)),
            tuple(sorted((a, l.text, l.arity, b) for (a, l, b) in s.graph.edges)),
            tuple(sorted((v, l.text, tuple(sorted(x.text for x in k)), mu)
                         for (v, l, k), mu in s.out_mult.items())),
            tuple(sorted((v, l.text, tuple(sorted(x.text for x in k)), mu)
                         for (v, l, k), mu in s.in_mult.items())),
            mat.match.as_tuple())


def _materialise_combo(lhs, phi, s, assign, parts, rem, rem_id):
    # Node layer for this remainder combination.
    def parts_of(x):
        if x in parts:
            ps = list(parts[x])
            if rem[x][0]:
                ps.append(rem_id[x])
            return ps
        return [x]

    node_mult = {}
    labels = {}
    for x in sorted(s.graph.nodes):
        if x in parts:
            for p in parts[x]:
                node_mult[p] = mult.ONE
                labels[p] = s.class_key(x)
            if rem[x][0]:
                node_mult[rem_id[x]] = rem[x][1]
                labels[rem_id[x]] = s.class_key(x)
        else:
            node_mult[x] = s.node_mult[x]
            labels[x] = s.class_key(x)

    matched = {(assign[a], l, assign[b]) for (a, l, b) in lhs.binary_edges()}

    # The new nodes replacing split collectors; their multiplicity slots
    # are re-derived, everything else keeps its original entries.
    new_parts = []
    for u in sorted(parts):
        new_parts.extend(parts_of(u))
    part_set = set(new_parts)

    slot_axes = []  # (part, dir, label, class key, option list)
    for u in sorted(parts):
        for p in parts_of(u):
            is_rem = p == rem_id.get(u)
            for direction, table in (("out", s.out_mult), ("in", s.in_mult)):
                for (v, l, key), mu in sorted(table.items(),
                                              key=lambda it: (it[0][0], it[0][1].text,
                                                              sorted(x.text for x in it[0][2]))):
                    if v != u:
                        continue
                    options = _slot_options(s, lhs, phi, assign, labels, node_mult,
                                            parts_of, p, is_rem, direction, l, key,
                                            mu, matched)
                    if not options:
                        return []
                    slot_axes.append((p, direction, l, key, options))

    out = []
    for choice in _consistent_choices(slot_axes, labels, part_set):
        built = _assemble(s, labels, node_mult, parts, parts_of, part_set,
                          slot_axes, choice, assign)
        if built is not None:
            out.append(Materialisation(built, Morphism(dict(assign))))
        if len(out) > MAX_BRANCHES:
            raise ShapeError("materialisation branch explosion "
                             f"(over {MAX_BRANCHES} branches)")
    return out


def _consistent_choices(slot_axes, labels, part_set):
    """Depth-first assignment of slot options.

    Reciprocal slots of two parts must demand the same part-to-part
    edges; checking that while assigning prunes the product early.
    The full consistency check still runs during assembly.
    """
    n = len(slot_axes)
    chosen = [None] * n
    index = {(p, d, l, key): i for i, (p, d, l, key, _) in enumerate(slot_axes)}

    def conflicts(i, support):
        p, direction, l, key = slot_axes[i][:4]
        back_dir = "in" if direction == "out" else "out"
        for q in sorted(part_set):
            if labels[q] != key:
                continue
            j = index.get((q, back_dir, l, labels[p]))
            if j is None:
                if q in support:
                    return True          # demanded edge with no reciprocal slot
                continue
            if j < i and chosen[j] is not None:
                demanded_here = q in support
                demanded_back = p in chosen[j][1]
                if demanded_here != demanded_back:
                    return True
        return False

    def extend(i):
        if i == n:
            yield tuple(chosen)
            return
        for option in slot_axes[i][4]:
            if conflicts(i, option[1]):
                continue
            chosen[i] = option
            yield from extend(i + 1)
            chosen[i] = None

    yield from extend(0)


def _slot_options(s, lhs, phi, assign, labels, node_mult, parts_of, p, is_rem,
                  direction, l, key, mu, matched):
    """Value/support branches for one multiplicity slot of a new part."""
    # Matched edge images pinned on this part for this slot.
    m_targets = set()
    if not is_rem:
        a = next(a for a, q in assign.items() if q == p)
        for (x, ll, y) in lhs.binary_edges():
            if ll != l:
                continue
            if direction == "out" and x == a and labels[assign[y]] == key:
                m_targets.add(assign[y])
            if direction == "in" and y == a and labels[assign[x]] == key:
                m_targets.add(assign[x])
    t = len(m_targets)
    if t > mu.max_count:
        return []

    # Candidate targets: the original adjacency of the collector,
    # expanded through splits of the neighbours.
    origin = _origin_of(p, parts_of, s)
    universe = set()
    for (v, ll, w) in s.graph.binary_edges():
        if ll != l:
            continue
        if direction == "out" and v == origin and s.class_key(w) == key:
            universe.update(parts_of(w))
        if direction == "in" and w == origin and s.class_key(v) == key:
            universe.update(parts_of(v))
    extras_universe = sorted(universe - m_targets)

    options = []
    if is_rem:
        values = [mu]
    else:
        values = _value_options(mu, t)
    for val in values:
        if val == mult.ZERO:
            if t == 0:
                options.append((None, frozenset()))
            continue
        for extra in _subsets(extras_universe):
            support = frozenset(m_targets | extra)
            if not support:
                if mu.lo == 0 and is_rem:
                    options.append((None, frozenset()))
                continue
            if is_rem:
                options.append((val, support))
                continue
            lower = len(support)
            upper = t + sum(node_mult[w].max_count for w in extra)
            if val.lo <= upper and val.hi >= lower:
                options.append((val, support))
    return options


def _origin_of(p, parts_of, s):
    for u in s.graph.nodes:
        if p in parts_of(u):
            return u
    raise ShapeError(f"part {p} has no origin")


def _assemble(s, labels, node_mult, parts, parts_of, part_set,
              slot_axes, choice, assign):
    out_m = {}
    in_m = {}
    supports = {}
    for (p, direction, l, key, _), (val, support) in zip(slot_axes, choice):
        supports[(p, direction, l, key)] = support
        if val is not None:
            table = out_m if direction == "out" else in_m
            table[(p, l, key)] = val

    # Part-to-part edges must be demanded consistently from both ends.
    for (p, direction, l, key), support in supports.items():
        for q in support:
            if q not in part_set:
                continue
            if direction == "out":
                back = supports.get((q, "in", l, labels[p]))
            else:
                back = supports.get((q, "out", l, labels[p]))
            if back is None or p not in back:
                return None

    edges = set()
    for x, old_labels in labels.items():
        for l in old_labels:
            edges.add((x, l, x))
    for (v, l, w) in s.graph.binary_edges():
        if v in parts or w in parts:
            continue
        edges.add((v, l, w))
    for (p, direction, l, key), support in supports.items():
        for w in support:
            edges.add((p, l, w) if direction == "out" else (w, l, p))

    # Untouched nodes keep their slots; entries survive only while they
    # still have at least one support edge.
    binary = [(v, l, w) for (v, l, w) in edges if not l.is_unary]
    out_support = {(v, l, labels[w]) for (v, l, w) in binary}
    in_support = {(w, l, labels[v]) for (v, l, w) in binary}
    for table, support, kept in ((s.out_mult, out_support, out_m),
                                 (s.in_mult, in_support, in_m)):
        for slot, mu in table.items():
            if slot[0] in parts:
                continue
            if slot in support:
                kept[slot] = mu
            elif mu.lo > 0:
                return None

    shape = Shape(graph(node_mult, edges), dict(node_mult), out_m, in_m)
    try:
        shape.validate()
    except ShapeError:
        return None
    return shape


# --- abstract engine: apply ----------------------------------------------


def apply(rule: Rule, mat: Materialisation) -> Shape:
    """Rewrite the materialised shape at its concrete match."""
    s = mat.shape
    phi = dict(mat.match.node_map)
    nodes = set(s.graph.nodes)
    labels = {v: s.class_key(v) for v in nodes}
    edges = set(s.graph.binary_edges())
    node_mult = dict(s.node_mult)
    out_m = dict(s.out_mult)
    in_m = dict(s.in_mult)

    def is_concrete(v):
        return node_mult[v].is_concrete

    def slot_dec(table, v, l, key, exact):
        cur = table.get((v, l, key))
        if cur is None:
            return
        if exact:
            if cur.hi < 1:
                raise ApplyInfeasible(f"removing an edge from empty slot at {v}")
            new = subtract_one(cur)
        else:
            new = bounded(max(cur.lo - 1, 0), cur.hi)
        if new == mult.ZERO:
            table.pop((v, l, key))
        else:
            table[(v, l, key)] = new

    def slot_inc(table, v, l, key, exact=True):
        cur = table.get((v, l, key), mult.ZERO)
        if exact:
            table[(v, l, key)] = add(cur, mult.ONE)
        else:
            table[(v, l, key)] = bounded(cur.lo, cur.hi + 1)

    def remove_edge(v, l, w):
        if (v, l, w) not in edges:
            return
        edges.discard((v, l, w))
        exact = is_concrete(v) and is_concrete(w)
        slot_dec(out_m, v, l, labels[w], exact)
        slot_dec(in_m, w, l, labels[v], exact)

    # 1. matched eraser edges (binary)
    for (a, l, b, _) in rule.edges_with(ERASER):
        if not l.is_unary:
            remove_edge(phi[a], l, phi[b])

    # 2. erased nodes, SPO-style
    for a in rule.nodes_with(ERASER):
        x = phi[a]
        for (v, l, w) in sorted(edges, key=lambda e: (e[0], e[1].text, e[2])):
            if v == x or w == x:
                remove_edge(v, l, w)
        nodes.discard(x)
        labels.pop(x)
        node_mult.pop(x)
        for table in (out_m, in_m):
            for slot in [k for k in table if k[0] == x]:
                table.pop(slot)

    # 3. fresh creator nodes
    fresh = itertools.count(max(nodes, default=-1) + 1)
    for a in rule.nodes_with(CREATOR):
        x = next(fresh)
        phi[a] = x
        nodes.add(x)
        node_mult[x] = mult.ONE
        labels[x] = frozenset(l for (v, l, w, _) in rule.edges_with(CREATOR)
                              if l.is_unary and v == a)

    # 4. label changes on kept reader nodes
    changes = {}
    for (a, l, b, role) in rule.edges:
        if not l.is_unary or rule.node_roles[a] != READER:
            continue
        if role in (ERASER, CREATOR):
            removed, added = changes.setdefault(phi[a], (set(), set()))
            (removed if role == ERASER else added).add(l)
    for x, (removed, added) in sorted(changes.items()):
        old_key = labels[x]
        new_key = frozenset((old_key - removed) | added)
        if new_key == old_key:
            continue
        for (v, l, w) in sorted(edges, key=lambda e: (e[0], e[1].text, e[2])):
            if w == x and v != x:
                exact = is_concrete(v) and is_concrete(x)
                slot_dec(out_m, v, l, old_key, exact)
                slot_inc(out_m, v, l, new_key, exact)
            if v == x and w != x:
                exact = is_concrete(w) and is_concrete(x)
                slot_dec(in_m, w, l, old_key, exact)
                slot_inc(in_m, w, l, new_key, exact)
        labels[x] = new_key

    # 5. creator binary edges
    for (a, l, b, _) in rule.edges_with(CREATOR):
        if l.is_unary:
            continue
        x, y = phi[a], phi[b]
        if (x, l, y) in edges:
            continue
        edges.add((x, l, y))
        slot_inc(out_m, x, l, labels[y])
        slot_inc(in_m, y, l, labels[x])

    # 6. reconcile slots with the surviving edge support
    out_support = {(v, l, labels[w]) for (v, l, w) in edges}
    in_support = {(w, l, labels[v]) for (v, l, w) in edges}
    for table, support in ((out_m, out_support), (in_m, in_support)):
        for slot in list(table):
            if slot not in support:
                if table[slot].lo > 0:
                    raise ApplyInfeasible(f"slot without support at node {slot[0]}")
                table.pop(slot)
    for (v, l, w) in edges:
        if (v, l, labels[w]) not in out_m:
            out_m[(v, l, labels[w])] = bounded(1, OMEGA)
        if (w, l, labels[v]) not in in_m:
            in_m[(w, l, labels[v])] = bounded(1, OMEGA)

    all_edges = set(edges)
    for x in nodes:
        for l in labels[x]:
            all_edges.add((x, l, x))
    return Shape(graph(nodes, all_edges), node_mult, out_m, in_m)


# --- abstract engine: normalise ------------------------------------------


def normalise(s: Shape) -> Shape:
    """Fold same-signature nodes back together; idempotent."""
    current = s
    while True:
        merged = _normalise_pass(current)
        if len(merged.graph.nodes) == len(current.graph.nodes):
            return merged
        current = merged


def _slot_items(table, v):
    return tuple(sorted(
        (l.text, tuple(sorted(x.text for x in key)), mu)
        for (w, l, key), mu in table.items() if w == v))


def _normalise_pass(s: Shape) -> Shape:
    sig = {}
    for v in s.graph.nodes:
        sig[v] = (tuple(sorted(l.text for l in s.class_key(v))),
                  _slot_items(s.out_mult, v),
                  _slot_items(s.in_mult, v))
    groups = {}
    for v in sorted(s.graph.nodes):
        groups.setdefault(sig[v], []).append(v)

    ordered = sorted(groups.items(), key=lambda kv: kv[0])
    new_id = {}
    for i, (_, members) in enumerate(ordered):
        for v in members:
            new_id[v] = i

    node_mult = {}
    for i, (_, members) in enumerate(ordered):
        total = s.node_mult[members[0]]
        for v in members[1:]:
            total = add(total, s.node_mult[v])
        node_mult[i] = total

    edges = set()
    for (v, l, w) in s.graph.edges:
        edges.add((new_id[v], l, new_id[w]))

    out_m = {}
    in_m = {}
    for i, (_, members) in enumerate(ordered):
        rep = members[0]
        for (v, l, key), mu in s.out_mult.items():
            if v == rep:
                out_m[(i, l, key)] = mu
        for (v, l, key), mu in s.in_mult.items():
            if v == rep:
                in_m[(i, l, key)] = mu
    return Shape(graph(node_mult, edges), node_mult, out_m, in_m)
