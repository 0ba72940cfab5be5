"""State space exploration, concretely and abstractly.

The loop pops states off a frontier, computes rule successors and
stores the fresh ones.  Freshness is either strict isomorphism (every
state kept) or subsumption (a new state is dropped when an existing
state subsumes it, and existing states subsumed by the newcomer are
marked and trimmed from the frontier).  In reachability mode no
transitions are stored and subsumed states are evicted from the store.
"""

from __future__ import annotations

import itertools
import resource
import time
from array import array
from collections import deque
from dataclasses import astuple, dataclass, field, fields

from .graphs import (Graph, canonical, certificate as graph_certificate,
                     find_isomorphism, twins)
from .multiplicity import ONE_PLUS, TWO_PLUS, ZERO_PLUS
from .rules import apply, concrete_apply, concrete_matches, materialise, prematch
from .shapes import (Frame, Shape, ShapeError, abstract, canonical_order, compare_shapes,
                     neighbour_index, normalise, signatures)


class ExploreError(ValueError):
    pass


@dataclass
class ExploreConfig:
    engine: str = "abstract"       # each setting takes a value of ``SETTINGS``
    strategy: str = "bfs"
    subsumption: bool = True
    mode: str = "full"
    max_states: int | None = None
    max_depth: int | None = None
    timeout: float | None = None   # seconds

    def __post_init__(self):
        for name, values in SETTINGS.items():
            if getattr(self, name) not in values:
                raise ExploreError(f"unknown {name} {getattr(self, name)!r}")
        for name in ("max_states", "max_depth", "timeout"):
            value = getattr(self, name)
            if value is not None and not value >= 0:   # NaN too
                raise ExploreError(f"{name} must not be negative or NaN, got {value}")


@dataclass
class ExplorationStats:
    """The run's record; its fields, in order, are the CSV columns."""

    grammar: str
    engine: str
    strategy: str
    subsumption: bool
    mode: str
    maximum: int | None = None
    generated: int = 0
    subsumed: int = 0
    relevant: int = 0
    discarded: int = 0
    transitions_generated: int = 0
    transitions_relevant: int = 0
    time_ms: int = 0
    peak_mem_bytes: int = 0   # how far ru_maxrss grew during the run
    complete: bool = True


@dataclass
class TransitionSystem:
    """Stored states, marked (subsumed) states and labelled transitions.

    A transition is ``(src id, (rule name, match descriptor), tgt id)``
    where the descriptor is the sorted rule-node -> state-node pairing.
    They are kept as integers: ``arcs`` is one flat array of (source id,
    label number, target id), ``labels`` the distinct labels by number,
    and ``transitions`` builds the set of triples when read.
    """

    states: dict = field(default_factory=dict)
    arcs: array = field(default_factory=lambda: array("I"))
    labels: list = field(default_factory=list)
    start: int = 0
    marked: set = field(default_factory=set)

    @property
    def transitions(self) -> set:
        a = self.arcs
        return set(zip(a[::3], map(self.labels.__getitem__, a[1::3]), a[2::3]))

    def relevant_states(self):
        return sorted(i for i in self.states if i not in self.marked)

    def audit(self, engine):
        """No stored pair may coincide (``engine.coincide``): an
        isomorphism search, independent of the store's identities.  It
        drops the colourings it computed: a state keeps one only if it had one."""
        bare = [s for s in self.states.values() if "colours" not in vars(s)]
        groups = {}
        for i, s in self.states.items():
            groups.setdefault((len(s.edges), *sorted(s.colours.values())), []).append(i)
        for ids in groups.values():
            for i, j in itertools.combinations(ids, 2):
                if engine.coincide(self.states[i], self.states[j]):
                    raise ExploreError(f"stored states {i} and {j} coincide")
        for s in bare:
            vars(s).pop("colours", None)


# --- engines --------------------------------------------------------------


class ConcreteEngine:
    """States are plain graphs, identified by their canonical form.  A
    graph subsumes only its isomorphic copies: no subsumption scan.

    Matches whose images lie in the same twin classes (``twins``) differ
    by an automorphism of the state, so their successors are isomorphic:
    the rule is applied once per such orbit, and that one ``Graph`` is
    the target of every match in the orbit, each under its own
    transition label; the rules' searches share one index of the state's
    edges.  The store certifies a record once (``_Store``)."""

    bucket = None

    def __init__(self, grammar):
        self.grammar = grammar

    def start_state(self) -> Graph:
        return self.grammar.start

    @staticmethod
    def identity(g: Graph) -> str:
        return graph_certificate(g)

    def coincide(self, g: Graph, h: Graph) -> bool:
        return find_isomorphism(g, h) is not None

    def successors(self, g: Graph):
        twin, ends = twins(g), {}   # ends: the searches' index, built once
        out = []
        for rule in self.grammar.rules:
            made = {}   # orbit: the twin classes of the images -> successor
            for m in concrete_matches(rule, g, ends):
                label = (rule.name, tuple(m.items()))
                orbit = tuple(twin[x] for _, x in label[1])
                if orbit not in made:
                    made[orbit] = concrete_apply(rule, m, g)
                out.append((label, made[orbit]))
        return out


class AbstractEngine:
    """States are normal shapes, each its own identity; freshness is
    strict shape isomorphism or shape subsumption.  Subsumption buckets
    are keyed by the shape's canonical form, and the bucket's ``Frame``
    reads ``mults`` in the graph's canonical order.  Only the audit calls
    ``coincide``.  ``graphs`` has one entry per shape graph (``_entry``),
    whose memo ``explore`` empties at the run's end.  ``identity`` (only
    on a new record) makes a shape hold its entry and the entry's objects:
    a stored shape is its shared graph plus one tuple, whose entry
    ``bucket`` and ``successors`` reach directly."""

    def __init__(self, grammar):
        self.grammar = grammar
        self.graphs = {}   # shape graph -> its entry
        for rule in grammar.rules:
            if rule.has_nac:
                raise ExploreError(
                    f"rule {rule.name!r} carries a negative condition, "
                    "which the abstract engine does not support")

    def start_state(self) -> Shape:
        return abstract(self.grammar.start)

    def identity(self, s: Shape) -> Shape:
        return _entry(self.graphs, s)

    def bucket(self, s: Shape):
        if (entry := s.entry)[3] is None:
            form, labelling = canonical(s)
            entry[3] = form, canonical_order(s, labelling)
        return entry[3]

    def coincide(self, s: Shape, t: Shape) -> bool:   # subsumed both ways
        return None not in compare_shapes(s, t)

    def successors(self, s: Shape):
        entry, s = s.entry, Shape(s.node_mult, s.labels, s.edges, s.slots)   # dicts, once
        out, signed = [], signatures(s)   # the table that normalise reuses, per state
        neighbours, made = neighbour_index(s.labels, s.edges), {}   # one per state
        if entry[4] is None:
            entry[4] = [prematch(rule, s) for rule in self.grammar.rules]
        for rule, ms in zip(self.grammar.rules, entry[4]):
            for m in ms:
                label = (rule.name, tuple(m.items()))
                try:
                    mats = materialise(rule, m, s, neighbours, made)
                except ShapeError as exc:
                    raise ExploreError(f"rule {rule.name!r}: {exc}") from None
                out += [(label, normalise(apply(rule, b, match), signed)) for b, match in mats]
        # Canonical order: least abstract (fewest unbounded multiplicities)
        # first.  The DFS stack then pops the most abstract successor first,
        # which reaches the subsuming fixpoint states early and prunes harder.
        out.sort(key=lambda p: sum(map(_UNBOUNDED.__contains__, p[1].mults)))
        return out


def _entry(graphs: dict, s: Shape) -> Shape:
    """``s``, holding its graph's entry in ``graphs`` as ``s.entry``, and the
    entry's first three objects: ``[labels, edges, slot keys, bucket key and
    order, match lists]``, made from ``s`` if new, the last two None until computed."""
    if (key := (frozenset(s.labels.items()), s.edges)) not in graphs:
        graphs[key] = [s.labels, s.edges, s.keys, None, None]
    s.entry = graphs[key]
    s.labels, s.edges, s.keys = s.entry[:3]
    return s


_UNBOUNDED = {ZERO_PLUS, ONE_PLUS, TWO_PLUS}   # the values with no upper bound
ENGINES = {"abstract": AbstractEngine, "concrete": ConcreteEngine}

# The run settings, in CSV order, with the values ``ExploreConfig`` accepts.
SETTINGS = {"engine": tuple(ENGINES), "strategy": ("bfs", "dfs"),
            "subsumption": (False, True), "mode": ("full", "reach")}


def make_engine(grammar, name: str):
    if name not in ENGINES:
        raise ExploreError(f"unknown engine {name!r}")
    return ENGINES[name](grammar)


# --- freshness ------------------------------------------------------------


class _Store:
    """State store with the two freshness policies: ``live`` maps the
    exact record and the identity of each unmarked state to its id (a
    normal shape is both), and an identity is computed only on a miss of
    the record.  A duplicate found by its identity leaves its record in
    ``live``, so an equal record later needs no identity;
    only the concrete engine's records differ from their identities, and
    it marks no state.  With subsumption on, ``buckets`` hold the unmarked
    states by their bucket key (``engine.bucket``, memoised by the shape's
    graph), each bucket an antichain: a ``Frame``, made with the bucket,
    and its members, id -> coordinates.  The scan compares coordinates,
    with no isomorphism search.  The store is the one writer of
    ``ts.states`` and ``ts.marked``: it numbers fresh states from 0 and
    marks, in reachability mode drops, the states a newcomer subsumes."""

    def __init__(self, engine, config: ExploreConfig, ts: TransitionSystem):
        self.engine = engine
        self.bucket_of = engine.bucket if config.subsumption else None
        self.drop = config.mode == "reach"
        self.ts = ts
        self.live = {}
        self.buckets = {}
        self.ids = itertools.count()

    def add(self, state):
        """Store ``state`` if fresh; returns ``(fresh, canonical id, ids
        of the stored states it subsumed)``.

        In an antichain only an exact duplicate can subsume the
        newcomer, so the bucket is scanned only on an identity miss.
        """
        i = self.live.get(state)
        if i is None and (key := self.engine.identity(state)) is not state:
            i = self.live.get(key)
            if i is not None:   # remember the duplicate's record
                self.live[state] = i
        if i is not None:
            return False, i, ()
        members, orbit = {}, [None]
        if self.bucket_of:
            form, order = self.bucket_of(state)
            if form not in self.buckets:
                self.buckets[form] = Frame(state, order), {}
            frame, members = self.buckets[form]
            orbit = frame.orbit(state, order)
        below = []
        for i, old in members.items():
            new_below_old, old_below_new = frame.compare(orbit, old)
            if new_below_old:
                return False, i, ()
            if old_below_new:
                below.append(i)
        ts = self.ts
        for j in below:   # a bucket's state is its own identity
            del members[j], self.live[ts.states[j]]
            if self.drop:
                del ts.states[j]
            else:
                ts.marked.add(j)
        i = next(self.ids)
        ts.states[i] = state
        self.live[state] = self.live[key] = i
        members[i] = orbit[0]
        return True, i, below


# --- the loop -------------------------------------------------------------


def explore(grammar, config: ExploreConfig):
    """Explore ``grammar``'s state space; returns (TransitionSystem, stats).

    The store writes ``ts.states`` and ``ts.marked``, the loop writes
    ``ts.arcs``, ``ts.labels`` and ``stats``.  A state is expanded once,
    so a repeated transition can only come from one expansion, whose
    ``arcs`` keep it once.  ``waiting`` maps each state still to expand to
    its depth; the frontier keeps their order."""
    t0, rss0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    engine = make_engine(grammar, config.engine)
    stats = ExplorationStats(grammar.name,
                             **{name: getattr(config, name) for name in SETTINGS})
    ts = TransitionSystem()
    store = _Store(engine, config, ts)
    store.add(engine.start_state())
    stats.generated = 1

    frontier = deque([ts.start])
    waiting = {ts.start: 0}
    numbers = {}   # label -> its number: one per distinct label of a stored transition
    complete = True

    while frontier:
        if config.timeout is not None and time.perf_counter() - t0 > config.timeout:
            complete = False
            break
        if config.max_states is not None and stats.generated >= config.max_states:
            complete = False
            break
        i = frontier.popleft() if config.strategy == "bfs" else frontier.pop()
        d = waiting.pop(i, None)
        if d is None:                  # discarded: a newcomer subsumed it
            continue
        if config.max_depth is not None and d >= config.max_depth:
            continue
        arcs = {}   # this expansion's (source, label number, target), each once
        for (label, succ) in engine.successors(ts.states[i]):
            stats.transitions_generated += 1
            was_fresh, j, below = store.add(succ)
            if config.mode == "full":
                arcs[i, numbers.setdefault(label, len(numbers)), j] = None
            if was_fresh:
                stats.generated += 1
                waiting[j] = d + 1
                frontier.append(j)
            for k in below:
                stats.subsumed += 1
                stats.discarded += waiting.pop(k, None) is not None
        ts.arcs.extend(itertools.chain.from_iterable(arcs))

    for entry in getattr(engine, "graphs", {}).values():   # the memo ends with the run
        entry[3] = entry[4] = None
    if not config.subsumption:
        stats.maximum = stats.generated
    ts.labels = list(numbers)
    stats.relevant = stats.generated - stats.subsumed
    stats.transitions_relevant = sum(1 for src in ts.arcs[::3] if src not in ts.marked)
    stats.complete = complete
    stats.time_ms = int((time.perf_counter() - t0) * 1000)
    stats.peak_mem_bytes = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0) * 1024
    return ts, stats


# --- reporting ------------------------------------------------------------

CSV_HEADER = ",".join(f.name for f in fields(ExplorationStats))
_SWITCHES = {"subsumption": ("off", "on"), "complete": ("false", "true")}   # booleans


def stats_report(stats: ExplorationStats, format: str = "table") -> str:
    """The run's record as (column, cell) pairs, written as CSV or as a table."""
    cells = [(name, _SWITCHES[name][value] if name in _SWITCHES
              else "" if value is None else str(value))
             for name, value in zip(CSV_HEADER.split(","), astuple(stats))]
    if format == "csv":   # a cell is quoted only where it holds a comma, a quote, a CR or a LF
        row = [v if {*v}.isdisjoint(',"\r\n') else '"%s"' % v.replace('"', '""') for _, v in cells]
        return f"{CSV_HEADER}\n{','.join(row)}\n"
    if format == "table":
        width = max(len(k) for k, _ in cells)
        return "\n".join(f"{k.ljust(width)}  {v or '-'}" for k, v in cells) + "\n"
    raise ExploreError(f"unknown report format {format!r}")
