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
import math
import resource
import time
from collections import deque
from dataclasses import dataclass, field

from .graphs import (Graph, canonical, certificate as graph_certificate,
                     find_isomorphism, twins)
from .rules import (ApplyInfeasible, apply, concrete_apply, concrete_matches,
                    materialise, prematch)
from .shapes import (Frame, Shape, ShapeError, abstract, compare_shapes,
                     neighbour_index, normalise)


class ExploreError(ValueError):
    pass


@dataclass
class ExploreConfig:
    engine: str = "abstract"       # "abstract" | "concrete"
    strategy: str = "bfs"          # "bfs" | "dfs"
    subsumption: bool = True
    mode: str = "full"             # "full" | "reach"
    max_states: int | None = None
    max_depth: int | None = None
    timeout: float | None = None   # seconds

    def __post_init__(self):
        if self.engine not in ("abstract", "concrete"):
            raise ExploreError(f"unknown engine {self.engine!r}")
        if self.strategy not in ("bfs", "dfs"):
            raise ExploreError(f"unknown strategy {self.strategy!r}")
        if self.mode not in ("full", "reach"):
            raise ExploreError(f"unknown mode {self.mode!r}")
        for name in ("max_states", "max_depth", "timeout"):
            value = getattr(self, name)
            if value is not None and not value >= 0:   # NaN too
                raise ExploreError(f"{name} must not be negative or NaN, got {value}")


@dataclass
class ExplorationStats:
    grammar: str = ""
    engine: str = "abstract"
    strategy: str = "bfs"
    subsumption: bool = True
    mode: str = "full"
    maximum: int | None = None
    generated: int = 0
    subsumed: int = 0
    discarded: int = 0
    transitions_generated: int = 0
    transitions_relevant: int = 0
    time_ms: int = 0
    peak_mem_bytes: int = 0
    complete: bool = True

    @property
    def relevant(self) -> int:
        return self.generated - self.subsumed


@dataclass
class TransitionSystem:
    """Stored states, marked (subsumed) states and labelled transitions.

    A transition is ``(src id, (rule name, match descriptor), tgt id)``
    where the descriptor is the sorted rule-node -> state-node pairing.
    """

    states: dict = field(default_factory=dict)
    transitions: set = field(default_factory=set)
    start: int = 0
    marked: set = field(default_factory=set)

    def relevant_states(self):
        return sorted(i for i in self.states if i not in self.marked)

    def audit(self, engine):
        """No stored pair may be strictly isomorphic: an isomorphism
        search, independent of the store's identities."""
        groups = {}
        for i, s in self.states.items():
            groups.setdefault((len(s.edges), *sorted(s.colours.values())), []).append(i)
        for ids in groups.values():
            for i, j in itertools.combinations(ids, 2):
                below, above = engine.compare(self.states[i], self.states[j])
                if below and above:
                    raise ExploreError(f"stored states {i} and {j} coincide")


# --- engines --------------------------------------------------------------


class ConcreteEngine:
    """States are plain graphs, identified by their canonical form.  A
    graph subsumes only its isomorphic copies: no subsumption scan.

    Matches whose images lie in the same twin classes (``twins``) differ
    by an automorphism of the state, so their successors are isomorphic:
    the rule is applied once per such orbit, and that one ``Graph``,
    which keeps its certificate once computed, is the target of every
    match in the orbit, each under its own transition label."""

    bucket = None

    def __init__(self, grammar):
        self.grammar = grammar

    def start_state(self) -> Graph:
        return self.grammar.start

    def identity(self, g: Graph) -> str:
        # Kept on the record, beside its colours: a graph is certified once.
        if "certificate" not in vars(g):
            vars(g)["certificate"] = graph_certificate(g)
        return vars(g)["certificate"]

    def compare(self, g: Graph, h: Graph):
        iso = find_isomorphism(g, h) is not None
        return iso, iso

    def successors(self, g: Graph):
        twin = twins(g)
        out = []
        for rule in self.grammar.rules:
            made = {}   # orbit: the twin classes of the images -> successor
            for m in concrete_matches(rule, g):
                label = tuple(m.items())
                orbit = tuple(twin[x] for _, x in label)
                if orbit not in made:
                    made[orbit] = concrete_apply(rule, m, g)
                out.append(((rule.name, label), made[orbit]))
        return out


class AbstractEngine:
    """States are normal shapes, each its own identity; freshness is
    strict shape isomorphism or shape subsumption.  Subsumption buckets
    are keyed by the shape's canonical form; its labelling writes a
    shape in the bucket's ``Frame``.  Only the audit calls ``compare``."""

    def __init__(self, grammar):
        self.grammar = grammar
        for rule in grammar.rules:
            if rule.has_nac:
                raise ExploreError(
                    f"rule {rule.name!r} carries a negative condition, "
                    "which the abstract engine does not support")

    def start_state(self) -> Shape:
        return abstract(self.grammar.start)

    @staticmethod
    def identity(s: Shape) -> Shape:
        return s

    def bucket(self, s: Shape):
        return canonical(s)

    def compare(self, s: Shape, t: Shape):
        return tuple(w is not None for w in compare_shapes(s, t))

    def successors(self, s: Shape):
        out = []
        neighbours = neighbour_index(s.labels, s.edges)
        for rule in self.grammar.rules:
            for m in prematch(rule, s):
                label = (rule.name, tuple(m.items()))
                try:
                    mats = materialise(rule, m, s, neighbours)
                except ShapeError as exc:
                    raise ExploreError(f"rule {rule.name!r}: {exc}") from None
                for branch, match in mats:
                    try:
                        t = apply(rule, branch, match)
                    except ApplyInfeasible:
                        continue
                    out.append((label, normalise(t)))
        # Canonical order: least abstract first.  The DFS stack then
        # pops the most abstract successor first, which reaches the
        # subsuming fixpoint states early and prunes harder.
        out.sort(key=lambda p: _abstractness(p[1]))
        return out


def _abstractness(s: Shape) -> int:
    """How many multiplicity entries of the shape are unbounded."""
    entries = [*s.node_mult.values(), *s.slots.values()]
    return sum(1 for m in entries if math.isinf(m.hi))


def make_engine(grammar, name: str):
    if name == "concrete":
        return ConcreteEngine(grammar)
    if name == "abstract":
        return AbstractEngine(grammar)
    raise ExploreError(f"unknown engine {name!r}")


# --- freshness ------------------------------------------------------------


class _Store:
    """State store with the two freshness policies: ``live`` maps the
    exact record and the identity of each unmarked state to its id (a
    normal shape is both), and an identity is computed only on a miss of
    the record; with subsumption on, ``buckets`` hold the unmarked
    states, each bucket an antichain: a ``Frame``, made with the bucket,
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
        if i is not None:
            return False, i, ()
        members, orbit = {}, [None]
        if self.bucket_of:
            form, labelling = self.bucket_of(state)
            if form not in self.buckets:
                self.buckets[form] = Frame(state, labelling), {}
            frame, members = self.buckets[form]
            orbit = frame.orbit(state, labelling)
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
    ``ts.transitions``.  ``waiting`` maps each state still to expand to
    its depth; the frontier keeps their order."""
    t0 = time.perf_counter()
    engine = make_engine(grammar, config.engine)
    stats = ExplorationStats(grammar=grammar.name, engine=config.engine,
                             strategy=config.strategy,
                             subsumption=config.subsumption, mode=config.mode)
    ts = TransitionSystem()
    store = _Store(engine, config, ts)
    store.add(engine.start_state())
    stats.generated = 1

    frontier = deque([ts.start])
    waiting = {ts.start: 0}
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
        for (label, succ) in engine.successors(ts.states[i]):
            stats.transitions_generated += 1
            was_fresh, j, below = store.add(succ)
            if config.mode == "full":
                ts.transitions.add((i, label, j))
            if was_fresh:
                stats.generated += 1
                waiting[j] = d + 1
                frontier.append(j)
            for k in below:
                stats.subsumed += 1
                stats.discarded += waiting.pop(k, None) is not None

    if not config.subsumption:
        stats.maximum = stats.generated
    stats.transitions_relevant = sum(
        1 for (src, _, _) in ts.transitions if src not in ts.marked)
    stats.complete = complete
    stats.time_ms = int((time.perf_counter() - t0) * 1000)
    stats.peak_mem_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return ts, stats


# --- reporting ------------------------------------------------------------

CSV_HEADER = ("grammar,engine,strategy,subsumption,mode,maximum,generated,"
              "subsumed,relevant,discarded,transitions_generated,"
              "transitions_relevant,time_ms,peak_mem_bytes,complete")


# Boolean columns, written off/on and false/true.
_SWITCHES = {"subsumption": ("off", "on"), "complete": ("false", "true")}


def stats_row(stats: ExplorationStats) -> str:
    cells = []
    for name in CSV_HEADER.split(","):
        value = getattr(stats, name)
        cells.append(_SWITCHES[name][value] if name in _SWITCHES
                     else "" if value is None else str(value))
    return ",".join(cells)


def stats_report(stats: ExplorationStats, format: str = "table") -> str:
    if format == "csv":
        return CSV_HEADER + "\n" + stats_row(stats) + "\n"
    if format == "table":
        pairs = list(zip(CSV_HEADER.split(","), stats_row(stats).split(",")))
        width = max(len(k) for k, _ in pairs)
        return "\n".join(f"{k.ljust(width)}  {v or '-'}" for k, v in pairs) + "\n"
    raise ExploreError(f"unknown report format {format!r}")
