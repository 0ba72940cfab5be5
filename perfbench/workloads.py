"""The benchmark's workloads, their pinned answers and the seeded input.

Each workload is one exploration through the public library API.  Its
answer is the tuple of count columns that ``explore`` must reproduce on
every run and every seed; a run whose columns differ counts as failed.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

COUNT_COLUMNS = ("generated", "subsumed", "relevant", "discarded",
                 "transitions_generated", "transitions_relevant", "complete")


@dataclass(frozen=True)
class Workload:
    name: str
    grammar: str        # bundled grammar name
    config: dict        # keyword arguments of ExploreConfig
    pinned: tuple       # expected values of COUNT_COLUMNS, in that order

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "Workload":
        return cls(d["name"], d["grammar"], dict(d["config"]),
                   tuple(d["pinned"]))


# Why each workload was chosen is recorded beside its name in
# BENCHMARK.json at the root of the repository.
WORKLOADS = {w.name: w for w in (
    Workload(
        "fw4-subsume", "firewall-4",
        dict(engine="abstract", strategy="dfs", subsumption=True, mode="full"),
        (267, 132, 135, 105, 1611, 1140, True)),
    Workload(
        "fw6f-strict", "firewall-6F",
        dict(engine="abstract", strategy="bfs", subsumption=False,
             mode="full", max_states=800),
        (802, 0, 802, 0, 2322, 2322, False)),
    Workload(
        "fw6f-concrete", "firewall-6F",
        dict(engine="concrete", strategy="bfs", mode="full", max_depth=8),
        (690, 0, 690, 0, 5892, 5892, True)),
)}


def counts_of(stats) -> tuple:
    """The count columns of an ``ExplorationStats``, in COUNT_COLUMNS order."""
    return tuple(getattr(stats, c) for c in COUNT_COLUMNS)


def permute_start_graph(text: str, seed: int) -> str:
    """Rename and reorder the start graph's node and edge lines.

    ``text`` is grammar text as ``render_grammar`` writes it: a ``graph``
    block of indented ``node`` lines followed by ``edge`` lines.  Nodes
    stay before edges, so the result parses; the parser numbers nodes in
    declaration order, so a new order is a new node numbering.
    """
    rng = random.Random(seed)
    lines = text.split("\n")
    top = lines.index("graph")
    end = top + 1
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    words = [line.split() for line in lines[top + 1:end]]
    nodes = [w for w in words if w[0] == "node"]
    edges = [w for w in words if w[0] == "edge"]
    if len(nodes) + len(edges) != len(words):
        raise ValueError("unexpected line in the start graph block")
    tokens = rng.sample(range(10 ** 6), len(nodes))
    rename = {w[1]: f"v{t}" for w, t in zip(nodes, tokens)}
    rng.shuffle(nodes)
    rng.shuffle(edges)
    body = [" ".join(["  node", rename[w[1]], *w[2:]]) for w in nodes]
    body += [f"  edge {rename[a]} {arrow} {rename[b]}" for _, a, arrow, b in edges]
    return "\n".join(lines[:top + 1] + body + lines[end:])
