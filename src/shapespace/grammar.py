"""Grammar text format: parser, renderer, bundled grammars.

The format is line-oriented UTF-8.  ``#`` starts a comment.  Blocks:

    grammar <name>            optional; if present, the first directive
    abstract-only             optional flag, before any rule: embargo
                              elements are rejected
    label <name> unary|binary
    graph
      node <id> <unaryLabel>*
      edge <id> -<binaryLabel>-> <id>
    rule <name>
      use|new|del|not node <id> <unaryLabel>*
      use|new|del|not edge <id> -<label>-> <id>

Unary labels on a node line become self-loops with the line's role; a
unary label may also appear in edge syntax on a self-loop, which is how
rules flip node labels (e.g. ``del edge x -last-> x``).  All ``not``
lines of a rule together form its single negative condition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .graphs import Graph, Label, graph
from .rules import Rule

_ROLE = {"use": "reader", "new": "creator", "del": "eraser", "not": "embargo"}
_ROLE_BACK = {v: k for k, v in _ROLE.items()}
_EDGE_RE = re.compile(r"^-(.+)->$")
_NAME_RE = re.compile(r"^[A-Za-z_][\w.-]*$")


class GrammarError(ValueError):
    pass


@dataclass
class Grammar:
    name: str
    labels: dict          # text -> Label
    start: Graph
    rules: list = field(default_factory=list)


def _err(line_no: int, message: str):
    raise GrammarError(f"line {line_no}: {message}")


def _name(token: str, line_no: int, what: str) -> str:
    if not _NAME_RE.match(token):
        _err(line_no, f"bad {what} {token!r}")
    return token


class _Parser:
    def __init__(self, text: str, default_name: str):
        self.lines = text.splitlines()
        self.name = default_name
        self.labels = {}
        self.abstract_only = False
        self.graph_nodes = {}      # id text -> (int, label set)
        self.graph_edges = []
        self.rules = []
        self.seen_graph = False
        self.seen_directive = False
        self.block = None          # None | "graph" | ("rule", ...)

    def parse(self) -> Grammar:
        for i, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            self.dispatch(i, line.split())
        self.finish_block(len(self.lines))
        if not self.seen_graph:
            raise GrammarError("grammar has no start graph")
        nodes = {n for n, _ in self.graph_nodes.values()}
        edges = set(self.graph_edges)
        for nid, labs in self.graph_nodes.values():
            for l in labs:
                edges.add((nid, l, nid))
        return Grammar(self.name, dict(self.labels), graph(nodes, edges),
                       list(self.rules))

    def dispatch(self, i, words):
        head = words[0]
        if head == "grammar":
            if len(words) != 2:
                _err(i, "usage: grammar <name>")
            if self.seen_directive:
                _err(i, "'grammar' must be the first directive")
            self.name = _name(words[1], i, "grammar name")
        elif head == "abstract-only":
            if self.rules or isinstance(self.block, tuple):
                _err(i, "'abstract-only' must come before the first rule")
            self.abstract_only = True
        elif head == "label":
            self.finish_block(i)
            if len(words) != 3 or words[2] not in ("unary", "binary"):
                _err(i, "usage: label <name> unary|binary")
            text = _name(words[1], i, "label name")
            if text in self.labels:
                _err(i, f"label {text!r} declared twice")
            self.labels[text] = Label(text, words[2])
        elif head == "graph":
            self.finish_block(i)
            if self.seen_graph:
                _err(i, "more than one graph block")
            self.seen_graph = True
            self.block = "graph"
        elif head == "rule":
            self.finish_block(i)
            if len(words) != 2:
                _err(i, "usage: rule <name>")
            rname = _name(words[1], i, "rule name")
            if any(r.name == rname for r in self.rules):
                _err(i, f"rule {rname!r} declared twice")
            self.block = ("rule", rname, {}, [], i)  # ids, edges, start line
        elif head in ("node", "edge"):
            if self.block != "graph":
                _err(i, f"{head!r} line outside a graph block")
            self.graph_line(i, words)
        elif head in _ROLE:
            if not (isinstance(self.block, tuple) and self.block[0] == "rule"):
                _err(i, f"{head!r} line outside a rule block")
            self.rule_line(i, words)
        else:
            _err(i, f"unrecognised directive {head!r}")
        self.seen_directive = True

    # --- start graph -----------------------------------------------------

    def graph_line(self, i, words):
        if words[0] == "node":
            if len(words) < 2:
                _err(i, "usage: node <id> <unaryLabel>*")
            ident = _name(words[1], i, "node id")
            if ident in self.graph_nodes:
                _err(i, f"node {ident!r} declared twice")
            labs = [self.unary_label(t, i) for t in words[2:]]
            self.graph_nodes[ident] = (len(self.graph_nodes), frozenset(labs))
        else:
            a, l, b = self.edge_words(i, words[1:])
            for ident in (a, b):
                if ident not in self.graph_nodes:
                    _err(i, f"edge endpoint {ident!r} undeclared")
            if l.is_unary and a != b:
                _err(i, f"unary label {l.text!r} between distinct nodes")
            self.graph_edges.append((self.graph_nodes[a][0], l,
                                     self.graph_nodes[b][0]))

    # --- rules -----------------------------------------------------------

    def rule_line(self, i, words):
        _, rname, ids, edges, start_line = self.block
        role = _ROLE[words[0]]
        if role == "embargo" and self.abstract_only:
            _err(i, "embargo element in an abstract-only grammar")
        if len(words) < 2 or words[1] not in ("node", "edge"):
            _err(i, f"usage: {words[0]} node|edge ...")
        if words[1] == "node":
            if len(words) < 3:
                _err(i, f"usage: {words[0]} node <id> <unaryLabel>*")
            ident = _name(words[2], i, "node id")
            if ident in ids:
                _err(i, f"rule node {ident!r} declared twice")
            ids[ident] = (len(ids), role)
            for t in words[3:]:
                l = self.unary_label(t, i)
                edges.append((ids[ident][0], l, ids[ident][0], role))
        else:
            a, l, b = self.edge_words(i, words[2:])
            for ident in (a, b):
                if ident not in ids:
                    _err(i, f"edge endpoint {ident!r} undeclared in rule")
            if l.is_unary and a != b:
                _err(i, f"unary label {l.text!r} between distinct nodes")
            edges.append((ids[a][0], l, ids[b][0], role))

    def finish_block(self, i):
        if isinstance(self.block, tuple) and self.block[0] == "rule":
            _, rname, ids, edges, start_line = self.block
            if not ids and not edges:
                _err(start_line, f"rule {rname!r} has an empty body")
            node_roles = {n: role for (n, role) in ids.values()}
            try:
                self.rules.append(Rule(rname, node_roles, tuple(edges)))
            except ValueError as exc:
                _err(start_line, f"rule {rname!r}: {exc}")
        self.block = None

    # --- shared helpers --------------------------------------------------

    def unary_label(self, text, i) -> Label:
        l = self.labels.get(text)
        if l is None:
            _err(i, f"unknown label {text!r}")
        if not l.is_unary:
            _err(i, f"label {text!r} is binary, expected unary")
        return l

    def edge_words(self, i, words):
        if len(words) != 3:
            _err(i, "usage: edge <id> -<label>-> <id>")
        a, arrow, b = words
        m = _EDGE_RE.match(arrow)
        if not m:
            _err(i, f"bad edge arrow {arrow!r}")
        l = self.labels.get(m.group(1))
        if l is None:
            _err(i, f"unknown label {m.group(1)!r}")
        return _name(a, i, "node id"), l, _name(b, i, "node id")


def parse_grammar(text: str, name: str = "grammar") -> Grammar:
    """Parse the line-oriented grammar format; errors carry line numbers."""
    return _Parser(text, name).parse()


# --- rendering ------------------------------------------------------------


def render_grammar(g: Grammar) -> str:
    """Canonical text for ``g``; reparsing yields an equal Grammar."""
    out = [f"grammar {g.name}", ""]
    for text in sorted(g.labels):
        out.append(f"label {text} {g.labels[text].arity}")
    out.append("")
    out.append("graph")
    names = {v: f"n{v}" for v in sorted(g.start.nodes)}
    for v in sorted(g.start.nodes):
        labs = " ".join(sorted(l.text for l in g.start.labels[v]))
        out.append(f"  node {names[v]}" + (f" {labs}" if labs else ""))
    for (a, l, b) in sorted(g.start.edges,
                            key=lambda e: (e[0], e[1].text, e[2])):
        out.append(f"  edge {names[a]} -{l.text}-> {names[b]}")
    for r in g.rules:
        out.append("")
        out.append(f"rule {r.name}")
        rnames = {v: f"x{v}" for v in sorted(r.node_roles)}
        unary_loops = {}
        for (a, l, b, role) in r.edges:
            if l.is_unary and role == r.node_roles[a]:
                unary_loops.setdefault(a, []).append(l.text)
        for v in sorted(r.node_roles):
            labs = " ".join(sorted(unary_loops.get(v, ())))
            out.append(f"  {_ROLE_BACK[r.node_roles[v]]} node {rnames[v]}"
                       + (f" {labs}" if labs else ""))
        for (a, l, b, role) in sorted(r.edges,
                                      key=lambda e: (e[0], e[1].text, e[2], e[3])):
            if l.is_unary and role == r.node_roles[a]:
                continue  # printed on the node line
            out.append(f"  {_ROLE_BACK[role]} edge {rnames[a]} -{l.text}-> {rnames[b]}")
    return "\n".join(out) + "\n"


# --- bundled grammars -----------------------------------------------------


def bundled_grammar_names():
    root = resources.files("shapespace") / "grammars"
    return sorted(p.name[:-3] for p in root.iterdir() if p.name.endswith(".gg"))


def load_bundled(name: str) -> Grammar:
    path = resources.files("shapespace") / "grammars" / f"{name}.gg"
    if not path.is_file():
        raise GrammarError(f"no bundled grammar {name!r}")
    return parse_grammar(path.read_text(encoding="utf-8"), name=name)
