"""Grammar text format: parser, renderer, bundled grammars.

The format is line-oriented UTF-8.  ``#`` starts a comment.  Blocks:

    grammar <name>            optional; if present, the first directive
    abstract-only             optional flag with no words, before any
                              rule: embargo elements are rejected
    label <name> unary|binary
    graph                     takes no words
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
_WORD = {None: ""} | {v: f"{k} " for k, v in _ROLE.items()}  # role -> line prefix
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


class _Block:
    """The open graph or rule block: node ids and role-tagged edges, with
    a node's unary labels as self-loops; ``rule`` is None in the graph."""
    def __init__(self, rule: str | None, line: int):
        self.rule = rule
        self.line = line
        self.ids = {}      # id text -> (number, role)
        self.edges = []    # (src, label, tgt, role)


class _Parser:
    def __init__(self, default_name: str):
        self.name = default_name
        self.labels = {}
        self.abstract_only = False
        self.start = None
        self.rules = []
        self.seen_directive = False
        self.block = None          # the open _Block, if any

    def parse(self, text: str) -> Grammar:
        for i, raw in enumerate(text.splitlines(), start=1):
            words = raw.split("#", 1)[0].split()
            if words:
                self.dispatch(i, words)
        self.finish_block()
        if self.start is None:
            raise GrammarError("grammar has no start graph")
        return Grammar(self.name, dict(self.labels), self.start, list(self.rules))

    def dispatch(self, i, words):
        head = words[0]
        if head == "grammar":
            if len(words) != 2:
                _err(i, "usage: grammar <name>")
            if self.seen_directive:
                _err(i, "'grammar' must be the first directive")
            self.name = _name(words[1], i, "grammar name")
        elif head == "abstract-only":
            if len(words) != 1:
                _err(i, "usage: abstract-only")
            if self.rules or (self.block and self.block.rule):
                _err(i, "'abstract-only' must come before the first rule")
            self.abstract_only = True
        elif head == "label":
            self.finish_block()
            if len(words) != 3 or words[2] not in ("unary", "binary"):
                _err(i, "usage: label <name> unary|binary")
            text = _name(words[1], i, "label name")
            if text in self.labels:
                _err(i, f"label {text!r} declared twice")
            self.labels[text] = Label(text, words[2])
        elif head == "graph":
            self.finish_block()
            if len(words) != 1:
                _err(i, "usage: graph")
            if self.start is not None:
                _err(i, "more than one graph block")
            self.block = _Block(None, i)
        elif head == "rule":
            self.finish_block()
            if len(words) != 2:
                _err(i, "usage: rule <name>")
            rname = _name(words[1], i, "rule name")
            if any(r.name == rname for r in self.rules):
                _err(i, f"rule {rname!r} declared twice")
            self.block = _Block(rname, i)
        elif head in ("node", "edge") or head in _ROLE:
            role = _ROLE.get(head)
            if self.block is None or (self.block.rule is None) != (role is None):
                _err(i, f"{head!r} line outside a {'rule' if role else 'graph'} block")
            if role == "embargo" and self.abstract_only:
                _err(i, "embargo element in an abstract-only grammar")
            if role and (len(words) < 2 or words[1] not in ("node", "edge")):
                _err(i, f"usage: {head} node|edge ...")
            self.element(i, words[1:] if role else words, role)
        else:
            _err(i, f"unrecognised directive {head!r}")
        self.seen_directive = True

    def element(self, i, words, role):
        """Read a ``node`` or ``edge`` line, after its role word, into the
        open block; ``role`` is None in the graph block.  A node's unary
        labels become self-loops with the line's role."""
        ids, edges = self.block.ids, self.block.edges
        if words[0] == "node":
            if len(words) < 2:
                _err(i, f"usage: {_WORD[role]}node <id> <unaryLabel>*")
            ident = _name(words[1], i, "node id")
            if ident in ids:
                _err(i, f"{'rule ' if role else ''}node {ident!r} declared twice")
            v = len(ids)
            ids[ident] = (v, role)
            for text in words[2:]:
                l = self.labels.get(text)
                if l is None:
                    _err(i, f"unknown label {text!r}")
                if not l.is_unary:
                    _err(i, f"label {text!r} is binary, expected unary")
                edges.append((v, l, v, role))
            return
        if len(words) != 4:
            _err(i, "usage: edge <id> -<label>-> <id>")
        a, arrow, b = words[1:]
        m = _EDGE_RE.match(arrow)
        if not m:
            _err(i, f"bad edge arrow {arrow!r}")
        l = self.labels.get(m.group(1))
        if l is None:
            _err(i, f"unknown label {m.group(1)!r}")
        for ident in (_name(a, i, "node id"), _name(b, i, "node id")):
            if ident not in ids:
                _err(i, f"edge endpoint {ident!r} undeclared{' in rule' if role else ''}")
        if l.is_unary and a != b:
            _err(i, f"unary label {l.text!r} between distinct nodes")
        edges.append((ids[a][0], l, ids[b][0], role))

    def finish_block(self):
        """Close the open block: the graph block becomes the start graph
        and a rule block a Rule; both read the self-loops."""
        b, self.block = self.block, None
        if b is not None and b.rule is None:
            self.start = graph([v for v, _ in b.ids.values()],
                               [(v, l, w) for (v, l, w, _) in b.edges])
        elif b is not None:
            if not b.ids and not b.edges:
                _err(b.line, f"rule {b.rule!r} has an empty body")
            try:
                self.rules.append(Rule(b.rule, dict(b.ids.values()), tuple(b.edges)))
            except ValueError as exc:
                _err(b.line, f"rule {b.rule!r}: {exc}")


def parse_grammar(text: str, name: str = "grammar") -> Grammar:
    """Parse the line-oriented grammar format; errors carry line numbers."""
    return _Parser(name).parse(text)


# --- rendering ------------------------------------------------------------


def render_grammar(g: Grammar) -> str:
    """Canonical text for ``g``; reparsing yields an equal Grammar."""
    out = [f"grammar {g.name}", ""]
    for text in sorted(g.labels):
        out.append(f"label {text} {g.labels[text].arity}")
    out.append("")
    out.append("graph")
    loops = [(v, l, v, None) for v, labs in g.start.labels.items() for l in labs]
    out += _block_lines("n", dict.fromkeys(g.start.nodes),
                        loops + [(v, l, w, None) for (v, l, w) in g.start.edges])
    for r in g.rules:
        out.append("")
        out.append(f"rule {r.name}")
        out += _block_lines("x", r.node_roles, r.edges)
    return "\n".join(out) + "\n"


def _block_lines(prefix, roles, edges):
    """The node and edge lines of a block.  ``roles`` maps each node to
    its role (None in the graph) and ``edges`` are (src, label, tgt,
    role); a unary self-loop with its node's role goes on the node line."""
    nodes = {v: f"  {_WORD[roles[v]]}node {prefix}{v}" for v in sorted(roles)}
    lines = []
    for (a, l, b, role) in sorted(edges, key=lambda e: (e[0], e[1].text, e[2], e[3])):
        if l.is_unary and role == roles[a]:
            nodes[a] += f" {l.text}"
        else:
            lines.append(f"  {_WORD[role]}edge {prefix}{a} -{l.text}-> {prefix}{b}")
    return list(nodes.values()) + lines


# --- bundled grammars -----------------------------------------------------


def bundled_grammar_names():
    root = resources.files("shapespace") / "grammars"
    return sorted(p.name[:-3] for p in root.iterdir() if p.name.endswith(".gg"))


def load_bundled(name: str) -> Grammar:
    path = resources.files("shapespace") / "grammars" / f"{name}.gg"
    if not path.is_file():
        raise GrammarError(f"no bundled grammar {name!r}")
    return parse_grammar(path.read_text(encoding="utf-8"), name=name)
