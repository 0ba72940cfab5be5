"""Grammar text format: parsing, validation, rendering, bundled files."""

import pytest

from shapespace import (GrammarError, bundled_grammar_names, load_bundled,
                        parse_grammar, render_grammar)

from conftest import RULE_KINDS, random_grammar_text

GOOD = """\
grammar demo

label L unary
label P unary
label at binary

graph
  node a L
  node b L
  edge a -at-> b   # comment after content

rule put
  use node l L
  new node p P
  new edge p -at-> l
"""


def test_parse_basic():
    g = parse_grammar(GOOD)
    assert g.name == "demo"
    assert set(g.labels) == {"L", "P", "at"}
    assert len(g.start.nodes) == 2
    assert len(g.rules) == 1 and g.rules[0].name == "put"


def test_round_trip():
    g = parse_grammar(GOOD)
    assert parse_grammar(render_grammar(g)) == g


def test_round_trip_all_bundled():
    for name in bundled_grammar_names():
        g = load_bundled(name)
        assert parse_grammar(render_grammar(g), name=name) == g


@pytest.mark.parametrize("seed", range(40))
def test_random_grammar_round_trip(seed):
    text = random_grammar_text(seed)
    print(text)   # shown when the test fails
    g = parse_grammar(text)
    rendered = render_grammar(g)
    assert parse_grammar(rendered) == g
    assert render_grammar(parse_grammar(rendered)) == rendered


def test_random_grammars_cover_every_rule_kind():
    names = {r.name for s in range(40) for r in parse_grammar(random_grammar_text(s)).rules}
    assert {n.rsplit("-", 1)[0] for n in names} == set(RULE_KINDS)


def expect_error(text, line, fragment):
    with pytest.raises(GrammarError) as exc:
        parse_grammar(text)
    assert f"line {line}" in str(exc.value)
    assert fragment in str(exc.value)


# One malformed text per error site of the parser: (text, line, fragment).
_HEAD = "label P unary\nlabel e binary\ngraph\n  node a P\n"
ERRORS = [
    pytest.param("grammar 9x\n", 1, "bad grammar name '9x'", id="bad-grammar-name"),
    pytest.param("label 9 unary\n", 1, "bad label name '9'", id="bad-label-name"),
    pytest.param("graph\nrule r/s\n", 2, "bad rule name 'r/s'", id="bad-rule-name"),
    pytest.param("graph\n  node -a\n", 2, "bad node id '-a'", id="bad-graph-node-id"),
    pytest.param(_HEAD + "  edge a -e-> 2b\n", 5, "bad node id '2b'",
                 id="bad-edge-node-id"),
    pytest.param("grammar\n", 1, "usage: grammar <name>", id="grammar-usage"),
    pytest.param("grammar a b\n", 1, "usage: grammar <name>", id="grammar-words"),
    pytest.param("abstract-only please\n", 1, "usage: abstract-only",
                 id="abstract-only-words"),
    pytest.param("graph extra words\n", 1, "usage: graph", id="graph-words"),
    pytest.param("label P unary\ngrammar a\n", 2, "'grammar' must be the first",
                 id="grammar-late"),
    pytest.param(_HEAD + "rule r\n  use node x P\nabstract-only\n", 7,
                 "'abstract-only' must come before the first rule",
                 id="abstract-only-late"),
    pytest.param("label P\n", 1, "usage: label <name> unary|binary", id="label-usage"),
    pytest.param("label P ternary\n", 1, "usage: label <name> unary|binary",
                 id="label-arity"),
    pytest.param("label P unary\nlabel P binary\n", 2, "label 'P' declared twice",
                 id="label-twice"),
    pytest.param("graph\n  node a\ngraph\n", 3, "more than one graph block",
                 id="graph-twice"),
    pytest.param("graph\nrule\n", 2, "usage: rule <name>", id="rule-usage"),
    pytest.param(_HEAD + "rule r\n  use node x P\nrule r\n", 7,
                 "rule 'r' declared twice", id="rule-twice"),
    pytest.param("node a\n", 1, "'node' line outside a graph block",
                 id="node-outside"),
    pytest.param(_HEAD + "rule r\n  edge x -e-> x\n", 6,
                 "'edge' line outside a graph block", id="edge-in-rule"),
    pytest.param("use node x\n", 1, "'use' line outside a rule block",
                 id="role-outside"),
    pytest.param(_HEAD + "  new node b\n", 5, "'new' line outside a rule block",
                 id="role-in-graph"),
    pytest.param("graph\n  node a\nfrob a\n", 3, "unrecognised directive 'frob'",
                 id="unknown-directive"),
    pytest.param("graph\n  node\n", 2, "usage: node <id> <unaryLabel>*",
                 id="graph-node-usage"),
    pytest.param(_HEAD + "  node a\n", 5, "node 'a' declared twice",
                 id="graph-node-twice"),
    pytest.param(_HEAD + "  edge a -e-> b\n", 5, "edge endpoint 'b' undeclared",
                 id="graph-endpoint"),
    pytest.param(_HEAD + "  node b\n  edge a -P-> b\n", 6,
                 "unary label 'P' between distinct nodes", id="graph-unary-edge"),
    pytest.param("abstract-only\n" + _HEAD + "rule r\n  not node x P\n", 7,
                 "embargo element in an abstract-only grammar", id="embargo"),
    pytest.param(_HEAD + "rule r\n  use\n", 6, "usage: use node|edge ...",
                 id="role-usage"),
    pytest.param(_HEAD + "rule r\n  del path x\n", 6, "usage: del node|edge ...",
                 id="role-kind"),
    pytest.param(_HEAD + "rule r\n  new node\n", 6,
                 "usage: new node <id> <unaryLabel>*", id="rule-node-usage"),
    pytest.param(_HEAD + "rule r\n  use node x\n  del node x\n", 7,
                 "rule node 'x' declared twice", id="rule-node-twice"),
    pytest.param(_HEAD + "rule r\n  use node x\n  new edge x -e-> y\n", 7,
                 "edge endpoint 'y' undeclared in rule", id="rule-endpoint"),
    pytest.param(_HEAD + "rule r\n  use node x\n  use node y\n  del edge x -P-> y\n",
                 8, "unary label 'P' between distinct nodes", id="rule-unary-edge"),
    pytest.param(_HEAD + "\nrule r\n\n", 6, "rule 'r' has an empty body",
                 id="empty-rule"),
    pytest.param(_HEAD + "rule r\n  del node x\n  new node y\n  new edge y -e-> x\n",
                 5, "rule 'r': creator edge touches", id="rule-error"),
    pytest.param("graph\n  node a Q\n", 2, "unknown label 'Q'", id="node-label-unknown"),
    pytest.param(_HEAD + "rule r\n  use node x e\n", 6,
                 "label 'e' is binary, expected unary", id="node-label-binary"),
    pytest.param(_HEAD + "  edge a a\n", 5, "usage: edge <id> -<label>-> <id>",
                 id="graph-edge-usage"),
    pytest.param(_HEAD + "rule r\n  use node x\n  use edge x -e-> x x\n", 7,
                 "usage: edge <id> -<label>-> <id>", id="rule-edge-usage"),
    pytest.param(_HEAD + "  edge a =e=> a\n", 5, "bad edge arrow '=e=>'",
                 id="edge-arrow"),
    pytest.param(_HEAD + "  edge a -f-> a\n", 5, "unknown label 'f'",
                 id="edge-label-unknown"),
]


@pytest.mark.parametrize("text,line,fragment", ERRORS)
def test_error_table(text, line, fragment):
    expect_error(text, line, fragment)


def test_unknown_label():
    expect_error("graph\n  node a X\n", 2, "unknown label")


def test_arity_clash_unary_in_node_position():
    expect_error("label e binary\ngraph\n  node a e\n", 3, "binary")


def test_unary_edge_between_distinct_nodes():
    expect_error("label A unary\ngraph\n  node a\n  node b\n  edge a -A-> b\n",
                 5, "between distinct nodes")


def test_dangling_edge_endpoint():
    expect_error("label e binary\ngraph\n  node a\n  edge a -e-> b\n",
                 4, "undeclared")


def test_empty_rule_body():
    expect_error("graph\n  node a\nrule r\n", 3, "empty body")


def test_duplicate_declarations():
    expect_error("label A unary\nlabel A unary\n", 2, "twice")
    expect_error("graph\n  node a\n  node a\n", 3, "twice")


def test_missing_graph():
    with pytest.raises(GrammarError):
        parse_grammar("label A unary\n")


def test_embargo_rejected_under_abstract_only_flag():
    text = ("abstract-only\nlabel P unary\ngraph\n  node a P\n"
            "rule r\n  use node x P\n  not node y P\n")
    expect_error(text, 7, "abstract-only")
    # without the flag the same grammar parses
    assert parse_grammar(text.replace("abstract-only\n", "")).rules[0].has_nac


def test_abstract_only_after_a_rule_is_rejected():
    # a late flag would leave the earlier rules' embargo elements unchecked
    text = ("label P unary\ngraph\n  node a P\n"
            "rule r\n  use node x P\n  not node y P\nabstract-only\n")
    expect_error(text, 7, "abstract-only")


def test_grammar_name_only_as_first_directive():
    expect_error("grammar a\nlabel P unary\ngrammar c\ngraph\n  node a P\n",
                 3, "grammar")
    expect_error("# a comment\ngrammar a\n\ngrammar a\n", 4, "grammar")
    # comments and blank lines may come before it
    assert parse_grammar("# a comment\n\ngrammar a\ngraph\n  node a\n").name == "a"


def test_bundled_grammars_present_and_valid():
    names = bundled_grammar_names()
    assert {"firewall-2", "firewall-3", "firewall-4", "firewall-6F",
            "linked-list", "counter", "circ-buf-0"} <= set(names)
    for name in names:
        g = load_bundled(name)
        assert g.name == name


def test_firewall_2_shape_of_contents():
    g = load_bundled("firewall-2")
    assert [r.name for r in g.rules] == [
        "new-safe", "new-unsafe", "mv-pckt", "mv-pckt-rev", "fw-in"]
    locations = [v for v in g.start.nodes
                 if any(l.text == "L" for l in g.start.labels[v])]
    assert len(locations) == 2


def test_unknown_bundled_grammar():
    with pytest.raises(GrammarError):
        load_bundled("no-such-grammar")
