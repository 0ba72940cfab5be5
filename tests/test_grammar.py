"""Grammar text format: parsing, validation, rendering, bundled files."""

import pytest

from shapespace import (GrammarError, bundled_grammar_names, load_bundled,
                        parse_grammar, render_grammar)

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


def expect_error(text, line, fragment):
    with pytest.raises(GrammarError) as exc:
        parse_grammar(text)
    assert f"line {line}" in str(exc.value)
    assert fragment in str(exc.value)


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
