"""Graphs, morphisms, certificates and isomorphism search."""

import itertools
import random

import pytest

from shapespace import (Graph, GraphError, Morphism, binary, certificate,
                        find_isomorphism, graph, is_morphism, isomorphisms,
                        unary)
from shapespace.graphs import brute_force_isomorphism, morphisms

from conftest import BINARY, UNARY, permuted, random_graph

A, B = UNARY
e, f = BINARY


def test_unary_labels_are_self_loops_only():
    with pytest.raises(GraphError):
        graph([0, 1], [(0, A, 1)])
    g = graph([0], [(0, A, 0)])
    assert g.node_labels(0) == frozenset({A})


def test_edges_need_declared_endpoints():
    with pytest.raises(GraphError):
        graph([0], [(0, e, 1)])


def test_label_arity_validation():
    with pytest.raises(GraphError):
        unary("")
    with pytest.raises(GraphError):
        from shapespace.graphs import Label
        Label("x", "ternary")


def test_out_in_edges():
    g = graph([0, 1, 2], [(0, e, 1), (0, e, 2), (1, e, 2), (0, A, 0)])
    assert len(g.out_edges(0, e, {1, 2})) == 2
    assert len(g.out_edges(0, e, {1})) == 1
    assert len(g.in_edges(2, e, {0, 1})) == 2
    with pytest.raises(GraphError):
        g.out_edges(0, A, {1})


def test_morphism_checks():
    g = graph([0, 1], [(0, e, 1), (0, A, 0)])
    h = graph([5, 6], [(5, e, 6), (5, A, 5)])
    m = Morphism({0: 5, 1: 6})
    assert is_morphism(m, g, h)
    assert not is_morphism(Morphism({0: 6, 1: 5}), g, h)
    assert m.inverse()(5) == 0


def brute_force_morphisms(pattern, host, injective, base, avoid):
    """Oracle: every total node map, filtered by the search's conditions."""
    ps = sorted(pattern.nodes)
    found = []
    for images in itertools.product(sorted(host.nodes), repeat=len(ps)):
        m = dict(zip(ps, images))
        if (is_morphism(Morphism(m), pattern, host)
                and (not injective or len(set(images)) == len(images))
                and all(m[v] == x for v, x in base.items())
                and not any(m[v] in avoid for v in ps if v not in base)):
            found.append(tuple(sorted(m.items())))
    return sorted(found)


@pytest.mark.parametrize("injective", [True, False])
def test_morphisms_agree_with_brute_force(injective):
    rng = random.Random(20261017)
    nonempty = 0
    for _ in range(300):
        pattern = random_graph(rng, max_nodes=4, edge_prob=0.2)
        host = random_graph(rng, max_nodes=5, edge_prob=0.5)
        pinned = rng.sample(sorted(pattern.nodes),
                            rng.randint(0, min(len(pattern.nodes), len(host.nodes))))
        base = dict(zip(pinned, rng.sample(sorted(host.nodes), len(pinned))))
        avoid = set(rng.sample(sorted(host.nodes), rng.randint(0, len(host.nodes))))
        fast = sorted(tuple(sorted(m.items()))
                      for m in morphisms(pattern, host, injective, base, avoid))
        assert fast == brute_force_morphisms(pattern, host, injective, base, avoid)
        nonempty += bool(fast)
    assert nonempty >= 30


# --- certificates ---------------------------------------------------------


def test_certificate_invariant_under_renaming(rng):
    for _ in range(1000):
        g = random_graph(rng, max_nodes=10)
        for _ in range(5):
            assert certificate(permuted(rng, g)) == certificate(g)


def test_certificate_separates_simple_cases():
    g = graph([0, 1], [(0, e, 1)])
    h = graph([0, 1], [(1, e, 0)])
    assert certificate(g) == certificate(h)  # isomorphic
    k = graph([0, 1], [(0, e, 1), (1, e, 0)])
    assert certificate(g) != certificate(k)
    assert certificate(graph([0], [(0, A, 0)])) != certificate(graph([0], [(0, B, 0)]))


def test_certificate_stable_across_runs():
    # Frozen value: certificates must not depend on process-level state
    # such as hash randomisation.
    g = graph([0, 1], [(0, A, 0), (0, e, 1)])
    assert certificate(g) == "7ab25b31efe1ac21"


# --- isomorphism ----------------------------------------------------------


def test_isomorphism_agrees_with_brute_force(rng):
    for _ in range(300):
        g = random_graph(rng, max_nodes=6)
        h = permuted(rng, g)
        assert brute_force_isomorphism(g, h) is not None
        assert find_isomorphism(g, h) is not None
        g2 = random_graph(rng, max_nodes=6)
        fast = find_isomorphism(g, g2) is not None
        slow = brute_force_isomorphism(g, g2) is not None
        assert fast == slow


def test_isomorphisms_are_isomorphisms(rng):
    for _ in range(100):
        g = random_graph(rng, max_nodes=5)
        h = permuted(rng, g)
        count = 0
        for m in isomorphisms(g, h):
            count += 1
            mor = Morphism(m)
            assert is_morphism(mor, g, h)
            assert is_morphism(mor.inverse(), h, g)
        assert count >= 1


def test_isomorphic_graphs_share_certificates(rng):
    for _ in range(200):
        g = random_graph(rng, max_nodes=6)
        h = random_graph(rng, max_nodes=6)
        if find_isomorphism(g, h) is not None:
            assert certificate(g) == certificate(h)
