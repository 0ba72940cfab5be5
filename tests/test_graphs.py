"""Graphs, morphisms, certificates and isomorphism search."""

import copy
import itertools
import pickle
import random
from collections import Counter

import pytest

from shapespace import (ExploreConfig, Graph, GraphError, Label, abstract, binary,
                        bundled_grammar_names, canonical, certificate, explore,
                        find_isomorphism, graph, isomorphisms, load_bundled,
                        unary)
from shapespace import graphs
from shapespace.graphs import morphisms

from conftest import (BINARY, UNARY, brute_force_isomorphism, cycles, inverse,
                      is_morphism, permuted, random_graph, reference_morphisms,
                      reference_refine, relabel, star, union)

A, B = UNARY
e, f = BINARY


def test_unary_labels_are_self_loops_only():
    with pytest.raises(GraphError):
        graph([0, 1], [(0, A, 1)])
    g = graph([0], [(0, A, 0)])
    assert g.labels[0] == frozenset({A}) and g.edges == frozenset()


def test_edges_need_declared_endpoints():
    with pytest.raises(GraphError):
        graph([0], [(0, e, 1)])


def test_labels_and_edges_keep_their_arity():
    with pytest.raises(GraphError, match="binary label"):
        Graph({0: frozenset({e})}, frozenset())
    with pytest.raises(GraphError, match="unary label A"):
        Graph({0: frozenset(), 1: frozenset()}, frozenset({(0, A, 1)}))
    with pytest.raises(GraphError, match="unary label A"):
        Graph({0: frozenset()}, frozenset({(0, A, 0)}))
    with pytest.raises(GraphError, match="undeclared node 1"):
        graph([0], [(1, A, 1)])
    g = graph([0, 1], [(0, A, 0), (0, e, 0), (0, f, 1)])
    assert g == Graph({0: frozenset({A}), 1: frozenset()},
                      frozenset({(0, e, 0), (0, f, 1)}))


def test_label_arity_validation():
    with pytest.raises(GraphError):
        unary("")
    with pytest.raises(GraphError):
        Label("x", "ternary")


def test_labels_are_interned():
    assert Label("a", "unary") is unary("a")
    assert binary("a") is not unary("a") and binary("a").is_unary is False
    assert unary("a").is_unary and unary("a").text == "a"
    assert copy.copy(unary("a")) is unary("a")
    assert copy.deepcopy(unary("a")) is unary("a")
    assert pickle.loads(pickle.dumps(binary("a"))) is binary("a")
    with pytest.raises(AttributeError):
        unary("a").text = "b"
    with pytest.raises(AttributeError):
        del unary("a").arity
    assert unary("a").text == "a"


def test_pickled_graph_loads_equal():
    g = graph(range(3), [(0, e, 1), (1, f, 2), (2, A, 2)])
    g.colours   # cached views travel with the graph
    h = pickle.loads(pickle.dumps(g))
    assert h == g and hash(h) == hash(g)
    assert h.labels == g.labels and certificate(h) == certificate(g)


def test_morphism_checks():
    g = graph([0, 1], [(0, e, 1), (0, A, 0)])
    h = graph([5, 6], [(5, e, 6), (5, A, 5)])
    m = {0: 5, 1: 6}
    assert is_morphism(m, g, h)
    assert not is_morphism({0: 6, 1: 5}, g, h)
    assert inverse(m) == {5: 0, 6: 1}


def brute_force_morphisms(pattern, host, injective, base, avoid):
    """Oracle: every total node map, filtered by the search's conditions."""
    ps = sorted(pattern.nodes)
    found = []
    for images in itertools.product(sorted(host.nodes), repeat=len(ps)):
        m = dict(zip(ps, images))
        if (is_morphism(m, pattern, host)
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
        others = [x for x in sorted(host.nodes) if x not in avoid]
        candidates = {v: [base[v]] if v in base else others for v in pattern.nodes}
        fast = sorted(tuple(sorted(m.items()))
                      for m in morphisms(pattern, host, injective, candidates))
        assert fast == brute_force_morphisms(pattern, host, injective, base, avoid)
        nonempty += bool(fast)
    assert nonempty >= 30


# Patterns the anchored search must draw right: node 1 joins no earlier
# node but node 2 joins both; two components; a binary self-loop; two
# labels (and both directions) between one pair of nodes.
ODD_PATTERNS = (graph([0, 1, 2], [(0, e, 2), (2, f, 1)]),
                graph([0, 1, 2, 3], [(0, e, 1), (3, f, 2)]),
                graph([0, 1], [(0, e, 0), (0, f, 1), (1, A, 1)]),
                graph([0, 1], [(0, e, 1), (0, f, 1), (1, e, 0)]))


@pytest.mark.parametrize("injective", [True, False])
def test_morphisms_match_the_search_that_tries_every_host_node(injective):
    # The same maps in the same order as the unanchored search, on graph
    # hosts with scattered ids and on their shapes, with default
    # candidates and with explicit ones in a random order.
    rng = random.Random(20261019)
    found = Counter()
    for _ in range(250):
        g = permuted(rng, random_graph(rng, max_nodes=7, edge_prob=0.35))
        for host in (g, abstract(g)):
            patterns = [random_graph(rng, max_nodes=4, edge_prob=0.25), *ODD_PATTERNS]
            for pattern in patterns:
                picks = {v: rng.sample(sorted(host.labels), rng.randint(0, len(host.labels)))
                         for v in pattern.labels}
                for candidates in (None, picks):
                    maps = list(morphisms(pattern, host, injective, candidates))
                    assert maps == list(reference_morphisms(pattern, host, injective,
                                                            candidates))
                    found[type(host).__name__, candidates is None] += len(maps)
    assert min(found.values()) >= 100 and len(found) == 4


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
    # such as hash randomisation.  Node count, sorted label sets, binary
    # labels, and the edge codes of the least leaf.
    g = graph([0, 1], [(0, A, 0), (0, e, 1)])
    assert certificate(g) == "(2, [(), ('A',)], ['e'], [2])"


@pytest.mark.parametrize("certificate_first", [True, False])
def test_colours_refined_once_per_graph(monkeypatch, certificate_first):
    # a path: the stable colouring is discrete, so the certificate needs
    # no individualisation and every refinement is the stable one
    calls = []
    refine = graphs._refine
    monkeypatch.setattr(graphs, "_refine", lambda *a: calls.append(1) or refine(*a))
    g = graph(range(3), [(0, e, 1), (1, e, 2), (2, A, 2)])
    fresh = Graph(dict(g.labels), g.edges)
    if certificate_first:
        cert = certificate(g)
        colours = g.colours
    else:
        colours = g.colours
        cert = certificate(g)
    assert len(calls) == 1
    assert colours == fresh.colours and cert == certificate(fresh)


def test_refine_matches_the_oracle_that_signs_every_node():
    # Random graphs of up to 12 nodes, a third of them 1-12 nodes in
    # disjoint directed cycles (one colour class), each from a random
    # dense colouring in a random node order: the cell-wise refinement
    # gives the oracle's dict, colours and key order alike.
    rng = random.Random(20)
    for i in range(3000):
        if i % 3:
            g = random_graph(rng, max_nodes=12, edge_prob=rng.choice([0.1, 0.3]))
        else:
            n, lengths = rng.randint(1, 12), []
            while sum(lengths) < n:
                lengths.append(rng.randint(1, n - sum(lengths)))
            g = permuted(rng, cycles(*lengths, both_ways=rng.random() < 0.3))
        nodes = list(g.labels)
        rng.shuffle(nodes)
        k = rng.randint(1, max(len(nodes), 1))
        drawn = {v: rng.randrange(k) for v in nodes}
        dense = {c: k for k, c in enumerate(sorted(set(drawn.values())))}
        colour = {v: dense[drawn[v]] for v in nodes}
        near = graphs._near(g)[1]
        got, want = graphs._refine(dict(colour), near), reference_refine(dict(colour), near)
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("engine", ["concrete", "abstract"])
def test_canonical_forms_match_the_refinement_oracle(monkeypatch, engine):
    # On the stored states of the bundled grammars, the form and the
    # labelling (with its key order) are those of the oracle refinement.
    stored = []
    for name in bundled_grammar_names():
        ts, _ = explore(load_bundled(name), ExploreConfig(
            engine=engine, max_depth=4, max_states=200))
        stored += ts.states.values()

    def forms():
        return [(form, list(labelling.items())) for form, labelling in
                (canonical(Graph(dict(s.labels), frozenset(s.edges))) for s in stored)]

    new = forms()
    monkeypatch.setattr(graphs, "_refine", reference_refine)
    assert new == forms()


def random_cycles(rng):
    """Disjoint cycles over six nodes, one way or both, shuffled: one
    colour class, so refinement alone cannot tell them apart."""
    lengths, left = [], 6
    while left:
        lengths.append(rng.randint(min(2, left), left))
        left -= lengths[-1]
    return permuted(rng, cycles(*lengths, both_ways=rng.random() < 0.5))


def test_certificate_equal_exactly_for_isomorphic_graphs(rng):
    equal = 0
    for i in range(600):
        if i % 3:
            g = random_graph(rng, max_nodes=6, edge_prob=rng.choice([0.1, 0.3]))
            h = permuted(rng, g) if rng.random() < 0.3 else \
                random_graph(rng, max_nodes=6, edge_prob=rng.choice([0.1, 0.3]))
        else:
            g, h = random_cycles(rng), random_cycles(rng)
        same = certificate(g) == certificate(h)
        assert same == (brute_force_isomorphism(g, h) is not None)
        equal += same
    assert equal >= 150


def test_certificate_splits_what_refinement_cannot(rng):
    # The cycle pairs have one colour class each: the stable colouring
    # alone cannot tell them apart.
    uniform = [
        (cycles(6), cycles(3, 3)),
        (cycles(6, both_ways=True), cycles(3, 3, both_ways=True)),
        (cycles(8), cycles(4, 4)),
        (cycles(4, 4), cycles(2, 6)),
    ]
    for g, h in uniform:
        assert set(g.colours.values()) == set(h.colours.values()) == {0}
    pairs = uniform + [
        (star(A, A, B), star(A, B, B)),                  # twins
        (union(star(A, A), star(A, A)), union(star(A, A, A), star(A))),
        (union(cycles(3), cycles(3)), cycles(3, 3, 3)),  # disjoint copies
    ]
    for g, h in pairs:
        assert certificate(g) != certificate(h)
        for k in (g, h):
            for _ in range(5):
                assert certificate(permuted(rng, k)) == certificate(k)


def twin_rich(rng):
    """Locations (``A``, some linked by ``f``) with 0-3 packets each (an
    ``e``-edge to the location, some labelled ``B``), at most six nodes:
    packets at one location are twins, packets at symmetric locations
    share a cell in several twin classes."""
    k = rng.randint(1, 3)
    nodes = list(range(k))
    edges = [(a, A, a) for a in nodes]
    edges += [(a, f, b) for a in nodes for b in nodes if a != b and rng.random() < 0.1]
    for a in range(k):
        for _ in range(rng.randint(0, 3)):
            if len(nodes) < 6:
                nodes.append(len(nodes))
                edges.append((nodes[-1], e, a))
                if rng.random() < 0.3:
                    edges.append((nodes[-1], B, nodes[-1]))
    return permuted(rng, graph(nodes, edges))


def looped_star(*leaf_labels):
    """``star``, with an ``f`` self-loop on every leaf."""
    g = star(*leaf_labels)
    return Graph(g.labels, g.edges | {(i, f, i) for i in range(1, len(leaf_labels) + 1)})


def random_star(rng):
    leaves = [rng.choice(UNARY) for _ in range(rng.randint(1, 5))]
    return permuted(rng, (looped_star if rng.random() < 0.3 else star)(*leaves))


def twin_class_sizes(g):
    return sorted(Counter(graphs.twins(g).values()).values())


def test_swapping_twins_is_an_automorphism(rng):
    # Twins have the same label set and the same labelled neighbours, so
    # exchanging two of them maps the graph onto itself.
    samples = [make(rng) for make in (twin_rich, random_star, random_graph)
               for _ in range(100)]
    samples += [star(*[A] * 4, B, B), looped_star(A, A, A, B),
                union(star(A, A), looped_star(A, A))]
    swaps = 0
    for g in samples:
        classes = {}
        for v, c in graphs.twins(g).items():
            classes.setdefault(c, []).append(v)
        for vs in classes.values():
            for v, w in itertools.combinations(vs, 2):
                assert relabel(g, {**{x: x for x in g.nodes}, v: w, w: v}) == g
                swaps += 1
    assert swaps >= 300


def test_twin_class_sizes_do_not_depend_on_numbering(rng):
    for make in (twin_rich, random_star, random_graph):
        for _ in range(100):
            g = make(rng)
            assert twin_class_sizes(permuted(rng, g)) == twin_class_sizes(g)
    # Leaves of one label set are twins, with or without a binary
    # self-loop each; a looped leaf and a plain one are not.
    assert twin_class_sizes(star(*[A] * 4, B, B)) == [1, 2, 4]
    assert twin_class_sizes(looped_star(A, A, A)) == [1, 3]
    g = star(A, A, A)
    assert twin_class_sizes(Graph(g.labels, g.edges | {(1, f, 1)})) == [1, 1, 2]


def shuffled_labels(rng, g):
    """``g`` with its nodes' label sets dealt out again at random: the
    same sorted label sets, often another graph."""
    nodes = sorted(g.nodes)
    sets = [g.labels[v] for v in nodes]
    rng.shuffle(sets)
    return Graph(dict(zip(nodes, sets)), g.edges)


def test_certificate_exact_on_twin_rich_graphs(rng, monkeypatch):
    calls = []
    refine = graphs._refine
    monkeypatch.setattr(graphs, "_refine", lambda *a: calls.append(1) or refine(*a))
    equal = twins = branched = 0
    for i in range(900):
        make = twin_rich if i % 3 else random_star
        g = make(rng)
        h = rng.choice([permuted, shuffled_labels, lambda rng, g: make(rng)])(rng, g)
        calls.clear()
        same = certificate(g) == certificate(h)
        assert same == (brute_force_isomorphism(g, h) is not None)
        equal += same
        twins += len(set(g.colours.values())) < len(g.nodes)
        branched += len(calls) > 2   # beyond the two stable colourings
    assert equal >= 300 and twins >= 450 and branched >= 25


def test_canonical_refines_once_when_every_cell_is_twins(monkeypatch):
    # Packets of one kind at one location are twins: on these concrete
    # firewall-6F states every cell of the stable colouring is one twin
    # class, as it is on twin stars, with or without a binary self-loop
    # on the leaves.  The stable colouring is then the only refinement.
    ts, _ = explore(load_bundled("firewall-6F"),
                    ExploreConfig(engine="concrete", max_depth=3))
    fresh = [Graph(dict(g.labels), g.edges) for g in ts.states.values()]
    fresh += [star(A, A), star(*[A] * 40, *[B] * 3), looped_star(A, A, A),
              looped_star(*[B] * 7, A)]
    calls = []
    refine = graphs._refine
    monkeypatch.setattr(graphs, "_refine", lambda *a: calls.append(1) or refine(*a))
    for g in fresh:
        calls.clear()
        canonical(g)
        assert len(calls) == 1
    assert sum(len(set(g.colours.values())) < len(g.nodes) for g in fresh) >= 10


def test_certificate_of_large_twin_star():
    # 1,500 twins: the twin step is a loop, not a recursion level per twin
    g = star(*[A] * 1500)
    h = permuted(random.Random(5), g)
    assert certificate(g) == certificate(h)
    assert certificate(g) != certificate(star(*[A] * 1499, B))


def test_canonical_labelling_maps_isomorphic_graphs_to_one_graph(rng):
    # Relabelled through its canonical labelling, every graph in an
    # isomorphism class becomes the same graph, the labelling being a
    # bijection onto positions 0..n-1.
    classes = [random_graph(rng, max_nodes=7) for _ in range(300)]
    classes += [random_cycles(rng) for _ in range(50)]
    classes += [cycles(6), cycles(3, 3), cycles(6, both_ways=True),
                cycles(3, 3, both_ways=True), cycles(8), cycles(4, 4),
                cycles(2, 6), star(A, A, B), star(A, B, B),
                union(star(A, A), star(A, A)), union(star(A, A, A), star(A)),
                union(cycles(3), cycles(3)), cycles(3, 3, 3)]
    symmetric = 0
    for g in classes:
        form, lab = canonical(g)
        assert form == certificate(g)
        assert sorted(lab) == sorted(g.nodes)
        assert sorted(lab.values()) == list(range(len(g.nodes)))
        for _ in range(3):
            h = permuted(rng, g)
            form_h, lab_h = canonical(h)
            assert form_h == form
            assert relabel(h, lab_h) == relabel(g, lab)
        symmetric += sum(1 for _ in isomorphisms(g, g)) > 1
    assert symmetric >= 50


def test_certificate_of_disjoint_copies_is_exact(rng):
    # g + g is isomorphic to g + h exactly when g and h are isomorphic
    for _ in range(100):
        g = random_graph(rng, max_nodes=4)
        h = permuted(rng, g) if rng.random() < 0.5 else random_graph(rng, max_nodes=4)
        iso = brute_force_isomorphism(g, h) is not None
        gg, gh = union(g, g), union(permuted(rng, g), h)
        assert (certificate(gg) == certificate(gh)) == iso


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


def test_find_isomorphism_of_large_twin_star():
    # 1,200 leaves: the search keeps its placed nodes on a stack, not
    # one recursion level each
    g = star(*[A] * 1200)
    h = permuted(random.Random(5), g)
    phi = find_isomorphism(g, h)
    assert phi is not None and is_morphism(phi, g, h) and is_morphism(inverse(phi), h, g)
    assert find_isomorphism(g, star(*[A] * 1199, B)) is None


def test_isomorphisms_keep_label_sets():
    # one node each, no edges: only the label sets tell them apart
    one, two = graph([0], [(0, A, 0)]), graph([0], [(0, A, 0), (0, B, 0)])
    assert find_isomorphism(one, two) is None and find_isomorphism(two, one) is None
    assert list(morphisms(one, two, True)) == [{0: 0}]


def test_isomorphisms_are_isomorphisms(rng):
    for _ in range(100):
        g = random_graph(rng, max_nodes=5)
        h = permuted(rng, g)
        count = 0
        for m in isomorphisms(g, h):
            count += 1
            assert is_morphism(m, g, h)
            assert is_morphism(inverse(m), h, g)
        assert count >= 1


def test_isomorphic_graphs_share_certificates(rng):
    for _ in range(200):
        g = random_graph(rng, max_nodes=6)
        h = random_graph(rng, max_nodes=6)
        if find_isomorphism(g, h) is not None:
            assert certificate(g) == certificate(h)
