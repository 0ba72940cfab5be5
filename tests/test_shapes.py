"""Neighbourhood partitions, abstraction, shape subsumption."""

import itertools

import pytest

from shapespace import (BOUNDED, ONE, ONE_PLUS, TWO_PLUS, ZERO, ExploreConfig,
                        Graph, Shape, ShapeError, abstract, binary,
                        bundled_grammar_names, canonical, certificate,
                        compare_shapes, covered, explore, graph, isomorphisms,
                        load_bundled, normalise, parse_grammar, subsumes, unary)
from shapespace.shapes import Frame, _concrete, canonical_order, signatures

from conftest import (MARK, UNARY, concretises, cycles, narrowed, neighbourhood_partition,
                      normalise_agrees, permuted, random_graph, random_grammar_text,
                      shape_subsumes, slot_order, star, strictly_isomorphic, validate)

L, I, O, P, C, last = (unary(t) for t in ("L", "I", "O", "P", "C", "last"))
at, n = binary("at"), binary("n")


def two_location_world():
    """One inner and one outer location with packets at each.

    The locations carry distinct marks, so only co-located packets are
    neighbourhood-equivalent.
    """
    nodes = range(7)
    edges = [(0, L, 0), (0, O, 0), (1, L, 1), (1, I, 1)]
    for p in (2, 3, 4):            # packets at the outer location
        edges += [(p, P, p), (p, at, 0)]
    for p in (5, 6):               # packets at the inner location
        edges += [(p, P, p), (p, at, 1)]
    return graph(nodes, edges)


def chain(k):
    """k cells linked by n-edges; the final one carries the last mark."""
    nodes = range(k)
    edges = [(v, C, v) for v in nodes] + [(k - 1, last, k - 1)]
    edges += [(v, n, v + 1) for v in range(k - 1)]
    return graph(nodes, edges)


# --- partitions -----------------------------------------------------------


def test_neighbourhood_partition_splits_by_adjacent_blocks():
    g = two_location_world()
    blocks = {frozenset(b) for b in neighbourhood_partition(g)}
    # packets split by which location they sit at; locations stay apart
    assert frozenset({2, 3, 4}) in blocks
    assert frozenset({5, 6}) in blocks
    assert frozenset({0}) in blocks and frozenset({1}) in blocks


def test_neighbourhood_partition_uses_one_refinement_step():
    # On a chain, all middle cells coincide: a fixpoint refinement would
    # separate every position and the abstraction would grow unboundedly.
    g = chain(6)
    blocks = {frozenset(b) for b in neighbourhood_partition(g)}
    assert frozenset({1, 2, 3}) in blocks       # middle cells collapse
    assert frozenset({0}) in blocks             # head: no incoming n
    assert frozenset({4}) in blocks             # precedes the marked cell
    assert frozenset({5}) in blocks             # the marked cell


def test_partition_invariant_under_renaming(rng):
    for _ in range(100):
        g = random_graph(rng)
        h = permuted(rng, g)
        sizes = sorted(len(b) for b in neighbourhood_partition(g))
        assert sizes == sorted(len(b) for b in neighbourhood_partition(h))


# --- abstraction ----------------------------------------------------------


def test_abstract_block_multiplicities():
    s = abstract(two_location_world())
    sizes = sorted(s.node_mult.values(), key=lambda m: (m.lo, m.hi))
    assert sizes == [ONE, ONE, TWO_PLUS, TWO_PLUS]
    for v in s.nodes:
        assert s.node_mult[v].is_concrete == (s.node_mult[v] == ONE)


def test_abstract_edge_multiplicities():
    s = abstract(two_location_world())
    outer_packets = next(v for v in s.nodes
                         if s.labels[v] == frozenset({P})
                         and s.node_mult[v] == TWO_PLUS
                         and any(e[0] == v and e[1] == at and
                                 s.labels[e[2]] == frozenset({L, O})
                                 for e in s.edges))
    outer_loc = next(v for v in s.nodes
                     if s.labels[v] == frozenset({L, O}))
    # each packet sits at exactly one place; the location hosts three
    assert s.slots[outer_packets, "out", at, s.labels[outer_loc]] == ONE
    assert s.slots[outer_loc, "in", at, s.labels[outer_packets]] == TWO_PLUS


def test_abstract_validates_and_is_stable(rng):
    for _ in range(200):
        g = random_graph(rng)
        s = abstract(g)
        validate(s)
        assert strictly_isomorphic(s, abstract(permuted(rng, g)))


def test_validate_rejects_broken_shapes():
    labels, edges = {0: frozenset(), 1: frozenset()}, {(0, at, 1)}
    slots = {(0, "out", at, frozenset()): ONE, (1, "in", at, frozenset()): ONE}
    validate(Shape({0: ONE, 1: ONE}, labels, edges, slots))
    for broken, reason in (
            (Shape({0: ONE, 1: ONE}, labels, edges, {}), "lacks a slot"),
            (Shape({0: ONE}, labels, edges, slots), "differ in nodes"),
            (Shape({0: ONE, 1: ONE}, {0: frozenset()}, edges, slots), "differ in nodes"),
            (Shape({0: ZERO, 1: ONE}, labels, edges, slots), "zero-population"),
            (Shape({0: ONE, 1: ONE}, labels, edges | {(0, at, 2)}, slots),
             "not a binary edge between nodes"),
            (Shape({0: ONE, 1: ONE}, labels, edges, {**slots, (2, "out", at, frozenset()): ONE}),
             "lacks a support edge"),   # a slot on an unknown node
            (Shape({0: ONE, 1: ONE}, labels, edges, {**slots, (0, "out", at, frozenset()): ZERO}),
             "zero multiplicity"),
            (Shape({0: ONE, 1: ONE}, labels, edges, {**slots, (0, "in", at, frozenset()): ONE}),
             "lacks a support edge")):
        with pytest.raises(ShapeError, match=reason):
            validate(broken)
        assert "colours" not in vars(broken)   # validate caches no colouring


# --- subsumption ----------------------------------------------------------


def pshape(mu):
    return Shape({0: mu}, {0: frozenset({P})}, frozenset(), {})


def test_multiplicity_subsumption_lifts_to_shapes():
    assert shape_subsumes(pshape(ONE_PLUS), pshape(TWO_PLUS))[0]
    assert not shape_subsumes(pshape(TWO_PLUS), pshape(ONE_PLUS))[0]
    assert not shape_subsumes(pshape(TWO_PLUS), pshape(ONE))[0]


def test_subsumption_requires_structure_match():
    s = pshape(ONE)
    t = Shape({0: ONE}, {0: frozenset({C})}, frozenset(), {})
    assert not shape_subsumes(t, s)[0]


def test_subsumption_searches_all_isomorphisms():
    # Two interchangeable nodes whose multiplicities force the witness
    # to be the swap, not the identity.
    def two(mu_a, mu_b):
        return Shape({0: mu_a, 1: mu_b}, dict.fromkeys([0, 1], frozenset({P})),
                     frozenset(), {})
    s = two(ONE, TWO_PLUS)
    t = two(TWO_PLUS, ONE)
    ok, wit = shape_subsumes(t, s)
    assert ok
    assert wit == {0: 1, 1: 0}


def test_strict_isomorphism_is_mutual_subsumption():
    s = pshape(TWO_PLUS)
    t = pshape(TWO_PLUS)
    assert strictly_isomorphic(s, t)
    assert not strictly_isomorphic(s, pshape(ONE_PLUS))
    below, above = compare_shapes(s, pshape(ONE_PLUS))
    assert below is not None and above is None


def relaxed(rng, s):
    """A shape subsuming ``s``: each multiplicity widened at random, drawn
    in node order, then in slot order, so that a seed replays the draws
    whatever order ``s`` stores its slots in."""
    def widen(mu):
        return rng.choice([b for b in BOUNDED if subsumes(b, mu) and b != ZERO])
    return Shape({v: widen(s.node_mult[v]) for v in sorted(s.node_mult)}, s.labels, s.edges,
                 {k: widen(s.slots[k]) for k in sorted(s.slots, key=slot_order)})


def test_shape_subsumption_order_laws(rng):
    for _ in range(500):
        g = random_graph(rng, max_nodes=6)
        s = abstract(g)
        assert shape_subsumes(s, s)[0]                   # reflexive
        t = relaxed(rng, s)
        u = relaxed(rng, t)
        assert shape_subsumes(t, s)[0]
        assert shape_subsumes(u, t)[0]
        assert shape_subsumes(u, s)[0]                   # transitive


def edgewise_below(s, t, phi):
    """Oracle: the multiplicity check edge by edge, both slots of each
    edge looked up through the label sets at both ends."""
    if not all(subsumes(t.node_mult[phi[v]], s.node_mult[v]) for v in s.nodes):
        return False
    for (v, l, w) in s.edges:
        pairs = [((v, "out", l, s.labels[w]), (phi[v], "out", l, t.labels[phi[w]])),
                 ((w, "in", l, s.labels[v]), (phi[w], "in", l, t.labels[phi[v]]))]
        for ks, kt in pairs:
            if not subsumes(t.slots.get(kt, ZERO), s.slots.get(ks, ZERO)):
                return False
    return True


def test_compare_shapes_agrees_with_edgewise_check(rng):
    hits = [0, 0]
    for _ in range(300):
        g = random_graph(rng, max_nodes=6)
        s = abstract(g)
        base = abstract(permuted(rng, g))
        for t in (relaxed(rng, s), relaxed(rng, base), base):
            for a, b in ((s, t), (t, s)):
                isos = [dict(phi) for phi in isomorphisms(a, b)]
                expect = any(edgewise_below(a, b, phi) for phi in isos)
                got = compare_shapes(a, b)[0] is not None
                assert got == expect
                hits[got] += 1
    assert min(hits) > 100


# --- canonical coordinates -------------------------------------------------


def coordinate_compare(s, t, first):
    """``(s below t, t below s)`` as the store decides it, in the frame
    that ``first`` (a shape over an isomorphic graph) opened, each shape
    in stored form and read in its canonical order; and whether that
    frame has an automorphism besides the identity."""
    s, t, first = (Shape.stored(x.labels, x.edges, tuple(x.slots),
                                (*map(x.node_mult.get, x.labels), *x.slots.values()))
                   for x in (s, t, first))
    frame = Frame(first, canonical_order(first, canonical(first)[1]))
    old = frame.orbit(t, canonical_order(t, canonical(t)[1]))[0]
    return (frame.compare(frame.orbit(s, canonical_order(s, canonical(s)[1])), old),
            bool(frame.perms))


def with_mult(s, v, mu):
    return Shape({**s.node_mult, v: mu}, s.labels, s.edges, s.slots)


def symmetric_pairs():
    """Pairs related only through a non-identity automorphism."""
    def two(mu_a, mu_b):
        return Shape({0: mu_a, 1: mu_b}, dict.fromkeys([0, 1], frozenset({P})),
                     frozenset(), {})
    yield two(ONE, TWO_PLUS), two(TWO_PLUS, ONE)
    A, B = UNARY
    for g, v, w in ((cycles(6), 0, 3), (cycles(3, 3), 0, 4),
                    (star(A, A, B), 1, 2), (star(A, A, B, B), 3, 4)):
        c = _concrete(g)
        yield with_mult(c, v, TWO_PLUS), with_mult(c, w, TWO_PLUS)
        yield with_mult(c, v, ONE_PLUS), with_mult(with_mult(c, w, ONE_PLUS), v, ONE)


def test_coordinate_subsumption_agrees_with_compare_shapes(rng):
    pairs = list(symmetric_pairs())
    for s, t in pairs:   # the identity is no witness
        wit = compare_shapes(s, t)[0]
        assert wit is not None and wit != {v: v for v in s.node_mult}
    for _ in range(400):
        g = random_graph(rng, max_nodes=5, edge_prob=rng.choice([0.1, 0.2]))
        s = relaxed(rng, _concrete(g))
        t = relaxed(rng, _concrete(permuted(rng, g)))
        pairs += [(s, t), (s, relaxed(rng, s)), (relaxed(rng, t), s)]
        pairs.append((_concrete(g), _concrete(permuted(rng, g))))
    hits, symmetric = [0, 0], 0
    for s, t in pairs:
        assert certificate(s) == certificate(t)
        first = _concrete(permuted(rng, Graph(t.labels, frozenset(t.edges))))
        (below, above), has_automorphism = coordinate_compare(s, t, first)
        assert (below, above) == tuple(w is not None for w in compare_shapes(s, t))
        hits[below] += 1
        symmetric += has_automorphism
    assert min(hits) >= 400
    assert symmetric >= 40


# --- certificates and covering -------------------------------------------


def test_certificate_ignores_multiplicities():
    assert certificate(pshape(ONE)) == certificate(pshape(TWO_PLUS))


def test_mutually_subsumable_shapes_share_certificates(rng):
    for _ in range(100):
        s = abstract(random_graph(rng))
        t = relaxed(rng, s)
        assert certificate(s) == certificate(t)


# --- normal shapes --------------------------------------------------------


def test_normal_shapes_are_canonical(rng):
    # The store keys shapes by themselves: renumbering the concrete
    # graph must not change its normal abstraction.
    for _ in range(300):
        g = random_graph(rng, max_nodes=8)
        s = abstract(g)
        assert normalise(s) == s
        assert abstract(permuted(rng, g)) == abstract(g)
        assert hash(abstract(permuted(rng, g))) == hash(s)


ORACLE_GRAMMARS = {**{name: load_bundled(name) for name in bundled_grammar_names()},
                   "mark": MARK,
                   **{f"random-{seed}": parse_grammar(random_grammar_text(seed))
                      for seed in (1, 13, 26, 29, 34)}}


@pytest.mark.parametrize("name", ORACLE_GRAMMARS)
def test_normalise_equals_the_text_sorting_reference(name):
    # ``normalise`` reuses the expanded state's signatures and stored rows,
    # and is the one place that orders slots; ``materialise`` reads a
    # state's slots as stored.  Every successor must be the reference's
    # normal form, node numbers included, with its slots in slot order.
    assert normalise_agrees(ORACLE_GRAMMARS[name], max_states=150)


@pytest.mark.parametrize("subsumption", [True, False])
@pytest.mark.parametrize("name", bundled_grammar_names())
def test_stored_states_are_fixpoints_with_their_slot_order(name, subsumption):
    # The pass keeps a stored row as it is, so a stored state's rows must
    # already be in the order the pass writes, with or without its table.
    ts, _ = explore(load_bundled(name), ExploreConfig(subsumption=subsumption, max_states=150))
    for s in ts.states.values():
        for t in (normalise(s), normalise(s, signatures(s))):
            assert (t.node_mult, t.labels, t.edges, list(t.slots.items())) == (
                s.node_mult, s.labels, s.edges, list(s.slots.items()))


def test_normal_shapes_are_equal_exactly_when_strictly_isomorphic(rng):
    shapes = []
    for _ in range(120):
        g = random_graph(rng, max_nodes=5, edge_prob=0.2)
        s = abstract(g)
        shapes += [s, abstract(permuted(rng, g)),
                   normalise(relaxed(rng, s))]
    equal = 0
    for s in shapes:
        for t in shapes:
            if certificate(s) == certificate(t):
                assert strictly_isomorphic(s, t) == (s == t)
                equal += s == t
    assert equal > 2 * len(shapes)


def test_equal_shapes_hash_equal_and_shared_graphs_hash_apart(rng):
    # The store looks shapes up by hash; many stored shapes share one
    # graph, so the hash must tell their multiplicities apart too.
    by_graph = {}
    for _ in range(150):
        g = random_graph(rng, max_nodes=5, edge_prob=0.2)
        s = abstract(g)
        for t in (s, abstract(permuted(rng, g)),
                  relaxed(rng, s), relaxed(rng, s), normalise(relaxed(rng, s))):
            by_graph.setdefault(Graph(t.labels, t.edges), []).append(t)
    equal = unequal = apart = 0
    for group in by_graph.values():
        for s, t in itertools.combinations(group, 2):
            if s == t:
                assert hash(s) == hash(t)
                equal += 1
            else:
                unequal += 1
                apart += hash(s) != hash(t)
    assert equal >= 100 and unequal >= 100
    assert apart >= 0.9 * unequal


def test_covered_by_own_abstraction(rng):
    for _ in range(100):
        g = random_graph(rng)
        assert covered(g, [abstract(g)])
        assert not covered(g, [])


def test_covered_by_wider_shape(rng):
    for _ in range(50):
        g = random_graph(rng)
        assert covered(g, [relaxed(rng, abstract(g))])


# --- concretisation -------------------------------------------------------


def test_graph_lies_in_gamma_of_its_abstraction_and_not_of_a_narrowed_copy(rng):
    narrowings = 0
    for _ in range(500):
        g = random_graph(rng)
        s = abstract(g)
        pi = next(concretises(g, s), None)
        assert pi is not None
        if s.node_mult:
            assert next(concretises(g, narrowed(rng, g, s, pi)), None) is None
            narrowings += 1
    assert narrowings >= 400
