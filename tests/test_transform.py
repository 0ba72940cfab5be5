"""Rules and the two rewrite pipelines."""

import itertools

import pytest

from shapespace import (ONE, ONE_PLUS, TWO_PLUS, ZERO_ONE, ZERO_PLUS,
                        ApplyInfeasible, ExploreConfig, Rule, RuleError, Shape,
                        ShapeError, abstract, apply, approx_card, binary,
                        bundled_grammar_names, concrete_apply, concrete_matches,
                        explore, graph,
                        load_bundled, materialise, neighbour_index, normalise,
                        prematch, unary)
from shapespace import rules

from conftest import (full_reconcile, random_graph, strictly_isomorphic, validate,
                      within_capacity)

L, O, I, P, Q, S, C, K, last = (unary(t) for t in
                                ("L", "O", "I", "P", "Q", "S", "C", "K", "last"))
at, conn, n, link = binary("at"), binary("conn"), binary("n"), binary("link")

READER, ERASER, CREATOR, EMBARGO = "reader", "eraser", "creator", "embargo"


def concrete_shape(g):
    """The exact shape of a concrete graph: every node kept apart."""
    node_mult = {v: ONE for v in g.nodes}
    slots = {}
    for v in g.nodes:
        for (a, l, b) in g.edges:
            if a == v:
                key = (v, "out", l, g.labels[b])
                slots[key] = approx_card(len(
                    [e for e in g.edges
                     if e[0] == v and e[1] == l and g.labels[e[2]] == g.labels[b]]))
            if b == v:
                key = (v, "in", l, g.labels[a])
                slots[key] = approx_card(len(
                    [e for e in g.edges
                     if e[2] == v and e[1] == l and g.labels[e[0]] == g.labels[a]]))
    s = Shape(node_mult, dict(g.labels), g.edges, slots)
    validate(s)
    return s


def new_packet_rule():
    return Rule("new-packet", {0: READER, 1: CREATOR},
                ((0, L, 0, READER), (1, P, 1, CREATOR), (1, at, 0, CREATOR)))


def move_rule():
    return Rule("move", {0: READER, 1: READER, 2: READER},
                ((0, L, 0, READER), (1, L, 1, READER), (2, P, 2, READER),
                 (0, conn, 1, READER), (2, at, 0, ERASER), (2, at, 1, CREATOR)))


def append_rule():
    return Rule("append", {0: READER, 1: CREATOR},
                ((0, C, 0, READER), (0, last, 0, ERASER),
                 (1, C, 1, CREATOR), (1, last, 1, CREATOR),
                 (0, n, 1, CREATOR)))


def chain(k):
    nodes = range(k)
    edges = [(v, C, v) for v in nodes] + [(k - 1, last, k - 1)]
    edges += [(v, n, v + 1) for v in range(k - 1)]
    return graph(nodes, edges)


# --- rule validation ------------------------------------------------------


def test_rule_role_validation():
    with pytest.raises(RuleError):   # dangling endpoint
        Rule("bad", {0: READER}, ((0, at, 1, READER),))
    with pytest.raises(RuleError):   # unary label between distinct nodes
        Rule("bad", {0: READER, 1: READER}, ((0, P, 1, READER),))
    with pytest.raises(RuleError, match="rule without a name"):
        Rule("", {0: READER}, ())
    with pytest.raises(RuleError, match="bad node role 'keep'"):
        Rule("bad", {0: "keep"}, ())
    with pytest.raises(RuleError, match="bad edge role 'keep'"):
        Rule("bad", {0: READER}, ((0, P, 0, "keep"),))


# Edge role -> the node roles its two ends may have.
ALLOWED_ENDS = {READER: {READER}, ERASER: {READER, ERASER},
                CREATOR: {READER, CREATOR}, EMBARGO: {READER, EMBARGO}}


@pytest.mark.parametrize("edge,src,tgt", list(itertools.product(ALLOWED_ENDS, repeat=3)))
def test_rule_accepts_exactly_the_allowed_edge_ends(edge, src, tgt):
    build = lambda: Rule("r", {0: src, 1: tgt}, ((0, at, 1, edge),))
    if {src, tgt} <= ALLOWED_ENDS[edge]:
        build()
    else:
        with pytest.raises(RuleError, match=f"^{edge} edge "):
            build()


def test_lhs_collects_readers_and_erasers():
    r = move_rule()
    lhs = r.lhs
    assert lhs.nodes == frozenset({0, 1, 2})
    assert (2, at, 0) in lhs.edges and (2, at, 1) not in lhs.edges


def test_rule_reads_its_label_loops_into_edit_lists():
    # reader 0 loses ``last``, creator 1 is born with C and last; eraser
    # 2 goes with its loop, which is no label edit
    r = Rule("edits", {0: READER, 1: CREATOR, 2: ERASER},
             ((0, C, 0, READER), (0, last, 0, ERASER), (1, C, 1, CREATOR),
              (1, last, 1, CREATOR), (0, n, 1, CREATOR), (2, C, 2, ERASER),
              (0, n, 2, ERASER)))
    assert r.erase_edges == ((0, n, 2),)
    assert r.create_edges == ((0, n, 1),)
    assert r.erase_nodes == (2,)
    assert r.new_nodes == {1: frozenset({C, last})}
    assert r.relabel == {0: ({last}, set())}


# --- concrete pipeline ----------------------------------------------------


def world():
    return graph(range(3), [(0, L, 0), (1, L, 1), (0, conn, 1),
                            (2, P, 2), (2, at, 0)])


def test_concrete_match_and_apply():
    g = world()
    ms = concrete_matches(move_rule(), g)
    assert len(ms) == 1
    h = concrete_apply(move_rule(), ms[0], g)
    assert (2, at, 1) in h.edges and (2, at, 0) not in h.edges


def test_concrete_apply_shares_labels_only_when_no_node_changes():
    # moving an edge keeps every node and label set: the successor shares
    # the state's labels dict; creating a node gives it a dict of its own
    g = world()
    moved = concrete_apply(move_rule(), concrete_matches(move_rule(), g)[0], g)
    grown = concrete_apply(new_packet_rule(), concrete_matches(new_packet_rule(), g)[0], g)
    assert moved.labels is g.labels
    assert grown.labels is not g.labels and len(g.labels) == 3


def test_concrete_apply_creates_fresh_nodes():
    g = world()
    ms = concrete_matches(new_packet_rule(), g)
    assert len(ms) == 2              # either location
    h = concrete_apply(new_packet_rule(), ms[0], g)
    assert len(h.nodes) == 4
    fresh = next(iter(h.nodes - g.nodes))
    assert h.labels[fresh] == frozenset({P})


def test_spo_deletion_drops_incident_edges():
    r = Rule("del-packet", {0: ERASER}, ((0, P, 0, ERASER),))
    g = world()
    ms = concrete_matches(r, g)
    assert len(ms) == 1
    h = concrete_apply(r, ms[0], g)
    assert 2 not in h.nodes
    assert all(e[0] != 2 and e[2] != 2 for e in h.edges)


def test_unsatisfiable_nac_blocks_all_matches():
    # the embargo edge duplicates a reader edge, so it always holds
    r = Rule("blocked", {0: READER, 1: READER},
             ((0, L, 0, READER), (1, L, 1, READER),
              (0, conn, 1, READER), (0, conn, 1, EMBARGO)))
    assert concrete_matches(r, world()) == []


def test_nac_blocks_only_when_extension_exists():
    # forbid locations that already host a packet
    r = Rule("new-at-empty", {0: READER, 1: EMBARGO},
             ((0, L, 0, READER), (1, P, 1, EMBARGO), (1, at, 0, EMBARGO)))
    ms = concrete_matches(r, world())
    assert len(ms) == 1 and ms[0][0] == 1   # only the empty location


def test_label_flip_concrete():
    g = chain(2)
    ms = concrete_matches(append_rule(), g)
    assert len(ms) == 1 and ms[0][0] == 1
    h = concrete_apply(append_rule(), ms[0], g)
    assert len(h.nodes) == 3
    assert h.labels[1] == frozenset({C})        # mark removed
    fresh = next(iter(h.nodes - g.nodes))
    assert h.labels[fresh] == frozenset({C, last})


# --- prematch -------------------------------------------------------------


def test_prematch_allows_noninjective_on_collectors():
    s = abstract(graph(range(4), [(0, L, 0)] +
                       [(p, P, p) for p in (1, 2, 3)] +
                       [(p, at, 0) for p in (1, 2, 3)]))
    two = Rule("two-packets", {0: READER, 1: READER, 2: READER},
               ((0, L, 0, READER), (1, P, 1, READER), (2, P, 2, READER),
                (1, at, 0, READER), (2, at, 0, READER)))
    ms = prematch(two, s)
    packets = next(v for v in s.nodes if s.labels[v] == frozenset({P}))
    assert any(m[1] == m[2] == packets for m in ms)


# --- materialise ----------------------------------------------------------


def materialise_at(rule, m, s):
    return materialise(rule, m, s, neighbour_index(s.labels, s.edges), {})


def test_materialise_respects_node_multiplicity_bound():
    s = concrete_shape(graph(range(2), [(0, L, 0), (1, P, 1), (1, at, 0)]))
    two = Rule("two-packets", {0: READER, 1: READER, 2: READER},
               ((0, L, 0, READER), (1, P, 1, READER), (2, P, 2, READER),
                (1, at, 0, READER), (2, at, 0, READER)))
    # both packet nodes would have to share the single concrete packet:
    # prematch finds that map, and materialise gives it no branch
    ms = prematch(two, s)
    assert ms
    for m in ms:
        assert materialise_at(two, m, s) == []


def two_k_neighbours_rule():
    """One location reading two distinct link-neighbours labelled K."""
    return Rule("two-ks", {0: READER, 1: READER, 2: READER},
                ((0, L, 0, READER), (1, K, 1, READER), (2, K, 2, READER),
                 (0, link, 1, READER), (0, link, 2, READER)))


def test_materialise_rejects_a_shared_edge_beyond_its_slot():
    # the concrete location has exactly one link into the K collector,
    # so the rule's two edges cannot both map onto it: prematch finds
    # that map, and materialise gives it no branch
    labels = {0: frozenset({L}), 1: frozenset({K})}
    s = Shape({0: ONE, 1: TWO_PLUS}, labels, {(0, link, 1)},
              {(0, "out", link, labels[1]): ONE, (1, "in", link, labels[0]): ZERO_ONE})
    validate(s)
    ms = prematch(two_k_neighbours_rule(), s)
    assert ms
    for m in ms:
        assert materialise_at(two_k_neighbours_rule(), m, s) == []


def test_materialise_on_concrete_match_is_identity():
    s = concrete_shape(world())
    ms = prematch(move_rule(), s)
    assert len(ms) == 1
    mats = materialise_at(move_rule(), ms[0], s)
    assert len(mats) == 1
    (branch, match), = mats
    assert strictly_isomorphic(branch, s)
    assert match == ms[0]


def test_materialise_splits_collector():
    g = graph(range(4), [(0, L, 0)] + [(p, P, p) for p in (1, 2, 3)]
              + [(p, at, 0) for p in (1, 2, 3)])
    s = abstract(g)
    r = move_like = Rule("grab", {0: READER, 1: READER},
                         ((0, L, 0, READER), (1, P, 1, READER),
                          (1, at, 0, READER)))
    ms = prematch(r, s)
    assert len(ms) == 1
    mats = materialise_at(r, ms[0], s)
    assert mats
    for branch, match in mats:
        valid_shape(branch)
        img = match[1]
        assert branch.node_mult[img] == ONE          # match image concrete
    # the 2+ collector leaves a 1+ remainder in every branch
    assert any(ONE_PLUS in branch.node_mult.values() for branch, _ in mats)


def test_materialise_demands_part_to_part_edges_from_both_ends():
    # a 3-cycle folds into one 2+ collector with an n-loop; matching
    # x -n-> y inside it splits off two parts whose out- and in-slots
    # must agree on the edges between them
    g = graph(range(3), [(v, C, v) for v in range(3)]
              + [(0, n, 1), (1, n, 2), (2, n, 0)])
    s = abstract(g)
    r = Rule("step", {0: READER, 1: READER},
             ((0, C, 0, READER), (1, C, 1, READER), (0, n, 1, READER)))
    (m,) = prematch(r, s)
    mats = materialise_at(r, m, s)
    assert {match[0] for _, match in mats} == {1}
    assert {match[1] for _, match in mats} == {2}   # 3: remainder
    assert sorted(sorted(branch.edges) for branch, _ in mats) == [
        [(1, n, 2), (2, n, 1)],
        [(1, n, 2), (2, n, 1), (3, n, 3)],
        [(1, n, 2), (2, n, 3), (3, n, 1)],
        [(1, n, 2), (2, n, 3), (3, n, 1), (3, n, 3)],
    ]


def test_materialise_drops_a_part_whose_matched_edges_exceed_its_slot():
    # each location of the 2+ collector has exactly one link to a K node,
    # so the split-off part cannot keep both matched edges: no branch.
    # Two of the four matches put both K readers on one concrete node.
    labels = {0: frozenset({L}), 1: frozenset({K}), 2: frozenset({K})}
    s = Shape({0: TWO_PLUS, 1: ONE, 2: ONE}, labels, {(0, link, 1), (0, link, 2)},
              {(0, "out", link, labels[1]): ONE, (1, "in", link, labels[0]): ONE_PLUS,
               (2, "in", link, labels[0]): ONE_PLUS})
    validate(s)
    ms = prematch(two_k_neighbours_rule(), s)
    assert len(ms) == 4
    for m in ms:
        assert materialise_at(two_k_neighbours_rule(), m, s) == []


def test_untouched_slot_supported_only_by_a_split_collector(monkeypatch):
    # Location 0 holds at least one packet of the 2+ collector 1, and each
    # packet is at 0 or not.  Grabbing a packet splits the collector into
    # part 2 and remainder 3, so 0's in-slot is supported by them alone:
    # the search cuts the choice in which neither keeps its edge, before
    # any branch is built for it, so every Shape built is a branch.
    labels = {0: frozenset({L}), 1: frozenset({P})}
    s = Shape({0: ONE, 1: TWO_PLUS}, labels, {(1, at, 0)},
              {(1, "out", at, labels[0]): ZERO_ONE, (0, "in", at, labels[1]): ONE_PLUS})
    validate(s)
    r = Rule("grab", {0: READER}, ((0, P, 0, READER),))
    (m,) = prematch(r, s)
    built = []
    monkeypatch.setattr(rules, "Shape", lambda *args: built.append(Shape(*args)) or built[-1])
    mats = materialise_at(r, m, s)
    assert sorted(sorted(branch.edges) for branch, _ in mats) == [
        [(2, at, 0)], [(2, at, 0), (3, at, 0)], [(3, at, 0)]]
    for branch, _ in mats:
        valid_shape(branch)
        assert branch.slots[0, "in", at, labels[1]] == ONE_PLUS
    assert len(built) == len(mats)


def test_unsplit_slot_keeps_its_capacity_when_a_neighbour_splits():
    # Q-node 2 has at least two links to P nodes: to node 1 and to some
    # of the 1+ collector 0.  Grabbing a P from 0 splits it into part 3
    # and an optional remainder 4.  Node 1 alone cannot carry 2's 2+
    # slot, so each branch links 2 to the part or to the remainder.
    labels = {0: frozenset({P}), 1: frozenset({P}), 2: frozenset({Q})}
    s = Shape({0: ONE_PLUS, 1: ONE, 2: ONE}, labels, {(2, link, 0), (2, link, 1)},
              {(2, "out", link, labels[0]): TWO_PLUS, (1, "in", link, labels[2]): ONE,
               (0, "in", link, labels[2]): ZERO_PLUS})
    validate(s)
    r = Rule("grab", {0: READER}, ((0, P, 0, READER),))
    m = next(m for m in prematch(r, s) if m[0] == 0)
    mats = materialise_at(r, m, s)
    assert sorted((len(branch.node_mult), sorted(branch.edges)) for branch, _ in mats) == [
        (3, [(2, link, 1), (2, link, 3)]),
        (4, [(2, link, 1), (2, link, 3)]),
        (4, [(2, link, 1), (2, link, 3), (2, link, 4)]),
        (4, [(2, link, 1), (2, link, 4)])]
    for branch, _ in mats:
        valid_shape(branch)
        assert within_capacity(branch)
        assert branch.slots[2, "out", link, labels[0]] == TWO_PLUS


def test_remainder_slot_needs_the_capacity_of_its_support():
    # Every P of the 2+ collector 0 has at least two links to the 2+ K
    # collector 1.  Reading one P and one K splits both: P part 2 and
    # remainder 3, K part 4 and remainder 5.  The P remainder keeps its
    # 2+ slot, which the one K part alone cannot carry.
    labels = {0: frozenset({P}), 1: frozenset({K})}
    s = Shape({0: TWO_PLUS, 1: TWO_PLUS}, labels, {(0, link, 1)},
              {(0, "out", link, labels[1]): TWO_PLUS, (1, "in", link, labels[0]): ONE_PLUS})
    validate(s)
    r = Rule("pick", {0: READER, 1: READER}, ((0, P, 0, READER), (1, K, 1, READER)))
    (m,) = prematch(r, s)
    mats = materialise_at(r, m, s)
    assert len(mats) == 4
    for branch, _ in mats:
        valid_shape(branch)
        assert within_capacity(branch)
        assert (3, link, 5) in branch.edges


def optional_remainder():
    """A 1+ packet collector at a location, and a rule grabbing one packet:
    the remainder may be empty or not, one branch each."""
    g = graph(range(2), [(0, L, 0), (1, P, 1), (1, at, 0)])
    s = abstract(g)
    v = next(v for v in s.nodes if s.labels[v] == frozenset({P}))
    s = Shape({**s.node_mult, v: ONE_PLUS}, s.labels, s.edges, dict(s.slots))
    r = Rule("grab", {0: READER, 1: READER},
             ((0, L, 0, READER), (1, P, 1, READER), (1, at, 0, READER)))
    return r, s


def test_materialise_drops_optional_remainder():
    r, s = optional_remainder()
    mats = materialise_at(r, prematch(r, s)[0], s)
    node_counts = {len(branch.node_mult) for branch, _ in mats}
    assert node_counts == {2, 3}


def test_branch_cap_counts_the_whole_call(monkeypatch):
    # the two branches come from two remainder choices; the cap holds
    # for their sum, not for each choice alone
    r, s = optional_remainder()
    m = prematch(r, s)[0]
    monkeypatch.setattr("shapespace.rules.MAX_BRANCHES", 2)
    assert len(materialise_at(r, m, s)) == 2
    monkeypatch.setattr("shapespace.rules.MAX_BRANCHES", 1)
    with pytest.raises(ShapeError, match="branch explosion"):
        materialise_at(r, m, s)


@pytest.fixture(scope="module", params=["firewall-2", "firewall-3"])
def rewrite_steps(request):
    """Every (rule, prematch, state) of every state stored by a dfs run
    with subsumption on.  ``apply`` rewrites its branch in place, so each
    test materialises afresh."""
    grammar = load_bundled(request.param)
    ts, _ = explore(grammar, ExploreConfig(strategy="dfs", subsumption=True))
    return [(rule, m, s)
            for s in ts.states.values()
            for rule in grammar.rules
            for m in prematch(rule, s)]


def valid_shape(branch):
    """Check the shape invariants of ``branch`` without caching its
    colours, which would go stale once ``apply`` rewrites the branch."""
    validate(branch)
    assert "colours" not in vars(branch)


def test_materialise_builds_only_valid_distinct_branches(rewrite_steps):
    branches = 0
    for rule, m, s in rewrite_steps:
        mats = materialise_at(rule, m, s)
        branches += len(mats)
        for branch, _ in mats:
            valid_shape(branch)
            assert within_capacity(branch)
        for x, y in itertools.combinations(mats, 2):
            assert x != y   # node_mult, labels, edges, slots and match
    assert branches >= 50


def test_one_normalise_pass_reaches_the_fixpoint(rewrite_steps):
    merged = 0
    for rule, m, s in rewrite_steps:
        for branch, match in materialise_at(rule, m, s):
            try:
                t = apply(rule, branch, match)
            except ApplyInfeasible:
                continue
            assert t is branch
            once = normalise(t)
            valid_shape(t)    # slot keys are exactly the supported ones,
            validate(once)   # which subsumption's slot-wise check needs
            merged += len(once.node_mult) < len(t.node_mult)
            assert normalise(once) == once
    assert merged >= 30


@pytest.mark.parametrize("name", bundled_grammar_names())
def test_apply_reconciles_like_a_full_support_pass(name):
    # ``apply`` reconciles only the slots of nodes that lost an edge or a
    # neighbour's label set.  A full pass sees those slots with the same
    # support and more, so it fails whenever ``apply`` does; each slot is
    # reconciled on its own, so where ``apply`` succeeds the full pass
    # decides alike exactly when it changes nothing in ``apply``'s result.
    grammar = load_bundled(name)
    ts, _ = explore(grammar, ExploreConfig(strategy="dfs", max_states=150))
    results = 0
    for s in ts.states.values():
        for rule in grammar.rules:
            for m in prematch(rule, s):
                for branch, match in materialise_at(rule, m, s):
                    try:
                        t = apply(rule, branch, match)
                    except ApplyInfeasible:
                        continue
                    valid_shape(t)
                    assert full_reconcile(t) == t
                    results += 1
    assert results >= 3


# --- apply + normalise ----------------------------------------------------


def test_abstract_apply_mirrors_concrete_on_exact_shapes():
    for k in (2, 3):
        g = chain(k)
        s = concrete_shape(g)
        ms = prematch(append_rule(), s)
        assert len(ms) == 1
        ((branch, match),) = materialise_at(append_rule(), ms[0], s)
        t = normalise(apply(append_rule(), branch, match))
        h = concrete_apply(append_rule(),
                           concrete_matches(append_rule(), g)[0], g)
        assert strictly_isomorphic(t, normalise(concrete_shape(h)))


def test_apply_label_flip_rekeys_slots():
    s = concrete_shape(chain(2))
    ((branch, match),) = materialise_at(append_rule(), prematch(append_rule(), s)[0], s)
    t = apply(append_rule(), branch, match)
    valid_shape(t)
    flipped = match[0]
    assert t.labels[flipped] == frozenset({C})
    # the incoming slot of the flipped node keeps its old class key
    pred = next(v for v in t.node_mult
                if (v, "out", n, frozenset({C})) in t.slots)
    assert t.slots[(pred, "out", n, frozenset({C}))] == ONE


def test_apply_lowers_only_the_lower_bound_next_to_a_collector():
    # Two concrete X nodes each have an l-edge into the 2+ collector W,
    # and each W node has exactly one l-edge from an X node.  Erasing
    # one X node leaves every W node with zero or one such edge: the
    # lower bound drops, the upper bound must stay.
    X, W, l = unary("X"), unary("W"), binary("l")
    x1, x2, w = 0, 1, 2
    labels = {x1: frozenset({X}), x2: frozenset({X}), w: frozenset({W})}
    branch = Shape({x1: ONE, x2: ONE, w: TWO_PLUS}, labels,
                   {(x1, l, w), (x2, l, w)},
                   {(x1, "out", l, labels[w]): ONE,
                    (x2, "out", l, labels[w]): ONE,
                    (w, "in", l, labels[x1]): ONE})
    validate(branch)
    erase = Rule("erase", {0: ERASER}, ((0, X, 0, ERASER),))
    t = apply(erase, branch, {0: x1})
    valid_shape(t)
    assert x1 not in t.node_mult
    assert t.slots[(w, "in", l, frozenset({X}))] == ZERO_ONE


def test_apply_relabel_moves_one_bound_next_to_a_collector():
    # Two concrete X nodes each have an l-edge into the 2+ collector W,
    # and each W node has exactly one l-edge from an X node.  Relabelling
    # one X node to Y moves the edge of some W nodes, not of all: the
    # slot keyed {X} loses its lower bound, the slot keyed {Y} gains
    # only an upper one.
    X, Y, W, l = unary("X"), unary("Y"), unary("W"), binary("l")
    x1, x2, w = 0, 1, 2
    labels = {x1: frozenset({X}), x2: frozenset({X}), w: frozenset({W})}
    branch = Shape({x1: ONE, x2: ONE, w: TWO_PLUS}, labels,
                   {(x1, l, w), (x2, l, w)},
                   {(x1, "out", l, labels[w]): ONE,
                    (x2, "out", l, labels[w]): ONE,
                    (w, "in", l, labels[x1]): ONE})
    validate(branch)
    flip = Rule("flip", {0: READER}, ((0, X, 0, ERASER), (0, Y, 0, CREATOR)))
    t = apply(flip, branch, {0: x1})
    valid_shape(t)
    assert t.labels[x1] == frozenset({Y})
    assert t.slots[(w, "in", l, frozenset({X}))] == ZERO_ONE
    assert t.slots[(w, "in", l, frozenset({Y}))] == ZERO_ONE


def test_normalise_merges_equal_signatures():
    g = graph([0, 1], [(0, P, 0), (1, P, 1)])
    s = normalise(concrete_shape(g))
    assert len(s.nodes) == 1
    assert list(s.node_mult.values()) == [TWO_PLUS]


def test_normalise_is_identity_on_abstractions(rng):
    for _ in range(200):
        g = random_graph(rng, max_nodes=8)
        s = abstract(g)
        assert strictly_isomorphic(normalise(s), s)


@pytest.mark.parametrize("name", bundled_grammar_names())
def test_matches_come_sorted_with_items_in_rule_node_order(name):
    # The engines label transitions with ``tuple(m.items())`` and rely on
    # ``morphisms``' search order instead of sorting.
    grammar = load_bundled(name)
    for engine, find, cap in (("abstract", prematch, dict(max_states=100)),
                              ("concrete", concrete_matches, dict(max_depth=4))):
        ts, _ = explore(grammar, ExploreConfig(engine=engine, **cap))
        for s in ts.states.values():
            for rule in grammar.rules:
                ms = find(rule, s)
                assert [list(m) for m in ms] == [sorted(rule.lhs.nodes)] * len(ms)
                assert ms == sorted(ms, key=lambda m: list(m.items()))
