"""Graph type, constructions, structure queries, edge-list codec."""

import copy
import pickle
import random

import pytest

from itdom import (
    EdgeListError,
    Graph,
    bipartition,
    complement,
    complete,
    complete_bipartite,
    components,
    corona,
    cycle,
    domination_number,
    encode_graph6,
    enumerate_connected_graphs,
    canonical_form,
    is_connected,
    mask_of,
    members,
    parse_edge_list,
    parse_graph6,
    path,
    pendant_vertices,
    petersen,
    star,
)

from helpers import disjoint_union, format_edge_list, girth, random_graph


def test_graph_validates_input():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="order"):
        Graph(65)


def test_graph_is_frozen():
    for g in (Graph(3, [(0, 1)]), Graph.from_adjacency([0b10, 0b01])):
        before = (g.n, g.adj)
        for name in ("n", "adj"):
            with pytest.raises(AttributeError):
                setattr(g, name, 0)
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert (g.n, g.adj) == before
        assert copy.copy(g) == g and pickle.loads(pickle.dumps(g)) == g


def test_from_adjacency_rejects_asymmetry():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph.from_adjacency([0b010, 0b000, 0b000])


def test_graph_basics():
    g = cycle(5)
    assert g.m == 5
    assert g.degree(0) == 2
    assert g.min_degree() == max(map(g.degree, range(g.n))) == 2
    assert g.closed(0) == mask_of([0, 1, 4])
    assert g == Graph(5, g.edges())
    assert hash(g) == hash(Graph(5, g.edges()))


def test_complement_of_complete_is_edgeless():
    for n in range(1, 8):
        assert complement(complete(n)).m == 0


def test_complement_involution_and_edge_count():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        assert complement(complement(g)) == g
        assert g.m + complement(g).m == g.n * (g.n - 1) // 2


def test_complement_c5_self_complementary():
    assert canonical_form(complement(cycle(5))) == canonical_form(cycle(5))


def test_corona_structure():
    assert corona(Graph(1)) == Graph(2, [(0, 1)])
    p4 = corona(complete(2))
    assert p4.n == 4 and p4.edges() == [(0, 1), (0, 2), (1, 3)]
    assert canonical_form(p4) == canonical_form(path(4))
    for n in range(2, 6):
        h = cycle(n) if n >= 3 else complete(2)
        g = corona(h)
        assert g.n == 2 * h.n
        assert pendant_vertices(g) == mask_of(range(h.n, 2 * h.n))


def test_corona_pendant_deletion_recovers_base():
    # For base graphs without isolated vertices the added vertices are
    # exactly the pendants, and deleting them gives back the base graph.
    from itdom import induced_subgraph

    for h in map(parse_graph6, enumerate_connected_graphs(4)):
        if h.n < 2:
            continue
        g = corona(h)
        pend = pendant_vertices(g)
        assert pend.bit_count() == h.n and g.n == 2 * h.n
        recovered, verts = induced_subgraph(g, g.full_mask & ~pend)
        assert verts == list(range(h.n))
        assert recovered == h


def test_corona_rejects_oversize():
    with pytest.raises(ValueError, match="exceeds"):
        corona(Graph(33))


def test_corona_domination_number_is_base_order():
    for n in range(2, 7):
        for h in map(parse_graph6, enumerate_connected_graphs(n)):
            assert domination_number(corona(h)) == n


def test_named_graphs():
    c4 = cycle(4)
    assert c4.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert complete(5).m == 10
    assert complete_bipartite(2, 3).m == 6
    assert star(4).degree(0) == 4
    with pytest.raises(ValueError):
        cycle(2)


def test_petersen_shape():
    g = petersen()
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert girth(g) == 5
    assert is_connected(g)


def test_components():
    g = disjoint_union(complete(2), complete(2))
    assert components(g) == [mask_of([0, 1]), mask_of([2, 3])]
    assert not is_connected(g)
    assert components(Graph(3)) == [1, 2, 4]
    assert not is_connected(Graph(0))


def test_bipartition_c4():
    bip = bipartition(cycle(4))
    assert bip is not None
    assert members(bip.x) == [0, 2] and members(bip.y) == [1, 3]


def test_bipartition_odd_cycle_absent():
    assert bipartition(cycle(5)) is None


def test_bipartition_corona_k2():
    bip = bipartition(corona(complete(2)))
    assert bip is not None
    assert bip.x.bit_count() == bip.y.bit_count() == 2


def test_bipartition_disconnected_puts_component_minimum_in_x():
    g = disjoint_union(path(2), path(2))
    bip = bipartition(g)
    assert members(bip.x) == [0, 2]


def test_bipartition_witnesses_no_internal_edges():
    rng = random.Random(23)
    seen_bipartite = 0
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 10), 0.25)
        bip = bipartition(g)
        if bip is None:
            continue
        seen_bipartite += 1
        assert bip.x | bip.y == g.full_mask and bip.x & bip.y == 0
        for u, v in g.edges():
            assert ((bip.x >> u) & 1) != ((bip.x >> v) & 1)
    assert seen_bipartite > 10


def test_pendant_vertices():
    assert pendant_vertices(star(4)) == mask_of([1, 2, 3, 4])
    assert pendant_vertices(cycle(4)) == 0
    assert pendant_vertices(corona(cycle(3))) == mask_of([3, 4, 5])


def test_edge_list_roundtrip():
    g = petersen()
    assert parse_edge_list(format_edge_list(g)) == g
    assert parse_edge_list("2 1\n0 1\n") == Graph(2, [(0, 1)])


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "empty"),
        ("junk\n", "bad edge-list header"),
        ("2 2\n0 1\n", "expected 2 edge lines"),
        ("2 1\n0 2\n", "out of range"),
        ("2 1\n1 1\n", "self-loop"),
        ("3 2\n0 1\n1 0\n", "duplicate edge"),
        ("3 1\n0 1 2\n", "bad edge line"),
    ],
)
def test_edge_list_errors(text, match):
    with pytest.raises(EdgeListError, match=match):
        parse_edge_list(text)


def test_constructed_graphs_are_valid_bitsets():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 12), 0.4)
        for v in range(g.n):
            assert not (g.adj[v] >> g.n)
            assert not (g.adj[v] >> v) & 1
            for u in members(g.adj[v]):
                assert g.has_edge(u, v) and g.has_edge(v, u)
        assert encode_graph6(g)  # encodable at this order
