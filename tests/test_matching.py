"""Edmonds matching against networkx and the lexicographically-first rule."""

import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from itdom import (
    Graph,
    bipartition,
    complement,
    complete,
    complete_bipartite,
    corona,
    cycle,
    enumerate_graphs,
    matching_number,
    maximum_matching,
    parse_graph6,
    petersen,
)

from helpers import disjoint_union, lex_first_matching, permute, random_graph

BLOSSOM_GRAPHS = [
    petersen(),
    *(cycle(k) for k in (3, 5, 7, 9, 11)),
    *(complete(2 * k + 1) for k in range(1, 6)),
    corona(cycle(9)),
    complement(cycle(20)),
    complete_bipartite(10, 10),
]


def _nx_matching_number(g: Graph) -> int:
    return len(nx.max_weight_matching(nx.Graph(g.edges()), maxcardinality=True))


def test_maximum_matching_is_lex_first_on_every_small_graph():
    for n in range(1, 8):
        for g in map(parse_graph6, enumerate_graphs(n)):
            assert maximum_matching(g) == lex_first_matching(g)


def test_maximum_matching_is_lex_first_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(120):
        g = random_graph(rng, rng.randint(20, 40), rng.choice((0.05, 0.1, 0.2, 0.4, 0.7)))
        assert maximum_matching(g) == lex_first_matching(g)


def test_maximum_matching_is_lex_first_on_blossom_graphs():
    for g in BLOSSOM_GRAPHS:
        assert maximum_matching(g) == lex_first_matching(g)
        assert matching_number(g) == _nx_matching_number(g) == g.n // 2


def test_matching_number_agrees_with_networkx_on_nonbipartite_graphs():
    rng = random.Random(99)
    checked = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(3, 40), rng.choice((0.05, 0.1, 0.15, 0.3, 0.6)))
        if bipartition(g) is None:
            assert matching_number(g) == _nx_matching_number(g)
            checked += 1
    assert checked > 200


@st.composite
def graphs(draw, max_order: int = 40) -> Graph:
    n = draw(st.integers(0, max_order))
    if n < 2:
        return Graph(n)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=4 * n))
    return Graph(n, edges)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY
@given(st.data())
def test_matching_number_is_invariant_under_relabeling(data):
    g = data.draw(graphs())
    perm = data.draw(st.permutations(range(g.n)))
    assert matching_number(permute(g, perm)) == matching_number(g)


@PROPERTY
@given(graphs(20), graphs(20))
def test_matching_number_adds_over_disjoint_union(a, b):
    assert matching_number(disjoint_union(a, b)) == matching_number(a) + matching_number(b)


@PROPERTY
@given(graphs())
def test_maximum_matching_is_a_matching_of_maximum_size(g):
    edges = maximum_matching(g)
    assert len(edges) == matching_number(g)
    touched = set()
    for u, v in edges:
        assert g.adj[u] >> v & 1
        assert u not in touched and v not in touched
        touched.update((u, v))
