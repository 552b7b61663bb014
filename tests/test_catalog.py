"""Canonical forms and the isomorphism-free catalogs."""

import random

import pytest

from itdom import (
    canonical_form,
    complete,
    cycle,
    enumerate_connected_graphs,
    enumerate_graphs,
    parse_graph6,
    path,
    permute,
    star,
)

from helpers import canonical_graph6, random_graph, random_permutation, raw_connected_sweep

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_canonical_invariant_under_relabeling():
    rng = random.Random(404)
    for _ in range(50):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.9]))
        relabeled = permute(g, random_permutation(rng, n))
        assert canonical_form(g) == canonical_form(relabeled)


def test_canonical_separates_p4_and_star():
    assert canonical_form(path(4)) != canonical_form(star(3))


def test_canonical_c4_relabelings_agree():
    a = cycle(4)
    b = permute(a, [0, 2, 1, 3])
    assert a != b
    assert canonical_form(a) == canonical_form(b)


def test_canonical_order_cap():
    with pytest.raises(ValueError, match="n <= 9"):
        canonical_form(complete(10))


def test_canonical_graph6_is_parseable():
    g = cycle(7)
    assert parse_graph6(canonical_graph6(g)).n == 7


@pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
def test_connected_catalog_counts(n, count):
    assert len(enumerate_connected_graphs(n)) == count


@pytest.mark.parametrize("n,count", sorted(ALL_COUNTS.items()))
def test_all_graph_catalog_counts(n, count):
    assert len(enumerate_graphs(n)) == count


def test_catalog_order_range():
    with pytest.raises(ValueError, match="catalog order"):
        enumerate_connected_graphs(8)
    with pytest.raises(ValueError, match="catalog order"):
        enumerate_connected_graphs(0)


def test_catalog_entries_are_canonical_sorted_unique():
    catalogs = [(n, enumerate_connected_graphs(n)) for n in (4, 5, 6)]
    catalogs += [(n, enumerate_graphs(n)) for n in range(1, 8)]
    for n, entries in catalogs:
        texts = [e.graph6 for e in entries]
        assert texts == sorted(texts)
        assert len(set(texts)) == len(texts)
        for entry in entries:
            assert entry.order == n
            assert parse_graph6(entry.graph6) == entry.graph
            assert canonical_form(entry.graph) == entry.graph


@pytest.mark.parametrize("n", [3, 4, 5])
def test_catalog_matches_raw_edge_mask_sweep(n):
    incremental = [e.graph6 for e in enumerate_connected_graphs(n)]
    sweep = raw_connected_sweep(n)
    assert incremental == sweep


def test_raw_sweep_covers_every_labeled_connected_graph():
    # every connected labeled graph on 4 vertices is isomorphic to an entry
    from itertools import combinations

    from itdom import Graph, is_connected

    catalog = {e.graph6 for e in enumerate_connected_graphs(4)}
    pairs = list(combinations(range(4), 2))
    for mask in range(1 << 6):
        g = Graph(4, [pairs[k] for k in range(6) if (mask >> k) & 1])
        if is_connected(g):
            assert canonical_graph6(g) in catalog


def test_catalog_cross_checked_against_networkx_atlas():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    atlas = [g for g in graph_atlas_g() if 1 <= g.number_of_nodes() <= 7]
    by_order = {n: [g for g in atlas if g.number_of_nodes() == n] for n in range(1, 8)}
    for n, count in ALL_COUNTS.items():
        assert len(by_order[n]) == count
    for n, count in CONNECTED_COUNTS.items():
        assert sum(nx.is_connected(g) for g in by_order[n]) == count

    # one-to-one coverage at order 6: every atlas class matches exactly one entry
    def assert_one_to_one(atlas_graphs, entries):
        mine = []
        for e in entries:
            h = nx.empty_graph(e.order)
            h.add_edges_from(e.graph.edges())
            mine.append(h)
        matched = set()
        for g in atlas_graphs:
            hits = [
                i
                for i, h in enumerate(mine)
                if h.number_of_edges() == g.number_of_edges()
                and sorted(d for _, d in h.degree()) == sorted(d for _, d in g.degree())
                and nx.is_isomorphic(g, h)
            ]
            assert len(hits) == 1
            matched.add(hits[0])
        assert len(matched) == len(entries)

    assert_one_to_one([g for g in by_order[6] if nx.is_connected(g)], enumerate_connected_graphs(6))
    assert_one_to_one(by_order[6], enumerate_graphs(6))
