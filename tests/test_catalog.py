"""Canonical forms and the isomorphism-free catalogs."""

import hashlib
import random

import pytest

from itdom import (
    Graph,
    canonical_form,
    complement,
    complete,
    complete_bipartite,
    cycle,
    encode_graph6,
    enumerate_connected_graphs,
    enumerate_graphs,
    is_connected,
    parse_graph6,
    path,
    star,
)

from itdom.catalog import CATALOG_MAX_ORDER, CATALOG_SHA256, _canonical_cols, _children

from helpers import (
    brute_canonical_cols,
    canonical_graph6,
    disjoint_union,
    permute,
    random_graph,
    random_permutation,
    raw_connected_sweep,
    to_networkx,
)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}  # OEIS A001349
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}  # OEIS A000088

# SHA-256 of the sorted graph6 lines (each ending in a newline) of
# enumerate_connected_graphs(n) and enumerate_graphs(n), recorded from the
# column-by-column labeling search that the bitmask narrowing replaced (n <= 7)
# and from the dedup-by-vertex-extension generator that orderly generation
# replaced (n = 8).
CATALOG_DIGESTS = {
    1: ("ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
        "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46"),
    2: ("fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
        "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb"),
    3: ("5966edf890849db6cb03626431916231a81a30c9db9a4781a4a8f2e5dc7e6129",
        "1d237c0da1c599bbd8f4cffdf1fd13171099276e9ca335a1e0c819e4be9b2bea"),
    4: ("b0024cb6b9eb3ef85ae992cd8b602640c1806b2e8f7e7a2cf8c6d7ab7603aee5",
        "4779a12d9a07b2a2e13924257ea8b573ba0bd3af65d263532115d2ee564e7762"),
    5: ("0e90fd086c9d638cd8fdc133931d35474b837a0a953beae89ae1015692920f61",
        "20785da1cf32ff06b5c7830950a3525a00c0ffc56e24213a2047c413effdf161"),
    6: ("d0b7bbaf90fd1e431c1ae94492b7f36644d7c3e78069161158a3179ab145d0b2",
        "6ba261a8381f12c8b4b59ae2c7715cee98a31b3f4c6b5a6bea5ef4eba006a0fc"),
    7: ("f39a11e21a91db326d834f8e3bf6d5ae85c0f04d6077d08cfbaeecbc572b0a93",
        "e3eee2a6b5beecaa47bee1b0d67a6a982c0e5e2c0067993d735036d3c9d6512f"),
    8: ("370179f0d16fe7beee1c5b3baca8898cf6f0f9154058486f03031eec0611a145",
        "e1aed63b07ff72557885ee1244044d6ad30ba1b182f74cc7bcb7a02da8d34867"),
}


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


def test_canonical_cols_match_permutation_definition():
    rng = random.Random(1010)
    graphs = [random_graph(rng, rng.randint(1, 7), rng.choice([0.2, 0.5, 0.8])) for _ in range(24)]
    graphs.append(Graph(0))
    for n in range(1, 8):
        graphs += [Graph(n), complete(n)]
    graphs += [cycle(n) for n in range(3, 8)]
    graphs.append(complete_bipartite(3, 3))
    for g in graphs:
        assert _canonical_cols(g.adj, g.n) == brute_canonical_cols(g), g


def test_canonicity_test_matches_full_labeling():
    # seeded canonical parents of orders 6-8, disconnected ones among them
    rng = random.Random(9090)
    parents = [canonical_form(random_graph(rng, m, p)) for m in (6, 7, 8) for p in (0.25, 0.5, 0.75)]
    parents += [canonical_form(disjoint_union(cycle(4), path(k))) for k in (2, 3, 4)]
    assert sum(not is_connected(g) for g in parents) >= 4
    outcomes = set()
    for parent in parents:
        m = parent.n
        candidates = dict(_children(parent.adj, m))
        for row in range(1 << m):
            child = tuple(r | ((row >> v) & 1) << m for v, r in enumerate(parent.adj)) + (row,)
            own = tuple(sum(((child[j] >> i) & 1) << (j - 1 - i) for i in range(j)) for j in range(1, m + 1))
            canonical = _canonical_cols(child, m + 1) == own
            assert (_canonical_cols(child, m + 1, own) is not None) == canonical, (parent, row)
            outcomes.add((canonical, own in candidates))
            if canonical:  # the swap pre-test kept it
                assert candidates[own] == child, (parent, row)
    assert outcomes == {(True, True), (False, True), (False, False)}


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
        enumerate_connected_graphs(9)
    with pytest.raises(ValueError, match="catalog order"):
        enumerate_connected_graphs(0)


@pytest.mark.parametrize("n", sorted(CATALOG_DIGESTS))
def test_catalogs_are_byte_identical_to_recorded(n):
    def digest(lines):
        return hashlib.sha256("".join(g6 + "\n" for g6 in sorted(lines)).encode()).hexdigest()

    assert (digest(enumerate_connected_graphs(n)), digest(enumerate_graphs(n))) == CATALOG_DIGESTS[n]


def test_package_pins_are_the_recorded_digests():
    # The package's pins and this file's record are kept independently.
    assert CATALOG_MAX_ORDER == max(CATALOG_SHA256) == max(CATALOG_DIGESTS)
    assert CATALOG_SHA256 == {n: digests[1] for n, digests in CATALOG_DIGESTS.items()}


def test_order_8_random_graphs_canonicalize_to_catalog_entries():
    nx = pytest.importorskip("networkx")
    lines = set(enumerate_graphs(8))
    rng = random.Random(8008)
    for _ in range(200):
        g = random_graph(rng, 8, rng.choice([0.15, 0.3, 0.5, 0.7, 0.85]))
        g6 = canonical_graph6(g)
        assert g6 in lines
        assert nx.is_isomorphic(to_networkx(g), to_networkx(parse_graph6(g6)))


def test_catalog_entries_are_canonical_sorted_unique():
    catalogs = [(n, enumerate_connected_graphs(n)) for n in (4, 5, 6)]
    catalogs += [(n, enumerate_graphs(n)) for n in range(1, 8)]
    for n, lines in catalogs:
        assert list(lines) == sorted(lines)
        assert len(set(lines)) == len(lines)
        for g6 in lines:
            g = parse_graph6(g6)
            assert g.n == n
            assert encode_graph6(g) == g6
            assert canonical_form(g) == g


@pytest.mark.parametrize("n", [3, 4, 5])
def test_catalog_matches_raw_edge_mask_sweep(n):
    incremental = list(enumerate_connected_graphs(n))
    sweep = raw_connected_sweep(n)
    assert incremental == sweep


def test_raw_sweep_covers_every_labeled_connected_graph():
    # every connected labeled graph on 4 vertices is isomorphic to an entry
    from itertools import combinations

    from itdom import Graph, is_connected

    catalog = set(enumerate_connected_graphs(4))
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
    for n in by_order:  # the atlas stops at order 7
        assert len(by_order[n]) == ALL_COUNTS[n]
        assert sum(nx.is_connected(g) for g in by_order[n]) == CONNECTED_COUNTS[n]

    # one-to-one coverage at order 6: every atlas class matches exactly one entry
    def assert_one_to_one(atlas_graphs, lines):
        mine = [to_networkx(parse_graph6(g6)) for g6 in lines]
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
        assert len(matched) == len(lines)

    assert_one_to_one([g for g in by_order[6] if nx.is_connected(g)], enumerate_connected_graphs(6))
    assert_one_to_one(by_order[6], enumerate_graphs(6))


def _partitions(n, largest=None):
    """The partitions of n into parts of at most ``largest``, largest part first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _cliques(parts):
    g = complete(parts[0])
    for part in parts[1:]:
        g = disjoint_union(g, complete(part))
    return g


def _threshold(n, dominating):
    """Vertex v joins all of 0..v-1 when bit v of ``dominating`` is set, and none when clear."""
    return Graph(n, [(u, v) for v in range(n) if dominating >> v & 1 for u in range(v)])


def _twin_rich_graphs(n):
    """The order-n threshold graphs, disjoint unions of cliques and their
    complements, the complete multipartite graphs (K_n minus a perfect
    matching among them), the star, K_{a,b} and C4 + K_{n-4}, each once by
    adjacency, built with twins on consecutive labels."""
    graphs = [_threshold(n, bits) for bits in range(0, 1 << n, 2)]
    for parts in _partitions(n):
        graphs += [_cliques(parts), complement(_cliques(parts))]  # K_n - matching: parts of 2
    if n >= 2:
        graphs.append(star(n - 1))
        graphs += [complete_bipartite(a, n - a) for a in range(1, n // 2 + 1)]
    if n >= 4:
        graphs.append(cycle(4) if n == 4 else disjoint_union(cycle(4), complete(n - 4)))
    return list({g.adj: g for g in graphs}.values())


def test_canonical_cols_match_permutation_definition_on_twin_rich_graphs():
    # the random graphs of the test above rarely have twins
    rng = random.Random(2525)
    for n in range(1, 8):
        for g in _twin_rich_graphs(n):
            want = brute_canonical_cols(g)
            assert _canonical_cols(g.adj, g.n) == want, g
            relabeled = permute(g, random_permutation(rng, n))
            assert _canonical_cols(relabeled.adj, n) == want, relabeled


def test_twin_filter_keeps_every_canonical_child_of_twin_rich_parents():
    parents = {canonical_form(g) for m in (5, 6, 7) for g in _twin_rich_graphs(m)}
    kept = 0
    for parent in parents:
        m = parent.n
        candidates = dict(_children(parent.adj, m))
        for row in range(1 << m):
            child = tuple(r | ((row >> v) & 1) << m for v, r in enumerate(parent.adj)) + (row,)
            own = tuple(sum(((child[j] >> i) & 1) << (j - 1 - i) for i in range(j)) for j in range(1, m + 1))
            canonical = _canonical_cols(child, m + 1) == own
            assert (_canonical_cols(child, m + 1, own) is not None) == canonical, (parent, row)
            if canonical:
                assert candidates.get(own) == child, (parent, row)
                kept += 1
    assert kept > len(parents)


def test_children_of_the_empty_graph_are_its_suffix_joins():
    # Every two vertices of an edgeless parent are twins, so a new vertex's
    # neighbours must be a suffix of the labels: m + 1 candidates, not 2^m.
    for m in range(1, 9):
        assert len(list(_children(Graph(m).adj, m))) == m + 1


def test_twin_pruned_walk_reaches_order_12():
    # Without the twin rule the frontiers of these graphs hold n! prefixes.
    assert _canonical_cols(Graph(12).adj, 12) == (0,) * 11
    assert _canonical_cols(complete(12).adj, 12) == tuple((1 << j) - 1 for j in range(1, 12))
    rng = random.Random(1212)
    k66 = complete_bipartite(6, 6)
    relabelings = {_canonical_cols(permute(k66, random_permutation(rng, 12)).adj, 12) for _ in range(3)}
    assert relabelings == {_canonical_cols(k66.adj, 12)}
