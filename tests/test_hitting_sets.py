"""The hitting-set invariants past the oracle's reach, and the witness order.

The definitional oracle stops at small orders, so at orders 17-32 the
values are pinned by identities that hold for every graph (relabeling,
disjoint unions), by an unpruned reference search, and on complements of
bipartite graphs by Konig's theorem through Lemma 2.1.  At small orders
every optimum list is compared with a plain sweep over the k-subsets.
"""

import random
from itertools import combinations

import networkx as nx
from hypothesis import assume, given, settings, strategies as st

from itdom import (
    Graph,
    InvariantCache,
    Status,
    check,
    complement,
    enumerate_graphs,
    iter_bits,
    mask_of,
    omega,
    parse_graph6,
)

from helpers import disjoint_union, permute, random_graph, to_networkx

KEYS = ("gamma", "tau_i", "gamma_it", "gamma_t", "gamma_tt")


def families(g: Graph, maximum_independent_sets) -> dict[str, list[int]]:
    """The sets each invariant's feasible sets must meet, built from the definitions."""
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    opened = list(g.adj)
    mis = list(maximum_independent_sets)
    return {
        "gamma": closed,
        "tau_i": mis,
        "gamma_it": closed + mis,
        "gamma_t": opened,
        "gamma_tt": opened + mis,
    }


def values(g: Graph) -> dict[str, int | None]:
    cache = InvariantCache(g)
    return {key: getattr(cache, key) for key in KEYS}


def has_hitting_set(sets: list[int], k: int) -> bool:
    """Unpruned reference: some k vertices meet every set.  It branches on
    the vertices of a smallest unmet set and cuts nothing else."""
    if not sets:
        return True
    if k == 0:
        return False
    first = min(sets, key=int.bit_count)
    return any(
        has_hitting_set([s for s in sets if not s >> v & 1], k - 1) for v in iter_bits(first)
    )


@st.composite
def graphs(draw, low: int, high: int) -> Graph:
    """G(n, p) from a drawn seed, sparse to dense."""
    n = draw(st.integers(low, high))
    p = draw(st.sampled_from((0.08, 0.15, 0.25, 0.4, 0.6, 0.8)))
    return random_graph(random.Random(draw(st.integers(0, 2**32))), n, p)


@st.composite
def bipartite_graphs(draw, low: int, high: int) -> tuple[Graph, set[int]]:
    """A random bipartite graph with at least one edge, and one of its sides."""
    n = draw(st.integers(low, high))
    p = draw(st.sampled_from((0.08, 0.15, 0.25, 0.4, 0.6, 0.8)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = set(rng.sample(range(n), rng.randint(1, n - 1)))
    edges = [(u, v) for u in top for v in range(n) if v not in top and rng.random() < p]
    assume(edges)
    return Graph(n, edges), top


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@PROPERTY
@given(st.data())
def test_values_are_invariant_under_relabeling(data):
    g = data.draw(graphs(17, 32))
    perm = data.draw(st.permutations(range(g.n)))
    assert values(permute(g, perm)) == values(g)


@PROPERTY
@given(graphs(8, 16), graphs(9, 16))
def test_values_over_a_disjoint_union(a, b):
    u, va, vb = values(disjoint_union(a, b)), values(a), values(b)
    assert u["gamma"] == va["gamma"] + vb["gamma"]
    # An Omega set of the union is one of each side, so a transversal of the
    # union is a transversal of one side's family.
    assert u["tau_i"] == min(va["tau_i"], vb["tau_i"])
    assert u["gamma_it"] == min(
        va["gamma_it"] + vb["gamma"], va["gamma"] + vb["gamma_it"]
    )
    if va["gamma_t"] is None or vb["gamma_t"] is None:
        assert u["gamma_t"] is None and u["gamma_tt"] is None
    else:
        assert u["gamma_t"] == va["gamma_t"] + vb["gamma_t"]
        assert u["gamma_tt"] == min(
            va["gamma_tt"] + vb["gamma_t"], va["gamma_t"] + vb["gamma_tt"]
        )


@PROPERTY
@given(graphs(17, 32))
def test_values_match_an_unpruned_search(g):
    fams = families(g, omega(g).sets)
    for key, k in values(g).items():
        if k is None:
            continue
        assert has_hitting_set(fams[key], k), key
        assert not has_hitting_set(fams[key], k - 1), key


@PROPERTY
@given(bipartite_graphs(17, 32))
def test_lemma_2_1_on_complements_of_bipartite_graphs(drawn):
    # The complement of G is bipartite H, so the complement cover number is
    # H's vertex cover number, which is its matching number (Konig).
    h, top = drawn
    matching = len(nx.bipartite.hopcroft_karp_matching(to_networkx(h), top_nodes=top)) // 2
    verdict = check("L2.1", complement(h))
    assert verdict.status is Status.HOLDS
    assert verdict.witness["tau_i"] == verdict.witness["complement_cover_number"] == matching


def _brute_omega(g: Graph) -> list[int]:
    independent = [
        s for s in range(1 << g.n) if all(not g.adj[v] & s for v in iter_bits(s))
    ]
    alpha = max(s.bit_count() for s in independent)
    return [s for s in independent if s.bit_count() == alpha]


def _assert_optima_are_the_sorted_sweep(g: Graph):
    cache = InvariantCache(g)
    fams = families(g, _brute_omega(g))
    for key in KEYS:
        k = getattr(cache, key)
        expected = []
        if k is not None:
            expected = sorted(
                mask
                for mask in map(mask_of, combinations(range(g.n), k))
                if all(mask & s for s in fams[key])
            )
        assert list(cache.optima(key)) == expected, (key, g.adj)


def test_optima_are_the_sorted_sweep_on_every_small_graph():
    for n in range(1, 7):
        for g in map(parse_graph6, enumerate_graphs(n)):
            _assert_optima_are_the_sorted_sweep(g)


def test_optima_are_the_sorted_sweep_on_random_graphs():
    rng = random.Random(909)
    for _ in range(80):
        n = rng.randint(7, 12)
        _assert_optima_are_the_sorted_sweep(random_graph(rng, n, rng.choice((0.15, 0.3, 0.5))))
