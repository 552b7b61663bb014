"""Shared helpers for the test suite: seeded generators and slow reference code."""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import Sequence

import networkx as nx

from itdom import Graph, Graph6Error, InvariantCache, canonical_form, cycle, encode_graph6, is_connected, iter_bits
from itdom import invariants
from itdom.graphs import MAX_ORDER


def canonical_graph6(g: Graph) -> str:
    return encode_graph6(canonical_form(g))


def reference_parse_graph6(text: str) -> Graph:
    """Definitional reference for ``parse_graph6``: checks in the same order,
    with the same messages, then reads the pair bits one by one."""
    if not text:
        raise Graph6Error("empty graph6 string")
    head = ord(text[0])
    if head < 63 or head > 126:
        raise Graph6Error(f"graph6 size byte out of range: {head}")
    if head == 126:
        raise Graph6Error("graph6 orders above 62 are not supported")
    n = head - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = text[1:]
    if len(body) < nbytes:
        raise Graph6Error(f"graph6 body too short: expected {nbytes} bytes, got {len(body)}")
    if len(body) > nbytes:
        raise Graph6Error("trailing garbage after graph6 body")
    groups = []
    for ch in body:
        if not 0 <= ord(ch) - 63 <= 63:
            raise Graph6Error(f"graph6 body byte out of range: {ord(ch)}")
        groups.append(ord(ch) - 63)
    if nbytes and groups[-1] & ((1 << (nbytes * 6 - nbits)) - 1):
        raise Graph6Error("nonzero padding bits in graph6 body")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return Graph(n, [pair for k, pair in enumerate(pairs) if (groups[k // 6] >> (5 - k % 6)) & 1])


def to_networkx(g: Graph) -> nx.Graph:
    """The same graph in networkx, isolated vertices included."""
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    return h


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    """Each vertex after the first hangs from a random earlier one."""
    return Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])


def triangles(k: int) -> Graph:
    """K3 x k: k disjoint triangles."""
    edges = [(3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (0, 2), (1, 2))]
    return Graph(3 * k, edges)


def solver_paths(monkeypatch):
    """Each solver path in turn, for a loop body to run on: the subset
    lattice, which takes every graph up to ``LATTICE_MAX_ORDER``, then the
    branch-and-bound kernel with its set index and Omega search, made to
    take every graph by setting that order to 0 until the loop ends."""
    with monkeypatch.context() as m:
        yield "lattice"
        m.setattr(invariants, "LATTICE_MAX_ORDER", 0)
        yield "kernel"


def above_lattice_graphs() -> list[Graph]:
    """Seeded sparse, dense and tree graphs of each of the three orders
    above ``LATTICE_MAX_ORDER``, where the branch-and-bound kernel runs."""
    rng = random.Random(2017)
    top = invariants.LATTICE_MAX_ORDER
    return [
        g
        for n in range(top + 1, top + 4)
        for g in (random_graph(rng, n, 0.25), random_graph(rng, n, 0.5), random_tree(rng, n))
    ]


def random_bipartite(rng: random.Random, a: int, b: int, p: float) -> Graph:
    edges = [
        (i, a + j) for i in range(a) for j in range(b) if rng.random() < p
    ]
    return Graph(a + b, edges)


def random_permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def girth(g: Graph) -> int | None:
    """Shortest cycle length by deleting each edge and measuring the detour."""
    best = None
    for u, v in g.edges():
        dist = _bfs_distance_without_edge(g, u, v)
        if dist is not None:
            length = dist + 1
            best = length if best is None or length < best else best
    return best


def _bfs_distance_without_edge(g: Graph, src: int, dst: int) -> int | None:
    dist = {src: 0}
    queue = [src]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for y in range(g.n):
            if not g.adj[x] >> y & 1:
                continue
            if {x, y} == {src, dst}:
                continue
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist.get(dst)


def raw_connected_sweep(n: int) -> list[str]:
    """Independent enumeration oracle: canonical graph6 of every connected
    labeled graph on n vertices, deduplicated and sorted.

    Exponential in n*(n-1)/2; for cross-checking the incremental catalog
    generator at small orders only.
    """
    if not 1 <= n <= 5:
        raise ValueError("raw sweep is limited to n <= 5")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    found = set()
    for mask in range(1 << len(pairs)):
        g = Graph(n, [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1])
        if is_connected(g):
            found.add(canonical_graph6(g))
    return sorted(found)


def brute_canonical_cols(g: Graph) -> tuple[int, ...]:
    """Definitional reference for ``catalog._canonical_cols``: the least
    column encoding over every relabeling.  Column j holds the adjacency of
    label j to labels 0..j-1, label 0 as the most significant bit."""
    best = None
    for perm in permutations(range(g.n)):
        cols = []
        for j in range(1, g.n):
            row = g.adj[perm[j]]
            col = 0
            for i in range(j):
                col = (col << 1) | ((row >> perm[i]) & 1)
            cols.append(col)
        key = tuple(cols)
        if best is None or key < best:
            best = key
    return best


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def disjoint_union(a: Graph, b: Graph) -> Graph:
    if a.n + b.n > MAX_ORDER:
        raise ValueError("disjoint union exceeds the order limit")
    adj = list(a.adj) + [row << a.n for row in b.adj]
    return Graph.from_adjacency(adj)


def permute(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel: vertex v of ``g`` becomes ``perm[v]``."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex range")
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in iter_bits(g.adj[v]):
            row |= 1 << perm[u]
        adj[perm[v]] = row
    return Graph.from_adjacency(adj)


def gamma_it_sets(g: Graph) -> tuple[int, tuple[int, ...]]:
    """The gamma_it value together with every optimal witness, in increasing mask order."""
    cache = InvariantCache(g)
    return cache.gamma_it, tuple(cache.optima("gamma_it"))


def is_c4(g: Graph) -> bool:
    return g.n == 4 and canonical_form(g) == canonical_form(cycle(4))


def ksubsets(n: int, k: int):
    """All k-subsets of [0, n) as bitmasks in increasing numeric order (Gosper)."""
    if k == 0:
        yield 0
        return
    if k > n:
        return
    mask = (1 << k) - 1
    while mask < 1 << n:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple


def least_mask(n: int, k: int, feasible) -> int | None:
    """Brute-force reference: the least k-subset mask of [0, n) accepted by ``feasible``."""
    return next((s for s in ksubsets(n, k) if feasible(s)), None)


def dominates(g: Graph, s: int, total: bool = False) -> bool:
    """Every vertex has a neighbor in s (total) or is in or next to s."""
    cover = 0
    for v in iter_bits(s):
        cover |= g.adj[v] if total else g.closed(v)
    return cover == g.full_mask


def lex_first_matching(g: Graph) -> list[tuple[int, int]]:
    """Definitional reference for ``maximum_matching``: walk the edges in
    (u, v) order and keep one when networkx still finds a maximum matching
    of the remaining vertices that completes the target size."""
    whole = nx.Graph(g.edges())
    whole.add_nodes_from(range(g.n))

    def size(vertices: set[int]) -> int:
        return len(nx.max_weight_matching(whole.subgraph(vertices), maxcardinality=True))

    rest = set(range(g.n))
    need = size(rest)
    chosen = []
    for u, v in g.edges():
        if need == 0:
            break
        if u in rest and v in rest and size(rest - {u, v}) == need - 1:
            chosen.append((u, v))
            rest -= {u, v}
            need -= 1
    return chosen
