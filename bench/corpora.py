"""Seeded input corpora for the benchmark workloads, written as graph6 text.

The program under test only ever sees the files written here.  Graphs are
built from plain edge lists with this module's own graph6 encoder, so the
inputs do not depend on the package being measured.  The same seed always
gives byte-identical files: every random draw goes through one
``random.Random`` per workload, seeded with a string (stable across Python
versions), and only ``Random.random()`` is used.
"""

from __future__ import annotations

import random
from itertools import combinations

Edges = list[tuple[int, int]]

# Edge densities of the seeded order-20 graphs.  Each draw is G(20, m) with
# m = round(p * 190) edges, i.e. G(20, p) conditioned on its expected edge
# count, which keeps the cost of one corpus steady from seed to seed.
REPORT_DENSITIES = (0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.85)

# Orders and edge densities of the verify-sweep graphs, cycled in a fixed
# pattern so that every corpus has the same mix.
SWEEP_ORDERS = (8, 9, 10)
SWEEP_DENSITIES = (0.25, 0.35, 0.45, 0.55, 0.65, 0.75)


def encode_graph6(n: int, edges: Edges) -> str:
    """graph6 text of a graph on vertices 0..n-1 (n <= 62)."""
    if not 0 <= n <= 62:
        raise ValueError(f"order {n} is outside the one-byte graph6 header")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(i, j) in present for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k : k + 6]:
            value = (value << 1) | bit
        out.append(chr(63 + value))
    return "".join(out)


def cycle(n: int) -> Edges:
    return [(i, (i + 1) % n) for i in range(n)]


def path(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


def corona(n: int, edges: Edges) -> tuple[int, Edges]:
    """Vertices 0..n-1 keep ``edges``; vertex n + i is a pendant on i."""
    return 2 * n, edges + [(i, n + i) for i in range(n)]


def complement(n: int, edges: Edges) -> Edges:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    return [e for e in combinations(range(n), 2) if e not in present]


def petersen() -> Edges:
    return (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )


def random_gnm(rng: random.Random, n: int, m: int) -> Edges:
    """m distinct edges drawn uniformly by a partial Fisher-Yates shuffle."""
    pairs = list(combinations(range(n), 2))
    for i in range(m):
        j = i + int(rng.random() * (len(pairs) - i))
        pairs[i], pairs[j] = pairs[j], pairs[i]
    return sorted(pairs[:m])


def is_connected(n: int, edges: Edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def report_n20(seed: int) -> list[str]:
    """Order-20 corpus for ``itdom invariants``.

    Fixed families: the sparse C20, P20, corona(C10) and corona(P10), on
    which the total-domination sweeps run longest; the dense complement of
    C20, K10,10 and the complement of the Petersen graph.  Then one seeded
    G(20, m) per density in ``REPORT_DENSITIES``.
    """
    rng = random.Random(f"report-n20:{seed}")
    k10_10 = [(i, 10 + j) for i in range(10) for j in range(10)]
    graphs = [
        (20, cycle(20)),
        (20, path(20)),
        corona(10, cycle(10)),
        corona(10, path(10)),
        (20, complement(20, cycle(20))),
        (20, k10_10),
        (10, complement(10, petersen())),
    ]
    for p in REPORT_DENSITIES:
        graphs.append((20, random_gnm(rng, 20, round(p * 190))))
    return [encode_graph6(n, edges) for n, edges in graphs]


def verify_sweep(seed: int, count: int) -> list[str]:
    """``count`` distinct connected graphs of orders 8-10, mixed density.

    Graph i has order ``SWEEP_ORDERS[i % 3]`` and density
    ``SWEEP_DENSITIES[(i // 3) % 6]``; a draw that is disconnected or
    repeats an earlier graph6 string is redrawn.
    """
    rng = random.Random(f"verify-sweep:{seed}")
    seen: set[str] = set()
    out = []
    i = 0
    while len(out) < count:
        n = SWEEP_ORDERS[i % len(SWEEP_ORDERS)]
        p = SWEEP_DENSITIES[(i // len(SWEEP_ORDERS)) % len(SWEEP_DENSITIES)]
        edges = random_gnm(rng, n, round(p * n * (n - 1) / 2))
        text = encode_graph6(n, edges)
        if is_connected(n, edges) and text not in seen:
            seen.add(text)
            out.append(text)
            i += 1
    return out
