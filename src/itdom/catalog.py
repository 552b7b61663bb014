"""Brute-force canonical forms and isomorphism-free small-graph catalogs.

The canonical form of a graph is the relabeling minimizing the
upper-triangle bit encoding x(0,1), x(0,2), x(1,2), x(0,3), ... read as a
big-endian bit string -- the same bit order graph6 uses, so sorting
catalog entries by canonical graph6 text equals sorting by encoding.

Only connected graphs are generated, by vertex extension; the catalog of
all graphs adds the disconnected complements of the connected entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, complement, encode_graph6, is_connected, iter_bits

CANONICAL_MAX_ORDER = 9
CATALOG_MAX_ORDER = 7


@dataclass(frozen=True)
class CatalogEntry:
    """One isomorphism class: the canonically labeled graph and its text form."""

    graph: Graph
    graph6: str
    order: int


def _canonical_cols(adj: tuple[int, ...], n: int) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Minimum column encoding over all relabelings, with all attaining placements.

    Works level by level: a placement prefix fixes columns 1..j of the
    encoding, and the lexicographic minimum is obtained by keeping, at each
    level, exactly the prefixes whose next column is minimal.  The returned
    placements map new label -> original vertex; for an already-canonical
    graph they are precisely its automorphisms.
    """
    if n <= 1:
        return (), [tuple(range(n))]
    frontier: list[tuple[tuple[int, ...], int]] = [((v,), 1 << v) for v in range(n)]
    cols = []
    for j in range(1, n):
        best_col = None
        nxt: list[tuple[tuple[int, ...], int]] = []
        for placed, used in frontier:
            for v in range(n):
                if (used >> v) & 1:
                    continue
                row = adj[v]
                col = 0
                shift = j - 1
                for p in placed:
                    col |= ((row >> p) & 1) << shift
                    shift -= 1
                if best_col is None or col < best_col:
                    best_col = col
                    nxt = [(placed + (v,), used | (1 << v))]
                elif col == best_col:
                    nxt.append((placed + (v,), used | (1 << v)))
        cols.append(best_col)
        frontier = nxt
    return tuple(cols), [placed for placed, _ in frontier]


def _graph_from_cols(cols: tuple[int, ...], n: int) -> Graph:
    edges = []
    for j in range(1, n):
        col = cols[j - 1]
        for i in range(j):
            if (col >> (j - 1 - i)) & 1:
                edges.append((i, j))
    return Graph(n, edges)


def canonical_form(g: Graph) -> Graph:
    """Canonically labeled copy; equal canonical forms iff isomorphic."""
    if g.n > CANONICAL_MAX_ORDER:
        raise ValueError(
            f"canonical form is brute force and limited to n <= {CANONICAL_MAX_ORDER}"
        )
    cols, _ = _canonical_cols(g.adj, g.n)
    return _graph_from_cols(cols, g.n)


def _orbit_reps(n: int, autos: list[tuple[int, ...]]) -> list[int]:
    """One representative per orbit of nonempty vertex subsets under ``autos``."""
    if len(autos) == 1:
        return list(range(1, 1 << n))
    reps = []
    seen = set()
    for mask in range(1, 1 << n):
        if mask in seen:
            continue
        reps.append(mask)
        for p in autos:
            img = 0
            for i in iter_bits(mask):
                img |= 1 << p[i]
            seen.add(img)
    return reps


def _entry_from_cols(cols: tuple[int, ...], n: int) -> CatalogEntry:
    graph = _graph_from_cols(cols, n)
    return CatalogEntry(graph=graph, graph6=encode_graph6(graph), order=n)


@lru_cache(maxsize=None)
def enumerate_connected_graphs(n: int) -> tuple[CatalogEntry, ...]:
    """All connected graphs on n vertices, one canonical entry per class.

    Each connected graph on n >= 2 vertices arises from a connected graph
    on n-1 vertices by adding a vertex with a nonempty neighborhood, so the
    previous catalog level is extended and deduplicated by canonical
    encoding.  Neighborhoods equivalent under a parent automorphism give
    isomorphic children and are reduced to orbit representatives first.
    """
    if not 1 <= n <= CATALOG_MAX_ORDER:
        raise ValueError(f"catalog order must be in [1, {CATALOG_MAX_ORDER}], got {n}")
    if n == 1:
        return (_entry_from_cols((), 1),)
    out: dict[tuple[int, ...], CatalogEntry] = {}
    for parent in enumerate_connected_graphs(n - 1):
        padj = parent.graph.adj
        _, autos = _canonical_cols(padj, n - 1)
        for mask in _orbit_reps(n - 1, autos):
            child = tuple(
                row | (((mask >> v) & 1) << (n - 1)) for v, row in enumerate(padj)
            ) + (mask,)
            cols, _ = _canonical_cols(child, n)
            if cols not in out:
                out[cols] = _entry_from_cols(cols, n)
    return tuple(out[key] for key in sorted(out))


@lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> tuple[CatalogEntry, ...]:
    """All graphs on n vertices (connected or not), one canonical entry each.

    A graph or its complement is connected, and complementation is a
    bijection on isomorphism classes, so every disconnected class is the
    complement of exactly one connected class: the connected catalog plus
    the canonical complements that are disconnected is the whole catalog.
    """
    connected = enumerate_connected_graphs(n)
    entries = list(connected)
    for entry in connected:
        co = complement(entry.graph)
        if not is_connected(co):
            cols, _ = _canonical_cols(co.adj, n)
            entries.append(_entry_from_cols(cols, n))
    entries.sort(key=lambda e: e.graph6)
    if len({e.graph6 for e in entries}) != len(entries):
        raise RuntimeError(f"order-{n} catalog holds isomorphic duplicates")
    return tuple(entries)
