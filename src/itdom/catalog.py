"""Canonical forms by an exhaustive narrowing search, and isomorphism-free
small-graph catalogs.

The canonical form of a graph is the relabeling minimizing the
upper-triangle bit encoding x(0,1), x(0,2), x(1,2), x(0,3), ... read as a
big-endian bit string -- the same bit order graph6 uses, so sorting
catalog entries by canonical graph6 text equals sorting by encoding.  The
search places vertices one label at a time and keeps every placement
prefix whose columns are least so far; a prefix finds its least next
column with bitmask operations, by narrowing its set of free vertices to
the non-neighbours of each placed vertex in turn.

Only connected graphs are generated, by vertex extension; the catalog of
all graphs adds the disconnected complements of the connected entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, complement, encode_graph6, is_connected

CANONICAL_MAX_ORDER = 9
CATALOG_MAX_ORDER = 8


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
    level, exactly the prefixes whose next column is minimal.  Column j of
    a free vertex is its adjacency to the placed vertices in order, most
    significant bit first, so the least next column of a prefix comes from
    narrowing its free set along the placed sequence: to the non-neighbours
    of each placed vertex (a 0 bit) unless none are left (a 1 bit, set
    unchanged).  What remains, ``reach``, is exactly the set of free
    vertices attaining that column.  Extending a prefix by ``v`` in
    ``reach`` only appends ``v`` to that walk while ``reach`` holds another
    vertex: the least column over the old placed vertices is unchanged and
    attained by ``reach - v``, so one narrowing step by ``v`` finishes it.
    Only when ``v`` was the sole vertex of ``reach`` is the walk redone.
    The returned placements map new label -> original vertex; for an
    already-canonical graph they are precisely its automorphisms.
    """
    if n <= 1:
        return (), [tuple(range(n))]
    full = (1 << n) - 1
    non = [full ^ row for row in adj]
    # (placed, free, reach): reach holds the free vertices attaining the least next column
    frontier: list[tuple[tuple[int, ...], int, int]] = [((), full, full)]
    cols: list[int] = []
    prev = 0  # the least column of the last level, shared by every prefix kept
    for _ in range(1, n):
        best_col = full  # above every column: a column has fewer than n bits
        best: list[tuple[tuple[int, ...], int, int]] = []
        for placed, free, reach in frontier:
            m = reach
            while m:  # iter_bits inlined: this loop is the labeling's inner loop
                bit = m & -m
                m ^= bit
                v = bit.bit_length() - 1
                rest = reach ^ bit
                if rest:
                    col = prev
                else:
                    col = 0
                    rest = free ^ bit
                    for p in placed:
                        narrowed = rest & non[p]
                        if narrowed:
                            rest = narrowed
                            col <<= 1
                        else:
                            col = (col << 1) | 1
                narrowed = rest & non[v]
                if narrowed:
                    rest = narrowed
                    col <<= 1
                else:
                    col = (col << 1) | 1
                if col < best_col:
                    best_col = col
                    best = [(placed + (v,), free ^ bit, rest)]
                elif col == best_col:
                    best.append((placed + (v,), free ^ bit, rest))
        cols.append(best_col)
        frontier = best
        prev = best_col
    # each prefix kept at the last level has one free vertex left: it takes label n - 1
    return tuple(cols), [placed + (free.bit_length() - 1,) for placed, free, _ in frontier]


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
            f"canonical form is an exhaustive search and limited to n <= {CANONICAL_MAX_ORDER}"
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
            m = mask
            while m:  # iter_bits inlined: this runs once per mask per automorphism
                low = m & -m
                img |= 1 << p[low.bit_length() - 1]
                m ^= low
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
