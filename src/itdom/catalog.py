"""Canonical forms by an exhaustive narrowing search, and isomorphism-free
small-graph catalogs.

The canonical form of a graph is the relabeling minimizing the
upper-triangle bit encoding x(0,1), x(0,2), x(1,2), x(0,3), ... read as a
big-endian bit string -- the same bit order graph6 uses, so sorting
canonical graph6 lines equals sorting by encoding, and a line is packed
straight from its columns by ``graphs.pack_graph6``.  The search places
vertices one label at a time and keeps every placement prefix whose
columns are least so far; a prefix finds its least next column with
bitmask operations, by narrowing its set of free vertices to the
non-neighbours of each placed vertex in turn.

A catalog is its sorted canonical graph6 lines, and its text is each line
followed by a newline.  The text of the order-n catalog of all graphs is
pinned by its SHA-256, checked here whether the catalog was generated or
read from a cache.  The catalogs are generated orderly (Read, "Every one
a winner", 1978).  Deleting the last label of a canonical graph leaves a
canonical graph, so each canonical graph on n vertices is one new column
added to exactly one line of the previous catalog: every such child is
built, and kept iff it is canonical.  Each parent's children are found
on their own (``canonical_children``), so a caller may split the parents
across processes.  The connected catalog is a filter of the full one.

Both searches are pruned by twin transpositions (McKay, "Practical graph
isomorphism", 1981): two vertices with the same neighbours apart from
each other are twins, and swapping them is an automorphism.  The labeling
walk extends a prefix by no vertex that has a lower free twin, whose
extension reaches the same column sequences, so the minimum stays
reachable.  The children skip every new column that meets a parent twin u
but not a parent twin v > u: swapping u and v keeps the parent's columns
and lowers the new one, so such a child is never canonical.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache

from .graphs import Graph, graph6_column, is_connected, pack_graph6, parse_graph6

CANONICAL_MAX_ORDER = 9

# SHA-256 of the order-n catalog of all graphs as ``generate --order n --all``
# prints it: the sorted graph6 lines, each ending in a newline.
CATALOG_SHA256 = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    3: "1d237c0da1c599bbd8f4cffdf1fd13171099276e9ca335a1e0c819e4be9b2bea",
    4: "4779a12d9a07b2a2e13924257ea8b573ba0bd3af65d263532115d2ee564e7762",
    5: "20785da1cf32ff06b5c7830950a3525a00c0ffc56e24213a2047c413effdf161",
    6: "6ba261a8381f12c8b4b59ae2c7715cee98a31b3f4c6b5a6bea5ef4eba006a0fc",
    7: "e3eee2a6b5beecaa47bee1b0d67a6a982c0e5e2c0067993d735036d3c9d6512f",
    8: "e1aed63b07ff72557885ee1244044d6ad30ba1b182f74cc7bcb7a02da8d34867",
}
CATALOG_MAX_ORDER = max(CATALOG_SHA256)


def _lower_twins(adj: tuple[int, ...]) -> list[int]:
    """For each vertex v, the mask of its twins u < v: the vertices with the
    same neighbours as v apart from v itself, so that swapping u and v is an
    automorphism.  False twins have equal rows, true twins equal rows once
    each row holds its own vertex."""
    lower = []
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v, row in enumerate(adj):
        bit = 1 << v
        shut = row | bit
        lower.append(by_open.get(row, 0) | by_closed.get(shut, 0))
        by_open[row] = by_open.get(row, 0) | bit
        by_closed[shut] = by_closed.get(shut, 0) | bit
    return lower


def _canonical_cols(
    adj: tuple[int, ...], n: int, bound: tuple[int, ...] | None = None
) -> tuple[int, ...] | None:
    """Minimum column encoding over all relabelings; given ``bound``, None if
    some relabeling's encoding is below ``bound``, else ``bound``.

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
    Given ``bound``, each level keeps the prefixes attaining the bound's
    column, and the walk returns at the first column below it.

    A prefix is not extended by ``v`` while a twin of ``v`` with a lower
    label is free.  Free twins have the same column over the placed
    vertices, so that twin is in ``reach`` with ``v``, and swapping the two
    is an automorphism fixing every placed vertex: it maps the prefix
    extended by ``v`` onto the prefix extended by the twin, column sequence
    for column sequence.  Every column sequence stays reachable, so neither
    the minimum nor the ``None`` under ``bound`` changes, and the frontier
    of the empty or complete graph is one prefix wide instead of n!.
    """
    if n <= 1:
        return ()
    full = (1 << n) - 1
    non = [full ^ row for row in adj]
    lower = _lower_twins(adj)
    # (placed, free, reach): reach holds the free vertices attaining the least next column
    frontier: list[tuple[tuple[int, ...], int, int]] = [((), full, full)]
    cols: list[int] = []
    prev = 0  # the least column of the last level, shared by every prefix kept
    for level in range(n - 1):
        # full is above every column: a column has fewer than n bits
        best_col = full if bound is None else bound[level]
        best: list[tuple[tuple[int, ...], int, int]] = []
        for placed, free, reach in frontier:
            m = reach
            while m:  # iter_bits inlined: this loop is the labeling's inner loop
                bit = m & -m
                m ^= bit
                v = bit.bit_length() - 1
                if reach & lower[v]:
                    continue  # a lower twin of v is free: its extension reaches the same columns
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
                    if bound is not None:
                        return None
                    best_col = col
                    best = [(placed + (v,), free ^ bit, rest)]
                elif col == best_col:
                    best.append((placed + (v,), free ^ bit, rest))
        cols.append(best_col)
        frontier = best
        prev = best_col
    return tuple(cols)


def canonical_form(g: Graph) -> Graph:
    """Canonically labeled copy; equal canonical forms iff isomorphic."""
    if g.n > CANONICAL_MAX_ORDER:
        raise ValueError(
            f"canonical form is an exhaustive search and limited to n <= {CANONICAL_MAX_ORDER}"
        )
    return parse_graph6(pack_graph6(_canonical_cols(g.adj, g.n), g.n))


def _children(padj: tuple[int, ...], m: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(columns, adjacency) of each extension of canonical ``padj`` that may be canonical.

    A new column that meets a twin u of the parent but not a twin v > u is
    skipped: swapping u and v fixes the parent's columns, being a parent
    automorphism, and moves the column's bit from u to v, a less
    significant place, so the child has a relabeling below its own columns.
    """
    pcols = tuple(graph6_column(padj[j], j) for j in range(1, m))
    last = pcols[-1] if pcols else 0
    twins = [(1 << v, lower) for v, lower in enumerate(_lower_twins(padj)) if lower]
    # below last << 1, swapping labels m - 1 and m puts col >> 1 < last in column m - 1
    for col in range(last << 1, 1 << m):
        row = graph6_column(col, m)
        if any(row & lower and not row & bit for bit, lower in twins):
            continue
        child = tuple(r | ((row >> v) & 1) << m for v, r in enumerate(padj)) + (row,)
        yield pcols + (col,), child


def catalog_text(lines: Iterable[str]) -> bytes:
    """A catalog's text as ``generate`` prints it: each line, then a newline."""
    return "".join(ln + "\n" for ln in lines).encode()


def read_catalog(n: int, text: bytes) -> tuple[str, ...] | None:
    """The lines of ``text`` if it hashes to ``CATALOG_SHA256[n]``, else None."""
    import hashlib  # here, so that only a pin check pays for loading it

    if hashlib.sha256(text).hexdigest() != CATALOG_SHA256[n]:
        return None
    return tuple(text.decode().splitlines())


def canonical_children(parent: str) -> list[str]:
    """The canonical graph6 lines of the children of one catalog line."""
    padj = parse_graph6(parent).adj
    m = len(padj)
    return [
        pack_graph6(cols, m + 1)
        for cols, child in _children(padj, m)
        if _canonical_cols(child, m + 1, cols) is not None
    ]


def generate_graphs(n: int, map_parents: Callable = map) -> tuple[str, ...]:
    """The order-n catalog generated from ``enumerate_graphs(n - 1)``, with
    ``map_parents(canonical_children, parents)`` yielding each parent's
    children; RuntimeError unless its text hashes to ``CATALOG_SHA256[n]``."""
    if not 1 <= n <= CATALOG_MAX_ORDER:
        raise ValueError(f"catalog order must be in [1, {CATALOG_MAX_ORDER}], got {n}")
    if n == 1:
        lines = [pack_graph6((), 1)]
    else:
        found = map_parents(canonical_children, enumerate_graphs(n - 1))
        lines = [line for children in found for line in children]
    pinned = read_catalog(n, catalog_text(sorted(lines)))
    if pinned is None:
        raise RuntimeError(f"order-{n} catalog does not match its pinned SHA-256")
    return pinned


@lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> tuple[str, ...]:
    """All graphs on n vertices (connected or not), one canonical graph6 line
    each, sorted; RuntimeError unless their text hashes to ``CATALOG_SHA256[n]``."""
    return generate_graphs(n)


def connected_lines(lines: Iterable[str]) -> tuple[str, ...]:
    """The lines of connected graphs among ``lines``, in the same order."""
    return tuple(ln for ln in lines if is_connected(parse_graph6(ln)))


@lru_cache(maxsize=None)
def enumerate_connected_graphs(n: int) -> tuple[str, ...]:
    """The connected graphs among ``enumerate_graphs(n)``, in the same order."""
    return connected_lines(enumerate_graphs(n))
