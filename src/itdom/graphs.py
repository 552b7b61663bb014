"""Immutable bitset graphs, codecs and standard constructions.

Vertices are integers 0..n-1 and every vertex set is a plain int bitmask,
so set algebra used by the exact solvers is single-word arithmetic.
graph6 lines are packed only by ``pack_graph6``, from the columns that
``graph6_column`` reads off adjacency rows; ``catalog`` packs through it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

MAX_ORDER = 64


class Graph6Error(ValueError):
    """Malformed graph6 text or an encoding request the format cannot express."""


class EdgeListError(ValueError):
    """Malformed edge-list text."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def members(mask: int) -> list[int]:
    return list(iter_bits(mask))


class Graph:
    """Immutable simple undirected graph on {0, ..., n-1}.

    ``adj[v]`` is the neighbor bitmask of ``v``.  Instances are frozen:
    assigning or deleting an attribute raises ``AttributeError``, and all
    operations below return new graphs.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if not 0 <= n <= MAX_ORDER:
            raise ValueError(f"graph order must be in [0, {MAX_ORDER}], got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def from_adjacency(cls, adj: Sequence[int]) -> "Graph":
        """Build a graph from neighbor bitmasks, validating shape and symmetry."""
        n = len(adj)
        if n > MAX_ORDER:
            raise ValueError(f"graph order must be at most {MAX_ORDER}, got {n}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency of vertex {v} has bits outside [0, {n})")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(n):
            for u in iter_bits(adj[v]):
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        return cls._trusted(adj)

    @classmethod
    def _trusted(cls, adj: Sequence[int]) -> "Graph":
        """A graph on neighbor bitmasks already known to be valid."""
        g = cls.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "adj", tuple(adj))
        return g

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Graph is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # The default slot-state restore assigns attributes, which is refused.
        return Graph.from_adjacency, (self.adj,)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("minimum degree undefined for the empty graph")
        return min(row.bit_count() for row in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def closed(self, v: int) -> int:
        """Closed neighborhood N[v] as a bitmask."""
        return self.adj[v] | (1 << v)

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v in lexicographic order."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for off in iter_bits(rest):
                out.append((u, u + 1 + off))
        return out

    def isolated(self) -> int:
        """Bitmask of degree-zero vertices."""
        return mask_of(v for v in range(self.n) if self.adj[v] == 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Bipartition(NamedTuple):
    """Ordered two-coloring (X, Y) as bitmasks; no edge inside either side."""

    x: int
    y: int


# ---------------------------------------------------------------------------
# graph6 codec
#
# Format: one size byte n+63 for 0 <= n <= 62, then the upper-triangle bits
# x(0,1), x(0,2), x(1,2), x(0,3), ... packed big-endian into 6-bit groups,
# each group offset by 63, zero-padded to a multiple of 6 bits.
# ---------------------------------------------------------------------------

# Six bits -> the same bits in reverse order.
_REVERSED_SIX = [int(f"{v:06b}"[::-1], 2) for v in range(64)]
# Body byte -> its six bits in reverse order (bytes below 63 are rejected).
_REVERSED_GROUP = [0] * 63 + _REVERSED_SIX


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string into a labeled graph.

    Raises Graph6Error with a distinct message for each malformation:
    bad length, out-of-range byte, trailing garbage / nonzero padding.
    """
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
        raise Graph6Error(
            f"graph6 body too short: expected {nbytes} bytes, got {len(body)}"
        )
    if len(body) > nbytes:
        raise Graph6Error("trailing garbage after graph6 body")
    if body and not ("?" <= min(body) and max(body) <= "~"):
        bad = next(ch for ch in body if not "?" <= ch <= "~")
        raise Graph6Error(f"graph6 body byte out of range: {ord(bad)}")
    if nbytes and (ord(body[-1]) - 63) & ((1 << (nbytes * 6 - nbits)) - 1):
        raise Graph6Error("nonzero padding bits in graph6 body")
    # The body as one int whose bit k is the k-th pair x(0,1), x(0,2), ...:
    # the groups in reverse order, each with its six bits reversed.
    bits = 0
    for byte in reversed(body.encode()):
        bits = (bits << 6) | _REVERSED_GROUP[byte]
    adj = [0] * n
    for j in range(1, n):
        col = bits & ((1 << j) - 1)  # the neighbors of j below j
        bits >>= j
        adj[j] = col
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= 1 << j
            col ^= low
    return Graph._trusted(adj)


def graph6_column(row: int, j: int) -> int:
    """Column j of the encoding: the edges of ``row`` to labels 0..j-1, label 0
    first.  Reversing j bits is its own inverse, so it turns a column into a row too."""
    col = 0
    while j > 6:  # six bits at a time
        col = col << 6 | _REVERSED_SIX[row & 63]
        row >>= 6
        j -= 6
    return col << j | _REVERSED_SIX[row & 63] >> (6 - j)


def pack_graph6(cols: Iterable[int], n: int) -> str:
    """The graph6 line of the n-vertex graph with encoding columns ``cols``:
    column j, label 0 first, is the next j bits of the graph6 body."""
    bits = 0
    for j, col in enumerate(cols, 1):
        bits = bits << j | col
    size = n * (n - 1) // 2
    pad = -size % 6
    bits <<= pad
    return chr(n + 63) + "".join(chr((bits >> s & 63) + 63) for s in range(size + pad - 6, -1, -6))


def encode_graph6(g: Graph) -> str:
    """Encode a labeled graph as graph6 text (inverse of parse_graph6)."""
    if g.n > 62:
        raise Graph6Error(f"graph6 cannot encode order {g.n} (maximum 62)")
    return pack_graph6([graph6_column(g.adj[j], j) for j in range(1, g.n)], g.n)


# ---------------------------------------------------------------------------
# Edge-list codec: first line "n m", then m lines "u v" (0-based).
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise EdgeListError("empty edge list")
    header = lines[0].split()
    if len(header) != 2:
        raise EdgeListError(f"bad edge-list header: {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise EdgeListError(f"bad edge-list header: {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise EdgeListError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise EdgeListError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise EdgeListError(f"bad edge line: {ln!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"edge ({u}, {v}) out of range for order {n}")
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise EdgeListError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append((u, v))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph.from_adjacency([full & ~g.adj[v] & ~(1 << v) for v in range(g.n)])


def corona(h: Graph) -> Graph:
    """Attach one new pendant vertex to each vertex of ``h``.

    Vertices [0, h.n) induce ``h``; vertex h.n + i is pendant on i.
    """
    if h.n < 1:
        raise ValueError("corona requires at least one vertex")
    if 2 * h.n > MAX_ORDER:
        raise ValueError(f"corona of order {h.n} exceeds the {MAX_ORDER}-vertex limit")
    edges = h.edges()
    edges.extend((i, h.n + i) for i in range(h.n))
    return Graph(2 * h.n, edges)


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path requires n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle requires n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph requires n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph requires both sides nonempty")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(k: int) -> Graph:
    """The star on k leaves, center 0."""
    if k < 1:
        raise ValueError("star requires k >= 1 leaves")
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i--i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def induced_subgraph(g: Graph, mask: int) -> tuple[Graph, list[int]]:
    """Subgraph induced by ``mask``; also returns the original vertex ids."""
    verts = members(mask)
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if (mask >> u) & 1 and (mask >> v) & 1
    ]
    return Graph(len(verts), edges), verts


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


def components(g: Graph) -> list[int]:
    """Connected components as bitmasks, ordered by their minimum vertex."""
    out = []
    seen = 0
    for v in range(g.n):
        if (seen >> v) & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        out.append(comp)
        seen |= comp
    return out


def is_connected(g: Graph) -> bool:
    return g.n >= 1 and len(components(g)) == 1


def bipartition(g: Graph) -> Bipartition | None:
    """Deterministic two-coloring, or None for non-bipartite graphs.

    In each component the color class containing the component's minimum
    vertex goes to X, so connected graphs get the side containing vertex 0.
    """
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        # The least vertex not yet colored is the least of its component.
        color[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for u in iter_bits(g.adj[v]):
                    if color[u] == -1:
                        color[u] = color[v] ^ 1
                        nxt.append(u)
                    elif color[u] == color[v]:
                        return None
            frontier = nxt
    x = mask_of(v for v in range(g.n) if color[v] == 0)
    return Bipartition(x, g.full_mask & ~x)


def pendant_vertices(g: Graph) -> int:
    """Bitmask of all degree-1 vertices."""
    return mask_of(v for v in range(g.n) if g.degree(v) == 1)
