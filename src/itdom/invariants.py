"""Exact solvers for independence, matching, domination and transversal invariants.

Every minimum-set invariant here is a minimum hitting set of a family of
vertex sets: ``gamma`` of the closed neighbourhoods N[v], ``gamma_t`` of the
open neighbourhoods N(v), ``tau_i`` of the maximum independent sets Omega,
``gamma_it`` of {N[v]} + Omega and ``gamma_tt`` of {N(v)} + Omega.  One
branch-and-bound kernel (``_min_hitting_size``) finds every value, and one
enumerator (``_hitting_sets``) lists the optimal sets in increasing bitmask
order, so each reported witness is the least optimum by mask value.  Both
take a family as a mask of indices into an index of the sets sorted by
size (``SetIndex``), and bound with a greedy packing of pairwise disjoint
unhit sets, each of which needs its own hitter (``_packs``; the matching
bound of exact dominating-set search, van Rooij and Bodlaender, Discrete
Appl. Math. 159, 2011).  The value search also
keeps the counting bound ceil(#unhit / widest) as its first test, and
packs only when, at the root, packing beats counting.
``InvariantCache`` is the single evaluator: it computes each invariant of a
graph at most once, and the public functions and ``compute_report`` read it.
Once Omega is known, every search reads one index of N[v], N(v) and
Omega, built by one builder (``_index``) in time linear in the number of
sets; ``gamma`` and ``gamma_t`` asked before Omega is known read an index
of N[v] and N(v) alone, so they never enumerate Omega, and a graph asked
for ``gamma`` before an invariant of Omega is indexed twice.

Matching is one Edmonds blossom search (``_augment``, after "Paths, trees,
and flowers", 1965).  ``matching_number`` grows a greedy matching by one
search from each free vertex.  ``maximum_matching`` reports the
lexicographically first maximum matching: walking the edges in (u, v)
order, it keeps an edge whenever it lies in some maximum matching of the
vertices still available.  It keeps a maximum matching M of those vertices,
and when u and v are M-matched to a and b it decides the edge uv by
searching from a and then from b only, since an augmenting path avoiding
both would augment M itself.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

from .graphs import Bipartition, Graph, bipartition, components, iter_bits

DEFAULT_OMEGA_CAP = 1_000_000

# The largest order the command line and the theorem checks take.
CHECK_MAX_ORDER = 32


class SolverLimitError(RuntimeError):
    """An instance exceeds a documented solver resource limit."""


class OmegaCapError(SolverLimitError):
    """More maximum independent sets than ``DEFAULT_OMEGA_CAP``."""


class OmegaFamily(NamedTuple):
    """All maximum independent sets of one graph, as ascending bitmasks."""

    alpha: int
    sets: tuple[int, ...]


class InvariantReport(NamedTuple):
    """Every invariant of one graph plus one optimal witness mask per invariant."""

    n: int
    alpha: int
    beta: int
    matching: int
    gamma: int
    tau_i: int
    xi: int
    gamma_it: int
    gamma_t: int | None
    gamma_tt: int | None
    core: int
    witnesses: dict[str, int | None]


def _require_vertices(g: Graph) -> None:
    if g.n < 1:
        raise ValueError("invariant is undefined for the order-0 graph")


def omega(g: Graph) -> OmegaFamily:
    """All maximum independent sets, by a with-or-without search on G's rows.

    ``free`` holds the vertices adjacent to nothing ``chosen``.  A maximum
    set of G[free] is maximal, so it holds the lowest free vertex v or a
    free neighbour of v.  So v joins if it has no free neighbour; if it has
    one, u, the sets split into those holding u and those holding v; else
    the search takes v, then drops it, and a neighbour of v left with no
    free neighbour joins.  A node is cut when ``chosen`` plus ``free`` falls
    short of the best size so far.
    """
    _require_vertices(g)
    adj = g.adj
    best_size = 0
    best: list[int] = []

    def search(chosen: int, free: int) -> None:
        nonlocal best_size, best
        while free:
            if chosen.bit_count() + free.bit_count() < best_size:
                return
            low = free & -free
            near = adj[low.bit_length() - 1] & free
            if near & (near - 1):
                search(chosen | low, free & ~near & ~low)
                free ^= low
                for u in iter_bits(near):
                    if not adj[u] & free:
                        chosen |= 1 << u
                        free ^= 1 << u
            else:
                if near:
                    search(chosen | near, free & ~adj[near.bit_length() - 1] & ~near)
                chosen |= low
                free &= ~near & ~low
        size = chosen.bit_count()
        if size > best_size:
            best_size, best = size, [chosen]
        elif size == best_size:
            best.append(chosen)
            if len(best) > DEFAULT_OMEGA_CAP:
                raise OmegaCapError(f"more than {DEFAULT_OMEGA_CAP} maximum independent sets")

    search(0, g.full_mask)
    return OmegaFamily(alpha=best_size, sets=tuple(sorted(best)))


# ---------------------------------------------------------------------------
# Minimum hitting sets
# ---------------------------------------------------------------------------


class SetIndex(NamedTuple):
    """Families of vertex sets in one index, ordered by set size.

    ``sets`` holds every set of every family, smallest first, ties in the
    order the families and their sets were given; ``hits[v]`` is the mask
    of indices of the sets containing vertex ``v``; ``families`` holds,
    per family, the mask of its indices.  A family that is a union of
    given ones is the union of their masks, and its sets stay in size
    order, ties in the given order.
    """

    sets: list[int]
    hits: list[int]
    families: tuple[int, ...]


# _DIGITS[j] maps each byte to the ASCII digit "0" or "1" of its bit j.
_DIGITS = [bytes(b"01"[byte >> bit & 1] for byte in range(256)) for bit in range(8)]


def _columns(rows: bytes, width: int, count: int) -> list[int]:
    """Columns j < ``count`` of the bit matrix whose rows are the ``width``-byte
    little-endian records of ``rows``: column j is the mask of the rows that
    have bit j set.

    Bit j of every row is one strided slice of ``rows``, translated to
    base-2 digits, last row first, and parsed in C, in time linear in the
    number of rows: setting the bits one by one in Python would be
    quadratic, each OR copying the mask so far.
    """
    return [int(rows[j >> 3 :: width].translate(_DIGITS[j & 7])[::-1] or b"0", 2) for j in range(count)]


def _index(n: int, *families: Sequence[int]) -> SetIndex:
    """The index of ``families`` (at most eight) of sets of vertices below ``n``."""
    flat = [s for family in families for s in family]
    tags = [f for f, family in enumerate(families) for _ in family]
    sizes = [s.bit_count() for s in flat]
    order = sorted(range(len(flat)), key=sizes.__getitem__)
    sets = [flat[i] for i in order]
    width = (n + 7) // 8
    hits = _columns(b"".join([s.to_bytes(width, "little") for s in sets]), width, n)
    families_of = bytes([1 << tags[i] for i in order])  # bit f marks family f
    return SetIndex(sets, hits, tuple(_columns(families_of, 1, len(families))))


def _lowest(mask: int, k: int) -> int:
    """The ``k`` lowest set bits of ``mask``."""
    if mask.bit_count() <= k:
        return mask
    out = 0
    for _ in range(k):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


def _packs(sets: Sequence[int], unhit: int, need: int, room: int) -> bool:
    """True when ``need`` of the unhit sets, each cut down to ``room``, are
    pairwise disjoint, found greedily in index order.

    Disjoint sets need distinct hitters, so ``need`` is then a lower bound
    on the size of any hitting set drawn from ``room``.  The sets are in
    size order, so the walk takes the smallest sets first.  Both kernels
    pass ``unhit`` masked to the family's first ``n`` indices, ``n`` being
    the number of vertices: no more than ``n`` nonempty sets are disjoint,
    and walking a large Omega bit by bit costs more than it cuts.
    """
    if unhit.bit_count() < need:
        return False
    used = 0
    while unhit:
        low = unhit & -unhit
        unhit ^= low
        s = sets[low.bit_length() - 1] & room
        if not s & used:
            need -= 1
            if not need:
                return True
            used |= s
    return False


def _min_hitting_size(index: SetIndex, family: int, low: int = 0) -> int:
    """Least size of a vertex set meeting every (nonempty) set of ``family``,
    a mask of indices into ``index``.

    Branch and bound on the smallest unhit set, over a bitmask of unhit set
    indices.  The greedy most-frequent-vertex cover is the first upper
    bound.  A branch is cut when ``count + ceil(#unhit / widest)`` cannot
    beat it, ``widest`` being the most sets one vertex meets, or else when
    ``count`` plus a packing of pairwise-disjoint unhit sets cannot
    (``_packs``).  The packing runs in the search only when, at the root,
    it beats the same counting bound taken over the sets it looks at: on
    disjoint triangles, where it does not, it never cuts and only costs
    time.  ``low`` is a known lower bound: the search stops once a hitting
    set of that size is found.
    """
    sets, hits = index.sets, index.hits
    n = len(hits)
    room = (1 << n) - 1
    head = _lowest(family, n)  # the n smallest sets
    unhit = family
    best = 0
    while unhit:
        pick, most = 0, 0
        for h in hits:
            count = (h & unhit).bit_count()
            if count > most:
                pick, most = h, count
        if not most:
            raise ValueError("an empty set cannot be hit")
        if unhit == family:
            widest = most  # the most sets one vertex meets
        unhit &= ~pick
        best += 1
    if best <= low or _packs(sets, head, best, room):
        return best
    head_widest = max((h & head).bit_count() for h in hits)
    packing = _packs(sets, head, 1 - (-head.bit_count() // head_widest), room)

    def search(unhit: int, count: int) -> bool:
        """Improve ``best`` below this node; True once ``low`` is reached."""
        nonlocal best
        if not unhit:
            best = count
            return count <= low
        need = best - count
        if -(-unhit.bit_count() // widest) >= need:
            return False
        if packing and _packs(sets, unhit & head, need, room):
            return False
        first = (unhit & -unhit).bit_length() - 1
        for v in iter_bits(sets[first]):
            if search(unhit & ~hits[v], count + 1):
                return True
        return False

    search(family, 0)
    return best


def _hitting_sets(index: SetIndex, family: int, k: int) -> Iterator[int]:
    """Every k-subset of the vertices meeting all sets of ``family``, a mask
    of indices into ``index``, in increasing bitmask order.

    The highest element is chosen first, in ascending order, then the rest
    below it the same way.  A branch is cut as soon as some unhit set has
    no element left below the next choice, or when more unhit sets than
    elements still to choose are pairwise disjoint once cut down to the
    range still open (``_packs``).  Neither cut drops a k-subset that meets
    every set, so the sequence is that of the plain sweep.
    """
    sets, hits = index.sets, index.hits
    # stranded[t] & unhit: the unhit sets with no element <= t.
    stranded = [~seen for seen in accumulate(hits, int.__or__)]
    head = _lowest(family, len(hits))

    def extend(unhit: int, k: int, below: int, chosen: int) -> Iterator[int]:
        if k == 0:
            if not unhit:
                yield chosen
            return
        if _packs(sets, unhit & head, k + 1, (1 << below) - 1):
            return
        for t in range(k - 1, below):
            if not unhit & stranded[t]:
                yield from extend(unhit & ~hits[t], k - 1, t, chosen | 1 << t)

    return extend(family, k, len(hits), 0)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def _augment(adj: Sequence[int], avail: int, mate: list[int], root: int) -> bool:
    """One Edmonds search for an augmenting path from the free vertex ``root``.

    A BFS grows an alternating tree inside ``avail``; ``base[v]`` names the
    blossom ``v`` has been contracted into, found through a lowest common
    ancestor walk.  On success the path is flipped in ``mate`` (``-1`` for
    a free vertex) and True is returned; on failure ``mate`` is untouched.
    Every matched vertex of ``avail`` must have its mate in ``avail``.
    """
    n = len(adj)
    base = list(range(n))
    parent = [-1] * n
    outer = 1 << root  # the even (outer) tree vertices, queued once each
    queue = [root]

    def lca(a: int, b: int) -> int:
        seen = 0
        while True:
            a = base[a]
            seen |= 1 << a
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if (seen >> b) & 1:
                return b
            b = parent[mate[b]]

    def mark(v: int, top: int, child: int) -> int:
        """Point ``parent`` through the blossom on the tree path from ``v`` up
        to ``top``; return the bases met on that path."""
        marked = 0
        while base[v] != top:
            marked |= 1 << base[v] | 1 << base[mate[v]]
            parent[v] = child
            child = mate[v]
            v = parent[child]
        return marked

    for v in queue:
        for u in iter_bits(adj[v] & avail):
            if base[v] == base[u] or mate[v] == u:
                continue
            if u == root or (mate[u] >= 0 and parent[mate[u]] >= 0):
                top = lca(v, u)
                blossom = mark(v, top, u) | mark(u, top, v)
                for w in iter_bits(avail):
                    if (blossom >> base[w]) & 1:
                        base[w] = top
                        if not (outer >> w) & 1:
                            outer |= 1 << w
                            queue.append(w)
            elif parent[u] < 0:
                parent[u] = v
                if mate[u] < 0:
                    while u >= 0:
                        v = parent[u]
                        after = mate[v]
                        mate[u], mate[v] = v, u
                        u = after
                    return True
                outer |= 1 << mate[u]
                queue.append(mate[u])
    return False


def _maximum_mate(g: Graph) -> list[int]:
    """A maximum matching as a mate array: greedy, then one search per free vertex.

    A vertex with no augmenting path stays without one after later
    augmentations, so one pass over the free vertices suffices.
    """
    mate = [-1] * g.n
    for v in range(g.n):
        if mate[v] < 0:
            for u in iter_bits(g.adj[v]):
                if mate[u] < 0:
                    mate[u], mate[v] = v, u
                    break
    for v in range(g.n):
        if mate[v] < 0 and g.adj[v]:
            _augment(g.adj, g.full_mask, mate, v)
    return mate


def matching_number(g: Graph) -> int:
    """Maximum matching size, by Edmonds' blossom search."""
    return sum(m >= 0 for m in _maximum_mate(g)) // 2


def maximum_matching(g: Graph) -> list[tuple[int, int]]:
    """Lexicographically first maximum matching as an edge list.

    Walks edges in (u, v) order and keeps an edge whenever a maximum
    matching of the remaining graph still completes the target size, that
    is, when the edge lies in some maximum matching of the vertices still
    available.  A maximum matching M of those vertices is kept alongside.
    An edge uv of M is kept.  If only one of u, v is M-matched, swapping
    its M-edge for uv keeps the size, so uv is kept.  If u is matched to a
    and v to b, uv is kept iff M - ua - vb augments in the graph without u
    and v; the augmenting path must end at a or b (one avoiding both would
    augment M itself), so at most two Edmonds searches decide the edge.
    """
    mate = _maximum_mate(g)
    target = sum(m >= 0 for m in mate) // 2
    chosen: list[tuple[int, int]] = []
    avail = g.full_mask
    for u, v in g.edges():
        if len(chosen) == target:
            break
        if not ((avail >> u) & 1 and (avail >> v) & 1):
            continue
        rest = avail & ~(1 << u) & ~(1 << v)
        a, b = mate[u], mate[v]
        if a != v:
            for w in (a, b):
                if w >= 0:
                    mate[w] = -1
            if a >= 0 and b >= 0 and not (
                _augment(g.adj, rest, mate, a) or _augment(g.adj, rest, mate, b)
            ):
                mate[a], mate[b] = u, v
                continue
            mate[u], mate[v] = v, u
        chosen.append((u, v))
        avail = rest
    return chosen


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


class _cached(cached_property):
    """``cached_property`` without the lock it takes on each first access
    in Python 3.11: the value is computed and stored in the instance
    ``__dict__``, where later reads find it.  An evaluator is not shared
    between threads.  Being a ``cached_property`` still, it lets code find
    the invariants of ``InvariantCache`` by type."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class InvariantCache:
    """Lazily computed invariants of one graph, each computed at most once.

    This is the only place an invariant value is computed: the theorem
    checks share one instance per graph, and ``compute_report`` and the
    public solver functions below read a fresh one.  The order-0 graph has
    no invariants and is refused.
    """

    # Hitting-set invariant -> the numbers, in an index, of the families its
    # feasible sets must meet: 0 is N[v], 1 is N(v) and 2 is Omega.
    _CONSTRAINTS = {"gamma": (0,), "tau_i": (2,), "gamma_it": (0, 2), "gamma_t": (1,), "gamma_tt": (1, 2)}

    def __init__(self, g: Graph) -> None:
        _require_vertices(g)
        self.g = g

    def _constraint(self, key: str) -> tuple[SetIndex, int]:
        """The index and the mask of the sets the invariant ``key`` must meet:
        ``local_index`` while Omega is neither needed nor known."""
        numbers = self._CONSTRAINTS[key]
        index = self.index if 2 in numbers or "family" in self.__dict__ else self.local_index
        return index, sum(index.families[f] for f in numbers)  # disjoint masks

    def _least(self, key: str, low: int = 0) -> int:
        return _min_hitting_size(*self._constraint(key), low)

    def _neighbourhood_index(self, *more: Sequence[int]) -> SetIndex:
        """The index of N[v], N(v) and the families ``more``."""
        g = self.g
        return _index(g.n, [g.closed(v) for v in range(g.n)], g.adj, *more)

    @_cached
    def local_index(self) -> SetIndex:
        # N[v] and N(v) without Omega, so that gamma and gamma_t alone never
        # enumerate it: 12 disjoint triangles have 3^12 maximum independent
        # sets, which take seconds to list and index, and 13 have more than
        # DEFAULT_OMEGA_CAP, while gamma of either is found in a millisecond.
        return self._neighbourhood_index()

    @_cached
    def index(self) -> SetIndex:
        return self._neighbourhood_index(self.family.sets)

    @_cached
    def family(self) -> OmegaFamily:
        return omega(self.g)

    @_cached
    def alpha(self) -> int:
        return self.family.alpha

    @_cached
    def beta(self) -> int:
        return self.g.n - self.alpha

    @_cached
    def matching(self) -> int:
        return matching_number(self.g)

    @_cached
    def gamma(self) -> int:
        return self._least("gamma")

    @_cached
    def tau_i(self) -> int:
        return self._least("tau_i")

    @_cached
    def core(self) -> int:
        core = self.g.full_mask
        for s in self.family.sets:
            core &= s
        return core

    @_cached
    def xi(self) -> int:
        return self.core.bit_count()

    @_cached
    def gamma_it(self) -> int:
        # tau_i first: it computes Omega, so that gamma reads the one index.
        return self._least("gamma_it", max(self.tau_i, self.gamma))

    @_cached
    def gamma_t(self) -> int | None:
        return None if self.has_isolated else self._least("gamma_t", 2)

    @_cached
    def gamma_tt(self) -> int | None:
        return None if self.has_isolated else self._least("gamma_tt", max(2, self.tau_i))

    @_cached
    def bip(self) -> Bipartition | None:
        return bipartition(self.g)

    @_cached
    def components(self) -> list[int]:
        return components(self.g)

    @_cached
    def connected(self) -> bool:
        return len(self.components) == 1

    @_cached
    def m(self) -> int:
        return self.g.m

    @_cached
    def complete(self) -> bool:
        return self.m == self.g.n * (self.g.n - 1) // 2

    @_cached
    def has_isolated(self) -> bool:
        return bool(self.g.isolated())

    def optima(self, key: str) -> Iterator[int]:
        """Every optimal set of one ``_CONSTRAINTS`` invariant, in increasing bitmask order."""
        size = getattr(self, key)
        if size is None:
            return iter(())
        return _hitting_sets(*self._constraint(key), size)

    def witnesses(self) -> dict[str, int | None]:
        """One optimal vertex mask per invariant: the least one by mask value
        for the hitting-set invariants, the complement of the ``alpha``
        witness for ``beta``, and the vertices covered by the
        lexicographically first maximum matching for ``matching``."""
        matched = 0
        for u, v in maximum_matching(self.g):
            matched |= (1 << u) | (1 << v)
        first = self.family.sets[0]
        fixed = {"alpha": first, "beta": self.g.full_mask & ~first, "matching": matched}
        return fixed | {key: next(self.optima(key), None) for key in self._CONSTRAINTS}


# ---------------------------------------------------------------------------
# Public solver functions
# ---------------------------------------------------------------------------


def domination_number(g: Graph) -> int:
    """Minimum dominating set size."""
    return InvariantCache(g).gamma


def tau_i(g: Graph) -> int:
    """Minimum size of a set meeting every maximum independent set."""
    return InvariantCache(g).tau_i


def gamma_it(g: Graph) -> tuple[int, int]:
    """Minimum dominating set meeting every maximum independent set.

    Returns (value, witness); the witness is the least optimum by bitmask
    value.
    """
    cache = InvariantCache(g)
    return cache.gamma_it, next(cache.optima("gamma_it"))


def gamma_t(g: Graph) -> int | None:
    """Minimum total dominating set size; None when an isolated vertex exists."""
    return InvariantCache(g).gamma_t


def gamma_tt(g: Graph) -> int | None:
    """Minimum total dominating set meeting every maximum independent set;
    None when an isolated vertex exists."""
    return InvariantCache(g).gamma_tt


def compute_report(g: Graph) -> InvariantReport:
    """Compute every invariant and a deterministic witness for each; the
    matching size is read off the matching witness, so only one matching
    search runs."""
    c = InvariantCache(g)
    witnesses = c.witnesses()
    return InvariantReport(
        n=g.n,
        alpha=c.alpha,
        beta=c.beta,
        matching=witnesses["matching"].bit_count() // 2,
        gamma=c.gamma,
        tau_i=c.tau_i,
        xi=c.xi,
        gamma_it=c.gamma_it,
        gamma_t=c.gamma_t,
        gamma_tt=c.gamma_tt,
        core=c.core,
        witnesses=witnesses,
    )
