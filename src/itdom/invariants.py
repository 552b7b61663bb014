"""Exact solvers for independence, matching, domination and transversal invariants.

Every minimum-set invariant here is a minimum hitting set of a family of
vertex sets: ``gamma`` of the closed neighbourhoods N[v], ``gamma_t`` of the
open neighbourhoods N(v), ``tau_i`` of the maximum independent sets Omega,
``gamma_it`` of {N[v]} + Omega and ``gamma_tt`` of {N(v)} + Omega.  One
branch-and-bound kernel (``_min_hitting_size``) finds every value, and one
enumerator (``_hitting_sets``) lists the optimal sets in increasing bitmask
order, so each reported witness is the least optimum by mask value.  Both
sort the family by set size and bound with a greedy packing of pairwise
disjoint unhit sets, each of which needs its own hitter (``_packs``; the
matching bound of exact dominating-set search, van Rooij and Bodlaender,
Discrete Appl. Math. 159, 2011).  The value search also keeps the counting
bound ceil(#unhit / widest) as its first test, and packs only when, at the
root, packing beats counting.
``InvariantCache`` is the single evaluator: it computes each invariant of a
graph at most once, and the public functions and ``compute_report`` read it.

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

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Sequence

from .graphs import Bipartition, Graph, bipartition, is_connected, iter_bits

DEFAULT_OMEGA_CAP = 1_000_000


class SolverLimitError(RuntimeError):
    """An instance exceeds a documented solver resource limit."""


class OmegaCapError(SolverLimitError):
    """More maximum independent sets than ``DEFAULT_OMEGA_CAP``."""


@dataclass(frozen=True)
class OmegaFamily:
    """All maximum independent sets of one graph, as ascending bitmasks."""

    alpha: int
    sets: tuple[int, ...]


@dataclass(frozen=True)
class InvariantReport:
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
    """All maximum independent sets, found as maximal cliques of the complement.

    Bron-Kerbosch with pivoting; branches that cannot reach the best size
    found so far are cut, which keeps the family exact while skipping
    maximal-but-not-maximum sets.
    """
    _require_vertices(g)
    full = g.full_mask
    cadj = [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)]
    best_size = 0
    best: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        nonlocal best_size, best
        if p == 0 and x == 0:
            size = r.bit_count()
            if size > best_size:
                best_size = size
                best = [r]
            elif size == best_size:
                best.append(r)
                if len(best) > DEFAULT_OMEGA_CAP:
                    raise OmegaCapError(
                        f"more than {DEFAULT_OMEGA_CAP} maximum independent sets"
                    )
            return
        if r.bit_count() + p.bit_count() < best_size:
            return
        pivot = -1
        pivot_deg = -1
        for u in iter_bits(p | x):
            deg = (cadj[u] & p).bit_count()
            if deg > pivot_deg:
                pivot, pivot_deg = u, deg
        sub = p & ~cadj[pivot]
        for v in iter_bits(sub):
            bit = 1 << v
            expand(r | bit, p & cadj[v], x & cadj[v])
            p &= ~bit
            x |= bit

    expand(0, full, 0)
    return OmegaFamily(alpha=best_size, sets=tuple(sorted(best)))


# ---------------------------------------------------------------------------
# Minimum hitting sets
# ---------------------------------------------------------------------------


def _incidence(sets: Sequence[int], n: int) -> list[int]:
    """hits[v] for v < n: the bitmask of indices of the sets containing v."""
    hits = [0] * n
    bit = 1
    for s in sets:  # iter_bits inlined: this loop leads the kernels' time on small graphs
        while s:
            low = s & -s
            hits[low.bit_length() - 1] |= bit
            s ^= low
        bit <<= 1
    return hits


def _packs(sets: Sequence[int], unhit: int, need: int, room: int) -> bool:
    """True when ``need`` of the unhit sets, each cut down to ``room``, are
    pairwise disjoint, found greedily in index order.

    Disjoint sets need distinct hitters, so ``need`` is then a lower bound
    on the size of any hitting set drawn from ``room``.  Both kernels sort
    ``sets`` by size, so the walk takes the smallest sets first, and pass
    ``unhit`` masked to the first ``n`` indices, ``n`` being the number of
    vertices: no more than ``n`` nonempty sets are disjoint, and walking a
    large Omega bit by bit costs more than it cuts.
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


def _min_hitting_size(sets: Sequence[int], low: int = 0) -> int:
    """Least size of a vertex set meeting every (nonempty) set in ``sets``.

    Branch and bound on the smallest unhit set, over a bitmask of unhit set
    indices in size order.  The greedy most-frequent-vertex cover is the
    first upper bound.  A branch is cut when ``count + ceil(#unhit /
    widest)`` cannot beat it, ``widest`` being the most sets one vertex
    meets, or else when ``count`` plus a packing of pairwise-disjoint unhit
    sets cannot (``_packs``).  The packing runs in the search only when, at
    the root, it beats the same counting bound taken over the sets it
    looks at: on disjoint triangles, where it does not, it never cuts and
    only costs time.  ``low`` is a known lower bound: the search stops once
    a hitting set of that size is found.
    """
    sets = sorted(sets, key=int.bit_count)
    n = max(sets, default=0).bit_length()
    hits = _incidence(sets, n)
    widest = max((h.bit_count() for h in hits), default=1)
    everything = (1 << len(sets)) - 1
    room = (1 << n) - 1
    head = everything & room  # the n smallest sets
    unhit = everything
    best = 0
    while unhit:
        pick = max(hits, key=lambda h: (h & unhit).bit_count())
        if not pick & unhit:
            raise ValueError("an empty set cannot be hit")
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

    search(everything, 0)
    return best


def _hitting_sets(sets: Sequence[int], k: int, below: int) -> Iterator[int]:
    """Every k-subset of [0, below) meeting all ``sets``, in increasing bitmask order.

    The highest element is chosen first, in ascending order, then the rest
    below it the same way.  A branch is cut as soon as some unhit set has
    no element left below the next choice, or when more unhit sets than
    elements still to choose are pairwise disjoint once cut down to the
    range still open (``_packs``).  Neither cut drops a k-subset that meets
    every set, so the sequence is that of the plain sweep.  ``sets`` must
    lie inside [0, below).
    """
    sets = sorted(sets, key=int.bit_count)
    hits = _incidence(sets, below)
    # stranded[t] & unhit: the unhit sets with no element <= t.
    stranded = [~seen for seen in accumulate(hits, int.__or__)]
    everything = (1 << len(sets)) - 1
    head = everything & ((1 << below) - 1)

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

    return extend(everything, k, below, 0)


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


class InvariantCache:
    """Lazily computed invariants of one graph, each computed at most once.

    This is the only place an invariant value is computed: the theorem
    checks share one instance per graph, and ``compute_report`` and the
    public solver functions below read a fresh one.
    """

    # Hitting-set invariant -> the sets each of its feasible sets must meet.
    _CONSTRAINTS = {
        "gamma": lambda c: c.closed,
        "tau_i": lambda c: c.family.sets,
        "gamma_it": lambda c: [*c.closed, *c.family.sets],
        "gamma_t": lambda c: c.g.adj,
        "gamma_tt": lambda c: [*c.g.adj, *c.family.sets],
    }

    def __init__(self, g: Graph) -> None:
        self.g = g

    def _least(self, key: str, low: int = 0) -> int:
        return _min_hitting_size(self._CONSTRAINTS[key](self), low)

    @cached_property
    def family(self) -> OmegaFamily:
        return omega(self.g)

    @cached_property
    def alpha(self) -> int:
        return self.family.alpha

    @cached_property
    def beta(self) -> int:
        return self.g.n - self.alpha

    @cached_property
    def matching(self) -> int:
        return matching_number(self.g)

    @cached_property
    def closed(self) -> list[int]:
        return [self.g.closed(v) for v in range(self.g.n)]

    @cached_property
    def gamma(self) -> int:
        return self._least("gamma")

    @cached_property
    def tau_i(self) -> int:
        return self._least("tau_i")

    @cached_property
    def core(self) -> int:
        core = self.g.full_mask
        for s in self.family.sets:
            core &= s
        return core

    @cached_property
    def xi(self) -> int:
        return self.core.bit_count()

    @cached_property
    def gamma_it(self) -> int:
        return self._least("gamma_it", max(self.gamma, self.tau_i))

    @cached_property
    def gamma_t(self) -> int | None:
        return None if self.has_isolated else self._least("gamma_t", 2)

    @cached_property
    def gamma_tt(self) -> int | None:
        return None if self.has_isolated else self._least("gamma_tt", max(2, self.tau_i))

    @cached_property
    def bip(self) -> Bipartition | None:
        return bipartition(self.g)

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.g)

    @cached_property
    def has_isolated(self) -> bool:
        return bool(self.g.isolated())

    def optima(self, key: str) -> Iterator[int]:
        """Every optimal set of one ``_CONSTRAINTS`` invariant, in increasing bitmask order."""
        size = getattr(self, key)
        if size is None:
            return iter(())
        return _hitting_sets(self._CONSTRAINTS[key](self), size, self.g.n)

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

    def report(self) -> InvariantReport:
        """Every invariant with its witness; the matching size is read off
        the matching witness, so only one matching search runs."""
        witnesses = self.witnesses()
        return InvariantReport(
            n=self.g.n,
            alpha=self.alpha,
            beta=self.beta,
            matching=witnesses["matching"].bit_count() // 2,
            gamma=self.gamma,
            tau_i=self.tau_i,
            xi=self.xi,
            gamma_it=self.gamma_it,
            gamma_t=self.gamma_t,
            gamma_tt=self.gamma_tt,
            core=self.core,
            witnesses=witnesses,
        )


def _evaluator(g: Graph) -> InvariantCache:
    """A fresh evaluator; the order-0 graph has no invariants and is rejected."""
    _require_vertices(g)
    return InvariantCache(g)


# ---------------------------------------------------------------------------
# Public solver functions
# ---------------------------------------------------------------------------


def domination_number(g: Graph) -> int:
    """Minimum dominating set size."""
    return _evaluator(g).gamma


def tau_i(g: Graph) -> int:
    """Minimum size of a set meeting every maximum independent set."""
    return _evaluator(g).tau_i


def gamma_it(g: Graph) -> tuple[int, int]:
    """Minimum dominating set meeting every maximum independent set.

    Returns (value, witness); the witness is the least optimum by bitmask
    value.
    """
    cache = _evaluator(g)
    return cache.gamma_it, next(cache.optima("gamma_it"))


def gamma_t(g: Graph) -> int | None:
    """Minimum total dominating set size; None when an isolated vertex exists."""
    return _evaluator(g).gamma_t


def gamma_tt(g: Graph) -> int | None:
    """Minimum total dominating set meeting every maximum independent set;
    None when an isolated vertex exists."""
    return _evaluator(g).gamma_tt


def compute_report(g: Graph) -> InvariantReport:
    """Compute every invariant and a deterministic witness for each."""
    return _evaluator(g).report()
