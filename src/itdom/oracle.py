"""Unoptimized exhaustive oracle used to cross-check the solvers.

Every value is a direct transcription of a definition over the vertex
subsets: one sweep flags each subset, and a second finds the transversals
of Omega once alpha is known.  No pruning, no bound, no shared code with
the solver side.  Feasible only for tiny instances, which is the point.
"""

from __future__ import annotations

from .graphs import Graph, iter_bits

ORACLE_VERTEX_LIMIT = 16

ORACLE_IDS = (
    "alpha",
    "beta",
    "gamma",
    "tau_i",
    "gamma_it",
    "gamma_t",
    "gamma_tt",
    "matching",
)


class OracleLimitError(ValueError):
    """Instance too large for the exhaustive oracle."""


def naive_oracle(g: Graph) -> dict[str, int | None]:
    """Every invariant of ``ORACLE_IDS``, from the 2^n vertex subsets by definition.

    A subset S (a bitmask) is independent when no vertex of S has a
    neighbour in S, a vertex cover when no vertex outside S has a neighbour
    outside S, dominating when every vertex is in S or has a neighbour in
    S, and totally dominating when every vertex has a neighbour in S.
    Omega is the independent sets of size alpha, and a transversal meets
    each of them.  Each minimum is the least size of a subset meeting its
    definition, None when there is none (the total variants with an
    isolated vertex).  S is perfectly matchable when it is empty, or when
    the least vertex u of S has a neighbour v in S with S - u - v perfectly
    matchable; S - u - v < S as a mask, so the increasing sweep fills this
    in order.  The matching number is the largest |S| / 2 over those S.
    """
    if g.n > ORACLE_VERTEX_LIMIT:
        raise OracleLimitError(
            f"subset-sweep oracle is limited to {ORACLE_VERTEX_LIMIT} vertices"
        )
    if g.n == 0:
        raise ValueError("oracle is undefined for the order-0 graph")
    adj, full = g.adj, g.full_mask
    closed = [g.closed(v) for v in range(g.n)]
    independent, covers, dominating, total = set(), set(), set(), set()
    matchable = set()
    for s in range(1 << g.n):
        if not any(adj[v] & s for v in iter_bits(s)):
            independent.add(s)
        if not any(adj[v] & ~s for v in iter_bits(full & ~s)):
            covers.add(s)
        if all(c & s for c in closed):
            dominating.add(s)
        if all(a & s for a in adj):
            total.add(s)
        u = s & -s
        if not s or any(
            s ^ u ^ (1 << v) in matchable for v in iter_bits(adj[u.bit_length() - 1] & s)
        ):
            matchable.add(s)
    alpha = max(s.bit_count() for s in independent)
    omega = [s for s in independent if s.bit_count() == alpha]
    transversals = {s for s in range(1 << g.n) if all(s & i for i in omega)}

    def least(sets: set[int]) -> int | None:
        return min((s.bit_count() for s in sets), default=None)

    return {
        "alpha": alpha,
        "beta": least(covers),
        "gamma": least(dominating),
        "tau_i": least(transversals),
        "gamma_it": least(dominating & transversals),
        "gamma_t": least(total),
        "gamma_tt": least(total & transversals),
        "matching": max(s.bit_count() for s in matchable) // 2,
    }
