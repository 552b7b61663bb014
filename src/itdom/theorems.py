"""Machine-checkable verdicts for the verified inequalities and characterizations.

Each registry entry is declared at its check, in definition order.  The
check evaluates its hypotheses on a graph and then the claim, yielding
NotApplicable, Holds or Violated.  Entries marked ``proven`` must never be
Violated; ``refutable`` entries exist so the harness can report genuine
counterexamples without failing.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple, Sequence

from .graphs import Graph, complement, induced_subgraph, iter_bits, members, pendant_vertices
from .invariants import CHECK_MAX_ORDER, InvariantCache, SolverLimitError, omega


class Status(enum.Enum):
    NOT_APPLICABLE = "NotApplicable"
    HOLDS = "Holds"
    VIOLATED = "Violated"


class TheoremVerdict(NamedTuple):
    theorem_id: str
    status: Status
    witness: dict


class CharacterizationResult(NamedTuple):
    holds: bool
    witness: dict


# A check returns (None, info) when hypotheses fail, else (claim_ok, witness).
CheckFn = Callable[[Graph, InvariantCache], tuple[bool | None, dict]]


class Theorem(NamedTuple):
    theorem_id: str
    expected: str  # "proven" | "refutable"
    claim: str
    fn: CheckFn


def pendant_condition(g: Graph, x_mask: int) -> CharacterizationResult:
    """Every vertex of X is pendant or has at least two pendant neighbors.

    X must be an independent set (one side of a bipartition).
    """
    for v in iter_bits(x_mask):
        if g.adj[v] & x_mask:
            raise ValueError("X is not independent")
    pend = pendant_vertices(g)
    failing = [
        v
        for v in iter_bits(x_mask)
        if g.degree(v) != 1 and (g.adj[v] & pend).bit_count() < 2
    ]
    return CharacterizationResult(
        holds=not failing,
        witness={"pendants": members(pend), "failing_vertices": failing},
    )


def _strict_pendant_condition(g: Graph, x_mask: int) -> bool:
    # Original, incomplete form: two pendant neighbors required of every x.
    pend = pendant_vertices(g)
    return all((g.adj[v] & pend).bit_count() >= 2 for v in iter_bits(x_mask))


def is_corona(g: Graph) -> Graph | None:
    """Recover H when g is H with one pendant attached to every vertex.

    Present iff the degree-1 vertices are a perfect matching onto the rest,
    each non-pendant vertex having exactly one pendant neighbor.  The
    two-vertex complete graph counts, with a single vertex recovered.
    """
    if g.n < 2 or g.n % 2:
        return None
    if g.n == 2:
        return Graph(1) if g.m == 1 else None
    pend = pendant_vertices(g)
    if pend.bit_count() != g.n // 2:
        return None
    rest = g.full_mask & ~pend
    for q in iter_bits(rest):
        if (g.adj[q] & pend).bit_count() != 1:
            return None
    for p in iter_bits(pend):
        if not g.adj[p] & rest:
            return None
    return induced_subgraph(g, rest)[0]


def figure1_graph() -> Graph:
    """Five-vertex bipartite witness separating the two pendant conditions.

    X = {0, 1}, Y = {2, 3, 4}; vertex 0 is pendant on 2, vertex 1 is
    adjacent to all of Y.  Its domination number is 2 = |X| while the
    least dominating transversal has 3 vertices.
    """
    return Graph(5, [(0, 2), (1, 2), (1, 3), (1, 4)])


# ---------------------------------------------------------------------------
# Registry checks
# ---------------------------------------------------------------------------

# Registry entries by id, in the order their checks are defined below.
THEOREMS: dict[str, Theorem] = {}


def _theorem(theorem_id: str, expected: str, claim: str) -> Callable[[CheckFn], CheckFn]:
    """Register the decorated check as the entry ``theorem_id``."""

    def register(fn: CheckFn) -> CheckFn:
        if theorem_id in THEOREMS:
            raise ValueError(f"theorem id {theorem_id!r} is already registered")
        THEOREMS[theorem_id] = Theorem(theorem_id, expected, claim, fn)
        return fn

    return register


@_theorem("EQ1", "proven", "alpha + beta = n")
def _eq1(g: Graph, c: InvariantCache):
    return c.alpha + c.beta == g.n, {"alpha": c.alpha, "beta": c.beta, "n": g.n}


@_theorem("EQ2", "proven", "matching <= min(n/2, beta)")
def _eq2(g: Graph, c: InvariantCache):
    ok = 2 * c.matching <= g.n and c.matching <= c.beta
    return ok, {"matching": c.matching, "beta": c.beta, "n": g.n}


@_theorem("EQ3", "proven", "bipartite: matching = beta")
def _eq3(g: Graph, c: InvariantCache):
    if c.bip is None:
        return None, {"reason": "not bipartite"}
    return c.matching == c.beta, {"matching": c.matching, "beta": c.beta}


@_theorem("EQ4", "proven", "gamma <= alpha")
def _eq4(g: Graph, c: InvariantCache):
    return c.gamma <= c.alpha, {"gamma": c.gamma, "alpha": c.alpha}


@_theorem("EQ5", "proven", "no isolated vertices: gamma <= beta")
def _eq5(g: Graph, c: InvariantCache):
    if c.has_isolated:
        return None, {"reason": "isolated vertex"}
    return c.gamma <= c.beta, {"gamma": c.gamma, "beta": c.beta}


@_theorem("EQ6", "proven", "max(gamma, tau_i) <= gamma_it")
def _eq6(g: Graph, c: InvariantCache):
    ok = max(c.tau_i, c.gamma) <= c.gamma_it
    return ok, {"gamma": c.gamma, "tau_i": c.tau_i, "gamma_it": c.gamma_it}


@_theorem("T1.1", "proven", "no isolated vertices: gamma_it <= beta + 1")
def _t11(g: Graph, c: InvariantCache):
    if c.has_isolated:
        return None, {"reason": "isolated vertex"}
    return c.gamma_it <= c.beta + 1, {"gamma_it": c.gamma_it, "beta": c.beta}


@_theorem("T1.2", "proven", "connected non-complete with alpha >= n/2: gamma_it <= ceil(n/2)")
def _t12(g: Graph, c: InvariantCache):
    if not c.connected or c.complete or 2 * c.alpha < g.n:
        return None, {"reason": "needs connected, non-complete, alpha >= n/2"}
    # Bound is ceil(n/2): the floor reading fails on odd orders (already P3).
    return c.gamma_it <= (g.n + 1) // 2, {"gamma_it": c.gamma_it, "n": g.n}


@_theorem(
    "L2.1",
    "proven",
    "complement of triangle-free, non-complete: tau_i equals the "
    "complement cover number and bounds gamma_it below",
)
def _l21(g: Graph, c: InvariantCache):
    if c.complete:
        return None, {"reason": "complete graph"}
    # A triangle of the complement is three pairwise non-adjacent vertices.
    full = g.full_mask
    non = [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)]
    if any(non[u] & non[v] for u in range(g.n) for v in iter_bits(non[u])):
        return None, {"reason": "complement has a triangle"}
    comp_alpha = omega(complement(g)).alpha
    cover = g.n - comp_alpha
    ok = c.tau_i == cover and c.gamma_it >= cover
    return ok, {
        "tau_i": c.tau_i,
        "complement_cover_number": cover,
        "gamma_it": c.gamma_it,
    }


@_theorem(
    "T2.4",
    "proven",
    "connected with at least one edge and alpha > matching: xi >= alpha - matching + 1",
)
def _t24(g: Graph, c: InvariantCache):
    # The single-vertex graph meets the literal hypotheses yet has xi = 1 < 2;
    # the result's implicit domain is graphs with at least one edge.
    if not c.connected or g.n < 2 or c.alpha <= c.matching:
        return None, {"reason": "needs connected with an edge and alpha > matching"}
    ok = c.xi >= c.alpha - c.matching + 1
    return ok, {"xi": c.xi, "alpha": c.alpha, "matching": c.matching}


@_theorem("C2.4a", "proven", "connected with alpha > matching: tau_i = 1")
def _c24a(g: Graph, c: InvariantCache):
    if not c.connected or c.alpha <= c.matching:
        return None, {"reason": "needs connected with alpha > matching"}
    return c.tau_i == 1, {"tau_i": c.tau_i}


@_theorem("T2.5", "proven", "bipartite, unequal sides: gamma_it <= gamma + 1")
def _t25(g: Graph, c: InvariantCache):
    if c.bip is None or c.bip.x.bit_count() == c.bip.y.bit_count():
        return None, {"reason": "needs bipartite with unequal sides"}
    return c.gamma_it <= c.gamma + 1, {"gamma_it": c.gamma_it, "gamma": c.gamma}


@_theorem("T2.6", "proven", "connected bipartite: gamma_it in {gamma, gamma+1}")
def _t26(g: Graph, c: InvariantCache):
    if not c.connected or c.bip is None:
        return None, {"reason": "needs connected bipartite"}
    ok = c.gamma_it in (c.gamma, c.gamma + 1)
    return ok, {"gamma_it": c.gamma_it, "gamma": c.gamma}


@_theorem("TREE", "proven", "tree: gamma_it in {gamma, gamma+1}")
def _tree(g: Graph, c: InvariantCache):
    if not c.connected or c.m != g.n - 1:
        return None, {"reason": "not a tree"}
    ok = c.gamma_it in (c.gamma, c.gamma + 1)
    return ok, {"gamma_it": c.gamma_it, "gamma": c.gamma}


@_theorem("SAND", "proven", "connected: gamma <= gamma_it <= gamma + delta")
def _sand(g: Graph, c: InvariantCache):
    if not c.connected:
        return None, {"reason": "not connected"}
    delta = g.min_degree()
    ok = c.gamma <= c.gamma_it <= c.gamma + delta
    return ok, {"gamma": c.gamma, "gamma_it": c.gamma_it, "delta": delta}


def _side_labelings(c: InvariantCache) -> list[int]:
    """The sides X of bipartition labelings (X, Y) with |X| <= |Y| and gamma = |X|."""
    if c.bip is None:
        return []
    out = []
    for x, y in ((c.bip.x, c.bip.y), (c.bip.y, c.bip.x)):
        if x.bit_count() <= y.bit_count() and c.gamma == x.bit_count() and x not in out:
            out.append(x)
    return out


def _side_check(c: InvariantCache, condition):
    """T3.x: gamma_it = gamma + 1 exactly when ``condition`` holds for each side X.

    ``condition(x)`` returns whether it holds and the fields that explain it
    in a violation witness.
    """
    sides = _side_labelings(c)
    if not sides:
        return None, {"reason": "needs bipartite with gamma equal to the small side"}
    jump = c.gamma_it == c.gamma + 1
    for x in sides:
        holds, fields = condition(x)
        if jump != holds:
            return False, {"X": members(x), "gamma": c.gamma, "gamma_it": c.gamma_it, **fields}
    return True, {"gamma": c.gamma, "gamma_it": c.gamma_it}


@_theorem(
    "T3.2",
    "proven",
    "bipartite, gamma = |X| <= |Y|: gamma_it = gamma+1 iff every x in X "
    "is pendant or has two pendant neighbors",
)
def _t32(g: Graph, c: InvariantCache):
    def condition(x: int):
        cond = pendant_condition(g, x)
        return cond.holds, {"condition_holds": cond.holds, "condition_witness": cond.witness}

    return _side_check(c, condition)


@_theorem(
    "T3.1-ORIG",
    "refutable",
    "bipartite, gamma = |X| <= |Y|: gamma_it = gamma+1 iff every x in X "
    "has two pendant neighbors",
)
def _t31_orig(g: Graph, c: InvariantCache):
    def condition(x: int):
        holds = _strict_pendant_condition(g, x)
        return holds, {"strict_condition_holds": holds}

    return _side_check(c, condition)


def _component_shape(g: Graph, comp: int) -> str | None:
    """Classify one component as "C4", "corona" or None."""
    sub = g if comp == g.full_mask else induced_subgraph(g, comp)[0]
    if sub.n == 4 and sub.m == 4 and all(sub.degree(v) == 2 for v in range(4)):
        return "C4"
    if is_corona(sub) is not None:
        return "corona"
    return None


@_theorem(
    "T3.3",
    "proven",
    "even order, no isolated vertices: gamma = n/2 iff every component "
    "is a 4-cycle or a pendant corona",
)
def _t33(g: Graph, c: InvariantCache):
    if g.n % 2 or c.has_isolated:
        return None, {"reason": "needs even order without isolated vertices"}
    shapes = [_component_shape(g, comp) for comp in c.components]
    structured = all(shape is not None for shape in shapes)
    half = c.gamma == g.n // 2
    ok = half == structured
    return ok, {"gamma": c.gamma, "n": g.n, "components": shapes}


@_theorem("C3.4", "proven", "connected, even n >= 4, gamma = n/2: gamma_it = n/2")
def _c34(g: Graph, c: InvariantCache):
    if not c.connected or g.n < 4 or g.n % 2 or c.gamma != g.n // 2:
        return None, {"reason": "needs connected even order >= 4 with gamma = n/2"}
    return c.gamma_it == g.n // 2, {"gamma_it": c.gamma_it, "n": g.n}


@_theorem(
    "T3.5",
    "proven",
    "bipartite, even order, components >= 3, case hypotheses: gamma_it = n/2",
)
def _t35(g: Graph, c: InvariantCache):
    if c.bip is None or g.n % 2:
        return None, {"reason": "needs bipartite of even order"}
    if any(comp.bit_count() <= 2 for comp in c.components):
        return None, {"reason": "has a component of order at most 2"}
    half = g.n // 2
    case1 = c.gamma == half
    # A side of half - 1 vertices is the smaller one: |X| + |Y| = n.
    case2 = c.gamma == half - 1 and any(pendant_condition(g, x).holds for x in _side_labelings(c))
    if not case1 and not case2:
        return None, {"reason": "neither hypothesis case applies"}
    return c.gamma_it == half, {
        "gamma_it": c.gamma_it,
        "gamma": c.gamma,
        "case": 1 if case1 else 2,
    }


@_theorem("T4.1", "proven", "connected, n >= 3: gamma_t <= 2n/3")
def _t41(g: Graph, c: InvariantCache):
    if not c.connected or g.n < 3:
        return None, {"reason": "needs connected order >= 3"}
    if c.gamma_t is None:
        raise RuntimeError("gamma_t is undefined on a connected graph of order >= 3")
    return 3 * c.gamma_t <= 2 * g.n, {"gamma_t": c.gamma_t, "n": g.n}


@_theorem("GTT", "proven", "no isolated vertices: gamma_tt >= gamma_it")
def _gtt(g: Graph, c: InvariantCache):
    if c.has_isolated:
        return None, {"reason": "isolated vertex"}
    if c.gamma_tt is None:
        raise RuntimeError("gamma_tt is undefined on a graph without isolated vertices")
    return c.gamma_tt >= c.gamma_it, {"gamma_tt": c.gamma_tt, "gamma_it": c.gamma_it}


@_theorem("CONJ1", "refutable", "connected non-complete: gamma_it <= ceil(n/2)")
def _conj1(g: Graph, c: InvariantCache):
    if not c.connected or c.complete:
        return None, {"reason": "needs connected non-complete"}
    bound = (g.n + 1) // 2
    return c.gamma_it <= bound, {"gamma_it": c.gamma_it, "bound": bound, "n": g.n}


PROVEN_IDS = tuple(tid for tid, t in THEOREMS.items() if t.expected == "proven")
REFUTABLE_IDS = tuple(tid for tid, t in THEOREMS.items() if t.expected == "refutable")


def check_many(
    theorem_ids: Sequence[str], g: Graph, cache: InvariantCache | None = None
) -> list[TheoremVerdict]:
    """Evaluate registry entries on one graph, in the order of ``theorem_ids``.

    The ids, the cache and the order limit are checked once for the graph.
    """
    for tid in theorem_ids:
        if tid not in THEOREMS:
            raise KeyError(f"unknown theorem id {tid!r}")
    if cache is not None and cache.g != g:
        raise ValueError("the invariant cache belongs to a different graph")
    if g.n > CHECK_MAX_ORDER:
        raise SolverLimitError(
            f"theorem checks are limited to {CHECK_MAX_ORDER} vertices"
        )
    if g.n == 0:
        return [
            TheoremVerdict(tid, Status.NOT_APPLICABLE, {"reason": "empty graph"})
            for tid in theorem_ids
        ]
    cache = cache if cache is not None else InvariantCache(g)
    not_applicable, holds, violated = Status.NOT_APPLICABLE, Status.HOLDS, Status.VIOLATED
    verdicts = []
    for tid in theorem_ids:
        ok, witness = THEOREMS[tid].fn(g, cache)
        status = not_applicable if ok is None else holds if ok else violated
        verdicts.append(TheoremVerdict(tid, status, witness))
    return verdicts


def check(theorem_id: str, g: Graph, cache: InvariantCache | None = None) -> TheoremVerdict:
    """Evaluate one registry entry on one graph."""
    return check_many((theorem_id,), g, cache)[0]
