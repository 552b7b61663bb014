"""Correctness gate: judge one CLI invocation's stdout entry by entry.

Every check here is independent of the package under test.  Graphs are
decoded from graph6 by this module, independence numbers come from its own
small branch and bound, and ``networkx`` supplies the reference independence
and matching numbers on the order-20 reports.  An entry fails when it is
missing, unexpected, differs from the recorded reference output, or fails
one of the reference-free checks:

- ``invariants``: ``alpha`` and ``matching`` equal networkx's; every
  witness is feasible at its reported size (independent set, vertex cover,
  matched vertices, dominating, transversal, total dominating); the core
  is exactly the set of vertices whose removal lowers ``alpha``.
- ``verify``: the 23 registry ids in order, no proven entry violated, and
  the ``alpha`` reported by EQ1 equals this module's.
- ``generate``: distinct sorted graph6 lines of the requested order, as
  many as OEIS A000088 (all graphs) or A001349 (connected graphs) lists.

A command whose exit code is not 0 fails all of its entries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import networkx as nx

THEOREM_IDS = (
    "EQ1", "EQ2", "EQ3", "EQ4", "EQ5", "EQ6", "T1.1", "T1.2", "L2.1", "T2.4",
    "C2.4a", "T2.5", "T2.6", "TREE", "SAND", "T3.2", "T3.1-ORIG", "T3.3",
    "C3.4", "T3.5", "T4.1", "GTT", "CONJ1",
)
REFUTABLE_IDS = frozenset({"T3.1-ORIG", "CONJ1"})
STATUSES = frozenset({"Holds", "Violated", "NotApplicable"})

# OEIS A000088 (graphs) and A001349 (connected graphs) on n = 1..7 vertices.
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@dataclass
class Outcome:
    """Entries attempted and failed by one command, and why."""

    attempted: int = 0
    failed: int = 0
    graphs: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict, repr=False)
    connected: set[str] = field(default_factory=set, repr=False)  # generate only


def entry_digest(entry: object) -> str:
    text = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Graphs as neighbor bitmasks
# ---------------------------------------------------------------------------


def decode_graph6(text: str) -> list[int]:
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"unsupported graph6 header in {text!r}")
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    if len(text) != 1 + (k + 5) // 6:
        raise ValueError(f"graph6 length mismatch in {text!r}")
    return adj


def _bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def independence_number(adj: list[int], live: int, memo: dict[int, int]) -> int:
    """Largest independent set inside the vertex mask ``live``."""
    if live == 0:
        return 0
    if live in memo:
        return memo[live]
    degrees = [(adj[v] & live).bit_count() for v in _bits(live)]
    verts = _bits(live)
    low = min(range(len(verts)), key=degrees.__getitem__)
    if degrees[low] <= 1:
        # A vertex of degree <= 1 lies in some maximum independent set.
        v = verts[low]
        best = 1 + independence_number(adj, live & ~(adj[v] | 1 << v), memo)
    else:
        v = verts[max(range(len(verts)), key=degrees.__getitem__)]
        best = max(
            independence_number(adj, live & ~(1 << v), memo),
            1 + independence_number(adj, live & ~(adj[v] | 1 << v), memo),
        )
    memo[live] = best
    return best


def is_connected(adj: list[int]) -> bool:
    seen = reach = 1
    while True:
        for v in _bits(reach):
            reach |= adj[v]
        if reach == seen:
            return reach == (1 << len(adj)) - 1
        seen = reach


def _nx_graph(adj: list[int]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((u, v) for u in range(len(adj)) for v in _bits(adj[u]) if u < v)
    return g


# ---------------------------------------------------------------------------
# Per-entry checks; each returns a problem description or None
# ---------------------------------------------------------------------------


def _mask(vertices: list[int], n: int) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def _invariants_problem(entry: dict) -> str | None:
    adj = decode_graph6(entry["graph6"])
    n = len(adj)
    full = (1 << n) - 1
    values = entry["invariants"]
    wit = entry["witnesses"]
    memo: dict[int, int] = {}
    alpha = independence_number(adj, full, memo)

    def dominated(s: int, closed: bool) -> bool:
        cover = s if closed else 0
        for v in _bits(s):
            cover |= adj[v]
        return cover == full

    def transversal(s: int) -> bool:
        return independence_number(adj, full & ~s, memo) < alpha

    def sized(key: str) -> int:
        s = _mask(wit[key], n)
        if s.bit_count() != values[key]:
            raise ValueError(f"{key} witness has {s.bit_count()} vertices, value {values[key]}")
        return s

    g = _nx_graph(adj)
    if entry["n"] != n:
        return "order differs from the input graph"
    nx_alpha = max(len(c) for c in nx.find_cliques(nx.complement(g)))
    if values["alpha"] != nx_alpha or alpha != nx_alpha:
        return f"alpha {values['alpha']} != networkx {nx_alpha}"
    nx_matching = len(nx.max_weight_matching(g, maxcardinality=True))
    if values["matching"] != nx_matching:
        return f"matching {values['matching']} != networkx {nx_matching}"
    if values["beta"] != n - alpha:
        return "beta != n - alpha"
    s = sized("alpha")
    if any(adj[v] & s for v in _bits(s)):
        return "alpha witness is not independent"
    s = sized("beta")
    if any(adj[v] & ~s for v in _bits(full & ~s)):
        return "beta witness is not a vertex cover"
    s = _mask(wit["matching"], n)
    sub = g.subgraph(_bits(s))
    if s.bit_count() != 2 * nx_matching or len(nx.max_weight_matching(sub, maxcardinality=True)) != nx_matching:
        return "matching witness is not a perfectly matched vertex set"
    if not dominated(sized("gamma"), closed=True):
        return "gamma witness does not dominate"
    if not transversal(sized("tau_i")):
        return "tau_i witness misses a maximum independent set"
    s = sized("gamma_it")
    if not (dominated(s, closed=True) and transversal(s)):
        return "gamma_it witness is not a dominating transversal"
    has_isolated = any(row == 0 for row in adj)
    for key, needs_transversal in (("gamma_t", False), ("gamma_tt", True)):
        if (values[key] is None) != has_isolated or (wit[key] is None) != has_isolated:
            return f"{key} must be None exactly when a vertex is isolated"
        if values[key] is not None:
            s = sized(key)
            if not dominated(s, closed=False) or (needs_transversal and not transversal(s)):
                return f"{key} witness is infeasible"
    core = {v for v in range(n) if independence_number(adj, full & ~(1 << v), memo) < alpha}
    if set(entry["core"]) != core or values["xi"] != len(core):
        return "core is not the set of alpha-critical vertices"
    return None


def _verify_problem(entry: dict) -> str | None:
    adj = decode_graph6(entry["graph6"])
    if entry["n"] != len(adj):
        return "order differs from the input graph"
    verdicts = entry["verdicts"]
    if tuple(v["theorem"] for v in verdicts) != THEOREM_IDS:
        return "verdicts are not the 23 registry ids in order"
    for v in verdicts:
        if v["status"] not in STATUSES:
            return f"unknown status {v['status']!r}"
        if v["status"] == "Violated" and v["theorem"] not in REFUTABLE_IDS:
            return f"proven entry {v['theorem']} violated"
    alpha = independence_number(adj, (1 << len(adj)) - 1, {})
    if verdicts[0]["witness"].get("alpha") != alpha:
        return f"EQ1 alpha {verdicts[0]['witness'].get('alpha')} != {alpha}"
    return None


def _generate_problem(line: str, order: int) -> str | None:
    return None if len(decode_graph6(line)) == order else "wrong order"


# ---------------------------------------------------------------------------
# Whole-command judgement
# ---------------------------------------------------------------------------


def _parse(kind: str, stdout: bytes) -> tuple[list[tuple[str, object]], dict]:
    if kind == "generate":
        lines = stdout.decode().splitlines()
        return [(ln, ln) for ln in lines], {}
    report = json.loads(stdout)
    return [(e["graph6"], e) for e in report["entries"]], report["summary"]


def judge(
    kind: str,
    stdout: bytes,
    returncode: int,
    expected: set[str] | None,
    expected_count: int,
    reference: dict[str, str] | None,
    order: int = 0,
) -> Outcome:
    """Judge one command's output.

    ``kind`` is ``invariants``, ``verify`` or ``generate``; ``expected`` is
    the set of graph6 keys the command must report, when known;
    ``reference`` maps keys to the entry digests recorded at the reference
    commit; ``order`` is the catalog order for ``generate``.
    """
    out = Outcome()
    if returncode != 0:
        out.attempted = out.failed = expected_count
        out.problems.append(f"exit code {returncode}")
        return out
    try:
        pairs, summary = _parse(kind, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        out.attempted = out.failed = expected_count
        out.problems.append(f"unreadable output: {exc!r}")
        return out
    bad: set[str] = set()
    entries: dict[str, object] = {}
    for key, entry in pairs:
        if key in entries:
            bad.add(key)
            out.problems.append(f"{key}: reported twice")
        entries[key] = entry
        out.digests[key] = entry_digest(entry)
    keys = set(entries)
    out.graphs = len(pairs)
    wanted = set(expected) if expected is not None else set()
    if reference is not None:
        wanted |= set(reference)
        for key in keys & set(reference):
            if out.digests[key] != reference[key]:
                bad.add(key)
                out.problems.append(f"{key}: differs from the reference output")
    if wanted:
        for key in wanted ^ keys:
            bad.add(key)
            out.problems.append(f"{key}: {'missing' if key in wanted else 'unexpected'}")
    if kind == "generate" and [k for k, _ in pairs] != sorted(keys):
        out.problems.append("catalog lines are not sorted and distinct")
        bad |= keys
    for key, entry in entries.items():
        try:
            if kind == "invariants":
                problem = _invariants_problem(entry)
            elif kind == "verify":
                problem = _verify_problem(entry)
            else:
                problem = _generate_problem(entry, order)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"malformed entry: {exc!r}"
        if problem is not None:
            bad.add(key)
            out.problems.append(f"{key}: {problem}")
    if kind == "generate":
        out.connected = {key for key in keys - bad if is_connected(decode_graph6(key))}
    out.attempted = max(len(wanted | keys), expected_count)
    out.failed = len(bad)
    if len(keys) != expected_count:
        out.problems.append(f"{len(keys)} entries reported, {expected_count} expected")
        out.failed = max(out.failed, abs(expected_count - len(keys)))
    if kind == "verify" and (
        summary.get("proven_violations") != 0 or summary.get("graphs") != len(pairs)
    ):
        out.problems.append(f"summary is inconsistent: {summary}")
        out.failed = out.attempted
    return out
