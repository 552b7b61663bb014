"""Per-layer metrics from an in-process replay of one workload.

The replay repeats, inside this process, the work the CLI does for each
step of a workload: it reads the corpus or the catalog, then runs the
per-graph task (``compute_report`` for ``invariants``; an
``InvariantCache`` with every property filled, then each registry check,
for ``verify``).  While it runs traced, the public functions listed in
``TRACED`` are replaced, in every ``itdom`` module that holds them, by
wrappers that record a span: name, start, end, parent span, and the graph6
text of the graph being worked on as the id shared by one graph's spans.
Spans stay in memory and are written out when the run ends.

Nothing in the package is changed on disk; the wrappers are removed when
the replay ends.  A function missing from the package (renamed or merged
by a later change) is reported in ``missing`` and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

TRACED = {
    "graphs": ("parse_graph6", "encode_graph6"),
    "catalog": ("canonical_form", "enumerate_connected_graphs", "enumerate_graphs"),
    "invariants": (
        "omega", "matching_number", "maximum_matching", "domination_number",
        "domination_sets", "core_and_xi", "tau_i", "gamma_it", "gamma_t",
        "gamma_tt", "compute_report",
    ),
    "theorems": ("check",),
    "cli": ("catalog_lines", "main"),
}
TASK = "bench.task"
FILL = "theorems.InvariantCache.fill"


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, graph6, tag]
        self.graph: str | None = None
        self.omega_sizes: list[int] = []
        self.verdicts: Counter[str] = Counter()
        self.catalog_sizes: dict[bool, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str, tag: str | None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.graph, tag])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, graph: str | None = None):
        if not self.enabled:
            yield
            return
        if graph is not None:
            self.graph = graph
        index = self._open(name, None)
        try:
            yield
        finally:
            self._close(index)
            if graph is not None:
                self.graph = None

    def wrap(self, name: str, fn):
        tag_first_arg = name == "theorems.check"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name, args[0] if tag_first_arg else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name == "invariants.omega":
                self.omega_sizes.append(len(result.sets))
            return result

        traced.bench_original = fn
        return traced


def _itdom_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "itdom" or name.startswith("itdom.")]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap the traced functions for span-recording wrappers, then restore."""
    undo = []
    missing = []
    if tracer.enabled:
        modules = _itdom_modules()
        for mod, names in TRACED.items():
            module = sys.modules.get(f"itdom.{mod}")
            for fn_name in names:
                original = getattr(module, fn_name, None)
                if original is None:
                    missing.append(f"{mod}.{fn_name}")
                    continue
                wrapper = tracer.wrap(f"{mod}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            undo.append((m, attr, original))
    try:
        yield missing
    finally:
        for m, attr, original in reversed(undo):
            setattr(m, attr, original)


def clear_caches() -> None:
    """Drop in-process memo caches so each step starts as a fresh process would."""
    for m in _itdom_modules():
        for value in list(vars(m).values()):
            target = getattr(value, "bench_original", value)
            if callable(getattr(target, "cache_clear", None)):
                target.cache_clear()


@contextlib.contextmanager
def environment(cwd: Path, cache: Path):
    """Run in ``cwd`` with the catalog cache under ``cache``."""
    old_cwd = os.getcwd()
    old_cache = os.environ.get("XDG_CACHE_HOME")
    os.chdir(cwd)
    os.environ["XDG_CACHE_HOME"] = str(cache)
    try:
        yield
    finally:
        os.chdir(old_cwd)
        if old_cache is None:
            os.environ.pop("XDG_CACHE_HOME", None)
        else:
            os.environ["XDG_CACHE_HOME"] = old_cache


def run_main(argv: list[str], cwd: Path, cache: Path) -> tuple[float, int, bytes]:
    """``itdom.cli.main`` in this process: wall seconds, exit code, stdout."""
    from itdom import cli

    clear_caches()
    out = io.StringIO()
    with environment(cwd, cache), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(list(argv))
        wall = time.perf_counter() - start
    return wall, code, out.getvalue().encode()


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def _corpus_items(path: Path) -> list[str]:
    """What the CLI does with ``--corpus``: parse every line, re-encode, sort."""
    from itdom import graphs

    lines = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    parsed = [graphs.parse_graph6(ln) for ln in lines]
    return sorted(graphs.encode_graph6(g) for g in parsed)


def _catalog(tracer: Tracer, order: int, connected: bool, cache: Path) -> list[str]:
    from itdom import cli

    before = set(cache.rglob("*"))
    lines = cli.catalog_lines(order, connected=connected)
    after = set(cache.rglob("*"))
    tracer.catalog_sizes[connected] = len(lines)
    for span in reversed(tracer.spans):
        if span[0] == "cli.catalog_lines":
            span[5] = "miss" if after - before else "hit"
            break
    return lines


def _fill(cache) -> None:
    for name, value in vars(type(cache)).items():
        if isinstance(value, functools.cached_property):
            getattr(cache, name)


def replay_step(tracer: Tracer, kind: str, argv: list[str], cwd: Path, cache: Path) -> float:
    """Replay one CLI step; returns the seconds spent in per-graph tasks."""
    from itdom import graphs, invariants, theorems

    clear_caches()
    with environment(cwd, cache):
        if "--corpus" in argv:
            items = _corpus_items(cwd / argv[argv.index("--corpus") + 1])
        else:
            order = int(argv[argv.index("--order") + 1])
            items = _catalog(tracer, order, kind != "generate", cache)
        start = time.perf_counter()
        if kind == "invariants":
            for g6 in items:
                with tracer.span(TASK, graph=g6):
                    invariants.compute_report(graphs.parse_graph6(g6))
        elif kind == "verify":
            ids = tuple(theorems.THEOREMS)
            for g6 in items:
                with tracer.span(TASK, graph=g6):
                    g = graphs.parse_graph6(g6)
                    values = theorems.InvariantCache(g)
                    with tracer.span(FILL):
                        _fill(values)
                    for tid in ids:
                        tracer.verdicts[theorems.check(tid, g, values).status.value] += 1
        return time.perf_counter() - start


def replay_canonical() -> None:
    """Canonical labeling of fixed order 8-9 graphs, symmetric ones included."""
    from itdom import catalog, graphs

    petersen = graphs.petersen()
    for g in (
        graphs.complete(9),
        graphs.complete(8),
        graphs.star(8),
        graphs.complete_bipartite(4, 5),
        graphs.cycle(9),
        graphs.path(9),
        graphs.Graph(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3) if u < u ^ 1 << b]),
        graphs.Graph(9, [(0, i) for i in range(1, 9)] + [(i, i % 8 + 1) for i in range(1, 9)]),
        graphs.induced_subgraph(petersen, petersen.full_mask & ~1)[0],
        graphs.Graph(9, [(i, j) for j in range(9) for i in range(j) if (i * 7 + j * 3) % 5 < 2]),
    ):
        catalog.canonical_form(g)


# ---------------------------------------------------------------------------
# Span statistics
# ---------------------------------------------------------------------------


class SpanStats:
    """Busy time (outermost spans of a name), self time and call counts."""

    def __init__(self, spans: list[list]) -> None:
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.by_tag: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, parent, _, tag) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.self_time[name] += dur - child[i]
            self.durations[name].append(dur)
            if tag is not None:
                self.by_tag[name, tag] += dur
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                self.busy[name] += dur


def top_graphs(spans: list[list], k: int = 5) -> list[dict]:
    tasks = [(s[2] - s[1], s[4]) for s in spans if s[0] == TASK]
    tasks.sort(reverse=True)
    return [{"graph6": g6, "seconds": round(dur, 6)} for dur, g6 in tasks[:k]]


def layer_metrics(
    tracer: Tracer,
    theorem_ids: tuple[str, ...],
    *,
    jobs: int,
    startup: float,
    cli_wall: float,
    main_wall: float,
    stdout_bytes: int,
    residual: float,
    tasks: float,
    traced_wall: float,
    untraced_wall: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit)."""
    stats = SpanStats(tracer.spans)
    m: dict[str, tuple[float, str]] = {}

    def busy(name: str) -> float:
        return stats.busy[name]

    m["catalog.enumerate_connected_graphs.busy_s"] = (busy("catalog.enumerate_connected_graphs"), "s")
    m["catalog.enumerate_graphs.busy_s"] = (busy("catalog.enumerate_graphs"), "s")
    m["catalog.enumerate_graphs.self_s"] = (stats.self_time["catalog.enumerate_graphs"], "s")
    m["catalog.canonical_form.busy_s"] = (busy("catalog.canonical_form"), "s")
    m["catalog.entries.connected"] = (tracer.catalog_sizes.get(True, 0), "count")
    m["catalog.entries.all"] = (tracer.catalog_sizes.get(False, 0), "count")
    m["cli.catalog_lines.miss_s"] = (stats.by_tag["cli.catalog_lines", "miss"], "s")
    m["cli.catalog_lines.hit_s"] = (stats.by_tag["cli.catalog_lines", "hit"], "s")
    m["cli.main.busy_s"] = (main_wall, "s")
    m["cli.residual_s"] = (residual, "s")
    m["cli.parallel_efficiency"] = (tasks / (jobs * cli_wall), "ratio")
    m["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    m["process.startup_s"] = (startup, "s")
    m["graphs.parse_graph6.busy_s"] = (busy("graphs.parse_graph6"), "s")
    calls = stats.calls["graphs.encode_graph6"]
    per_call = busy("graphs.encode_graph6") / calls * 1e6 if calls else 0.0
    m["graphs.encode_graph6.per_call_us"] = (per_call, "us")
    m["graphs.encode_graph6.calls"] = (calls, "count")
    for fn in TRACED["invariants"]:
        m[f"invariants.{fn}.busy_s"] = (busy(f"invariants.{fn}"), "s")
    m["invariants.compute_report.self_s"] = (stats.self_time["invariants.compute_report"], "s")
    # One sample per graph.  report-n20 has 16 graphs: too few for any
    # percentile above the median to have ten samples beyond it, so the
    # tail is reported as the maximum.
    reports = stats.durations["invariants.compute_report"] or [0.0]
    m["invariants.compute_report.p50_ms"] = (statistics.median(reports) * 1e3, "ms")
    m["invariants.compute_report.max_ms"] = (max(reports) * 1e3, "ms")
    m["invariants.compute_report.samples"] = (len(stats.durations["invariants.compute_report"]), "count")
    m["invariants.omega.sets_total"] = (sum(tracer.omega_sizes), "count")
    m["invariants.omega.sets_max"] = (max(tracer.omega_sizes, default=0), "count")
    m["theorems.InvariantCache.fill_s"] = (busy(FILL), "s")
    m["theorems.InvariantCache.fill_self_s"] = (stats.self_time[FILL], "s")
    m["theorems.check.busy_s"] = (busy("theorems.check"), "s")
    m["theorems.check.self_s"] = (stats.self_time["theorems.check"], "s")
    for tid in theorem_ids:
        m[f"theorems.check.{tid}.busy_s"] = (stats.by_tag["theorems.check", tid], "s")
    for status in ("Holds", "Violated", "NotApplicable"):
        m[f"theorems.verdicts.{status}"] = (tracer.verdicts[status], "count")
    m["bench.trace_overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return m
