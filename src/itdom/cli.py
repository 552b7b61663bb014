"""Command-line front end: invariant reports, theorem verification, catalogs.

All reports are byte-deterministic for a given invocation and version:
entries are sorted by graph6 text, JSON keys are sorted, and the elapsed
field is pinned to zero with actual wall time logged to stderr instead.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .catalog import CATALOG_MAX_ORDER, CatalogEntry, enumerate_graphs
from .graphs import (
    Graph,
    complement,
    encode_graph6,
    is_connected,
    members,
    parse_edge_list,
    parse_graph6,
    petersen,
)
from .invariants import InvariantCache, InvariantReport, SolverLimitError, compute_report
from .theorems import (
    CHECK_MAX_ORDER,
    SEARCH_MODES,
    THEOREMS,
    Status,
    check,
    figure1_graph,
    search_extremal,
)

CATALOG_CACHE_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """Bad input from the command line: an unreadable or malformed corpus,
    an unknown theorem id, or a catalog order out of range."""


# ---------------------------------------------------------------------------
# Corpus handling
# ---------------------------------------------------------------------------


def _load_corpus_text(text: str) -> list[Graph]:
    """graph6 lines, or a single edge-list graph when the header is numeric."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        return []
    if lines[0][0].isdigit():
        return [parse_edge_list(text)]
    return [parse_graph6(ln) for ln in lines]


def _read_corpus(path: str | None) -> list[Graph]:
    try:
        text = sys.stdin.read() if path is None or path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read corpus {path}: {exc}") from exc
    try:
        return _load_corpus_text(text)
    except ValueError as exc:  # Graph6Error, EdgeListError, or an order Graph rejects
        raise UsageError(str(exc)) from exc


def _catalog_order(n: int) -> int:
    if not 1 <= n <= CATALOG_MAX_ORDER:
        raise UsageError(f"catalog order must be in [1, {CATALOG_MAX_ORDER}], got {n}")
    return n


def _guard_orders(graphs: list[Graph]) -> None:
    for g in graphs:
        if g.n == 0:
            raise UsageError("order-0 graphs are not accepted by this command")
        if g.n > CHECK_MAX_ORDER:
            raise SolverLimitError(
                f"graph of order {g.n} exceeds the command limit of {CHECK_MAX_ORDER}"
            )


# ---------------------------------------------------------------------------
# Catalog disk cache
# ---------------------------------------------------------------------------


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "itdom"


def _catalog_cache_path(n: int, body: bytes) -> Path:
    digest = hashlib.sha256(body).hexdigest()
    return _cache_dir() / f"catalog-v{CATALOG_CACHE_VERSION}-n{n}-{digest}.g6"


def _all_graph_lines(n: int, use_cache: bool) -> list[str]:
    """The order-n catalog of all graphs, kept on disk as one file per order.

    The file is named by the SHA-256 digest of its body, so a truncated,
    stale or corrupt file is one whose body does not match its name, and
    the catalog is regenerated in its place.
    """
    if use_cache:
        for path in sorted(_cache_dir().glob(f"catalog-v{CATALOG_CACHE_VERSION}-n{n}-*.g6")):
            body = path.read_bytes()
            if path == _catalog_cache_path(n, body):
                return body.decode().splitlines()
    lines = [entry.graph6 for entry in enumerate_graphs(n)]
    body = ("\n".join(lines) + "\n").encode()
    path = _catalog_cache_path(n, body)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")  # no clash between processes
    tmp.write_bytes(body)
    tmp.replace(path)
    return lines


def _connected_entries(n: int, use_cache: bool) -> list[CatalogEntry]:
    """The order-n connected catalog, sorted: the connected lines of the one
    cached file of all graphs, each parsed once."""
    parsed = ((parse_graph6(ln), ln) for ln in _all_graph_lines(n, use_cache))
    return [CatalogEntry(g, ln, n) for g, ln in parsed if is_connected(g)]


def catalog_lines(n: int, connected: bool = True, use_cache: bool = True) -> list[str]:
    """Canonical graph6 lines for the order-n catalog, sorted.

    Both catalogs come from the one cached file of all graphs.
    """
    if connected:
        return [entry.graph6 for entry in _connected_entries(n, use_cache)]
    return _all_graph_lines(n, use_cache)


# ---------------------------------------------------------------------------
# Work items (module level so worker processes can unpickle them)
# ---------------------------------------------------------------------------


def _report_to_json(report: InvariantReport) -> dict:
    mask_or_none = lambda m: None if m is None else members(m)  # noqa: E731
    return {
        "alpha": report.alpha,
        "beta": report.beta,
        "matching": report.matching,
        "gamma": report.gamma,
        "tau_i": report.tau_i,
        "xi": report.xi,
        "gamma_it": report.gamma_it,
        "gamma_t": report.gamma_t,
        "gamma_tt": report.gamma_tt,
    }, {key: mask_or_none(m) for key, m in report.witnesses.items()}


def _invariants_task(g6: str) -> dict:
    g = parse_graph6(g6)
    report = compute_report(g)
    values, witnesses = _report_to_json(report)
    return {
        "graph6": g6,
        "n": g.n,
        "invariants": values,
        "core": members(report.core),
        "witnesses": witnesses,
    }


def _verdicts(g: Graph, cache: InvariantCache, ids: tuple[str, ...]) -> list[dict]:
    verdicts = []
    for tid in ids:
        verdict = check(tid, g, cache)
        verdicts.append(
            {"theorem": tid, "status": verdict.status.value, "witness": verdict.witness}
        )
    return verdicts


def _verify_task(item: tuple[str, tuple[str, ...]]) -> dict:
    g6, ids = item
    g = parse_graph6(g6)
    return {"graph6": g6, "n": g.n, "verdicts": _verdicts(g, InvariantCache(g), ids)}


def _map_tasks(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _report(command: str, entries: list[dict], summary: dict) -> dict:
    return {
        "version": __version__,
        "command": command,
        "entries": entries,
        "summary": summary,
        "elapsed_ms": 0,
    }


def _emit(report: dict, fmt: str, csv_rows: tuple[list[str], list[list]]) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    header, rows = csv_rows
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _summarize_statuses(entries: list[dict]) -> dict:
    summary = {status.value: 0 for status in Status}
    proven_violations = 0
    for entry in entries:
        for verdict in entry["verdicts"]:
            summary[verdict["status"]] += 1
            if (
                verdict["status"] == Status.VIOLATED.value
                and THEOREMS[verdict["theorem"]].expected == "proven"
            ):
                proven_violations += 1
    summary["graphs"] = len(entries)
    summary["proven_violations"] = proven_violations
    return summary


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_invariants(args: argparse.Namespace, command: str) -> int:
    graphs = _read_corpus(args.corpus)
    _guard_orders(graphs)
    items = sorted(encode_graph6(g) for g in graphs)
    entries = _map_tasks(_invariants_task, items, args.jobs)
    report = _report(command, entries, {"graphs": len(entries)})
    header = ["graph6", "n"] + list(entries[0]["invariants"]) if entries else ["graph6", "n"]
    rows = [
        [e["graph6"], e["n"]] + [e["invariants"][k] for k in e["invariants"]]
        for e in entries
    ]
    _emit(report, args.format, (header, rows))
    return EXIT_OK


def _parse_theorem_ids(selector: str) -> tuple[str, ...]:
    if selector == "all":
        return tuple(THEOREMS)
    ids = tuple(part.strip() for part in selector.split(",") if part.strip())
    for tid in ids:
        if tid not in THEOREMS:
            raise UsageError(f"unknown theorem id {tid!r}")
    return ids


def _cmd_verify(args: argparse.Namespace, command: str) -> int:
    ids = _parse_theorem_ids(args.theorems)
    if args.corpus is not None:
        graphs = _read_corpus(args.corpus)
        _guard_orders(graphs)
        lines = sorted(encode_graph6(g) for g in graphs)
    else:
        lines = catalog_lines(
            _catalog_order(args.order), connected=True, use_cache=not args.no_cache
        )
    entries = _map_tasks(_verify_task, [(g6, ids) for g6 in lines], args.jobs)
    summary = _summarize_statuses(entries)
    report = _report(command, entries, summary)
    rows = [
        [e["graph6"], v["theorem"], v["status"]]
        for e in entries
        for v in e["verdicts"]
    ]
    _emit(report, args.format, (["graph6", "theorem", "status"], rows))
    return EXIT_OK if summary["proven_violations"] == 0 else EXIT_VERIFY_FAILED


def _cmd_generate(args: argparse.Namespace, command: str) -> int:
    lines = catalog_lines(
        _catalog_order(args.order), connected=not args.all, use_cache=not args.no_cache
    )
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_counterexamples(args: argparse.Namespace, command: str) -> int:
    named = [
        ("petersen_complement", complement(petersen()), ("CONJ1", "L2.1")),
        ("figure1", figure1_graph(), ("T3.1-ORIG", "T3.2")),
    ]
    entries = []
    for name, g, ids in named:
        cache = InvariantCache(g)
        values, _ = _report_to_json(cache.report())
        entries.append(
            {
                "name": name,
                "graph6": encode_graph6(g),
                "n": g.n,
                "invariants": values,
                "verdicts": _verdicts(g, cache, ids),
            }
        )
    entries.sort(key=lambda e: e["graph6"])
    summary = _summarize_statuses(entries)
    report = _report(command, entries, summary)
    rows = [
        [e["name"], e["graph6"], v["theorem"], v["status"]]
        for e in entries
        for v in e["verdicts"]
    ]
    _emit(report, args.format, (["name", "graph6", "theorem", "status"], rows))
    return EXIT_OK


def _cmd_search(args: argparse.Namespace, command: str) -> int:
    catalog = _connected_entries(_catalog_order(args.order), use_cache=not args.no_cache)
    entries = [
        {"graph6": res.entry.graph6, "n": res.entry.order, "values": res.values}
        for res in search_extremal(args.mode, catalog)
    ]
    report = _report(command, entries, {"graphs": len(entries), "mode": args.mode})
    keys = sorted({k for e in entries for k in e["values"]})
    rows = [[e["graph6"]] + [e["values"].get(k) for k in keys] for e in entries]
    _emit(report, args.format, (["graph6"] + keys, rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1, metavar="K")
    parser.add_argument("--no-cache", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itdom",
        description="Exact domination/transversal invariants and exhaustive "
        "theorem verification over small-graph catalogs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_inv = sub.add_parser("invariants", help="full invariant report per input graph")
    p_inv.add_argument("--corpus", metavar="FILE", help="graph6 lines or an edge list; default stdin")
    _add_common(p_inv)
    p_inv.set_defaults(handler=_cmd_invariants)

    p_ver = sub.add_parser("verify", help="run theorem checks over a corpus or catalog")
    p_ver.add_argument("--theorems", default="all", metavar="IDS", help="comma-separated ids or 'all'")
    source = p_ver.add_mutually_exclusive_group(required=True)
    source.add_argument("--corpus", metavar="FILE")
    source.add_argument("--order", type=int, metavar="N", help=f"connected catalog order, 1..{CATALOG_MAX_ORDER}")
    _add_common(p_ver)
    p_ver.set_defaults(handler=_cmd_verify)

    p_gen = sub.add_parser("generate", help="print the canonical graph6 catalog")
    p_gen.add_argument("--order", type=int, required=True, metavar="N")
    p_gen.add_argument("--all", action="store_true", help="include disconnected graphs")
    _add_common(p_gen)
    p_gen.set_defaults(handler=_cmd_generate)

    p_ctr = sub.add_parser("counterexamples", help="reproduce the stock counterexamples")
    _add_common(p_ctr)
    p_ctr.set_defaults(handler=_cmd_counterexamples)

    p_sea = sub.add_parser("search", help="extremal sweeps over a catalog order")
    p_sea.add_argument("mode", choices=SEARCH_MODES)
    p_sea.add_argument("--order", type=int, required=True, metavar="N")
    _add_common(p_sea)
    p_sea.set_defaults(handler=_cmd_search)

    return parser


def _echo_command(argv: list[str]) -> str:
    """Invocation echo without execution-only flags, so reports do not
    depend on worker count or cache strategy."""
    parts = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
            continue
        if arg == "--jobs":
            skip = True
            continue
        if arg.startswith("--jobs=") or arg == "--no-cache":
            continue
        parts.append(arg)
    return "itdom " + " ".join(parts)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    command = _echo_command(argv)
    started = time.perf_counter()
    try:
        code = args.handler(args, command)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverLimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except Exception:  # a fault in the solvers or checks, not in the input
        traceback.print_exc()
        return EXIT_INTERNAL
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"elapsed {elapsed:.0f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
