"""Command-line front end: invariant reports, theorem verification, catalogs.

All reports are byte-deterministic for a given invocation and version:
entries are sorted by graph6 text, JSON keys are sorted, and the elapsed
field is pinned to zero with actual wall time logged to stderr instead.
Reports are written entry by entry as the results arrive, so memory does
not grow with the number of graphs; a run that fails part way leaves an
incomplete report on stdout and exits non-zero.

The catalog of all graphs of each order is cached on disk as the text
``generate --all`` prints, in a file named by its pinned SHA-256.

Each command imports only what it runs: ``invariants`` loads ``graphs`` and
``invariants`` alone, ``theorems`` is imported by the commands that check,
and ``catalog`` by those that read a catalog.  A worker receives
what it calls with its task, so it imports the same modules whatever the
start method of the pool.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .graphs import complement, encode_graph6, members, parse_edge_list, parse_graph6, petersen
from .invariants import CHECK_MAX_ORDER, InvariantCache, SolverLimitError, compute_report

if TYPE_CHECKING:
    from .theorems import TheoremVerdict

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that left


# catalog.CATALOG_MAX_ORDER, spelled out so that the parser does not import
# ``catalog``; a test holds it to its source.
CATALOG_MAX_ORDER = 8
SEARCH_MODES = ("max_tau_i", "bipartite_half_gammait")
Counts = dict[str, int]  # summary key -> what one entry adds to it
Rows = list[list]  # CSV rows


class UsageError(Exception):
    """Bad input from the command line: an unreadable or malformed corpus,
    an unknown theorem id, or a catalog order out of range."""


# ---------------------------------------------------------------------------
# Corpus handling
# ---------------------------------------------------------------------------


def _catalog_order(n: int) -> int:
    if not 1 <= n <= CATALOG_MAX_ORDER:
        raise UsageError(f"catalog order must be in [1, {CATALOG_MAX_ORDER}], got {n}")
    return n


def _corpus_lines(path: str | None) -> list[str]:
    """The corpus (graph6 lines, or a single edge-list graph when the header
    is numeric) as sorted graph6 lines, once every graph passed the order
    guards; each parsed graph is dropped once its order is read, so the
    corpus is held only as text.

    A graph6 line that ``parse_graph6`` accepts is its own encoding, so
    only an edge-list graph is encoded.
    """
    try:
        text = sys.stdin.read() if path is None or path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read corpus {path}: {exc}") from exc
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    edge_list = None
    try:
        if lines and lines[0][0].isdigit():
            edge_list = parse_edge_list(text)
            orders = [edge_list.n]
        else:
            orders = [parse_graph6(ln).n for ln in lines]
    except ValueError as exc:  # Graph6Error, EdgeListError, or an order Graph rejects
        raise UsageError(str(exc)) from exc
    for n in orders:
        if n == 0:
            raise UsageError("order-0 graphs are not accepted by this command")
        if n > CHECK_MAX_ORDER:
            raise SolverLimitError(f"graph of order {n} exceeds the command limit of {CHECK_MAX_ORDER}")
    return [encode_graph6(edge_list)] if edge_list is not None else sorted(lines)


# ---------------------------------------------------------------------------
# Catalog disk cache
# ---------------------------------------------------------------------------


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "itdom"


def _all_graph_lines(n: int, jobs: int) -> list[str]:
    """The order-n catalog of all graphs, kept on disk as one file per order.

    The file is named by the catalog's pinned SHA-256 and read only when its
    bytes have that digest, so a missing, truncated or foreign file is a
    miss, and the catalog is regenerated in its place, its parents (the
    order n - 1 lines) split across ``jobs`` workers.  A cache that cannot
    be read is a miss too; one that cannot be written is noted on stderr.
    """
    from .catalog import CATALOG_SHA256, catalog_text, generate_graphs, read_catalog

    path = _cache_dir() / f"catalog-v1-n{n}-{CATALOG_SHA256[n]}.g6"
    with contextlib.suppress(OSError):
        cached = read_catalog(n, path.read_bytes())
        if cached is not None:
            return list(cached)
    lines = generate_graphs(n, partial(_map_tasks, jobs=jobs))
    tmp = path.with_suffix(f".{os.getpid()}.tmp")  # no clash between processes
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(catalog_text(lines))
        tmp.replace(path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        print(f"note: catalog cache not written: {exc}", file=sys.stderr)
    return list(lines)


def catalog_lines(n: int, connected: bool = True, jobs: int = 1) -> list[str]:
    """Canonical graph6 lines for the order-n catalog, sorted.

    Both catalogs come from the one cached file of all graphs, generated
    across ``jobs`` workers on a miss.
    """
    from .catalog import connected_lines

    lines = _all_graph_lines(n, jobs)
    return list(connected_lines(lines)) if connected else lines


# ---------------------------------------------------------------------------
# Work items (module level so worker processes can unpickle them)
# ---------------------------------------------------------------------------

# Largest number of work items a worker takes at once.  Small chunks return
# results early, so the report is written while the workers compute.
MAX_CHUNK = 64


class _Encoded(str):
    """JSON text already rendered at its place in a report."""


def _encode(value, indent: str, out: list[str]) -> None:
    """Append the JSON text of ``value`` to ``out``, as
    ``json.dumps(value, indent=2, sort_keys=True)`` writes it with every
    line after the first prefixed by ``indent``.

    Only what reports hold is accepted: dicts with string keys, lists and
    tuples, strings, ints, booleans and None.
    """
    if isinstance(value, str):
        out.append(value if type(value) is _Encoded else _quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            out += (sep, _quote(key), ": ")
            _encode(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        raise TypeError(f"a report cannot hold a value of type {type(value).__name__}")


def _render(entry: dict, rows: Rows, fmt: str) -> str | Rows:
    """One entry as the report holds it: its CSV rows, which the report
    writes as they come, or the text of its JSON object two levels deep,
    every line four spaces further in than a document of its own."""
    if fmt == "csv":
        return rows
    out = ["    "]
    _encode(entry, "    ", out)
    return "".join(out)


# The invariant values of a report, in the order of its CSV columns.
INVARIANT_KEYS = ("alpha", "beta", "matching", "gamma", "tau_i", "xi", "gamma_it", "gamma_t", "gamma_tt")


def _invariants_task(g6: str, fmt: str) -> tuple[str | Rows, Counts]:
    g = parse_graph6(g6)
    report = compute_report(g)
    values = {key: getattr(report, key) for key in INVARIANT_KEYS}
    entry = {
        "graph6": g6,
        "n": g.n,
        "invariants": values,
        "core": members(report.core),
        "witnesses": {key: None if m is None else members(m) for key, m in report.witnesses.items()},
    }
    return _render(entry, [[g6, g.n, *values.values()]], fmt), {}


# The rendered text of each verdict, keyed by theorem, status value and the
# repr of its witness, which tells True from 1 and a list from a dict: equal
# keys render to equal texts.  Witnesses come only from the checks, so none
# holds an _Encoded text (whose repr is a str's).  The table stops at its cap.
_VERDICT_TEXTS: dict[tuple[str, str, str], _Encoded] = {}
_VERDICT_TEXTS_MAX = 4096


def _verdict_text(verdict: TheoremVerdict) -> _Encoded:
    """A verdict's JSON text at its place in a report: in the verdicts of an
    entry of the report's entries."""
    tid, status, witness = verdict
    # The documented ``_value_`` is a plain attribute, and a str hashes in C;
    # ``.value`` and Enum.__hash__ are both Python-level calls.
    value = status._value_
    key = (tid, value, repr(witness))
    text = _VERDICT_TEXTS.get(key)
    if text is None:
        out: list[str] = []
        _encode({"theorem": tid, "status": value, "witness": witness}, " " * 8, out)
        text = _Encoded("".join(out))
        if len(_VERDICT_TEXTS) < _VERDICT_TEXTS_MAX:
            _VERDICT_TEXTS[key] = text
    return text


def _verdict_summary() -> Counts:
    """Zero counts of each ``theorems.Status`` value and of proven violations."""
    from .theorems import Status

    return dict.fromkeys([*(status.value for status in Status), "proven_violations"], 0)


def _render_verdicts(entry: dict, key: list, fmt: str) -> tuple[str | Rows, Counts]:
    """An entry whose ``verdicts`` are ``TheoremVerdict`` tuples, rendered
    with one CSV row per verdict (``key`` then theorem and status), and the
    count of its verdicts by status value and of its violations of proven
    registry entries for the summary."""
    verdicts = entry["verdicts"]
    values = [status._value_ for _, status, _ in verdicts]
    counts = {value: values.count(value) for value in set(values)}
    counts["proven_violations"] = 0
    if "Violated" in counts:  # rare, so the registry is looked up only then
        from .theorems import THEOREMS

        counts["proven_violations"] = sum(
            THEOREMS[tid].expected == "proven"
            for (tid, _, _), value in zip(verdicts, values)
            if value == "Violated"
        )
    if fmt == "csv":
        return [[*key, tid, value] for (tid, _, _), value in zip(verdicts, values)], counts
    return _render(dict(entry, verdicts=[_verdict_text(v) for v in verdicts]), [], fmt), counts


def _verify_task(g6: str, check: Callable, fmt: str) -> tuple[str | Rows, Counts]:
    """The verdicts of ``check`` (``check_many`` bound to the theorem ids)
    on one graph, rendered.  A worker imports ``theorems`` when it unpickles
    ``check``."""
    g = parse_graph6(g6)
    return _render_verdicts({"graph6": g6, "n": g.n, "verdicts": check(g)}, [g6], fmt)


def _search_task(g6: str, mode: str) -> dict[str, int] | None:
    """What ``search`` finds on one catalog graph, from one evaluator.

    In mode max_tau_i, its ``tau_i``.  In mode bipartite_half_gammait, its
    ``gamma`` and ``gamma_it`` if it is bipartite of even order n >= 4 with
    dominating transversal number n/2, and None otherwise.
    """
    g = parse_graph6(g6)
    c = InvariantCache(g)
    if mode == "max_tau_i":
        return {"tau_i": c.tau_i}
    n = g.n
    if n < 3 or n % 2 or c.bip is None or 2 * c.gamma_it != n:
        return None
    if c.gamma not in (n // 2 - 1, n // 2):
        raise RuntimeError(f"{g6}: gamma_it = n/2 but gamma = {c.gamma} is not n/2 - 1 or n/2")
    return {"gamma": c.gamma, "gamma_it": c.gamma_it}


def _map_tasks(fn, items: list, jobs: int) -> Iterator:
    """``fn`` over ``items``, yielded in input order as the results arrive.

    No more workers start than there are items.  A failed item raises here,
    when its result is reached, and the items not yet started are cancelled.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    # Imported here, so that a serial run does not pay for importing the pool.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, min(MAX_CHUNK, len(items) // (workers * 4)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items, chunksize=chunk)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

# The entry line of a one-entry skeleton document (see _write_report).
_ENTRY_SLOT = "\n    0\n"


def _document(command: str, entries: list, summary: dict) -> str:
    report = {
        "version": __version__,
        "command": command,
        "entries": entries,
        "summary": summary,
        "elapsed_ms": 0,
    }
    out: list[str] = []
    _encode(report, "", out)
    return "".join(out)


def _write_report(
    command: str,
    fmt: str,
    header: list[str],
    results: Iterable[tuple[str | Rows, Counts]],
    summary: dict,
) -> dict:
    """Write one report to stdout, each rendered entry as ``results`` yields it.

    In JSON the sorted keys put ``entries`` before ``summary``, so the
    summary is tallied along the way and written after the last entry;
    the bytes equal those of the whole document dumped at once.  Each
    result carries its entry's counts, added into the summary's keys of
    the same names.  Returns the summary with the entry count as
    ``graphs``.
    """
    out = sys.stdout
    summary = dict(summary, graphs=0)
    if fmt == "csv":
        import csv

        write = csv.writer(out, lineterminator="\n").writerows
        write([header])
    else:
        write = out.write
    head = _document(command, [0], {}).split(_ENTRY_SLOT)[0] + "\n"
    for rendered, counts in results:
        if fmt == "json":
            rendered = (",\n" if summary["graphs"] else head) + rendered
        write(rendered)
        summary["graphs"] += 1
        for key, count in counts.items():
            summary[key] += count
    if fmt == "json":
        if summary["graphs"]:
            out.write("\n" + _document(command, [0], summary).split(_ENTRY_SLOT)[1] + "\n")
        else:
            out.write(_document(command, [], summary) + "\n")
    return summary


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_invariants(args: argparse.Namespace, command: str) -> int:
    items = _corpus_lines(args.corpus)
    header = ["graph6", "n", *INVARIANT_KEYS] if items else ["graph6", "n"]
    results = _map_tasks(partial(_invariants_task, fmt=args.format), items, args.jobs)
    _write_report(command, args.format, header, results, {})
    return EXIT_OK


def _parse_theorem_ids(selector: str) -> tuple[str, ...]:
    from .theorems import THEOREMS

    if selector == "all":
        return tuple(THEOREMS)
    ids = tuple(part.strip() for part in selector.split(",") if part.strip())
    if not ids:
        raise UsageError(f"no theorem id in {selector!r}")
    for tid in ids:
        if tid not in THEOREMS:
            raise UsageError(f"unknown theorem id {tid!r}")
    if len(set(ids)) < len(ids):
        raise UsageError(f"a theorem id is named twice in {selector!r}")
    return ids


def _cmd_verify(args: argparse.Namespace, command: str) -> int:
    from .theorems import check_many

    ids = _parse_theorem_ids(args.theorems)
    if args.corpus is not None:
        lines = _corpus_lines(args.corpus)
    else:
        lines = catalog_lines(_catalog_order(args.order), connected=True, jobs=args.jobs)
    task = partial(_verify_task, check=partial(check_many, ids), fmt=args.format)
    results = _map_tasks(task, lines, args.jobs)
    header = ["graph6", "theorem", "status"]
    summary = _write_report(command, args.format, header, results, _verdict_summary())
    return EXIT_OK if summary["proven_violations"] == 0 else EXIT_VERIFY_FAILED


def _cmd_generate(args: argparse.Namespace, command: str) -> int:
    lines = catalog_lines(_catalog_order(args.order), connected=not args.all, jobs=args.jobs)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_counterexamples(args: argparse.Namespace, command: str) -> int:
    from .theorems import check_many, figure1_graph

    named = [
        ("petersen_complement", complement(petersen()), ("CONJ1", "L2.1")),
        ("figure1", figure1_graph(), ("T3.1-ORIG", "T3.2")),
    ]
    entries = []
    for name, g, ids in named:
        cache = InvariantCache(g)
        entries.append(
            {
                "name": name,
                "graph6": encode_graph6(g),
                "n": g.n,
                "invariants": {key: getattr(cache, key) for key in INVARIANT_KEYS},
                "verdicts": check_many(ids, g, cache),
            }
        )
    entries.sort(key=lambda e: e["graph6"])
    results = (_render_verdicts(e, [e["name"], e["graph6"]], args.format) for e in entries)
    header = ["name", "graph6", "theorem", "status"]
    _write_report(command, args.format, header, results, _verdict_summary())
    return EXIT_OK


def _cmd_search(args: argparse.Namespace, command: str) -> int:
    n = _catalog_order(args.order)
    lines = catalog_lines(n, jobs=args.jobs)
    found = _map_tasks(partial(_search_task, mode=args.mode), lines, args.jobs)
    entries = [(g6, values) for g6, values in zip(lines, found) if values is not None]
    if args.mode == "max_tau_i":
        top = max((values["tau_i"] for _, values in entries), default=None)
        entries = [(g6, values) for g6, values in entries if values["tau_i"] == top]
    keys = sorted({k for _, values in entries for k in values})
    results = (
        (_render({"graph6": g6, "n": n, "values": values}, [[g6, *map(values.get, keys)]], args.format), {})
        for g6, values in entries
    )
    _write_report(command, args.format, ["graph6", *keys], results, {"mode": args.mode})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def _worker_count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of at least 1, got {text!r}")
    return int(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--jobs", type=_worker_count, default=os.cpu_count() or 1, metavar="K")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itdom",
        description="Exact domination/transversal invariants and exhaustive "
        "theorem verification over small-graph catalogs.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_inv = sub.add_parser("invariants", allow_abbrev=False, help="full invariant report per input graph")
    p_inv.add_argument("--corpus", metavar="FILE", help="graph6 lines or an edge list; default stdin")
    _add_common(p_inv)
    p_inv.set_defaults(handler=_cmd_invariants)

    p_ver = sub.add_parser("verify", allow_abbrev=False, help="run theorem checks over a corpus or catalog")
    p_ver.add_argument("--theorems", default="all", metavar="IDS", help="comma-separated ids or 'all'")
    source = p_ver.add_mutually_exclusive_group(required=True)
    source.add_argument("--corpus", metavar="FILE")
    source.add_argument("--order", type=int, metavar="N", help=f"connected catalog order, 1..{CATALOG_MAX_ORDER}")
    _add_common(p_ver)
    p_ver.set_defaults(handler=_cmd_verify)

    p_gen = sub.add_parser("generate", allow_abbrev=False, help="print the canonical graph6 catalog")
    p_gen.add_argument("--order", type=int, required=True, metavar="N")
    p_gen.add_argument("--all", action="store_true", help="include disconnected graphs")
    _add_common(p_gen)
    p_gen.set_defaults(handler=_cmd_generate)

    p_ctr = sub.add_parser("counterexamples", allow_abbrev=False, help="reproduce the stock counterexamples")
    _add_common(p_ctr)
    p_ctr.set_defaults(handler=_cmd_counterexamples)

    p_sea = sub.add_parser("search", allow_abbrev=False, help="extremal sweeps over a catalog order")
    p_sea.add_argument("mode", choices=SEARCH_MODES)
    p_sea.add_argument("--order", type=int, required=True, metavar="N")
    _add_common(p_sea)
    p_sea.set_defaults(handler=_cmd_search)

    return parser


def _echo_command(argv: list[str]) -> str:
    """Invocation echo without ``--jobs``, so reports do not depend on
    the worker count."""
    parts = []
    args = iter(argv)
    for arg in args:
        if arg == "--jobs":
            next(args, None)  # its value
        elif not arg.startswith("--jobs="):
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
    except BrokenPipeError:
        # The reader of stdout is gone.  Point stdout's descriptor at the
        # null device, so the final flush of what is still buffered does
        # not fail again at exit.
        with contextlib.suppress(OSError, ValueError):  # no descriptor
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception:  # a fault in the solvers or checks, not in the input
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"elapsed {elapsed:.0f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
