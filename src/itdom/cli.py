"""Command-line front end: invariant reports, theorem verification, catalogs.

All reports are byte-deterministic for a given invocation and version:
entries are sorted by graph6 text, JSON keys are sorted, and the elapsed
field is pinned to zero with actual wall time logged to stderr instead.
Reports are written entry by entry as the results arrive, so memory does
not grow with the number of graphs; a run that fails part way leaves an
incomplete report on stdout and exits non-zero.

The catalog of all graphs of each order is cached on disk as the text
``generate --all`` prints, in a file named by its pinned SHA-256.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import sys
import time
import traceback
from collections.abc import Iterable, Iterator
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import __version__
from .catalog import (
    CATALOG_MAX_ORDER,
    CATALOG_SHA256,
    catalog_text,
    connected_lines,
    enumerate_graphs,
    read_catalog,
)
from .graphs import (
    complement,
    encode_graph6,
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
    TheoremVerdict,
    check_many,
    figure1_graph,
    search_extremal,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that left


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
    guards; the parsed graphs are not kept.

    A graph6 line that ``parse_graph6`` accepts is its own encoding, so
    only an edge-list graph is encoded.
    """
    try:
        text = sys.stdin.read() if path is None or path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read corpus {path}: {exc}") from exc
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    try:
        if lines and lines[0][0].isdigit():
            corpus = [(parse_edge_list(text), None)]
        else:
            corpus = [(parse_graph6(ln), ln) for ln in lines]
    except ValueError as exc:  # Graph6Error, EdgeListError, or an order Graph rejects
        raise UsageError(str(exc)) from exc
    for g, _ in corpus:
        if g.n == 0:
            raise UsageError("order-0 graphs are not accepted by this command")
        if g.n > CHECK_MAX_ORDER:
            raise SolverLimitError(
                f"graph of order {g.n} exceeds the command limit of {CHECK_MAX_ORDER}"
            )
    return sorted(encode_graph6(g) if ln is None else ln for g, ln in corpus)


# ---------------------------------------------------------------------------
# Catalog disk cache
# ---------------------------------------------------------------------------


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "itdom"


def _all_graph_lines(n: int) -> list[str]:
    """The order-n catalog of all graphs, kept on disk as one file per order.

    The file is named by the catalog's pinned SHA-256 and read only when its
    bytes have that digest, so a missing, truncated or foreign file is a
    miss, and the catalog is regenerated in its place.  A cache that cannot
    be read is a miss too; one that cannot be written is noted on stderr.
    """
    path = _cache_dir() / f"catalog-v1-n{n}-{CATALOG_SHA256[n]}.g6"
    with contextlib.suppress(OSError):
        cached = read_catalog(n, path.read_bytes())
        if cached is not None:
            return list(cached)
    lines = enumerate_graphs(n)
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


def catalog_lines(n: int, connected: bool = True) -> list[str]:
    """Canonical graph6 lines for the order-n catalog, sorted.

    Both catalogs come from the one cached file of all graphs.
    """
    lines = _all_graph_lines(n)
    return list(connected_lines(lines)) if connected else lines


# ---------------------------------------------------------------------------
# Work items (module level so worker processes can unpickle them)
# ---------------------------------------------------------------------------

# Largest number of work items a worker takes at once.  Small chunks return
# results early, so the report is written while the workers compute.
MAX_CHUNK = 64

# The summary keys an entry's verdicts are counted into: one per status,
# then the violations of proven entries.
TALLY_KEYS = (*(status.value for status in Status), "proven_violations")
Tally = tuple[int, ...]  # counts in TALLY_KEYS order; empty for entries without verdicts


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


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


def _render(entry: dict, rows: list[list], fmt: str) -> str:
    """One entry exactly as the report holds it: its CSV rows, or its JSON
    object two levels deep, every line four spaces further in than a
    document of its own."""
    if fmt == "csv":
        return _csv_text(rows)
    out = ["    "]
    _encode(entry, "    ", out)
    return "".join(out)


# The invariant values of a report, in the order of its CSV columns.
INVARIANT_KEYS = ("alpha", "beta", "matching", "gamma", "tau_i", "xi", "gamma_it", "gamma_t", "gamma_tt")


def _report_to_json(report: InvariantReport) -> tuple[dict, dict]:
    mask_or_none = lambda m: None if m is None else members(m)  # noqa: E731
    values = {key: getattr(report, key) for key in INVARIANT_KEYS}
    return values, {key: mask_or_none(m) for key, m in report.witnesses.items()}


def _invariants_task(g6: str, fmt: str) -> tuple[str, Tally]:
    g = parse_graph6(g6)
    report = compute_report(g)
    values, witnesses = _report_to_json(report)
    entry = {
        "graph6": g6,
        "n": g.n,
        "invariants": values,
        "core": members(report.core),
        "witnesses": witnesses,
    }
    return _render(entry, [[g6, g.n, *values.values()]], fmt), ()


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


def _render_verdicts(entry: dict, key: list, fmt: str) -> tuple[str, Tally]:
    """An entry whose ``verdicts`` are ``TheoremVerdict`` tuples, rendered
    with one CSV row per verdict (``key`` then theorem and status), and the
    tally of its verdicts for the summary."""
    verdicts = entry["verdicts"]
    statuses = [v.status for v in verdicts]
    proven = sum(
        1 for tid, status, _ in verdicts
        if status is Status.VIOLATED and THEOREMS[tid].expected == "proven"
    )
    tally = (*map(statuses.count, Status), proven)
    if fmt == "csv":
        return _csv_text([[*key, tid, status.value] for tid, status, _ in verdicts]), tally
    return _render(dict(entry, verdicts=[_verdict_text(v) for v in verdicts]), [], fmt), tally


def _verify_task(g6: str, ids: tuple[str, ...], fmt: str) -> tuple[str, Tally]:
    g = parse_graph6(g6)
    return _render_verdicts({"graph6": g6, "n": g.n, "verdicts": check_many(ids, g)}, [g6], fmt)


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
    results: Iterable[tuple[str, Tally]],
    summary: dict,
) -> dict:
    """Write one report to stdout, each rendered entry as ``results`` yields it.

    In JSON the sorted keys put ``entries`` before ``summary``, so the
    summary is tallied along the way and written after the last entry;
    the bytes equal those of the whole document dumped at once.  Each
    result carries the tally of its entry's verdicts, added into the
    summary's ``TALLY_KEYS``.  Returns the summary with the entry count as
    ``graphs``.
    """
    out = sys.stdout
    summary = dict(summary, graphs=0)
    if fmt == "csv":
        out.write(_csv_text([header]))
    head = _document(command, [0], {}).split(_ENTRY_SLOT)[0] + "\n"
    for text, tally in results:
        if fmt == "json":
            text = (",\n" if summary["graphs"] else head) + text
        out.write(text)
        summary["graphs"] += 1
        for key, count in zip(TALLY_KEYS, tally):
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
    ids = _parse_theorem_ids(args.theorems)
    if args.corpus is not None:
        lines = _corpus_lines(args.corpus)
    else:
        lines = catalog_lines(_catalog_order(args.order), connected=True)
    results = _map_tasks(partial(_verify_task, ids=ids, fmt=args.format), lines, args.jobs)
    header = ["graph6", "theorem", "status"]
    summary = _write_report(command, args.format, header, results, dict.fromkeys(TALLY_KEYS, 0))
    return EXIT_OK if summary["proven_violations"] == 0 else EXIT_VERIFY_FAILED


def _cmd_generate(args: argparse.Namespace, command: str) -> int:
    lines = catalog_lines(_catalog_order(args.order), connected=not args.all)
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
                "verdicts": check_many(ids, g, cache),
            }
        )
    entries.sort(key=lambda e: e["graph6"])
    results = (_render_verdicts(e, [e["name"], e["graph6"]], args.format) for e in entries)
    header = ["name", "graph6", "theorem", "status"]
    _write_report(command, args.format, header, results, dict.fromkeys(TALLY_KEYS, 0))
    return EXIT_OK


def _cmd_search(args: argparse.Namespace, command: str) -> int:
    n = _catalog_order(args.order)
    entries = [
        {"graph6": g6, "n": n, "values": values}
        for g6, values in search_extremal(args.mode, catalog_lines(n))
    ]
    keys = sorted({k for e in entries for k in e["values"]})
    results = (
        (_render(e, [[e["graph6"], *(e["values"].get(k) for k in keys)]], args.format), ())
        for e in entries
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
        traceback.print_exc()
        return EXIT_INTERNAL
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"elapsed {elapsed:.0f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
