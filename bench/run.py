"""End-to-end benchmark of the ``itdom`` command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is run from source: every CLI
process is ``python3 -m itdom`` with ``PYTHONPATH=src``.  Inputs are made
from ``--seed`` (see ``corpora.py``); the program only sees graph6 files.

Load model: a closed loop with one client.  One CLI process runs at a time
and the next starts when the previous one exits.  A workload is a fixed
sequence of CLI commands; one pass over it is an *iteration*.  With
``--trace 0`` the run repeats iterations until the next one would end past
``--seconds`` of measured time, and reports medians over iterations:

- ``wall_s``: wall time of one iteration, summed over its CLI processes;
- ``graphs_per_s``: graphs reported on stdout in one iteration / ``wall_s``;
- ``setup_s``: median, over samples spread between the iterations, of the
  wall time of a fresh CLI process running the workload's commands on a
  single-vertex input (interpreter start, imports, argument parsing);
- ``peak_rss_mb``: peak RSS of the largest CLI process of an iteration
  (workers included), from ``wait4``.

Every process gets its own empty ``XDG_CACHE_HOME`` and ``HOME`` under
``bench/.work``, and an explicit ``--jobs``.  The correctness gate
(``gate.py``) judges each command's entries; ``failed`` / ``attempted`` in
the result line is the failed ratio, also printed as ``failed_ratio``.

With ``--trace 1`` the run makes one untraced iteration, then times
``itdom.cli.main`` in-process, once untraced and once traced with
``--jobs 1`` (for its self time), then replays the workload in-process
twice, untraced and traced (``layers.py``), and reports the per-layer
metrics.  It makes one pass and does not loop for ``--seconds``.

Results and run metadata go to ``bench/results/``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--record-reference`` runs one iteration, checks it without a reference
and stores its entry digests as the reference output for that seed.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import gzip
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpora
import gate
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference"

DEFAULT_SEED = 0
SETUP_SAMPLES = 15
STARTUP_SAMPLES = 5
SWEEP_GRAPHS = 6000
CATALOG_ORDER = 7
CHILD_TIMEOUT_S = 120
MAX_PROBLEMS = 20


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload; ``label`` names it in results."""

    label: str
    kind: str  # invariants | verify | generate, as judged by gate.judge
    argv: tuple[str, ...]
    same_as: str | None = None  # label of a step whose stdout must match


@dataclass(frozen=True)
class Workload:
    """A fixed sequence of CLI commands; why each exists is in BENCHMARK.json."""

    jobs: int
    steps: tuple[Step, ...]
    corpus: Callable[[int], list[str]] | None = None


def _workloads() -> dict[str, Workload]:
    order = str(CATALOG_ORDER)
    catalog_verify = ("verify", "--order", order, "--jobs", "1")
    return {
        "report-n20": Workload(
            jobs=1,
            steps=(Step("invariants", "invariants", ("invariants", "--corpus", "corpus.g6", "--jobs", "1")),),
            corpus=corpora.report_n20,
        ),
        "verify-sweep": Workload(
            jobs=2,
            steps=(
                Step(
                    "verify",
                    "verify",
                    ("verify", "--corpus", "corpus.g6", "--theorems", "all", "--jobs", "2"),
                ),
            ),
            corpus=lambda seed: corpora.verify_sweep(seed, SWEEP_GRAPHS),
        ),
        "catalog-cold": Workload(
            jobs=1,
            steps=(
                Step("generate", "generate", ("generate", "--order", order, "--all", "--jobs", "1")),
                Step("verify-miss", "verify", catalog_verify),
                Step("verify-hit", "verify", catalog_verify, same_as="verify-miss"),
            ),
        ),
    }


def _setup_argv(argv: tuple[str, ...]) -> list[str]:
    """The same command on a single-vertex input."""
    out = list(argv)
    for flag, value in (("--corpus", "single.g6"), ("--order", "1")):
        if flag in out:
            out[out.index(flag) + 1] = value
    return out


def _serial_argv(argv: tuple[str, ...]) -> list[str]:
    """The same command with ``--jobs 1``."""
    out = list(argv)
    out[out.index("--jobs") + 1] = "1"
    return out


# ---------------------------------------------------------------------------
# CLI processes
# ---------------------------------------------------------------------------


@dataclass
class ProcessRun:
    step: Step
    wall: float
    returncode: int
    rss_kb: int
    out: Path


def _child_env(cache: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        XDG_CACHE_HOME=str(cache),
        HOME=str(cache),
        PYTHONHASHSEED="0",
    )
    return env


def run_cli(step: Step, argv: list[str], cwd: Path, cache: Path, out: Path) -> ProcessRun:
    """One fresh ``python3 -m itdom`` process; waits for it and its workers."""
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "itdom", *argv],
            cwd=cwd,
            env=_child_env(cache),
            stdout=stdout,
            stderr=stderr,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(step, wall, proc.returncode, usage.ru_maxrss, out)


def _fresh_cache(run_dir: Path, name: str) -> Path:
    cache = run_dir / name
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir()
    return cache


def run_iteration(workload: Workload, run_dir: Path, index: int) -> tuple[list[ProcessRun], Path]:
    cache = _fresh_cache(run_dir, f"cache-{index}")
    runs = [
        run_cli(step, list(step.argv), run_dir, cache, run_dir / f"{step.label}.out")
        for step in workload.steps
    ]
    return runs, cache


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Correctness bookkeeping
# ---------------------------------------------------------------------------


class Checker:
    """Judges every step of every iteration and totals the entries.

    A step whose stdout is byte-identical to an earlier judged run of the
    same step reuses that judgement; any other output is judged in full.
    """

    def __init__(self, corpus: list[str] | None, reference: dict | None) -> None:
        self.corpus = corpus
        self.reference = reference
        self.judged: dict[tuple[str, str], gate.Outcome] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def note(self, problem: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def _judge(self, run: ProcessRun, sha: str, connected: set[str] | None) -> gate.Outcome:
        step = run.step
        key = (step.label, sha)
        if run.returncode == 0 and key in self.judged:
            return self.judged[key]
        reference = self.reference["steps"].get(step.label) if self.reference else None
        if self.corpus is not None:
            expected, count = set(self.corpus), len(self.corpus)
        elif step.kind == "generate":
            expected, count = None, gate.ALL_COUNTS[CATALOG_ORDER]
        else:
            expected, count = connected, gate.CONNECTED_COUNTS[CATALOG_ORDER]
        outcome = gate.judge(
            step.kind, run.out.read_bytes(), run.returncode, expected, count, reference, CATALOG_ORDER
        )
        for problem in outcome.problems:
            self.note(f"{step.label}: {problem}")
        if run.returncode == 0:
            self.judged[key] = outcome
        return outcome

    def check(self, runs: list[ProcessRun], cache: Path | None = None) -> int:
        """Judge one iteration; returns the graphs it reported."""
        shas: dict[str, str] = {}
        connected = None
        graphs = 0
        for run in runs:
            sha = shas[run.step.label] = _sha256(run.out)
            outcome = self._judge(run, sha, connected)
            failed = outcome.failed
            if run.step.same_as is not None and sha != shas.get(run.step.same_as):
                self.note(f"{run.step.label}: stdout differs from {run.step.same_as}")
                failed = outcome.attempted
            if run.step.kind == "generate":
                connected = outcome.connected
            self.attempted += outcome.attempted
            self.failed += failed
            graphs += outcome.graphs
        if cache is not None and self.corpus is None and not any(p.is_file() for p in cache.rglob("*")):
            self.note("the catalog cache was never written")
        return graphs

    def fail_step(self, label: str, sha: str, reason: str) -> None:
        outcome = self.judged.get((label, sha))
        self.note(f"{label}: {reason}")
        self.failed += outcome.attempted if outcome is not None else 1

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _load_reference(name: str, workload: Workload, seed: int) -> dict | None:
    path = REFERENCE / f"{name}.json"
    if not path.is_file():
        return None
    reference = json.loads(path.read_text())
    if workload.corpus is not None and reference["seed"] != seed:
        return None
    return reference


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def setup_sample(workload: Workload, run_dir: Path, checker: Checker) -> float:
    """Mean wall of one fresh CLI process per command, on a single vertex."""
    cache = _fresh_cache(run_dir, "cache-setup")
    walls = []
    for step in workload.steps:
        run = run_cli(step, _setup_argv(step.argv), run_dir, cache, run_dir / "setup.out")
        if run.returncode != 0:
            checker.note(f"setup {step.label}: exit code {run.returncode}")
        walls.append(run.wall)
    return statistics.fmean(walls)


def measure(workload: Workload, run_dir: Path, seconds: float, checker: Checker) -> tuple[list[dict], list[float]]:
    """Iterations until the next one would end past ``seconds`` measured.

    Set-up samples are spread over the run, between iterations, so that
    they see the same machine conditions as the iterations do.
    """
    iterations: list[dict] = []
    setup: list[float] = []
    spent = 0.0
    setup_sample(workload, run_dir, checker)  # warm-up, not recorded
    while True:
        runs, cache = run_iteration(workload, run_dir, len(iterations))
        graphs = checker.check(runs, cache)
        shutil.rmtree(cache)
        wall = sum(r.wall for r in runs)
        iterations.append(
            {
                "wall_s": wall,
                "graphs": graphs,
                "peak_rss_kb": max(r.rss_kb for r in runs),
                "steps": {r.step.label: r.wall for r in runs},
            }
        )
        spent += wall
        done = spent + spent / len(iterations) > seconds
        due = SETUP_SAMPLES if done else math.ceil(SETUP_SAMPLES * spent / seconds)
        while len(setup) < due:
            setup.append(setup_sample(workload, run_dir, checker))
        if done:
            return iterations, setup


def end_to_end(iterations: list[dict], setup: list[float]) -> dict[str, tuple[float, str]]:
    med = statistics.median
    return {
        "wall_s": (med(it["wall_s"] for it in iterations), "s"),
        "graphs_per_s": (med(it["graphs"] / it["wall_s"] for it in iterations), "1/s"),
        "setup_s": (med(setup), "s"),
        "peak_rss_mb": (med(it["peak_rss_kb"] for it in iterations) / 1024, "MB"),
    }


def _import_itdom():
    sys.path.insert(0, str(SRC))
    import itdom
    import itdom.cli  # noqa: F401  (loads every module the CLI uses)

    if Path(itdom.__file__).resolve().parent != SRC / "itdom":
        raise RuntimeError(f"imported itdom from {itdom.__file__}, not from {SRC}")


def traced_run(workload: Workload, run_dir: Path, checker: Checker) -> tuple[dict, dict]:
    """Per-layer metrics; see ``layers.py``."""
    runs, cache = run_iteration(workload, run_dir, 0)
    checker.check(runs, cache)
    cli_wall = sum(r.wall for r in runs)
    shas = {r.step.label: _sha256(r.out) for r in runs}
    stdout_bytes = sum(r.out.stat().st_size for r in runs)

    _import_itdom()
    # Objects alive now are never garbage: keep the collector off them, as
    # it would be in a fresh CLI process.
    gc.collect()
    gc.freeze()
    cache = _fresh_cache(run_dir, "cache-main")
    main_wall = 0.0
    for run in runs:
        wall, code, out = layers.run_main(list(run.step.argv), run_dir, cache)
        main_wall += wall
        if code != run.returncode or hashlib.sha256(out).hexdigest() != shas[run.step.label]:
            checker.fail_step(run.step.label, shas[run.step.label], "in-process stdout differs from the CLI's")

    # Start-up cost: a CLI process on one vertex minus cli.main on the same.
    first = workload.steps[0]
    sub, inproc = [], []
    for _ in range(STARTUP_SAMPLES):
        cache = _fresh_cache(run_dir, "cache-startup")
        sub.append(run_cli(first, _setup_argv(first.argv), run_dir, cache, run_dir / "setup.out").wall)
        cache = _fresh_cache(run_dir, "cache-startup")
        inproc.append(layers.run_main(_setup_argv(first.argv), run_dir, cache)[0])
    startup = statistics.median(sub) - statistics.median(inproc)

    # Residual: the time cli.main spends outside every traced call (parsing,
    # dispatch, emission), from one traced pass with the tasks run serially
    # so that they stay in this process.
    main_tracer = layers.Tracer(enabled=True)
    cache = _fresh_cache(run_dir, "cache-main-traced")
    with layers.installed(main_tracer):
        for step in workload.steps:
            layers.run_main(_serial_argv(step.argv), run_dir, cache)
    residual = layers.SpanStats(main_tracer.spans).self_time["cli.main"]

    def replay(tracer) -> tuple[float, float]:
        cache = _fresh_cache(run_dir, "cache-replay")
        tasks = 0.0
        start = time.perf_counter()
        for step in workload.steps:
            tasks += layers.replay_step(tracer, step.kind, list(step.argv), run_dir, cache)
        return time.perf_counter() - start, tasks

    untraced_wall, tasks = replay(layers.Tracer(enabled=False))
    tracer = layers.Tracer(enabled=True)
    with layers.installed(tracer) as missing:
        traced_wall, _ = replay(tracer)
        if workload.corpus is None:
            layers.replay_canonical()
    metrics = layers.layer_metrics(
        tracer,
        gate.THEOREM_IDS,
        jobs=workload.jobs,
        startup=startup,
        cli_wall=cli_wall,
        main_wall=main_wall,
        stdout_bytes=stdout_bytes,
        residual=residual,
        tasks=tasks,
        traced_wall=traced_wall,
        untraced_wall=untraced_wall,
    )
    extras = {
        "missing_functions": missing,
        "top_graphs": layers.top_graphs(tracer.spans),
        "spans": tracer.spans,
    }
    return metrics, extras


# ---------------------------------------------------------------------------
# Metadata and output
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "itdom").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args: argparse.Namespace, corpus: list[str] | None) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "corpus_graphs": None if corpus is None else len(corpus),
        "corpus_sha256": None if corpus is None else hashlib.sha256("\n".join(corpus).encode()).hexdigest(),
    }


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def save(stem: str, record: dict, spans: list | None) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if spans:
        base = spans[0][1]
        with gzip.open(RESULTS / f"{stem}-spans.jsonl.gz", "wt") as fh:
            for name, start, end, parent, graph, tag in spans:
                fh.write(json.dumps([name, start - base, end - base, parent, graph, tag]) + "\n")


def record_reference(name: str, workload: Workload, run_dir: Path, seed: int, corpus) -> int:
    runs, cache = run_iteration(workload, run_dir, 0)
    checker = Checker(corpus, None)
    checker.check(runs, cache)
    if not checker.correct:
        print("\n".join(checker.problems), file=sys.stderr)
        return 1
    steps = {}
    for run in runs:
        outcome = next(o for (label, _), o in checker.judged.items() if label == run.step.label)
        steps[run.step.label] = outcome.digests
    REFERENCE.mkdir(exist_ok=True)
    reference = {"seed": seed if workload.corpus is not None else None, "steps": steps}
    (REFERENCE / f"{name}.json").write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"recorded {REFERENCE / (name + '.json')}")
    return 0


def main(argv: list[str] | None = None) -> int:
    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "itdom" / "__init__.py").is_file():
        print(f"error: no itdom sources under {SRC}", file=sys.stderr)
        return 2

    workload = workloads[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        corpus = workload.corpus(args.seed) if workload.corpus is not None else None
        if corpus is not None:
            (run_dir / "corpus.g6").write_text("\n".join(corpus) + "\n")
        (run_dir / "single.g6").write_text("@\n")
        if args.record_reference:
            return record_reference(args.workload, workload, run_dir, args.seed, corpus)
        meta = metadata(args, corpus)
        checker = Checker(corpus, _load_reference(args.workload, workload, args.seed))
        record: dict = {"meta": meta}
        spans = None
        if args.trace:
            metrics, extras = traced_run(workload, run_dir, checker)
            spans = extras.pop("spans")
            record.update(extras)
        else:
            iterations, setup = measure(workload, run_dir, args.seconds, checker)
            metrics = end_to_end(iterations, setup)
            record.update(iterations=iterations, setup_samples=setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    ratio = checker.failed / checker.attempted if checker.attempted else 1.0
    record.update(result=result, failed_ratio=ratio, problems=checker.problems)
    stem = f"{meta['started_utc'][:19].replace(':', '')}-{args.workload}-seed{args.seed}-trace{args.trace}"
    save(stem, record, spans)

    for problem in checker.problems:
        print(f"problem: {problem}")
    for item in record.get("top_graphs", []):
        print(f"slow graph: {item['graph6']} {item['seconds']:.4f} s")
    if record.get("missing_functions"):
        print(f"not traced (absent from the package): {', '.join(record['missing_functions'])}")
    print(f"{args.workload} seed={args.seed} failed_ratio={ratio:.6g} ({checker.failed}/{checker.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {_format(value)} {unit}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001  (report, exit non-zero, print no result)
        traceback.print_exc()
        sys.exit(1)
