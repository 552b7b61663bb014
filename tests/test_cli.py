"""End-to-end CLI behavior: exit codes, report schema, determinism, workers."""

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from itdom import complement, encode_graph6, petersen
from itdom import cli
from itdom.catalog import CATALOG_SHA256
from itdom.cli import main
from itdom.invariants import SolverLimitError
from itdom.theorems import CHECK_MAX_ORDER, THEOREMS, Status, Theorem, TheoremVerdict

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines(text):
    """A report as a line list: a mismatch then names its first differing
    line at once, where a whole-string compare of a large report can take
    minutes to diff."""
    return text.splitlines(keepends=True)


def test_invariants_json_schema(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Cl\n@\n")
    code, out, _ = run_cli(capsys, "invariants", "--corpus", str(corpus), "--jobs", "1")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"version", "command", "entries", "summary", "elapsed_ms"}
    assert report["elapsed_ms"] == 0
    assert report["summary"] == {"graphs": 2}
    graph6s = [e["graph6"] for e in report["entries"]]
    assert graph6s == sorted(graph6s)
    k1 = next(e for e in report["entries"] if e["graph6"] == "@")
    assert k1["invariants"]["gamma_t"] is None
    assert k1["invariants"]["alpha"] == 1
    c4 = next(e for e in report["entries"] if e["graph6"] == "Cl")
    assert c4["invariants"] == {
        "alpha": 2,
        "beta": 2,
        "matching": 2,
        "gamma": 2,
        "tau_i": 2,
        "xi": 0,
        "gamma_it": 2,
        "gamma_t": 2,
        "gamma_tt": 2,
    }


def test_invariants_petersen_row(capsys, tmp_path):
    corpus = tmp_path / "petersen.g6"
    corpus.write_text(encode_graph6(petersen()) + "\n")
    code, out, _ = run_cli(capsys, "invariants", "--corpus", str(corpus), "--jobs", "1")
    assert code == 0
    values = json.loads(out)["entries"][0]["invariants"]
    assert values["alpha"] == 4
    assert values["matching"] == 5
    assert values["gamma"] == 3


def test_invariants_edge_list_input(capsys, tmp_path):
    corpus = tmp_path / "figure1.edges"
    corpus.write_text((FIXTURES / "figure1.edges").read_text())
    code, out, _ = run_cli(capsys, "invariants", "--corpus", str(corpus), "--jobs", "1")
    assert code == 0
    entry = json.loads(out)["entries"][0]
    assert entry["invariants"]["gamma"] == 2
    assert entry["invariants"]["gamma_it"] == 3


def test_invariants_parse_error_exit_2(capsys, tmp_path):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("C\n")
    code, _, err = run_cli(capsys, "invariants", "--corpus", str(corpus))
    assert code == 2
    assert "error:" in err


def test_missing_corpus_exit_2(capsys, tmp_path):
    missing = tmp_path / "missing.g6"
    code, _, err = run_cli(capsys, "verify", "--corpus", str(missing), "--jobs", "1")
    assert code == 2
    assert "error:" in err and "Traceback" not in err


def test_internal_error_exit_4(capsys, monkeypatch, tmp_path):
    # A fault inside the solvers is not a usage error, even when it is a KeyError.
    def broken(g):
        raise KeyError("solver bug")

    monkeypatch.setattr(cli, "compute_report", broken)
    corpus = tmp_path / "one.g6"
    corpus.write_text("Cl\n")
    code, _, err = run_cli(capsys, "invariants", "--corpus", str(corpus), "--jobs", "1")
    assert code == 4
    assert "Traceback" in err and "solver bug" in err


def test_invariants_order_limit_exit_3(capsys, tmp_path):
    from itdom import Graph, path

    corpus = tmp_path / "big.g6"
    corpus.write_text(encode_graph6(path(CHECK_MAX_ORDER)) + "\n")
    code, out, _ = run_cli(capsys, "invariants", "--corpus", str(corpus), "--jobs", "1")
    assert code == 0
    assert json.loads(out)["entries"][0]["invariants"]["gamma"] == (CHECK_MAX_ORDER + 2) // 3
    corpus.write_text(encode_graph6(Graph(CHECK_MAX_ORDER + 1)) + "\n")
    code, _, err = run_cli(capsys, "invariants", "--corpus", str(corpus))
    assert code == 3
    assert "limit:" in err


def test_generate_counts_and_determinism(capsys):
    code, out, _ = run_cli(capsys, "generate", "--order", "4")
    assert code == 0
    assert len(out.splitlines()) == 6
    code, out_all, _ = run_cli(capsys, "generate", "--order", "4", "--all")
    assert len(out_all.splitlines()) == 11
    code, out1, _ = run_cli(capsys, "generate", "--order", "1")
    assert out1 == "@\n"
    code, out3, _ = run_cli(capsys, "generate", "--order", "3")
    assert len(out3.splitlines()) == 2
    # cached second run is byte-identical
    code, out_again, _ = run_cli(capsys, "generate", "--order", "4")
    assert lines(out_again) == lines(out)


def test_generate_rejects_bad_order(capsys):
    code, _, err = run_cli(capsys, "generate", "--order", "9")
    assert code == 2


def test_verify_catalog_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--order", "5", "--theorems", "all", "--jobs", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["proven_violations"] == 0
    assert report["summary"]["graphs"] == 21
    statuses = {
        v["status"] for e in report["entries"] for v in e["verdicts"]
    }
    assert statuses <= {"Holds", "NotApplicable", "Violated"}


def test_verify_conj1_on_counterexample_corpus(capsys, tmp_path):
    corpus = tmp_path / "cp.g6"
    corpus.write_text(encode_graph6(complement(petersen())) + "\n")
    code, out, _ = run_cli(
        capsys, "verify", "--corpus", str(corpus), "--theorems", "CONJ1", "--jobs", "1"
    )
    assert code == 0  # refutable violations do not fail the run
    report = json.loads(out)
    assert report["summary"]["Violated"] == 1
    assert report["summary"]["proven_violations"] == 0


def test_verify_figure1_original_claim(capsys, tmp_path):
    corpus = tmp_path / "figure1.edges"
    corpus.write_text((FIXTURES / "figure1.edges").read_text())
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--corpus",
        str(corpus),
        "--theorems",
        "T3.1-ORIG,T3.2",
        "--jobs",
        "1",
    )
    assert code == 0
    verdicts = {
        v["theorem"]: v["status"]
        for e in json.loads(out)["entries"]
        for v in e["verdicts"]
    }
    assert verdicts == {"T3.1-ORIG": "Violated", "T3.2": "Holds"}


def test_verify_unknown_theorem_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--order", "4", "--theorems", "T77")
    assert code == 2
    assert "unknown theorem id" in err


@pytest.mark.parametrize(
    "selector,message",
    [("", "no theorem id"), (",", "no theorem id"), ("EQ1,EQ1", "named twice"), ("EQ1, T3.3,EQ1", "named twice")],
)
def test_verify_theorem_selector_usage_errors(capsys, selector, message):
    code, out, err = run_cli(capsys, "verify", "--order", "4", "--theorems", selector)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_proven_violation_exits_nonzero(capsys, monkeypatch, tmp_path, fmt, jobs):
    # A synthetic always-violated proven entry must flip the exit code, and
    # the tally each task returns must reach the summary.
    broken = Theorem("BROKEN", "proven", "always violated", lambda g, c: (False, {}))
    monkeypatch.setitem(THEOREMS, "BROKEN", broken)
    corpus = tmp_path / "several.g6"
    corpus.write_text("Cl\nC~\nA_\n" + encode_graph6(complement(petersen())) + "\n")
    code, out, _ = run_cli(
        capsys, "verify", "--corpus", str(corpus), "--theorems", "BROKEN,CONJ1",
        "--format", fmt, "--jobs", jobs,
    )
    assert code == 1
    if fmt == "csv":
        rows = [row.split(",")[1:] for row in out.splitlines()[1:]]
        assert rows.count(["BROKEN", "Violated"]) == 4
        assert rows.count(["CONJ1", "Violated"]) == 1
    else:
        summary = json.loads(out)["summary"]
        assert summary == {"graphs": 4, "Holds": 1, "NotApplicable": 2, "Violated": 5, "proven_violations": 4}


def test_verify_summary_is_a_recount_of_its_entries(capsys):
    code, out, _ = run_cli(capsys, "verify", "--order", "7", "--jobs", "2")
    assert code == 0
    report = json.loads(out)
    verdicts = [v for e in report["entries"] for v in e["verdicts"]]
    recount = dict.fromkeys(["Holds", "NotApplicable", "Violated"], 0)
    for v in verdicts:
        recount[v["status"]] += 1
    recount["proven_violations"] = sum(
        v["status"] == "Violated" and THEOREMS[v["theorem"]].expected == "proven" for v in verdicts
    )
    recount["graphs"] = len(report["entries"])
    assert report["summary"] == recount
    assert recount["Violated"] > 0  # the refutable entries fail on some order-7 graphs


def test_counterexamples_content_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "counterexamples", "--jobs", "1")
    assert code == 0
    code, out2, _ = run_cli(capsys, "counterexamples", "--jobs", "1")
    assert lines(out1) == lines(out2)  # byte-identical reports
    report = json.loads(out1)
    by_name = {e["name"]: e for e in report["entries"]}
    cp = by_name["petersen_complement"]
    assert cp["invariants"]["gamma_it"] == 6
    assert cp["invariants"]["tau_i"] == 6
    cp_verdicts = {v["theorem"]: v for v in cp["verdicts"]}
    assert cp_verdicts["CONJ1"]["status"] == "Violated"
    assert cp_verdicts["CONJ1"]["witness"]["bound"] == 5
    assert cp_verdicts["L2.1"]["status"] == "Holds"
    assert cp_verdicts["L2.1"]["witness"]["complement_cover_number"] == 6
    fig = by_name["figure1"]
    assert fig["invariants"]["gamma"] == 2
    assert fig["invariants"]["gamma_it"] == 3
    fig_verdicts = {v["theorem"]: v["status"] for v in fig["verdicts"]}
    assert fig_verdicts == {"T3.1-ORIG": "Violated", "T3.2": "Holds"}


def test_search_modes(capsys):
    code, out, _ = run_cli(capsys, "search", "max_tau_i", "--order", "5", "--jobs", "1")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["mode"] == "max_tau_i"
    assert [e["values"]["tau_i"] for e in report["entries"]] == [5]

    code, out, _ = run_cli(
        capsys, "search", "bipartite_half_gammait", "--order", "6", "--jobs", "1"
    )
    report = json.loads(out)
    for e in report["entries"]:
        assert e["values"]["gamma_it"] == 3
        assert e["values"]["gamma"] in (2, 3)

    code, out, _ = run_cli(
        capsys, "search", "bipartite_half_gammait", "--order", "2", "--jobs", "1"
    )
    assert json.loads(out)["entries"] == []


def _fixture_corpus(tmp_path):
    """The fixture corpus without its order-0 graph, which no report accepts."""
    corpus = tmp_path / "fixture.g6"
    lines = (FIXTURES / "corpus.g6").read_text().splitlines()
    corpus.write_text("".join(f"{ln}\n" for ln in lines if ln != "?"))
    return str(corpus)


def test_jobs_do_not_change_output(capsys, tmp_path):
    for argv in (
        ("verify", "--order", "5", "--theorems", "all"),
        ("verify", "--order", "5", "--theorems", "all", "--format", "csv"),
        ("invariants", "--corpus", _fixture_corpus(tmp_path)),
    ):
        code, serial, _ = run_cli(capsys, *argv, "--jobs", "1")
        assert code == 0
        _, parallel, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert lines(serial) == lines(parallel), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("invariants", "--corpus", "FIXTURE"),
        ("invariants", "--corpus", "EMPTY"),
        ("verify", "--corpus", "FIXTURE", "--theorems", "all"),
        ("verify", "--corpus", "EMPTY"),
        ("search", "max_tau_i", "--order", "6"),
        ("search", "bipartite_half_gammait", "--order", "2"),
        ("counterexamples",),
    ],
)
def test_json_report_is_one_sorted_document(capsys, tmp_path, argv):
    # Streamed entry by entry, the report still has the bytes of one dump.
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    files = {"FIXTURE": _fixture_corpus(tmp_path), "EMPTY": str(empty)}
    code, out, _ = run_cli(capsys, *(files.get(arg, arg) for arg in argv), "--jobs", "1")
    assert code == 0
    canonical = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert lines(out) == lines(canonical)


@pytest.mark.parametrize("flag", [("--job", "1"), ("--form", "json")])
def test_abbreviated_flags_are_rejected(capsys, tmp_path, flag):
    # An abbreviation would reach the command echo, which leaves out --jobs
    # only when it is spelled out, and one report would read two ways.
    corpus = tmp_path / "one.g6"
    corpus.write_text("Cl\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--corpus", str(corpus), *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_must_be_positive(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--order", "3", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_no_more_workers_than_items(capsys, monkeypatch, tmp_path):
    started = []

    class InlineExecutor:
        """Records its worker count and runs the work in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlineExecutor)
    corpus = tmp_path / "two.g6"
    corpus.write_text("Cl\nCs\n")
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(corpus), "--jobs", "8")
    assert code == 0
    assert started == [2]
    assert json.loads(out)["summary"]["graphs"] == 2
    corpus.write_text("Cl\n")
    code, _, _ = run_cli(capsys, "verify", "--corpus", str(corpus), "--jobs", "8")
    assert code == 0
    assert started == [2]


def test_cli_import_leaves_the_process_pool_out():
    # A serial run never starts a pool, so it should not pay for its import.
    code = "import sys, itdom.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out == "False\n"


@pytest.mark.parametrize(
    "argv", [("generate", "--order", "6", "--all"), ("verify", "--order", "6", "--jobs", "1")]
)
def test_optimized_python_gives_the_same_output(tmp_path, argv):
    # The cross-checks and the pin check are not assert statements, so
    # ``python -O`` runs them too; each run starts from its own empty cache.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    runs = []
    for flags in ((), ("-O",)):
        env["XDG_CACHE_HOME"] = str(tmp_path / f"cache{''.join(flags)}")
        run = subprocess.run([sys.executable, *flags, "-m", "itdom", *argv], capture_output=True, env=env)
        runs.append((run.returncode, run.stdout))
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    ("error", "exit_code"),
    [(KeyError("check bug"), 4), (SolverLimitError("check limit"), 3)],
)
def test_failure_mid_stream_is_not_a_report(capsys, monkeypatch, tmp_path, jobs, error, exit_code):
    # The registry entry fails on the second graph of three, after the first
    # entry was written; worker processes inherit the patched registry.
    def fail_on_second(g, cache):
        if encode_graph6(g) == "Cr":
            raise error
        return True, {}

    monkeypatch.setitem(THEOREMS, "FAILS", Theorem("FAILS", "proven", "fails", fail_on_second))
    corpus = tmp_path / "three.g6"
    corpus.write_text("Cl\nCr\nCs\n")
    code, out, err = run_cli(
        capsys, "verify", "--corpus", str(corpus), "--theorems", "FAILS", "--jobs", jobs
    )
    assert code == exit_code
    assert str(error.args[0]) in err
    if exit_code == 4:
        assert "Traceback" in err
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def _verify_peak_bytes(tmp_path, lines):
    corpus = tmp_path / f"sweep-{len(lines)}.g6"
    corpus.write_text("".join(f"{ln}\n" for ln in lines))
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            code = main(["verify", "--corpus", str(corpus), "--jobs", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_verify_memory_does_not_grow_with_graphs(tmp_path):
    spec = importlib.util.spec_from_file_location("corpora", ROOT / "bench" / "corpora.py")
    corpora = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpora)
    sweep = corpora.verify_sweep(0, 600)
    small = _verify_peak_bytes(tmp_path, sweep[:150])
    large = _verify_peak_bytes(tmp_path, sweep)
    assert large < 2 * small, (small, large)


def test_csv_output(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text("Cl\n")
    code, out, _ = run_cli(
        capsys,
        "invariants",
        "--corpus",
        str(corpus),
        "--format",
        "csv",
        "--jobs",
        "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("graph6,n,")
    assert lines[1].startswith("Cl,4,")

    code, out, _ = run_cli(
        capsys, "verify", "--order", "3", "--format", "csv", "--jobs", "1"
    )
    assert out.splitlines()[0] == "graph6,theorem,status"


def _catalog_cache_files(tmp_path):
    return sorted((tmp_path / "cache" / "itdom").iterdir())


def test_generate_from_an_empty_cache_matches_a_warm_run(capsys, monkeypatch, tmp_path):
    code, cold, _ = run_cli(capsys, "generate", "--order", "5", "--all")
    assert code == 0 and len(cold.splitlines()) == 34
    # The file name has kept its form, so caches written earlier are still hits.
    (cached,) = _catalog_cache_files(tmp_path)
    assert cached.name == f"catalog-v1-n5-{hashlib.sha256(cold.encode()).hexdigest()}.g6"
    monkeypatch.setattr(cli, "enumerate_graphs", None)  # a warm run generates nothing
    code, warm, _ = run_cli(capsys, "generate", "--order", "5", "--all")
    assert code == 0
    assert lines(warm) == lines(cold)


def test_no_cache_flag_is_rejected(capsys):
    # The pinned cache file can only hold the true catalog, so skipping it
    # would change nothing but the time; the flag is gone.
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--order", "5", "--no-cache"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_catalog_of_another_order_is_not_read(capsys, tmp_path):
    # A valid order-5 catalog under an order-6 name: its bytes match its own
    # digest but not the order-6 pin.
    run_cli(capsys, "generate", "--order", "5", "--all")
    (five,) = _catalog_cache_files(tmp_path)
    pinned = five.with_name(f"catalog-v1-n6-{CATALOG_SHA256[6]}.g6")
    for name in (five.name.replace("-n5-", "-n6-"), pinned.name):
        five.with_name(name).write_bytes(five.read_bytes())
        code, out, _ = run_cli(capsys, "generate", "--order", "6", "--all")
        assert code == 0
        assert len(out.splitlines()) == 156
        assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_SHA256[6]
    assert hashlib.sha256(pinned.read_bytes()).hexdigest() == CATALOG_SHA256[6]


def test_catalog_off_its_pin_is_an_internal_error(tmp_path):
    # A fresh process, so no catalog is memoized before the pin is patched.
    code = textwrap.dedent("""
        import sys
        from itdom import catalog, cli
        catalog.CATALOG_SHA256[5] = "0" * 64
        try:
            catalog.enumerate_graphs(5)
        except RuntimeError as exc:
            print("raised:", exc, file=sys.stderr)
        sys.exit(cli.main(["generate", "--order", "5", "--all"]))
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "XDG_CACHE_HOME": str(tmp_path / "cache")}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 4
    assert run.stdout == ""
    assert "raised: order-5 catalog does not match its pinned SHA-256" in run.stderr
    assert "RuntimeError" in run.stderr
    assert not list(tmp_path.rglob("*.g6")) and not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("broken", ["cache home is a file", "catalog path is a directory"])
@pytest.mark.parametrize("argv", [("generate", "--order", "3"), ("verify", "--order", "3", "--jobs", "1")])
def test_unusable_cache_is_passed_over(capsys, monkeypatch, tmp_path, broken, argv):
    want = run_cli(capsys, *argv)[:2]
    home = tmp_path / "broken"
    if broken == "cache home is a file":
        home.write_text("")
    else:
        (home / "itdom" / f"catalog-v1-n3-{CATALOG_SHA256[3]}.g6").mkdir(parents=True)
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    code, out, err = run_cli(capsys, *argv)
    assert (code, lines(out)) == (want[0], lines(want[1]))
    notes = [ln for ln in err.splitlines() if ln.startswith("note:")]
    assert len(notes) == 1 and notes[0].startswith("note: catalog cache not written")
    assert not list(home.parent.rglob("*.tmp"))


def test_truncated_catalog_cache_is_regenerated(capsys, tmp_path):
    code, full, _ = run_cli(capsys, "generate", "--order", "6", "--all")
    (cached,) = _catalog_cache_files(tmp_path)
    cached.write_text("\n".join(full.splitlines()[:40]) + "\n")
    code, out, _ = run_cli(capsys, "verify", "--order", "6", "--theorems", "EQ1", "--jobs", "1")
    assert code == 0
    assert json.loads(out)["summary"]["graphs"] == 112
    assert lines(cached.read_text()) == lines(full)
    assert not list(cached.parent.glob("*.tmp"))


def test_tampered_catalog_cache_is_regenerated(capsys, tmp_path):
    # Right length, every line a valid order-5 graph6 line, but one graph wrong.
    code, full, _ = run_cli(capsys, "generate", "--order", "5", "--all")
    (cached,) = _catalog_cache_files(tmp_path)
    rows = full.splitlines()
    rows[0] = rows[1]
    cached.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "generate", "--order", "5", "--all")
    assert code == 0
    assert lines(out) == lines(full)
    assert _catalog_cache_files(tmp_path) == [cached]
    assert lines(cached.read_text()) == lines(full)


def test_one_catalog_cache_file_per_order(capsys, tmp_path):
    run_cli(capsys, "generate", "--order", "6", "--all")
    run_cli(capsys, "verify", "--order", "6", "--theorems", "EQ1", "--jobs", "1")
    run_cli(capsys, "search", "max_tau_i", "--order", "6", "--jobs", "1")
    assert len(_catalog_cache_files(tmp_path)) == 1


def test_search_from_an_empty_cache_matches_a_warm_run(capsys):
    argv = ("search", "bipartite_half_gammait", "--order", "6", "--jobs", "1")
    _, cold, _ = run_cli(capsys, *argv)
    _, warm, _ = run_cli(capsys, *argv)
    assert lines(cold) == lines(warm)
    assert json.loads(cold)["entries"]


def test_stdin_corpus(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("Cl\n"))
    code, out, _ = run_cli(capsys, "invariants", "--jobs", "1")
    assert code == 0
    assert json.loads(out)["entries"][0]["graph6"] == "Cl"


# SHA-256 of the order-7 verify reports of version 0.1.0.  They hold
# violations and list-valued witnesses; a whitespace drift in the rendered
# entries changes these bytes while the parsed report stays equal.
ORDER_7_VERIFY_SHA256 = {
    "json": "845bbf5900f50a174944b630d4d66b2bfecd27e422416733f13fd53e69c4f91f",
    "csv": "c521d4bb799be26a172efafa65a7d0d6ba960dc12445730377b311032b2c6f72",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_order_7_verify_report_bytes(capsys, fmt, jobs):
    fmt_flag = ("--format", "csv") if fmt == "csv" else ()
    code, out, _ = run_cli(capsys, "verify", "--order", "7", *fmt_flag, "--jobs", jobs)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORDER_7_VERIFY_SHA256[fmt]


# SHA-256 of the search reports of version 0.1.0, with --jobs 1.
SEARCH_SHA256 = {
    ("max_tau_i", "7", "json"): "3ac1d2d446dca1f3b9d73bb3c394ea1d3fc9bb5b652b23f416c9d0db00623082",
    ("max_tau_i", "7", "csv"): "81dc87c113f9325b0481c9f3d1c650b05ef8ebc736b88a22c7106886372db251",
    ("bipartite_half_gammait", "6", "json"): "01a20ef8bc6e32cdae718136bd63bbc842a33804cf26736e48a45a046bf3de1f",
    ("bipartite_half_gammait", "6", "csv"): "c6fd24d03f794ee11ce1756da4e68bd1b316cd98c177207db2b889490880766b",
}


@pytest.mark.parametrize(("mode", "order", "fmt"), sorted(SEARCH_SHA256))
def test_search_report_bytes(capsys, mode, order, fmt):
    fmt_flag = ("--format", "csv") if fmt == "csv" else ()
    code, out, _ = run_cli(capsys, "search", mode, "--order", order, *fmt_flag, "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_SHA256[mode, order, fmt]


def _dumped(value):
    """``value`` as json.dumps writes it, every line four spaces further in."""
    return "    " + json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n    ")


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.sampled_from([True, 1, False, 0, -1])
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.text()
    | st.text(alphabet='"\\/\x00\x08\x1f\x7f\n\tAé \U0001f600')
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3) | st.sampled_from(['"', "\\", "é", "\x01"]), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON_VALUES)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [{}, []]})
@example([{"k": True}, {"k": 1}, {"k": False}, {"k": 0}])
@example({"big": 2**64, "neg": -(2**70), "quote": '"\\\x00é\U0001f600'})
def test_encoder_matches_json_dumps(value):
    assert cli._render(value, [], "json") == _dumped(value)


@pytest.mark.parametrize("value", [1.5, {1: "a"}, {"a": {2}}, [b"x"]])
def test_encoder_rejects_what_reports_do_not_hold(value):
    with pytest.raises(TypeError):
        cli._render(value, [], "json")


def test_reused_verdict_texts_keep_true_apart_from_1(monkeypatch):
    monkeypatch.setattr(cli, "_VERDICT_TEXTS", {})

    def entry(verdict):
        return {"graph6": "A_", "n": 2, "verdicts": [verdict]}

    def rendered(value):
        verdict = TheoremVerdict("EQ1", Status.HOLDS, {"w": value, "n": 2})
        return cli._render_verdicts(entry(verdict), ["A_"], "json")[0]

    def dumped(value):
        return _dumped(entry({"theorem": "EQ1", "status": "Holds", "witness": {"w": value, "n": 2}}))

    values = [True, 1, False, 0, True, 1, False, 0]
    assert [rendered(v) for v in values] == [dumped(v) for v in values]
    assert len(cli._VERDICT_TEXTS) == 4
    # Witnesses that hold lists and dicts are reused too, one text per key.
    nested = [[True], [1], {"k": False}, {"k": 0}, [[0, [False]], []], [[0, [0]], []]]
    assert [rendered(v) for v in nested * 2] == [dumped(v) for v in nested * 2]
    assert len(cli._VERDICT_TEXTS) == 4 + len(nested)
    # Past its cap the table stops growing; texts stay right.
    monkeypatch.setattr(cli, "_VERDICT_TEXTS_MAX", 4 + len(nested))
    assert rendered("x") == dumped("x")
    assert len(cli._VERDICT_TEXTS) == 4 + len(nested)


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_broken_pipe_is_not_an_internal_error(capsys, monkeypatch, jobs):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["verify", "--order", "5", "--jobs", jobs])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_every_package_module_is_reachable_from_the_cli():
    """No module of the package serves only the tests: each one is imported,
    directly or through others, by the command-line front end."""
    package = Path(cli.__file__).parent
    imports = {}
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        imports[path.stem] = {
            name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        }
    reachable, frontier = set(), {"cli"}
    while frontier:
        reachable |= frontier
        frontier = set().union(*(imports.get(m, set()) for m in frontier)) - reachable
    assert set(imports) - reachable - {"__init__", "__main__"} == set()
