"""End-to-end CLI behavior: exit codes, report schema, determinism, workers."""

import json
from pathlib import Path

import pytest

from itdom import complement, encode_graph6, petersen
from itdom import cli
from itdom.cli import main
from itdom.theorems import THEOREMS, Theorem

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    from itdom import Graph

    corpus = tmp_path / "big.g6"
    corpus.write_text(encode_graph6(Graph(21)) + "\n")
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
    assert out_again == out


def test_generate_rejects_bad_order(capsys):
    code, _, err = run_cli(capsys, "generate", "--order", "8")
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


def test_verify_proven_violation_exits_nonzero(capsys, monkeypatch, tmp_path):
    # A synthetic always-violated proven entry must flip the exit code.
    broken = Theorem("BROKEN", "proven", "always violated", lambda g, c: (False, {}))
    monkeypatch.setitem(THEOREMS, "BROKEN", broken)
    corpus = tmp_path / "one.g6"
    corpus.write_text("Cl\n")
    code, out, _ = run_cli(
        capsys, "verify", "--corpus", str(corpus), "--theorems", "BROKEN", "--jobs", "1"
    )
    assert code == 1
    assert json.loads(out)["summary"]["proven_violations"] == 1


def test_counterexamples_content_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "counterexamples", "--jobs", "1")
    assert code == 0
    code, out2, _ = run_cli(capsys, "counterexamples", "--jobs", "1")
    assert out1 == out2  # byte-identical reports
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


def test_jobs_do_not_change_output(capsys):
    _, serial, _ = run_cli(
        capsys, "verify", "--order", "5", "--theorems", "all", "--jobs", "1"
    )
    _, parallel, _ = run_cli(
        capsys, "verify", "--order", "5", "--theorems", "all", "--jobs", "2"
    )
    assert serial == parallel


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


def test_no_cache_flag_regenerates(capsys, tmp_path):
    code, first, _ = run_cli(capsys, "generate", "--order", "5")
    code, second, _ = run_cli(capsys, "generate", "--order", "5", "--no-cache")
    assert first == second


def _catalog_cache_files(tmp_path):
    return sorted((tmp_path / "cache" / "itdom").iterdir())


def test_truncated_catalog_cache_is_regenerated(capsys, tmp_path):
    code, full, _ = run_cli(capsys, "generate", "--order", "6", "--all")
    (cached,) = _catalog_cache_files(tmp_path)
    cached.write_text("\n".join(full.splitlines()[:40]) + "\n")
    code, out, _ = run_cli(capsys, "verify", "--order", "6", "--theorems", "EQ1", "--jobs", "1")
    assert code == 0
    assert json.loads(out)["summary"]["graphs"] == 112
    assert cached.read_text() == full
    assert not list(cached.parent.glob("*.tmp"))


def test_tampered_catalog_cache_is_regenerated(capsys, tmp_path):
    # Right length, every line a valid order-5 graph6 line, but one graph wrong.
    code, full, _ = run_cli(capsys, "generate", "--order", "5", "--all")
    (cached,) = _catalog_cache_files(tmp_path)
    lines = full.splitlines()
    lines[0] = lines[1]
    cached.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "generate", "--order", "5", "--all")
    assert code == 0
    assert out == full
    assert _catalog_cache_files(tmp_path) == [cached]
    assert cached.read_text() == full


def test_one_catalog_cache_file_per_order(capsys, tmp_path):
    run_cli(capsys, "generate", "--order", "6", "--all")
    run_cli(capsys, "verify", "--order", "6", "--theorems", "EQ1", "--jobs", "1")
    run_cli(capsys, "search", "max_tau_i", "--order", "6", "--jobs", "1")
    assert len(_catalog_cache_files(tmp_path)) == 1


def test_search_no_cache_matches_cached(capsys):
    argv = ("search", "bipartite_half_gammait", "--order", "6", "--jobs", "1")
    _, cold, _ = run_cli(capsys, *argv)
    _, warm, _ = run_cli(capsys, *argv)
    _, uncached, _ = run_cli(capsys, *argv, "--no-cache")
    assert cold == warm == uncached
    assert json.loads(cold)["entries"]


def test_stdin_corpus(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("Cl\n"))
    code, out, _ = run_cli(capsys, "invariants", "--jobs", "1")
    assert code == 0
    assert json.loads(out)["entries"][0]["graph6"] == "Cl"
