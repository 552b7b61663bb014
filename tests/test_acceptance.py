"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 5 is split: the uniqueness sub-assertion is implemented exactly
as stated and fails, because the pendant set is provably not the unique
optimal witness for coronas of 3-vertex graphs; see the failing test's
message for the enumerated counterexample.
"""

import json
import random
import time

import pytest

from itdom import (
    PROVEN_IDS,
    Status,
    bipartition,
    check,
    complement,
    corona,
    domination_number,
    encode_graph6,
    enumerate_connected_graphs,
    figure1_graph,
    gamma_it,
    gamma_it_sets,
    gamma_tt,
    is_corona,
    matching_number,
    members,
    naive_oracle,
    omega,
    parse_graph6,
    pendant_vertices,
    petersen,
    tau_i,
)
from itdom.cli import main
from itdom.invariants import gamma_t
from itdom.theorems import InvariantCache

from helpers import is_c4, random_graph

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def _passed(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


def test_criterion_1_conjecture_refutation_at_desk_scale():
    started = time.perf_counter()
    g = complement(petersen())
    value, witness = gamma_it(g)
    assert value >= 6
    assert value > 5  # ceil(10/2)
    beta_petersen = 10 - omega(petersen()).alpha
    assert tau_i(g) == beta_petersen == 6
    assert witness.bit_count() == value
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _passed("1 (conjecture-1 refutation, petersen complement)")


def test_criterion_2_bipartite_dichotomy_exhaustive():
    enumerate_connected_graphs.cache_clear()
    started = time.perf_counter()
    checked = 0
    for n in range(1, 8):
        for entry in enumerate_connected_graphs(n):
            g = entry.graph
            if bipartition(g) is None:
                continue
            checked += 1
            gamma = domination_number(g)
            value, _ = gamma_it(g)
            assert value in (gamma, gamma + 1), entry.graph6
    elapsed = time.perf_counter() - started
    assert checked > 60
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passed(f"2 (dichotomy on {checked} connected bipartite graphs, n<=7)")


def test_criterion_3_pendant_characterization_biconditional():
    applicable = 0
    for n in range(1, 8):
        for entry in enumerate_connected_graphs(n):
            verdict = check("T3.2", entry.graph)
            assert verdict.status is not Status.VIOLATED, (entry.graph6, verdict)
            if verdict.status is Status.HOLDS:
                applicable += 1
    assert applicable > 0
    _passed(f"3 (characterization biconditional on {applicable} applicable graphs)")


def test_criterion_4_figure1_reconstruction():
    started = time.perf_counter()
    g = figure1_graph()
    bip = bipartition(g)
    assert bip is not None
    small = min(bip.x.bit_count(), bip.y.bit_count())
    oracle = naive_oracle(g)
    assert oracle["gamma"] == 2 == small
    assert oracle["gamma_it"] == 3
    assert check("T3.1-ORIG", g).status is Status.VIOLATED
    assert check("T3.2", g).status is Status.HOLDS
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _passed("4 (figure-1 reconstruction, oracle verified)")


def test_criterion_5_half_order_domination_characterization():
    for n in (4, 6):
        for entry in enumerate_connected_graphs(n):
            g = entry.graph
            gamma = domination_number(g)
            structured = is_c4(g) or is_corona(g) is not None
            assert (gamma == n // 2) == structured, entry.graph6
            if gamma == n // 2:
                value, optima = gamma_it_sets(g)
                assert value == n // 2, entry.graph6
                if is_corona(g) is not None:
                    assert pendant_vertices(g) in optima, entry.graph6
    _passed("5 (gamma = n/2 characterization and gamma_it = n/2, orders 4 and 6)")


def test_criterion_5_uniqueness_of_pendant_witness_as_stated():
    # Stated sub-criterion: for coronas of connected H with |V(H)| <= 3 the
    # pendant set is the UNIQUE minimum independent transversal dominating
    # set.  Enumerating all optimal witnesses refutes uniqueness for both
    # 3-vertex choices of H, e.g. corona of the 3-path also admits
    # {2, 3, 4} and {0, 4, 5}.  The assertion is kept as stated.
    failures = []
    for base_order in (2, 3):
        for entry in enumerate_connected_graphs(base_order):
            g = corona(entry.graph)
            _, optima = gamma_it_sets(g)
            if optima != (pendant_vertices(g),):
                failures.append(
                    {
                        "corona_of": entry.graph6,
                        "optima": [members(s) for s in optima],
                        "pendants": members(pendant_vertices(g)),
                    }
                )
    assert not failures, (
        "pendant set is not the unique optimal witness for: "
        f"{json.dumps(failures)}"
    )
    _passed("5b (uniqueness of the pendant witness)")


def test_criterion_6_inequality_suite_full_catalog():
    enumerate_connected_graphs.cache_clear()
    started = time.perf_counter()
    total = 0
    for n in range(1, 8):
        entries = enumerate_connected_graphs(n)
        assert len(entries) == CONNECTED_COUNTS[n]
        for entry in entries:
            total += 1
            cache = InvariantCache(entry.graph)
            for tid in PROVEN_IDS:
                verdict = check(tid, entry.graph, cache)
                assert verdict.status is not Status.VIOLATED, (tid, entry.graph6)
    single = time.perf_counter() - started
    assert total == 996
    assert single < 600.0, f"single-threaded run took {single:.1f}s"

    started = time.perf_counter()
    for n in range(1, 8):
        code = main(
            ["verify", "--order", str(n), "--theorems", "all", "--jobs", "4"]
        )
        assert code == 0
    parallel = time.perf_counter() - started
    assert parallel < 180.0, f"4-worker run took {parallel:.1f}s"
    _passed(
        f"6 (996-graph inequality suite; {single:.1f}s single, {parallel:.1f}s x4)"
    )


def test_criterion_6_catalog_count_cross_check():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    counts = {n: 0 for n in range(1, 8)}
    for g in graph_atlas_g():
        if 1 <= g.number_of_nodes() <= 7 and nx.is_connected(g):
            counts[g.number_of_nodes()] += 1
    assert counts == CONNECTED_COUNTS
    assert sum(counts.values()) == 996
    _passed("6b (996-graph count against the independent atlas)")


def test_criterion_7_oracle_equivalence():
    solvers = {
        "alpha": lambda g: omega(g).alpha,
        "beta": lambda g: g.n - omega(g).alpha,
        "gamma": domination_number,
        "tau_i": tau_i,
        "gamma_it": lambda g: gamma_it(g)[0],
        "gamma_t": gamma_t,
        "gamma_tt": gamma_tt,
        "matching": matching_number,
    }
    graphs = [entry.graph for n in range(1, 7) for entry in enumerate_connected_graphs(n)]
    rng = random.Random(13371337)
    for _ in range(500):
        n = rng.randint(1, 12)
        graphs.append(random_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.5, 0.75])))
    for g in graphs:
        oracle = naive_oracle(g)
        for which, solver in solvers.items():
            assert solver(g) == oracle[which], (which, encode_graph6(g))
    _passed("7 (oracle equivalence: full n<=6 catalog + 500 random graphs)")


def test_criterion_8_total_transversal_chain():
    g = complement(petersen())
    lower = 10 - omega(petersen()).alpha
    value_tt = gamma_tt(g)
    value_it, _ = gamma_it(g)
    assert value_tt is not None
    assert value_tt >= value_it >= lower == 6
    _passed("8 (gamma_tt >= gamma_it >= n - alpha(complement) = 6 chain)")


def test_criterion_9_codec_round_trips():
    rng = random.Random(424242)
    for _ in range(200):
        n = rng.randint(0, 20)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8]))
        assert parse_graph6(encode_graph6(g)) == g
    from pathlib import Path

    corpus = (Path(__file__).parent / "fixtures" / "corpus.g6").read_text()
    lines = corpus.splitlines()
    assert len(lines) >= 30
    for line in lines:
        assert encode_graph6(parse_graph6(line)) == line
    _passed("9 (codec round trips, byte exact)")
