"""Registry verdicts, characterization predicates and extremal searches."""

import ast
from pathlib import Path

import pytest

from itdom import (
    Graph,
    PROVEN_IDS,
    REFUTABLE_IDS,
    Status,
    THEOREMS,
    bipartition,
    canonical_form,
    check,
    complement,
    complete,
    corona,
    cycle,
    domination_number,
    enumerate_connected_graphs,
    figure1_graph,
    gamma_it,
    is_corona,
    mask_of,
    naive_oracle,
    omega,
    path,
    pendant_condition,
    petersen,
    search_extremal,
    star,
    tau_i,
)
from itdom.invariants import SolverLimitError
from itdom.theorems import InvariantCache

from helpers import canonical_graph6, is_c4


def test_registry_shape():
    assert set(REFUTABLE_IDS) == {"T3.1-ORIG", "CONJ1"}
    assert "T2.6" in PROVEN_IDS and "EQ6" in PROVEN_IDS
    assert len(THEOREMS) == len(PROVEN_IDS) + len(REFUTABLE_IDS)


def test_check_unknown_id_and_order_guard():
    with pytest.raises(KeyError, match="unknown theorem id"):
        check("T9.9", cycle(4))
    with pytest.raises(SolverLimitError):
        check("EQ1", Graph(21))


def test_check_rejects_a_cache_of_another_graph():
    # EQ1 is proven; a cache for P3 must not make it read as violated on C4.
    with pytest.raises(ValueError, match="different graph"):
        check("EQ1", cycle(4), InvariantCache(path(3)))
    assert check("EQ1", cycle(4), InvariantCache(cycle(4))).status is Status.HOLDS


def test_t11_not_applicable_on_k1():
    assert check("T1.1", Graph(1)).status is Status.NOT_APPLICABLE


def test_t26_holds_on_connected_bipartite_catalog():
    for n in range(1, 7):
        for entry in enumerate_connected_graphs(n):
            if bipartition(entry.graph) is None:
                continue
            assert check("T2.6", entry.graph).status is Status.HOLDS


def test_proven_entries_never_violated_on_small_catalog():
    for n in range(1, 7):
        for entry in enumerate_connected_graphs(n):
            cache = InvariantCache(entry.graph)
            for tid in PROVEN_IDS:
                verdict = check(tid, entry.graph, cache)
                assert verdict.status is not Status.VIOLATED, (tid, entry.graph6)


def test_conj1_violated_on_petersen_complement():
    g = complement(petersen())
    verdict = check("CONJ1", g)
    assert verdict.status is Status.VIOLATED
    assert verdict.witness["gamma_it"] == 6
    assert verdict.witness["bound"] == 5
    # the reported values re-validate against the independent oracle
    assert naive_oracle(g)["gamma_it"] == 6


def test_lemma_21_on_petersen_complement():
    verdict = check("L2.1", complement(petersen()))
    assert verdict.status is Status.HOLDS
    assert verdict.witness["tau_i"] == 6
    assert verdict.witness["complement_cover_number"] == 6


def test_figure1_construction():
    g = figure1_graph()
    assert g.n == 5
    bip = bipartition(g)
    assert bip is not None and min(bip.x.bit_count(), bip.y.bit_count()) == 2
    assert domination_number(g) == 2
    assert gamma_it(g)[0] == 3
    oracle = naive_oracle(g)
    assert oracle["gamma"] == 2
    assert oracle["gamma_it"] == 3


def test_figure1_splits_the_two_conditions():
    g = figure1_graph()
    assert check("T3.1-ORIG", g).status is Status.VIOLATED
    assert check("T3.2", g).status is Status.HOLDS
    # vertex 0 is pendant with no pendant neighbor: strict condition fails
    witness = check("T3.1-ORIG", g).witness
    assert witness["strict_condition_holds"] is False
    assert witness["gamma_it"] == witness["gamma"] + 1


def test_figure1_is_a_minimal_counterexample_to_the_original_claim():
    # Exhaustive sweep over connected bipartite graphs with a side of size 2:
    # the stated properties (gamma = 2 = |X|, gamma_it = 3, some vertex of X
    # without two pendant neighbors) first become satisfiable at order 5,
    # and the shipped reconstruction is one of the witnesses.
    def matches_textual_properties(g):
        bip = bipartition(g)
        if bip is None or domination_number(g) != 2 or gamma_it(g)[0] != 3:
            return False
        from itdom.theorems import _strict_pendant_condition

        for x, y in ((bip.x, bip.y), (bip.y, bip.x)):
            if x.bit_count() == 2 and x.bit_count() <= y.bit_count():
                if not _strict_pendant_condition(g, x):
                    return True
        return False

    witnesses = {n: [] for n in range(1, 6)}
    for n in range(1, 6):
        for entry in enumerate_connected_graphs(n):
            if matches_textual_properties(entry.graph):
                witnesses[n].append(entry.graph6)
    assert all(not witnesses[n] for n in range(1, 5))
    assert witnesses[5]
    assert canonical_graph6(figure1_graph()) in witnesses[5]


def test_figure1_gamma_sets_miss_a_maximum_independent_set():
    # Both minimum dominating sets {0, 1} and {1, 2} fail to meet one of the
    # two maximum independent sets {2, 3, 4} and {0, 3, 4}, forcing the jump.
    g = figure1_graph()
    cache = InvariantCache(g)
    gamma, sets = cache.gamma, tuple(cache.optima("gamma"))
    assert gamma == 2
    assert sets == (mask_of([0, 1]), mask_of([1, 2]))
    fam = omega(g)
    assert fam.sets == (mask_of([0, 3, 4]), mask_of([2, 3, 4]))
    for s in sets:
        assert any(s & i == 0 for i in fam.sets)


def test_t32_both_implications_separately():
    from itdom.theorems import _side_labelings

    for n in range(2, 7):
        for entry in enumerate_connected_graphs(n):
            g = entry.graph
            cache = InvariantCache(g)
            for x in _side_labelings(cache):
                jump = cache.gamma_it == cache.gamma + 1
                cond = pendant_condition(g, x).holds
                # necessity: a jump forces the pendant structure
                assert not jump or cond, entry.graph6
                # sufficiency: the pendant structure forces a jump
                assert not cond or jump, entry.graph6


def test_conjecture_1_has_order_6_counterexamples():
    # The refutable-claim machinery surfaces these two order-6 graphs; both
    # revalidate through the definitional oracle.
    violators = []
    for n in range(1, 8):
        for entry in enumerate_connected_graphs(n):
            if check("CONJ1", entry.graph).status is Status.VIOLATED:
                violators.append(entry.graph6)
    assert violators == ["EJaW", "EJeg"]
    for g6 in violators:
        g = next(
            e.graph for e in enumerate_connected_graphs(6) if e.graph6 == g6
        )
        assert naive_oracle(g)["gamma_it"] == 4 > 3


def test_pendant_condition_star():
    g = star(3)
    result = pendant_condition(g, mask_of([0]))
    assert result.holds and result.witness["failing_vertices"] == []


def test_pendant_condition_p4_fails():
    g = path(4)
    result = pendant_condition(g, mask_of([0, 2]))
    assert not result.holds
    assert result.witness["failing_vertices"] == [2]


def test_pendant_condition_rejects_dependent_set():
    with pytest.raises(ValueError, match="not independent"):
        pendant_condition(path(4), mask_of([0, 1]))


def test_is_corona_roundtrip():
    for n in range(1, 6):
        for entry in enumerate_connected_graphs(n):
            recovered = is_corona(corona(entry.graph))
            assert recovered is not None
            assert canonical_form(recovered) == canonical_form(entry.graph)


def test_is_corona_negative_cases():
    assert is_corona(cycle(4)) is None
    assert is_corona(Graph(1)) is None
    assert is_corona(complete(3)) is None
    assert is_corona(Graph(2)) is None


def test_is_corona_special_and_small():
    assert is_corona(complete(2)) == Graph(1)
    recovered = is_corona(path(4))
    assert recovered is not None and canonical_form(recovered) == canonical_form(complete(2))


def test_is_corona_absent_when_gamma_below_half():
    for n in (4, 6):
        for entry in enumerate_connected_graphs(n):
            if domination_number(entry.graph) < n // 2 and not is_c4(entry.graph):
                assert is_corona(entry.graph) is None


def test_t33_biconditional_small_orders():
    for n in (2, 4, 6):
        for entry in enumerate_connected_graphs(n):
            verdict = check("T3.3", entry.graph)
            assert verdict.status is Status.HOLDS


def test_violated_witness_revalidates():
    g = complement(petersen())
    verdict = check("CONJ1", g)
    value, _ = gamma_it(g)
    assert verdict.witness["gamma_it"] == value > (g.n + 1) // 2


def test_search_max_tau_i():
    results = search_extremal("max_tau_i", enumerate_connected_graphs(4))
    assert len(results) == 1
    assert results[0].values == {"tau_i": 4}
    assert canonical_form(results[0].entry.graph) == canonical_form(complete(4))
    results5 = search_extremal("max_tau_i", enumerate_connected_graphs(5))
    assert [r.values["tau_i"] for r in results5] == [5]


def test_search_bipartite_half_gammait():
    results = search_extremal("bipartite_half_gammait", enumerate_connected_graphs(4))
    found = {r.entry.graph6 for r in results}
    assert canonical_graph6(cycle(4)) in found
    assert canonical_graph6(path(4)) in found
    for r in results:
        assert r.values["gamma_it"] == 2
        assert r.values["gamma"] in (1, 2)
        # reported values re-verify through the oracle
        oracle = naive_oracle(r.entry.graph)
        assert oracle["gamma_it"] == r.values["gamma_it"]
        assert oracle["gamma"] == r.values["gamma"]


def test_search_bipartite_half_gammait_small_orders_empty():
    assert search_extremal("bipartite_half_gammait", enumerate_connected_graphs(2)) == []
    assert search_extremal("bipartite_half_gammait", enumerate_connected_graphs(5)) == []


def test_search_unknown_mode():
    with pytest.raises(ValueError, match="unknown search mode"):
        search_extremal("widest_girth", enumerate_connected_graphs(4))


def test_tau_i_alpha_exceeding_matching_gives_one():
    g = star(4)
    assert check("C2.4a", g).status is Status.HOLDS
    assert tau_i(g) == 1
    assert omega(g).alpha == 4


def test_t35_cases():
    assert check("T3.5", cycle(4)).status is Status.HOLDS  # case 1
    assert check("T3.5", cycle(6)).status is Status.NOT_APPLICABLE  # gamma = 2
    g = figure1_graph()  # odd order
    assert check("T3.5", g).status is Status.NOT_APPLICABLE


def test_package_checks_survive_optimization():
    # ``python -O`` strips assert statements, so the package raises instead.
    package = Path(__file__).resolve().parents[1] / "src" / "itdom"
    sources = sorted(package.glob("*.py"))
    assert sources
    for source in sources:
        tree = ast.parse(source.read_text(), filename=str(source))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), source.name
