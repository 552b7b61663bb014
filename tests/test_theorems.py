"""Registry verdicts and characterization predicates."""

import ast
import functools
import random
from pathlib import Path

import networkx as nx
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
    check_many,
    complement,
    complete,
    components,
    compute_report,
    corona,
    cycle,
    domination_number,
    enumerate_connected_graphs,
    enumerate_graphs,
    figure1_graph,
    gamma_it,
    induced_subgraph,
    is_corona,
    mask_of,
    members,
    omega,
    parse_graph6,
    path,
    pendant_condition,
    petersen,
    star,
    tau_i,
)
from itdom import invariants
from itdom.invariants import SolverLimitError
from itdom.theorems import CHECK_MAX_ORDER, InvariantCache, _component_shape, _theorem

from helpers import above_lattice_graphs, canonical_graph6, is_c4, random_bipartite, random_graph, to_networkx
from oracle import naive_oracle


def test_registry_shape():
    assert set(REFUTABLE_IDS) == {"T3.1-ORIG", "CONJ1"}
    assert "T2.6" in PROVEN_IDS and "EQ6" in PROVEN_IDS
    assert len(THEOREMS) == len(PROVEN_IDS) + len(REFUTABLE_IDS)


def test_registering_a_repeated_id_raises():
    before = dict(THEOREMS)
    with pytest.raises(ValueError, match="'EQ1' is already registered"):
        _theorem("EQ1", "proven", "a second EQ1")(lambda g, c: (True, {}))
    assert THEOREMS == before


def test_check_unknown_id_and_order_guard():
    with pytest.raises(KeyError, match="unknown theorem id"):
        check("T9.9", cycle(4))
    with pytest.raises(SolverLimitError):
        check("EQ1", Graph(CHECK_MAX_ORDER + 1))


def test_check_rejects_a_cache_of_another_graph():
    # EQ1 is proven; a cache for P3 must not make it read as violated on C4.
    with pytest.raises(ValueError, match="different graph"):
        check("EQ1", cycle(4), InvariantCache(path(3)))
    assert check("EQ1", cycle(4), InvariantCache(cycle(4))).status is Status.HOLDS


def test_check_many_is_check_per_id():
    # One guard pass for all ids gives the verdicts of one check per id.
    ids = tuple(THEOREMS)
    for n in range(1, 6):
        for g in map(parse_graph6, enumerate_connected_graphs(n)):
            cache = InvariantCache(g)
            expected = [check(tid, g, cache) for tid in ids]
            assert check_many(ids, g, cache) == expected
            assert check_many(ids, g) == expected
    empty = check_many(ids, Graph(0))
    assert empty == [check(tid, Graph(0)) for tid in ids]
    # No check runs on the order-0 graph: every verdict names it.
    assert [(v.theorem_id, v.status, v.witness) for v in empty] == [
        (tid, Status.NOT_APPLICABLE, {"reason": "empty graph"}) for tid in ids
    ]
    assert check_many((), cycle(4)) == []
    with pytest.raises(KeyError, match="unknown theorem id 'T9.9'"):
        check_many(("EQ1", "T9.9"), cycle(4))
    with pytest.raises(ValueError, match="different graph"):
        check_many(ids, cycle(4), InvariantCache(path(3)))
    with pytest.raises(SolverLimitError):
        check_many(ids, Graph(CHECK_MAX_ORDER + 1))


@functools.cache
def _shortcut_graphs() -> tuple[Graph, ...]:
    """Every graph of order 1 to 7, and seeded G(n, p) of order 8 to 32."""
    rng = random.Random(1704)
    catalog = [parse_graph6(g6) for n in range(1, 8) for g6 in enumerate_graphs(n)]
    return (*catalog, *(random_graph(rng, n, p) for n in range(8, 33) for p in (0.2, 0.5, 0.9)))


def test_l21_hypothesis_is_three_pairwise_non_adjacent_vertices():
    # Definition: G is not complete and its complement has a triangle.
    for g in _shortcut_graphs():
        comp = complement(g)
        triangle = any(comp.adj[u] & comp.adj[v] for u, v in comp.edges())
        ok, witness = THEOREMS["L2.1"].fn(g, InvariantCache(g))
        assert (witness == {"reason": "complement has a triangle"}) == (comp.m > 0 and triangle)


def test_tree_hypothesis_reads_connected():
    for g in _shortcut_graphs():
        ok, _ = THEOREMS["TREE"].fn(g, InvariantCache(g))
        assert (ok is not None) == nx.is_tree(to_networkx(g))


def test_t33_shapes_match_induced_subgraphs():
    def shape(sub):
        if is_c4(sub):
            return "C4"
        return "corona" if is_corona(sub) is not None else None

    for g in _shortcut_graphs():
        for comp in components(g):
            assert _component_shape(g, comp) == shape(induced_subgraph(g, comp)[0])


def test_t11_not_applicable_on_k1():
    assert check("T1.1", Graph(1)).status is Status.NOT_APPLICABLE


def test_t26_holds_on_connected_bipartite_catalog():
    for n in range(1, 7):
        for g in map(parse_graph6, enumerate_connected_graphs(n)):
            if bipartition(g) is None:
                continue
            assert check("T2.6", g).status is Status.HOLDS


def test_proven_entries_never_violated_on_small_catalog():
    for n in range(1, 7):
        for g6 in enumerate_connected_graphs(n):
            g = parse_graph6(g6)
            cache = InvariantCache(g)
            for tid in PROVEN_IDS:
                verdict = check(tid, g, cache)
                assert verdict.status is not Status.VIOLATED, (tid, g6)


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
        for g6 in enumerate_connected_graphs(n):
            if matches_textual_properties(parse_graph6(g6)):
                witnesses[n].append(g6)
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
        for g6 in enumerate_connected_graphs(n):
            g = parse_graph6(g6)
            cache = InvariantCache(g)
            for x in _side_labelings(cache):
                jump = cache.gamma_it == cache.gamma + 1
                cond = pendant_condition(g, x).holds
                # necessity: a jump forces the pendant structure
                assert not jump or cond, g6
                # sufficiency: the pendant structure forces a jump
                assert not cond or jump, g6


def _violations(theorem_id):
    """(graph6, witness) of every connected graph of order at most 8
    that violates ``theorem_id``, in catalog order."""
    found = []
    for n in range(1, 9):
        for g6 in enumerate_connected_graphs(n):
            verdict = check(theorem_id, parse_graph6(g6))
            if verdict.status is Status.VIOLATED:
                found.append((g6, verdict.witness))
    return found


def test_conjecture_1_violations_through_order_8():
    # The complete list: two at order 6, none at order 7 (ceil(n/2) is looser
    # at odd n) and fourteen at order 8, each revalidated through the
    # definitional oracle.
    found = _violations("CONJ1")
    assert [g6 for g6, _ in found] == [
        "EJaW", "EJeg",
        "GJ]CK[", "GJ]CK{", "GJ]C[k", "GJ]C[{", "GJ]C\\k", "GJ]C|[", "GJ]K\\k",
        "GJ]KlK", "GJ]Kl[", "GJ]K|k", "GJ]\\\\k", "GJemvG", "GJemvK", "GJe}vK",
    ]
    for g6, witness in found:
        g = parse_graph6(g6)
        assert naive_oracle(g)["gamma_it"] == witness["gamma_it"] > (g.n + 1) // 2


def test_original_theorem_3_1_violations_through_order_8():
    # The complete list, each revalidated: the oracle's gamma_it jumps above
    # gamma exactly where the side X fails the strict pendant condition, or
    # the other way round.
    found = _violations("T3.1-ORIG")
    assert [g6 for g6, _ in found] == [
        "A_", "D@s", "E?Fg", "F??Ng", "F?CeW", "G???Ns", "G??GfK", "G??HmG",
    ]
    for g6, witness in found:
        g = parse_graph6(g6)
        oracle = naive_oracle(g)
        assert (oracle["gamma"], oracle["gamma_it"]) == (witness["gamma"], witness["gamma_it"])
        assert len(witness["X"]) == oracle["gamma"]
        pendant = {v for v in range(g.n) if g.degree(v) == 1}
        strict = all(len(pendant & set(members(g.adj[x]))) >= 2 for x in witness["X"])
        assert strict == witness["strict_condition_holds"]
        assert (oracle["gamma_it"] == oracle["gamma"] + 1) != strict


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
        for h in map(parse_graph6, enumerate_connected_graphs(n)):
            recovered = is_corona(corona(h))
            assert recovered is not None
            assert canonical_form(recovered) == canonical_form(h)


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
        for g in map(parse_graph6, enumerate_connected_graphs(n)):
            if domination_number(g) < n // 2 and not is_c4(g):
                assert is_corona(g) is None


def test_t33_biconditional_small_orders():
    for n in (2, 4, 6):
        for g in map(parse_graph6, enumerate_connected_graphs(n)):
            verdict = check("T3.3", g)
            assert verdict.status is Status.HOLDS


def test_violated_witness_revalidates():
    g = complement(petersen())
    verdict = check("CONJ1", g)
    value, _ = gamma_it(g)
    assert verdict.witness["gamma_it"] == value > (g.n + 1) // 2


def test_readme_registry_table_lists_the_registry_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("\n## Theorem registry\n\n", 1)[1].split("\n\n", 1)[0]
    rows = table.splitlines()[2:]  # after the header and its rule
    assert [row.split("|")[1].strip() for row in rows] == list(THEOREMS)


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


def test_all_checks_build_no_index_on_the_lattice_and_both_above_it():
    # Up to LATTICE_MAX_ORDER the subset lattice answers every check.
    for g in map(parse_graph6, enumerate_graphs(6)):
        cache = InvariantCache(g)
        check_many(tuple(THEOREMS), g, cache)
        assert "index" not in cache.__dict__ and "local_index" not in cache.__dict__
    # Above it, gamma and gamma_t search the index without Omega and the
    # invariants of Omega the one with it, and the checks read both kinds.
    for g in above_lattice_graphs():
        cache = InvariantCache(g)
        check_many(tuple(THEOREMS), g, cache)
        assert "index" in cache.__dict__ and "local_index" in cache.__dict__


def test_no_lattice_table_above_the_lattice_order():
    # The bench replay reads every cached property of the evaluator, so none
    # may build a 2^n-bit table where the kernel runs.  The complement of a
    # bipartite graph reaches Lemma 2.1's Omega of the complement.
    invariants._lattice.cache_clear()
    n = invariants.LATTICE_MAX_ORDER + 1
    rng = random.Random(n)
    for g in (random_graph(rng, n, 0.3), complement(random_bipartite(rng, n // 2, n - n // 2, 0.5))):
        compute_report(g)
        cache = InvariantCache(g)
        for name, value in vars(InvariantCache).items():
            if isinstance(value, functools.cached_property):
                getattr(cache, name)
        check_many(tuple(THEOREMS), g, cache)
    assert invariants._lattice.cache_info().currsize == 0
