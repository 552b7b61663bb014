"""Solver-level checks for the invariant computations."""

import hashlib
import random
from pathlib import Path

import networkx as nx
import pytest

from itdom import (
    Graph,
    InvariantCache,
    OmegaCapError,
    bipartition,
    complement,
    complete,
    complete_bipartite,
    compute_report,
    corona,
    cycle,
    domination_number,
    enumerate_connected_graphs,
    enumerate_graphs,
    gamma_it,
    gamma_t,
    gamma_tt,
    mask_of,
    matching_number,
    maximum_matching,
    members,
    omega,
    parse_graph6,
    path,
    pendant_vertices,
    petersen,
    star,
    tau_i,
)
from itdom import invariants

from helpers import (
    above_lattice_graphs,
    dominates,
    gamma_it_sets,
    ksubsets,
    least_mask,
    random_bipartite,
    random_graph,
    random_tree,
    solver_paths,
    to_networkx,
    triangles,
)


def test_omega_complete():
    for n in (1, 2, 5):
        fam = omega(complete(n))
        assert fam.alpha == 1
        assert fam.sets == tuple(1 << v for v in range(n))


def test_omega_c4():
    fam = omega(cycle(4))
    assert fam.alpha == 2
    assert fam.sets == (mask_of([0, 2]), mask_of([1, 3]))


def test_omega_petersen():
    fam = omega(petersen())
    assert fam.alpha == 4
    assert len(fam.sets) == 5


def test_omega_edgeless_and_k1():
    fam = omega(Graph(4))
    assert fam.alpha == 4 and fam.sets == (0b1111,)
    assert omega(Graph(1)).sets == (1,)


def test_omega_cap(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(invariants, "DEFAULT_OMEGA_CAP", 3)
        with pytest.raises(OmegaCapError):
            omega(cycle(5))
    assert len(omega(cycle(5)).sets) == 5
    # The cap bounds the sets held, so a family of exactly the cap returns.
    for g in (cycle(5), cycle(9), corona(path(10)), triangles(3), petersen()):
        size = len(omega(g).sets)
        with monkeypatch.context() as m:
            m.setattr(invariants, "DEFAULT_OMEGA_CAP", size)
            assert len(omega(g).sets) == size
            m.setattr(invariants, "DEFAULT_OMEGA_CAP", size - 1)
            with pytest.raises(OmegaCapError):
                omega(g)


def test_omega_members_are_maximum_independent():
    rng = random.Random(99)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        fam = omega(g)
        for s in fam.sets:
            assert s.bit_count() == fam.alpha
            for v in members(s):
                assert g.adj[v] & s == 0


def test_omega_counts_past_the_oracle():
    fib = [0, 1]
    while len(fib) < 23:
        fib.append(fib[-1] + fib[-2])
    for k in range(1, 21):
        fam = omega(corona(path(k)))
        assert fam.alpha == k and len(fam.sets) == fib[k + 2]
    for k in range(1, 10):
        fam = omega(triangles(k))
        assert fam.alpha == k and len(fam.sets) == 3**k
    for n in range(3, 41):
        fam = omega(cycle(n))
        assert fam.alpha == n // 2 and len(fam.sets) == (2 if n % 2 == 0 else n)


def test_omega_is_the_maximum_cliques_of_the_complement():
    rng = random.Random(1704)
    graphs = [random_graph(rng, rng.randint(20, 40), rng.uniform(0.15, 0.7)) for _ in range(20)]
    graphs += [random_tree(rng, 40) for _ in range(5)]
    for g in graphs:
        # to_networkx holds all n vertices before complementing, so isolated
        # vertices of the complement are its one-vertex cliques.
        cliques = [mask_of(c) for c in nx.find_cliques(nx.complement(to_networkx(g)))]
        alpha = max(c.bit_count() for c in cliques)
        expected = tuple(sorted(c for c in cliques if c.bit_count() == alpha))
        assert omega(g) == (alpha, expected)


def test_matching_c4_and_petersen():
    assert matching_number(cycle(4)) == 2
    assert matching_number(petersen()) == 5


def test_matching_bipartite_equals_cover_number():
    rng = random.Random(321)
    for _ in range(60):
        g = random_bipartite(rng, rng.randint(1, 5), rng.randint(1, 5), 0.5)
        beta = g.n - omega(g).alpha
        assert matching_number(g) == beta


def test_matching_routes_agree():
    rng = random.Random(17)
    for _ in range(60):
        g = random_bipartite(rng, rng.randint(1, 5), rng.randint(1, 5), 0.5)
        assert bipartition(g) is not None
        nxg = nx.Graph(g.edges())
        expected = len(nx.max_weight_matching(nxg, maxcardinality=True))
        assert matching_number(g) == expected


def test_maximum_matching_witness():
    rng = random.Random(55)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 9), 0.45)
        edges = maximum_matching(g)
        assert len(edges) == matching_number(g)
        touched = set()
        for u, v in edges:
            assert g.adj[u] >> v & 1
            assert u not in touched and v not in touched
            touched.update((u, v))


def test_domination_small_cases():
    assert domination_number(complete(6)) == 1
    cache = InvariantCache(complete(6))
    assert cache.gamma == 1 and tuple(cache.optima("gamma")) == tuple(1 << v for v in range(6))
    assert InvariantCache(cycle(4)).gamma == 2
    assert domination_number(Graph(3)) == 3
    assert domination_number(Graph(1)) == 1


def test_domination_sets_are_exactly_the_minimum_dominating_sets():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), 0.35)
        cache = InvariantCache(g)
        gamma, sets = cache.gamma, list(cache.optima("gamma"))
        closed = [g.closed(v) for v in range(g.n)]
        for s in sets:
            cover = 0
            for v in members(s):
                cover |= closed[v]
            assert cover == g.full_mask and s.bit_count() == gamma


def test_core_and_xi():
    cache = InvariantCache(cycle(4))
    assert cache.core == 0 and cache.xi == 0
    cache = InvariantCache(star(4))
    assert cache.core == mask_of([1, 2, 3, 4]) and cache.xi == 4


def test_core_subset_of_every_maximum_set():
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), 0.4)
        fam = omega(g)
        cache = InvariantCache(g)
        core, xi = cache.core, cache.xi
        assert xi == core.bit_count()
        for s in fam.sets:
            assert core & s == core


def test_xi_bound_when_alpha_exceeds_matching():
    for n in range(2, 7):
        for g in map(parse_graph6, enumerate_connected_graphs(n)):
            alpha = omega(g).alpha
            mat = matching_number(g)
            if alpha > mat:
                assert InvariantCache(g).xi >= alpha - mat + 1


def test_tau_i_values():
    assert tau_i(complete(7)) == 7
    assert tau_i(complement(petersen())) == 6
    assert tau_i(star(4)) == 1
    assert tau_i(Graph(5)) == 1  # unique maximum independent set: everything


def test_tau_i_one_when_alpha_exceeds_matching():
    for n in range(2, 7):
        for g in map(parse_graph6, enumerate_connected_graphs(n)):
            if omega(g).alpha > matching_number(g):
                assert tau_i(g) == 1


def test_gamma_it_values():
    for n in (1, 2, 4):
        value, witness = gamma_it(complete(n))
        assert value == n and witness == (1 << n) - 1
    assert gamma_it(cycle(4))[0] == 2
    assert gamma_it(Graph(3))[0] == 3  # edgeless: only V dominates


def test_gamma_it_witness_properties():
    rng = random.Random(2024)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), 0.35)
        fam = omega(g)
        value, witness = gamma_it(g)
        assert witness.bit_count() == value
        cover = 0
        for v in members(witness):
            cover |= g.closed(v)
        assert cover == g.full_mask
        assert all(witness & s for s in fam.sets)
        # least optimal witness by mask value
        _, all_sets = gamma_it_sets(g)
        assert witness == min(all_sets)


def test_gamma_it_corona_pendants():
    for n in range(2, 6):
        for h in map(parse_graph6, enumerate_connected_graphs(n)):
            g = corona(h)
            value, _ = gamma_it(g)
            assert value == n
            pend = pendant_vertices(g)
            _, optima = gamma_it_sets(g)
            assert pend in optima


def test_total_domination_values():
    assert gamma_t(cycle(4)) == 2
    assert gamma_tt(cycle(4)) == 2
    assert gamma_t(Graph(1)) is None
    assert gamma_tt(Graph(1)) is None
    assert gamma_t(Graph(3, [(0, 1)])) is None  # isolated vertex 2
    assert gamma_t(complete(2)) == 2
    assert gamma_t(star(4)) == 2


@pytest.mark.parametrize(
    "solver", [InvariantCache, domination_number, tau_i, gamma_it, gamma_t, gamma_tt, compute_report]
)
def test_order_0_graph_has_no_invariants(solver):
    with pytest.raises(ValueError, match="undefined for the order-0 graph"):
        solver(Graph(0))


def test_gamma_tt_at_least_gamma_it():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 9), 0.5)
        if g.isolated():
            continue
        checked += 1
        assert gamma_tt(g) >= gamma_it(g)[0]
    assert checked > 30


def test_report_c4():
    report = compute_report(cycle(4))
    assert (report.alpha, report.beta, report.gamma, report.gamma_it) == (2, 2, 2, 2)
    assert report.gamma_t == report.gamma_tt == 2
    assert report.xi == 0 and report.core == 0


def test_report_k1_and_edgeless():
    report = compute_report(Graph(1))
    assert report.alpha == report.gamma == report.gamma_it == report.tau_i == 1
    assert report.beta == 0 and report.matching == 0
    assert report.gamma_t is None and report.gamma_tt is None
    edgeless = compute_report(Graph(4))
    assert edgeless.gamma == 4 and edgeless.gamma_it == 4 and edgeless.tau_i == 1


def test_report_structural_invariants():
    rng = random.Random(71)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), 0.4)
        report = compute_report(g)
        assert report.alpha + report.beta == g.n
        assert max(report.gamma, report.tau_i) <= report.gamma_it
        assert (report.gamma_t is None) == bool(g.isolated())
        assert 2 * report.matching <= g.n
        assert report.matching <= report.beta
        assert report.gamma <= report.alpha


def test_bipartite_slack_chain():
    # connected bipartite: alpha >= n/2 >= matching
    for n in range(1, 7):
        for g in map(parse_graph6, enumerate_connected_graphs(n)):
            if bipartition(g) is None:
                continue
            alpha = omega(g).alpha
            assert 2 * alpha >= g.n >= 2 * matching_number(g)


def test_sandwich_for_connected_graphs():
    for n in range(1, 7):
        for g in map(parse_graph6, enumerate_connected_graphs(n)):
            gamma = domination_number(g)
            value, _ = gamma_it(g)
            assert gamma <= value <= gamma + g.min_degree()


def test_gamma_it_of_complete_bipartite():
    g = complete_bipartite(3, 3)
    value, _ = gamma_it(g)
    gamma = domination_number(g)
    assert gamma == 2 and value in (gamma, gamma + 1)


def test_gamma_it_path_values():
    assert gamma_it(path(4))[0] == 2
    assert gamma_it(path(3))[0] == 2
    assert gamma_it(star(3))[0] == 2


def _assert_least_witnesses(g):
    """Every hitting-set witness is the least feasible mask of its reported size."""
    report = compute_report(g)
    sets = omega(g).sets
    w = report.witnesses

    def least(k, feasible):
        return None if k is None else least_mask(g.n, k, feasible)

    def transversal(s):
        return all(s & t for t in sets)

    def independent(s):
        return all(not g.adj[v] & s for v in members(s))

    assert w["alpha"] == least(report.alpha, independent)
    assert w["beta"] == g.full_mask & ~w["alpha"]
    assert w["matching"].bit_count() == 2 * report.matching
    assert w["gamma"] == least(report.gamma, lambda s: dominates(g, s))
    assert w["tau_i"] == least(report.tau_i, transversal)
    assert w["gamma_it"] == least(
        report.gamma_it, lambda s: dominates(g, s) and transversal(s)
    )
    assert w["gamma_t"] == least(report.gamma_t, lambda s: dominates(g, s, total=True))
    assert w["gamma_tt"] == least(
        report.gamma_tt, lambda s: dominates(g, s, total=True) and transversal(s)
    )
    # nothing smaller is feasible, and the *_sets functions list every optimum
    assert least(report.gamma - 1, lambda s: dominates(g, s)) is None
    assert least(report.gamma_it - 1, lambda s: dominates(g, s) and transversal(s)) is None
    dominating = [s for s in ksubsets(g.n, report.gamma) if dominates(g, s)]
    assert tuple(InvariantCache(g).optima("gamma")) == tuple(dominating)
    optima = [s for s in ksubsets(g.n, report.gamma_it) if dominates(g, s) and transversal(s)]
    assert gamma_it_sets(g) == (report.gamma_it, tuple(optima))


def test_report_witnesses_are_least_masks_on_catalog(monkeypatch):
    for n in range(1, 7):
        for g in map(parse_graph6, enumerate_connected_graphs(n)):
            for path in solver_paths(monkeypatch):
                _assert_least_witnesses(g)


def test_report_witnesses_are_least_masks_on_random_graphs(monkeypatch):
    rng = random.Random(4242)
    isolated = 0
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 12), rng.choice((0.1, 0.25, 0.4, 0.6)))
        isolated += bool(g.isolated())
        for path in solver_paths(monkeypatch):
            _assert_least_witnesses(g)
    assert isolated > 10


def test_report_matching_and_sandwich_over_catalog():
    for n in range(1, 8):
        for g in map(parse_graph6, enumerate_connected_graphs(n)):
            report = compute_report(g)
            assert report.matching == matching_number(g)
            assert max(report.gamma, report.tau_i) <= report.gamma_it


def test_gamma_alone_never_enumerates_omega():
    # 13 disjoint triangles: 3^13 maximum independent sets, more than the cap.
    k3 = triangles(13)
    c = InvariantCache(k3)
    assert c.gamma == 13
    assert "family" not in c.__dict__ and "index" not in c.__dict__
    assert 3**13 > invariants.DEFAULT_OMEGA_CAP
    # The same triangles and one vertex joined to all 39 others: that vertex
    # and any other totally dominate, and Omega is still the triangles'.
    c = InvariantCache(Graph(40, list(k3.edges()) + [(v, 39) for v in range(39)]))
    assert c.gamma_t == 2
    assert "family" not in c.__dict__ and "index" not in c.__dict__


def test_gamma_reads_the_omega_free_index_after_omega_is_indexed():
    # Which index a search reads is fixed by its invariant, not by what the
    # evaluator already holds.
    for g in above_lattice_graphs():
        c = InvariantCache(g)
        c.tau_i
        assert "index" in c.__dict__ and "local_index" not in c.__dict__
        assert c.gamma == InvariantCache(g).gamma
        assert "local_index" in c.__dict__


@pytest.mark.parametrize("n", [1, 8, 13, 32])
def test_index_matches_its_definition(n):
    # Three families, the last one long, with sets of mixed sizes and ties.
    rng = random.Random(n)
    families = [[rng.getrandbits(n) for _ in range(k)] for k in (n, 5, 3000)]
    index = invariants._index(n, *families)
    given = [(s, f) for f, family in enumerate(families) for s in family]
    ranked = sorted(given, key=lambda item: item[0].bit_count())  # stable
    assert index.sets == [s for s, _ in ranked]
    for v in range(n):
        assert index.hits[v] == sum(1 << i for i, (s, _) in enumerate(ranked) if s >> v & 1)
    for f in range(3):
        assert index.families[f] == sum(1 << i for i, (_, t) in enumerate(ranked) if t == f)


# SHA-256 of the reports of every graph of order 1 to 7 and of the fixture
# corpus, joined by newlines: a change to any value or witness changes it.
REPORTS_SHA256 = "9b47f893b533489863c781bb52cffb226b053a81cf1ea6ee0281a6123d86ba1e"


def test_reports_are_unchanged():
    corpus = (Path(__file__).parent / "fixtures" / "corpus.g6").read_text().split()
    lines = [g6 for n in range(1, 8) for g6 in enumerate_graphs(n)] + [g6 for g6 in corpus if g6 != "?"]
    assert len(lines) == 1285
    text = "\n".join(repr(compute_report(parse_graph6(g6))) for g6 in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORTS_SHA256
