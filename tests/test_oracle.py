"""Solvers against the definitional full-sweep oracle."""

import ast
import random
from itertools import combinations
from pathlib import Path

import pytest

from itdom import (
    Graph,
    complement,
    complete,
    cycle,
    domination_number,
    gamma_it,
    gamma_t,
    gamma_tt,
    matching_number,
    omega,
    petersen,
    tau_i,
)

import oracle
from helpers import random_graph
from oracle import ORACLE_IDS, OracleLimitError, naive_oracle

SOLVERS = {
    "alpha": lambda g: omega(g).alpha,
    "beta": lambda g: g.n - omega(g).alpha,
    "gamma": domination_number,
    "tau_i": tau_i,
    "gamma_it": lambda g: gamma_it(g)[0],
    "gamma_t": gamma_t,
    "gamma_tt": gamma_tt,
    "matching": matching_number,
}


def test_oracle_known_values():
    assert tuple(naive_oracle(petersen())) == ORACLE_IDS
    assert naive_oracle(petersen())["alpha"] == 4
    assert naive_oracle(cycle(4))["gamma"] == 2
    assert naive_oracle(cycle(4))["gamma_t"] == 2
    assert naive_oracle(Graph(1))["gamma_t"] is None
    assert naive_oracle(petersen())["matching"] == 5
    assert naive_oracle(complete(8))["matching"] == 4  # 28 edges
    assert naive_oracle(complement(petersen()))["matching"] == 5  # 30 edges


def test_oracle_limits():
    with pytest.raises(OracleLimitError, match="16 vertices"):
        naive_oracle(Graph(17))
    with pytest.raises(ValueError, match="order-0"):
        naive_oracle(Graph(0))


def test_oracle_imports_only_graphs_from_the_package():
    tree = ast.parse(Path(oracle.__file__).read_text())
    package_imports = {
        "." * node.level + (node.module or "")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("itdom"))
    }
    package_imports |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("itdom")
    }
    assert package_imports == {"itdom.graphs"}


def test_all_solvers_match_oracle_on_seeded_random_graphs():
    rng = random.Random(90210)
    for _ in range(120):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.75]))
        oracle = naive_oracle(g)
        for which, solver in SOLVERS.items():
            assert solver(g) == oracle[which], (which, g.edges(), n)


def test_omega_family_matches_naive_enumeration():
    rng = random.Random(808)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), 0.4)
        alpha = naive_oracle(g)["alpha"]
        sets = [
            s
            for s in combinations(range(g.n), alpha)
            if not any(g.adj[u] >> v & 1 for u, v in combinations(s, 2))
        ]
        fam = omega(g)
        assert fam.alpha == alpha
        assert sorted(fam.sets) == sorted(sum(1 << v for v in s) for s in sets)
