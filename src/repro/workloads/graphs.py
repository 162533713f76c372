"""Graph-shaped databases.

Graphs are the canonical relational databases of the paper (a binary edge
relation ``E``, optionally unary labels) — they drive the path queries of
Section 2.2, the fixpoint examples of Section 3.2, and the µ-calculus
application of Section 1.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Mapping

from repro.database.database import Database
from repro.database.domain import Domain
from repro.database.relation import Relation


def path_graph(n: int, edge_name: str = "E") -> Database:
    """The directed path ``0 → 1 → ... → n-1``."""
    edges = [(i, i + 1) for i in range(n - 1)]
    return Database(Domain.range(n), {edge_name: Relation(2, edges)})


def cycle_graph(n: int, edge_name: str = "E") -> Database:
    """The directed cycle on ``n`` vertices."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Database(Domain.range(n), {edge_name: Relation(2, edges)})


def random_graph(
    n: int, p: float, seed: int = 0, edge_name: str = "E"
) -> Database:
    """A ``G(n, p)`` directed graph (no self-loops), seeded for repeatability."""
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return Database(Domain.range(n), {edge_name: Relation(2, edges)})


def labeled_graph(
    base: Database,
    labels: Mapping[str, Iterable[int]],
) -> Database:
    """Add unary label relations to a graph database.

    >>> g = labeled_graph(path_graph(3), {"P": [0, 2]})
    >>> len(g.relation("P"))
    2
    """
    relations: Dict[str, Relation] = {
        name: base.relation(name) for name in base.relation_names()
    }
    for name, members in labels.items():
        relations[name] = Relation(1, [(m,) for m in members])
    return Database(base.domain, relations)
