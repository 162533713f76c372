"""Workload generators: databases and query families for tests and benches.

* :mod:`~repro.workloads.graphs` — graph-shaped databases (paths, cycles,
  random digraphs) with optional unary labels;
* :mod:`~repro.workloads.company` — the EMP/MGR/SCY/SAL schema of the
  paper's introduction and its "earn less than the manager's secretary"
  query, in naive and bounded-variable forms;
* :mod:`~repro.workloads.formulas` — query families: the n-step-path
  queries of Section 2.2 (naive n+1-variable and FO^3 forms), chain joins,
  random FO^k formulas, nested alternating fixpoint families.

Random QBF instances live in :func:`repro.reductions.qbf.random_qbf` and
random Kripke structures in
:meth:`repro.mucalculus.kripke.KripkeStructure.random` — next to the code
they exercise.
"""

from repro.workloads.graphs import (
    cycle_graph,
    labeled_graph,
    path_graph,
    random_graph,
)
from repro.workloads.company import (
    company_database,
    earns_less_bounded,
    earns_less_naive_algebra,
)
from repro.workloads.formulas import (
    alternating_fixpoint_family,
    chain_join_query,
    nested_lfp_family,
    path_query_fo3,
    path_query_naive,
    random_fo_formula,
)

__all__ = [
    "path_graph",
    "cycle_graph",
    "random_graph",
    "labeled_graph",
    "company_database",
    "earns_less_bounded",
    "earns_less_naive_algebra",
    "path_query_naive",
    "path_query_fo3",
    "chain_join_query",
    "random_fo_formula",
    "alternating_fixpoint_family",
    "nested_lfp_family",
]
