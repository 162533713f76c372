"""A from-scratch SAT stack: CNF, Tseitin transform, DPLL solver.

This is the NP "oracle" behind the ESO^k engine (Corollary 3.7) and the
SAT side of the Theorem 4.5 lower bound.  It is deliberately small and
dependency-free:

* :mod:`~repro.sat.cnf` — literals, clauses, CNF formulas, propositional
  formula trees;
* :mod:`~repro.sat.tseitin` — structure-preserving CNF conversion;
* :mod:`~repro.sat.dpll` — a DPLL solver with unit propagation and a
  simple activity heuristic.
"""

from repro.sat.cnf import (
    BoolAnd,
    BoolConst,
    BoolNot,
    BoolOr,
    BoolVar,
    Clause,
    CNF,
    PropFormula,
)
from repro.sat.dpll import SatResult, solve
from repro.sat.tseitin import to_cnf

__all__ = [
    "BoolVar",
    "BoolConst",
    "BoolNot",
    "BoolAnd",
    "BoolOr",
    "PropFormula",
    "Clause",
    "CNF",
    "to_cnf",
    "solve",
    "SatResult",
]
