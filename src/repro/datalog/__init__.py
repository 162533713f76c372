"""A small Datalog engine (the substrate behind Prop 3.2's Path Systems).

The paper defines the reachable elements of a path system by the Datalog
program::

    P(x) ← S(x)
    P(x) ← Q(x, y, z), P(y), P(z)

This subpackage provides that machinery as a first-class component:
rules, programs, naive and semi-naive bottom-up evaluation over
:class:`repro.database.Database`, and a translation of non-recursive
rule bodies into the library's FO formulas.  Datalog is also the natural
companion of FP^k: every Datalog program is a simultaneous least fixpoint
whose arities are bounded by the rule-head arities.
"""

from repro.datalog.syntax import Atom, DatalogProgram, Rule, Term as DatalogTerm
from repro.datalog.engine import evaluate_program, semi_naive
from repro.datalog.parser import parse_program

__all__ = [
    "Atom",
    "Rule",
    "DatalogProgram",
    "DatalogTerm",
    "evaluate_program",
    "semi_naive",
    "parse_program",
]
