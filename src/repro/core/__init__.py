"""The paper's primary contribution: bounded-variable query evaluation.

Modules:

* :mod:`~repro.core.interp` — assignment tables (named-column k-ary
  relations), the intermediate-result representation of Prop 3.1;
* :mod:`~repro.core.naive_eval` — slow, obviously-correct reference
  semantics used as the testing oracle;
* :mod:`~repro.core.fo_eval` — bottom-up FO^k evaluation (Prop 3.1);
* :mod:`~repro.core.fp_eval` — FP^k evaluation: one fixpoint solver,
  :class:`~repro.core.fp_eval.KleeneSolver`, whose single round loop runs
  the naive ``n^{k·l}``, monotone warm-start ``l·n^k`` and semi-naive
  schedules and the metered PFP iteration, plus dispatch to the
  alternation-aware evaluation with certificate emission (Theorem 3.5,
  :mod:`~repro.core.alternation`);
* :mod:`~repro.core.certificates` — Lemma 3.3/3.4 certificates: extraction
  and polynomial-time verification;
* :mod:`~repro.core.pfp_eval` — PFP^k space accounting (Theorem 3.8): the
  :class:`~repro.core.pfp_eval.SpaceMeter` and ``pfp_answer``, the
  solver's naive iteration with the meter attached;
* :mod:`~repro.core.eso_rewrite` — the Lemma 3.6 arity reduction;
* :mod:`~repro.core.grounding` — FO^k → CNF grounding over a finite database;
* :mod:`~repro.core.eso_eval` — ESO^k evaluation through the SAT solver
  (Corollary 3.7);
* :mod:`~repro.core.engine` — the uniform front door (:class:`Query`,
  :func:`evaluate`).
"""

from repro.core.engine import EvalOptions, EvalResult, Query, evaluate
from repro.core.fp_eval import FixpointStrategy
from repro.core.interp import EvalStats, VarTable

__all__ = [
    "Query",
    "evaluate",
    "EvalOptions",
    "EvalResult",
    "FixpointStrategy",
    "VarTable",
    "EvalStats",
]
