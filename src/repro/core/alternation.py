"""Alternation-aware fixpoint evaluation with certificates (Theorem 3.5).

The paper's key idea — approximate both least *and* greatest fixpoints
from below — rests on two lemmas:

* Lemma 3.3 — ``a ∈ gfp(f)`` iff some ``Q ∋ a`` satisfies ``Q ⊆ f'(Q)``
  for an under-approximation ``f' ⊑ f`` (Tarski-Knaster);
* Lemma 3.4 — ``a ∈ lfp(f)`` iff ``a`` appears in an increasing chain
  ``Q_0 = ∅``, ``Q_i ⊆ f_i(Q_{i-1})`` with monotone ``f_i ⊑ f``.

In the proof sketch of Theorem 3.5 these compose *hierarchically*: the
evaluator guesses a post-fixpoint for each greatest fixpoint, pushes that
guess into the environment of the fixpoints nested inside it, and builds
increasing chains for the least fixpoints, guessing fresh (but only ever
growing) inner approximations for each chain step.  The certificate
produced here mirrors that structure exactly:

* a :class:`Cert` for a GFP node carries the guessed relation ``value``
  and certificates for the immediate inner fixpoints *computed under that
  guess*; its local condition (checked by
  :mod:`repro.core.certificates`) is Lemma 3.3's ``value ⊆ Φ(value)``
  with inner fixpoints replaced by their certified finals;
* a :class:`Cert` for an LFP node carries the Lemma 3.4 chain as
  :class:`LfpStep` records; step ``i``'s inner certificates are computed
  under the *previous* iterate, and its condition is
  ``Q_i ⊆ Φ(Q_{i-1})``.  Steps whose inner finals did not change reuse
  the previous step's sub-certificates (``children=None``) — this is the
  paper's "the f_i only grow" economy that keeps certificates at
  ``l·n^k`` guessed relations instead of ``n^{k·l}``.

Extraction (the deterministic stand-in for nondeterministic guessing)
computes the true nested values with the abstracted operators and records
the history; it may take ``n^{k·l}`` *time* — finding certificates in
polynomial time would put FP^k in PTIME, which the paper leaves open —
but the certificates themselves verify in polynomial time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.database.database import Database
from repro.database.relation import Relation
from repro.core.abstraction import AbstractedQuery, AbstractFixpoint, abstract_query
from repro.core.fo_eval import BoundedEvaluator, check_variable_bound
from repro.core.fp_eval import apply_operator
from repro.core.interp import EvalStats
from repro.guard.budget import GuardLike, NULL_GUARD
from repro.logic.analysis import check_positivity
from repro.logic.syntax import Formula


@dataclass(frozen=True)
class Cert:
    """Certificate for one fixpoint node in one environment context.

    ``value`` is the claimed (under-approximation of the) fixpoint.  For a
    GFP node ``children`` certify the immediate inner fixpoints under the
    guess; for an LFP node ``steps`` is the Lemma 3.4 chain and ``children``
    is empty.
    """

    node_index: int
    value: Relation
    children: Tuple["Cert", ...] = ()
    steps: Tuple["LfpStep", ...] = ()

    def guessed_tuples(self) -> int:
        """Total tuples across all guessed relations (certificate size)."""
        total = len(self.value)
        for child in self.children:
            total += child.guessed_tuples()
        for step in self.steps:
            total += len(step.value)
            if step.children is not None:
                for child in step.children:
                    total += child.guessed_tuples()
        return total


@dataclass(frozen=True)
class LfpStep:
    """One Lemma 3.4 chain link ``Q_{i-1} → Q_i``.

    ``children`` certify the immediate inner fixpoints under
    ``self = Q_{i-1}``; ``None`` means "inherit the previous step's
    children" — sound because the environment only grew and every
    recursion atom occurs positively, so the inherited conditions hold a
    fortiori.
    """

    value: Relation
    children: Optional[Tuple[Cert, ...]] = None


@dataclass(frozen=True)
class FixpointCertificate:
    """The full Theorem 3.5 certificate for a query evaluation."""

    query: AbstractedQuery
    top_certs: Tuple[Cert, ...]

    def final_state(self) -> Dict[str, Relation]:
        """Values for the skeleton's fixpoint atoms (top-level nodes)."""
        return {
            self.query.nodes[cert.node_index].name: cert.value
            for cert in self.top_certs
        }

    def total_guessed_tuples(self) -> int:
        return sum(cert.guessed_tuples() for cert in self.top_certs)


Env = Dict[str, Relation]


class AlternationEvaluator:
    """Nested evaluation over the abstracted system, with certificates.

    Every Kleene step — of a true value in :meth:`solve_value` and of an
    LFP chain in :meth:`extract` — counts one ``fixpoint_iterations``
    and charges one iteration to ``guard``.
    """

    def __init__(
        self,
        aq: AbstractedQuery,
        db: Database,
        stats: Optional[EvalStats] = None,
        guard: GuardLike = NULL_GUARD,
    ):
        self.aq = aq
        self.db = db
        self.stats = stats if stats is not None else EvalStats()
        self._guard = guard
        self._evaluator = BoundedEvaluator(
            db, fixpoint_solver=None, stats=self.stats, guard=guard
        )
        self._value_memo: Dict[Tuple[int, Tuple[Tuple[str, Relation], ...]], Relation] = {}

    def _count_step(self, index: int, current: Relation) -> None:
        self.stats.fixpoint_iterations += 1
        if self._guard.enabled:
            self._guard.charge_iteration(index=index, size=len(current))

    # -- true values -----------------------------------------------------

    def solve_value(self, node: AbstractFixpoint, env: Env) -> Relation:
        """The true nested value of ``node`` given enclosing values ``env``."""
        key = (node.index, tuple(sorted(env.items())))
        cached = self._value_memo.get(key)
        if cached is not None:
            return cached
        if node.kind == "lfp":
            current = Relation.empty(node.value_arity)
        else:
            current = Relation(
                node.value_arity, self.db.domain.tuples(node.value_arity)
            )
        index = 0
        while True:
            self._count_step(index, current)
            index += 1
            after = self._step(node, env, current)
            if after == current:
                break
            current = after
        self._value_memo[key] = current
        return current

    def _step(self, node: AbstractFixpoint, env: Env, current: Relation) -> Relation:
        """One true Kleene step: inner fixpoints re-solved under ``current``."""
        inner_env = dict(env)
        inner_env[node.name] = current
        for child_index in node.children:
            child = self.aq.nodes[child_index]
            inner_env[child.name] = self.solve_value(child, dict(inner_env))
        return apply_operator(
            self._evaluator, node.body, inner_env, node.columns, node.name
        )

    # -- certificate extraction ----------------------------------------

    def extract(self, node: AbstractFixpoint, env: Env) -> Cert:
        """A verifying certificate for ``node`` in context ``env``."""
        if node.kind == "gfp":
            value = self.solve_value(node, env)
            inner_env = dict(env)
            inner_env[node.name] = value
            children = []
            for child_index in node.children:
                child = self.aq.nodes[child_index]
                child_cert = self.extract(child, dict(inner_env))
                inner_env[child.name] = child_cert.value
                children.append(child_cert)
            return Cert(node.index, value, children=tuple(children))
        # lfp: record the Kleene chain with per-step inner certificates
        steps: List[LfpStep] = []
        current = Relation.empty(node.value_arity)
        previous_finals: Optional[Tuple[Relation, ...]] = None
        while True:
            self._count_step(len(steps), current)
            inner_env = dict(env)
            inner_env[node.name] = current
            children = []
            for child_index in node.children:
                child = self.aq.nodes[child_index]
                child_cert = self.extract(child, dict(inner_env))
                inner_env[child.name] = child_cert.value
                children.append(child_cert)
            after = apply_operator(
                self._evaluator, node.body, inner_env, node.columns, node.name
            )
            if after == current:
                break
            finals = tuple(c.value for c in children)
            if previous_finals is not None and finals == previous_finals:
                step_children: Optional[Tuple[Cert, ...]] = None
            else:
                step_children = tuple(children)
            previous_finals = finals
            steps.append(LfpStep(after, step_children))
            current = after
        return Cert(node.index, current, steps=tuple(steps))

    def answer_with_certificate(
        self, output_vars: Sequence[str]
    ) -> Tuple[Relation, FixpointCertificate]:
        top_certs = []
        state: Env = {}
        for index in self.aq.top:
            node = self.aq.nodes[index]
            cert = self.extract(node, {})
            state[node.name] = cert.value
            top_certs.append(cert)
        relation = self._evaluator.answer(
            self.aq.skeleton, output_vars, rel_env=state
        )
        return relation, FixpointCertificate(self.aq, tuple(top_certs))


def alternation_answer_with_trace(
    formula: Formula,
    db: Database,
    output_vars: Sequence[str],
    k_limit: Optional[int] = None,
    stats: Optional[EvalStats] = None,
    require_positive: bool = True,
    guard: GuardLike = NULL_GUARD,
) -> Tuple[Relation, FixpointCertificate]:
    """Evaluate an FP query from below, returning the certificate too.

    ``k_limit`` bounds the query's variable width like the other
    strategies; ``guard`` is charged one iteration per Kleene step.
    """
    stats = stats if stats is not None else EvalStats()
    if require_positive:
        check_positivity(formula)
    check_variable_bound(formula, k_limit)
    aq = abstract_query(formula)
    evaluator = AlternationEvaluator(aq, db, stats, guard)
    return evaluator.answer_with_certificate(output_vars)


def alternation_answer(
    formula: Formula,
    db: Database,
    output_vars: Sequence[str],
    k_limit: Optional[int] = None,
    stats: Optional[EvalStats] = None,
    require_positive: bool = True,
    guard: GuardLike = NULL_GUARD,
) -> Relation:
    """Evaluate an FP query by the Theorem 3.5 from-below method."""
    relation, _ = alternation_answer_with_trace(
        formula,
        db,
        output_vars,
        k_limit=k_limit,
        stats=stats,
        require_positive=require_positive,
        guard=guard,
    )
    return relation
