"""Polynomial-time certificate verification (Lemmas 3.3/3.4, Theorem 3.5).

Theorem 3.5 puts the combined complexity of FP^k in NP ∩ co-NP.  The NP
half means: membership ``t ∈ Q_φ(B)`` has a polynomial-size certificate
checkable in polynomial time.  The certificate structure
(:class:`~repro.core.alternation.FixpointCertificate`) follows the
paper's proof; this module is its verifier.  Per node the verifier checks:

* **GFP node** (Lemma 3.3): the guessed ``value`` satisfies
  ``value ⊆ Φ(value)``, where ``Φ`` interprets the immediate inner
  fixpoints by their certified finals — certified *under the guess* —
  and every enclosing fixpoint by the ambient environment.  Since all
  recursion atoms occur positively (NNF + the positivity requirement of
  Section 2.2), using under-approximations for the inner parts yields an
  operator ``f' ⊑ f``, exactly the lemma's hypothesis.

* **LFP node** (Lemma 3.4): the chain starts at ``∅``, grows monotonically,
  and each link satisfies ``Q_i ⊆ Φ(Q_{i-1})`` with the step's inner
  certificates (or inherited ones — sound by monotonicity, because the
  environment only grew along the chain).

* finally, the claimed answer tuple must satisfy the abstracted query
  skeleton under the certified top-level values.

Every check is a single bounded-FO evaluation — polynomial time.  A
verified certificate soundly establishes membership (each certified value
is below the true nested value, by structural induction with
Tarski-Knaster at the GFP steps and Kleene at the LFP steps);
completeness holds because extraction produces a verifying certificate
for every true member.

The co-NP half is the paper's closing remark of Section 3.2:
``t ∉ φ(B)`` iff ``t ∈ (¬φ)(B)``, and ``¬φ`` normalizes to an FP^k query
with the same variable bound (NNF dualizes the fixpoints), so
non-membership is certified by a membership certificate for the negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.database.database import Database
from repro.database.relation import Relation
from repro.errors import CertificateError
from repro.core.abstraction import AbstractFixpoint, abstract_query
from repro.core.alternation import (
    Cert,
    FixpointCertificate,
    alternation_answer_with_trace,
)
from repro.core.fo_eval import BoundedEvaluator
from repro.core.fp_eval import apply_operator
from repro.core.interp import EvalStats
from repro.logic.syntax import Formula, Not
from repro.logic.variables import free_variables

Row = Tuple[object, ...]


@dataclass(frozen=True)
class MembershipCertificate:
    """An NP certificate for ``row ∈ Q_(output_vars)formula(B)``."""

    output_vars: Tuple[str, ...]
    row: Row
    certificate: FixpointCertificate


def extract_membership(
    formula: Formula,
    db: Database,
    output_vars: Sequence[str],
    row: Row,
    stats: Optional[EvalStats] = None,
) -> Optional[MembershipCertificate]:
    """Produce a certificate for ``row``, or ``None`` if it is not a member.

    This is the deterministic stand-in for the paper's nondeterministic
    guessing: the Theorem 3.5 evaluator computes the approximations and
    their growth history *is* the certificate.  (Extraction may take more
    than polynomial time — a polynomial-time extractor would put FP^k in
    PTIME, which the paper leaves open — but verification never does.)
    """
    answer, certificate = alternation_answer_with_trace(
        formula, db, output_vars, stats=stats
    )
    if tuple(row) not in answer:
        return None
    return MembershipCertificate(tuple(output_vars), tuple(row), certificate)


def extract_non_membership(
    formula: Formula,
    db: Database,
    output_vars: Sequence[str],
    row: Row,
    stats: Optional[EvalStats] = None,
) -> Optional[MembershipCertificate]:
    """Certificate that ``row`` is *not* in the answer (the co-NP half)."""
    return extract_membership(Not(formula), db, output_vars, row, stats=stats)


class _Verifier:
    def __init__(self, certificate: FixpointCertificate, db: Database, stats: EvalStats):
        self._aq = certificate.query
        self._db = db
        self._evaluator = BoundedEvaluator(db, fixpoint_solver=None, stats=stats)

    def verify_cert(self, cert: Cert, env: Dict[str, Relation]) -> None:
        node = self._node(cert.node_index)
        if cert.value.arity != node.value_arity:
            raise CertificateError(
                f"{node.name}: certified value has arity {cert.value.arity}, "
                f"expected {node.value_arity}"
            )
        if node.kind == "gfp":
            self._verify_gfp(cert, node, env)
        else:
            self._verify_lfp(cert, node, env)

    def _node(self, index: int) -> AbstractFixpoint:
        if not 0 <= index < len(self._aq.nodes):
            raise CertificateError(f"node index {index} out of range")
        return self._aq.nodes[index]

    def _verify_children(
        self,
        node: AbstractFixpoint,
        children: Tuple[Cert, ...],
        env: Dict[str, Relation],
    ) -> Dict[str, Relation]:
        """Verify inner certificates; returns env extended with their finals."""
        if tuple(c.node_index for c in children) != node.children:
            raise CertificateError(
                f"{node.name}: inner certificates do not match the node's "
                f"immediate nested fixpoints"
            )
        extended = dict(env)
        for child_cert in children:
            self.verify_cert(child_cert, dict(extended))
            child = self._node(child_cert.node_index)
            extended[child.name] = child_cert.value
        return extended

    def _verify_gfp(
        self, cert: Cert, node: AbstractFixpoint, env: Dict[str, Relation]
    ) -> None:
        if cert.steps:
            raise CertificateError(f"{node.name}: gfp certificate carries a chain")
        inner_env = dict(env)
        inner_env[node.name] = cert.value
        inner_env = self._verify_children(node, cert.children, inner_env)
        bound = apply_operator(
            self._evaluator, node.body, inner_env, node.columns, node.name
        )
        if not cert.value.issubset(bound):
            raise CertificateError(
                f"{node.name}: Lemma 3.3 post-fixpoint condition violated"
            )

    def _verify_lfp(
        self, cert: Cert, node: AbstractFixpoint, env: Dict[str, Relation]
    ) -> None:
        if cert.children:
            raise CertificateError(
                f"{node.name}: lfp certificate carries gfp-style children"
            )
        previous = Relation.empty(node.value_arity)
        inherited: Optional[Tuple[Cert, ...]] = None
        for position, step in enumerate(cert.steps):
            if step.value.arity != node.value_arity:
                raise CertificateError(
                    f"{node.name} step {position}: value arity mismatch"
                )
            if not previous.issubset(step.value):
                raise CertificateError(
                    f"{node.name} step {position}: Lemma 3.4 chain is not "
                    f"increasing"
                )
            children = step.children
            if children is None:
                if inherited is None:
                    raise CertificateError(
                        f"{node.name} step {position}: nothing to inherit"
                    )
                # Inherited children were verified under a smaller self
                # value; positivity makes their conditions hold a fortiori,
                # so re-verification is unnecessary (and would still pass).
                children = inherited
                inner_env = dict(env)
                inner_env[node.name] = previous
                for child_cert in children:
                    child = self._node(child_cert.node_index)
                    inner_env[child.name] = child_cert.value
            else:
                inner_env = dict(env)
                inner_env[node.name] = previous
                inner_env = self._verify_children(node, children, inner_env)
                inherited = children
            bound = apply_operator(
                self._evaluator, node.body, inner_env, node.columns, node.name
            )
            if not step.value.issubset(bound):
                raise CertificateError(
                    f"{node.name} step {position}: Lemma 3.4 chain link "
                    f"violated"
                )
            previous = step.value
        if cert.value != previous:
            raise CertificateError(
                f"{node.name}: certified value is not the end of its chain"
            )


def verify_membership(
    certificate: MembershipCertificate,
    formula: Formula,
    db: Database,
    stats: Optional[EvalStats] = None,
) -> bool:
    """Check a certificate in polynomial time.

    Raises :class:`~repro.errors.CertificateError` describing the first
    violated condition; returns ``True`` when every condition holds.  The
    verifier re-derives the abstraction from ``formula`` itself, so a
    certificate cannot smuggle in a different query.
    """
    stats = stats if stats is not None else EvalStats()
    expected = abstract_query(formula)
    aq = certificate.certificate.query
    if expected != aq:
        raise CertificateError(
            "certificate abstraction does not match the query"
        )
    verifier = _Verifier(certificate.certificate, db, stats)
    if tuple(c.node_index for c in certificate.certificate.top_certs) != aq.top:
        raise CertificateError(
            "top-level certificates do not match the query's outermost "
            "fixpoints"
        )
    state: Dict[str, Relation] = {}
    for cert in certificate.certificate.top_certs:
        verifier.verify_cert(cert, dict(state))
        state[aq.nodes[cert.node_index].name] = cert.value
    out = certificate.output_vars
    if len(certificate.row) != len(out):
        raise CertificateError("certificate row does not match output arity")
    missing = free_variables(aq.skeleton) - set(out)
    if missing:
        raise CertificateError(
            f"output variables do not cover free variables {sorted(missing)}"
        )
    evaluator = BoundedEvaluator(db, fixpoint_solver=None, stats=stats)
    table = evaluator.evaluate(aq.skeleton, rel_env=state)
    table = table.cylindrify(out, db.domain)
    answer = table.to_relation(out)
    if tuple(certificate.row) not in answer:
        raise CertificateError(
            "claimed tuple is not derivable from the certified "
            "approximations"
        )
    return True


def verify_non_membership(
    certificate: MembershipCertificate,
    formula: Formula,
    db: Database,
    stats: Optional[EvalStats] = None,
) -> bool:
    """Verify a non-membership certificate (a certificate for ``¬formula``)."""
    return verify_membership(certificate, Not(formula), db, stats=stats)


def certificate_size(certificate: MembershipCertificate) -> int:
    """Total tuples across all guessed relations — poly in ``|B| + |e|``."""
    return certificate.certificate.total_guessed_tuples()
