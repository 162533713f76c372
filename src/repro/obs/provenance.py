"""Answer provenance: witness trees and witness checking.

:func:`explain_membership` answers "why is tuple ``t`` an answer" with a
:class:`Witness`: a tree through the connectives recording the chosen
disjunct of each ``∨``, the chosen value of each ``∃``, the database
fact at each atom, and — for fixpoint nodes — the first-entry stage
plus a *derivation chain* (the body witness at the previous stage,
whose recursion-variable atoms recurse to strictly earlier stages,
bottoming out at the database).  Witnesses are built on the reference
semantics of :mod:`repro.core.naive_eval`, the oracle the differential
suites judge every engine by: fixpoint nodes cite its
:func:`~repro.core.naive_eval.kleene_stages`, and terms are evaluated
by it.  :func:`check_witness` replays a witness against the same
oracle, and ``repro explain --why`` compares its claim with the
engine's answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.naive_eval import _term_value, holds, kleene_stages
from repro.database.database import Database
from repro.database.relation import Relation
from repro.errors import EvaluationError, ReproError
from repro.logic.printer import format_formula
from repro.logic.substitution import substitute
from repro.logic.syntax import (
    And,
    Const,
    Equals,
    Exists,
    Forall,
    Formula,
    IFP,
    LFP,
    Not,
    Or,
    PFP,
    RelAtom,
    SOExists,
    Truth,
    Var,
    _FixpointBase,
)
from repro.logic.variables import free_variables


class ProvenanceError(ReproError):
    """A witness could not be built or failed structural validation."""


# ---------------------------------------------------------------------------
# Reference stages (witness side)
# ---------------------------------------------------------------------------

Assignment = Dict[str, object]
RelEnv = Dict[str, Relation]
Stages = Tuple[List[Relation], bool]
#: the recursion variables in scope of a derivation body, by name: the
#: fixpoint node, its stages up to the one the body is evaluated at, and
#: the relation environment and scope of the node itself — a derivation
#: cited from deeper inside the body is rebuilt in those, so bindings
#: made in between (an inner fixpoint reusing an outer name) do not leak
Scope = Dict[str, tuple]


def _close_fixpoint(
    node: _FixpointBase, assignment: Assignment
) -> _FixpointBase:
    """Substitute the node's free individual variables to constants."""
    bound = {v.name for v in node.bound_vars}
    params = free_variables(node.body) - bound
    if not params:
        return node
    mapping = {
        name: Const(_term_value(Var(name), assignment)) for name in params
    }
    return type(node)(
        node.rel, node.bound_vars, substitute(node.body, mapping), node.args
    )


def _closed_stages(
    memo: Dict[tuple, Stages],
    node: _FixpointBase,
    db: Database,
    assignment: Assignment,
    rel_env: RelEnv,
) -> Tuple[_FixpointBase, Stages]:
    """The node closed under ``assignment``, and its oracle stages.

    A witness visits one fixpoint node under many assignments, so the
    ``(stages, diverged)`` pair of
    :func:`~repro.core.naive_eval.kleene_stages` is memoized per closed
    node (a frozen dataclass, hence a structural key) and relation
    environment.
    """
    closed = _close_fixpoint(node, assignment)
    key = (closed, tuple(sorted(rel_env.items())))
    found = memo.get(key)
    if found is None:
        found = memo[key] = kleene_stages(closed, db, rel_env=rel_env)
    return closed, found


# ---------------------------------------------------------------------------
# Witness trees
# ---------------------------------------------------------------------------


@dataclass
class Witness:
    """One node of a provenance tree.

    ``kind`` names the connective (``atom``, ``and``, ``or``,
    ``exists``, ``fixpoint``, ``derivation``, ...); ``detail`` carries
    the kind-specific payload (chosen value, first-entry stage, the
    cited database fact); ``holds`` is the claim — witnesses also
    explain *failures*, e.g. why no disjunct of an ``∨`` held.
    """

    kind: str
    formula: Optional[Formula]
    assignment: Dict[str, object]
    holds: bool
    detail: Dict[str, object] = field(default_factory=dict)
    children: Tuple["Witness", ...] = ()

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def format(self, indent: int = 0) -> str:
        """A readable indented rendering of the witness tree."""
        pad = "  " * indent
        mark = "+" if self.holds else "-"
        bits = []
        if self.formula is not None:
            bits.append(_clip(format_formula(self.formula)))
        for key, value in self.detail.items():
            bits.append(f"{key}={value!r}")
        line = f"{pad}[{mark}] {self.kind}: {', '.join(bits)}"
        parts = [line]
        for child in self.children:
            parts.append(child.format(indent + 1))
        return "\n".join(parts)

    def __repr__(self) -> str:
        return (
            f"Witness({self.kind!r}, holds={self.holds}, "
            f"children={len(self.children)})"
        )


def _clip(text: str, limit: int = 60) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


class _WitnessBuilder:
    """Builds witness trees by following the oracle's recursion, recording
    each choice it makes."""

    def __init__(self, db: Database):
        self.db = db
        self.memo: Dict[tuple, Stages] = {}

    def explain(
        self,
        formula: Formula,
        assignment: Assignment,
        rel_env: RelEnv,
        fixpoints: Scope,
    ) -> Witness:
        db = self.db
        snap = dict(assignment)
        if isinstance(formula, RelAtom):
            values = tuple(_term_value(t, assignment) for t in formula.terms)
            if formula.name in fixpoints:
                return self._explain_stage_atom(
                    formula, values, snap, fixpoints
                )
            relation = rel_env.get(formula.name)
            if relation is None:
                relation = db.relation(formula.name)
            return Witness(
                "atom",
                formula,
                snap,
                values in relation,
                {"rel": formula.name, "tuple": values},
            )
        if isinstance(formula, Equals):
            left = _term_value(formula.left, assignment)
            right = _term_value(formula.right, assignment)
            return Witness(
                "equals",
                formula,
                snap,
                left == right,
                {"left": left, "right": right},
            )
        if isinstance(formula, Truth):
            return Witness("truth", formula, snap, formula.value)
        if isinstance(formula, Not):
            child = self.explain(formula.sub, assignment, rel_env, fixpoints)
            return Witness(
                "not", formula, snap, not child.holds, {}, (child,)
            )
        if isinstance(formula, And):
            children = []
            holds = True
            for sub in formula.subs:
                child = self.explain(sub, assignment, rel_env, fixpoints)
                children.append(child)
                if not child.holds:
                    # one failing conjunct refutes the conjunction
                    holds = False
                    break
            return Witness("and", formula, snap, holds, {}, tuple(children))
        if isinstance(formula, Or):
            children = []
            for sub in formula.subs:
                child = self.explain(sub, assignment, rel_env, fixpoints)
                children.append(child)
                if child.holds:
                    return Witness(
                        "or",
                        formula,
                        snap,
                        True,
                        {"chosen": len(children) - 1},
                        (child,),
                    )
            return Witness("or", formula, snap, False, {}, tuple(children))
        if isinstance(formula, (Exists, Forall)):
            return self._explain_quantifier(
                formula, snap, rel_env, fixpoints
            )
        if isinstance(formula, _FixpointBase):
            closed, (stages, diverged) = _closed_stages(
                self.memo, formula, db, assignment, rel_env
            )
            values = tuple(_term_value(t, assignment) for t in formula.args)
            holds = not diverged and values in stages[-1]
            detail: Dict[str, object] = {
                "rel": formula.rel,
                "tuple": values,
                "kind": type(formula).__name__.lower(),
                "stages": len(stages) - 1,
            }
            children: Tuple[Witness, ...] = ()
            if isinstance(formula, PFP):
                detail["diverged"] = diverged
                detail["trajectory"] = tuple(
                    i for i, stage in enumerate(stages) if values in stage
                )
            elif holds and isinstance(formula, (LFP, IFP)):
                children = (
                    self._explain_derivation(
                        closed, values, stages, rel_env, fixpoints
                    ),
                )
                detail["stage"] = children[0].detail["stage"]
            return Witness("fixpoint", formula, snap, holds, detail, children)
        raise ProvenanceError(f"unknown formula node {formula!r}")

    def _explain_quantifier(
        self, formula, assignment, rel_env, fixpoints
    ) -> Witness:
        existential = isinstance(formula, Exists)
        kind = "exists" if existential else "forall"
        children = []
        for value in self.db.domain:
            child = self.explain(
                formula.sub,
                {**assignment, formula.var.name: value},
                rel_env,
                fixpoints,
            )
            if child.holds == existential:
                # a holding ∃ value or a failing ∀ value decides the claim
                key = "value" if existential else "counterexample"
                return Witness(
                    kind,
                    formula,
                    assignment,
                    existential,
                    {key: value},
                    (child,),
                )
            children.append(child)
        # no value decided: the children cover every domain value
        return Witness(
            kind, formula, assignment, not existential, {}, tuple(children)
        )

    def _explain_stage_atom(self, formula, values, snap, fixpoints) -> Witness:
        """An atom on a recursion variable inside a derivation chain.

        A *positive* occurrence recurses to the tuple's own derivation
        at its (strictly earlier) first-entry stage; a negative one —
        possible in IFP bodies — records the stage-absence claim, which
        the checker verifies against recomputed stages.
        """
        node, stages, rel_env, outer = fixpoints[formula.name]
        stage_bound = len(stages) - 1  # derive against stages[stage_bound]
        present = values in stages[stage_bound]
        if not present:
            return Witness(
                "stage-absent",
                formula,
                snap,
                False,
                {"rel": formula.name, "tuple": values, "stage": stage_bound},
            )
        derivation = self._explain_derivation(
            node, values, stages, rel_env, outer, bound=stage_bound
        )
        return Witness(
            "stage-member",
            formula,
            snap,
            True,
            {
                "rel": formula.name,
                "tuple": values,
                "stage": derivation.detail["stage"],
            },
            (derivation,),
        )

    def _explain_derivation(
        self,
        node: _FixpointBase,
        values: tuple,
        stages: List[Relation],
        rel_env: RelEnv,
        fixpoints: Scope,
        bound: Optional[int] = None,
    ) -> Witness:
        """Why ``values`` entered the iteration: the body witness at the
        stage before its first entry, recursion-variable atoms recursing
        to strictly earlier stages (they terminate at stage 0 = ∅)."""
        entry = None
        limit = bound if bound is not None else len(stages) - 1
        for index, stage in enumerate(stages[: limit + 1]):
            if values in stage:
                entry = index
                break
        if entry is None or entry == 0:
            raise ProvenanceError(
                f"tuple {values!r} has no derivation in {node.rel} "
                f"(never entered the iteration)"
            )
        previous = stages[entry - 1]
        order = [v.name for v in node.bound_vars]
        assignment: Assignment = dict(zip(order, values))
        inner_env = dict(rel_env)
        inner_env[node.rel] = previous
        inner_fixpoints = dict(fixpoints)
        inner_fixpoints[node.rel] = (node, stages[:entry], rel_env, fixpoints)
        body = self.explain(
            node.body, assignment, inner_env, inner_fixpoints
        )
        if not body.holds:
            # cannot happen for a first-entry tuple (IFP included: new
            # tuples come from the operator image), so any failure here
            # is a stage-recording inconsistency worth surfacing
            raise ProvenanceError(
                f"stage inconsistency: {values!r} entered {node.rel} at "
                f"stage {entry} but the body witness fails"
            )
        return Witness(
            "derivation",
            node,
            dict(assignment),
            True,
            {"rel": node.rel, "tuple": values, "stage": entry},
            (body,),
        )


def explain_membership(
    formula: Formula, db: Database, assignment: Assignment
) -> Witness:
    """Why ``formula`` holds (or fails) under ``assignment`` on ``db``.

    ``assignment`` must bind every free individual variable; a formula
    with a second-order quantifier anywhere is refused.
    """
    missing = free_variables(formula) - set(assignment)
    if missing:
        raise ProvenanceError(
            f"assignment does not bind free variables {sorted(missing)}"
        )
    if any(isinstance(node, SOExists) for node in formula.walk()):
        raise ProvenanceError(
            "second-order quantifiers have no witness semantics here; "
            "provenance covers FO/FP/PFP formulas"
        )
    return _WitnessBuilder(db).explain(formula, dict(assignment), {}, {})


def explain_answer(
    formula: Formula,
    db: Database,
    output_vars: Sequence[str],
    values: Sequence[object],
) -> Witness:
    """Why tuple ``values`` is (or is not) in the answer of the query."""
    out = tuple(output_vars)
    if len(out) != len(values):
        raise ProvenanceError(
            f"tuple has {len(values)} values for {len(out)} output variables"
        )
    for value in values:
        if value not in db.domain:
            raise ProvenanceError(
                f"value {value!r} is not in the database domain"
            )
    return explain_membership(formula, db, dict(zip(out, values)))


# ---------------------------------------------------------------------------
# Witness checking (replay against the reference semantics)
# ---------------------------------------------------------------------------


def check_witness(witness: Witness, db: Database) -> List[str]:
    """Replay a witness against ``db``; the list of problems (empty = ok).

    Every claim is recomputed on the reference semantics: each atom's,
    equality's and fixpoint's values from its terms under its
    assignment, each atom's truth by :func:`repro.core.naive_eval.holds`
    and each fixpoint's stages by
    :func:`~repro.core.naive_eval.kleene_stages`.  Each child must carry
    its parent's subformula and assignment (a quantifier's child
    rebinding only its variable, a derivation binding its bound
    variables to its tuple), each stage claim must hold at the enclosing
    derivation's previous stage, and each connective's claim must follow
    from its children's.  An empty result means the witness is a sound
    certificate for its root claim.
    """
    checker = _WitnessChecker(db)
    checker.check(witness, {}, {})
    return checker.problems


class _WitnessChecker:
    def __init__(self, db: Database):
        self.db = db
        self.memo: Dict[tuple, Stages] = {}
        self.problems: List[str] = []

    def _flag(self, witness: Witness, message: str) -> None:
        self.problems.append(f"{witness.kind}: {message}")

    def check(self, witness: Witness, env: RelEnv, fixpoints: Scope) -> None:
        handler = getattr(self, f"_check_{witness.kind.replace('-', '_')}", None)
        if handler is None:
            self._flag(witness, "unknown witness kind")
            return
        handler(witness, env, fixpoints)

    def _children(
        self,
        w: Witness,
        env: RelEnv,
        fixpoints: Scope,
        formulas: Iterable[Formula],
        assignments: Iterable[Assignment],
    ) -> None:
        """Check each child against the subformula and the assignment it
        must carry (``formulas`` and ``assignments`` in child order)."""
        count = 0
        for child, formula, assignment in zip(
            w.children, formulas, assignments
        ):
            count += 1
            if child.formula != formula:
                self._flag(child, "formula is not its parent's subformula")
            if child.assignment != assignment:
                self._flag(
                    child,
                    f"assignment {child.assignment!r} is not the "
                    f"{assignment!r} its parent binds",
                )
            self.check(child, env, fixpoints)
        if count != len(w.children):
            self._flag(w, "more children than subformulas")

    def _values(self, w: Witness, terms) -> Optional[tuple]:
        """The terms' values under the witness's assignment, or None
        (flagged) when a variable is unbound."""
        try:
            return tuple(_term_value(t, w.assignment) for t in terms)
        except EvaluationError as exc:
            self._flag(w, str(exc))
            return None

    def _stages(
        self, w: Witness, node: _FixpointBase, env: RelEnv
    ) -> Optional[Tuple[_FixpointBase, Stages]]:
        try:
            return _closed_stages(self.memo, node, self.db, w.assignment, env)
        except ReproError as exc:
            self._flag(w, f"stages not recomputable: {exc}")
            return None

    # -- leaves --------------------------------------------------------

    def _check_atom(
        self, w: Witness, env: RelEnv, fixpoints: Scope
    ) -> Optional[tuple]:
        """Check the cited tuple against the atom's terms and its truth
        on the oracle; the tuple, or None when it cannot be judged."""
        atom = w.formula
        if not isinstance(atom, RelAtom):
            self._flag(w, "atom claim on a non-atom")
            return None
        values = self._values(w, atom.terms)
        if values is None:
            return None
        if (w.detail.get("rel"), w.detail.get("tuple")) != (atom.name, values):
            self._flag(
                w,
                f"cites {w.detail.get('rel')}{w.detail.get('tuple')!r}, "
                f"but its terms name {atom.name}{values!r}",
            )
        try:
            truth = holds(atom, self.db, w.assignment, env)
        except ReproError as exc:
            self._flag(w, str(exc))
            return None
        if truth != w.holds:
            self._flag(
                w, f"{atom.name}{values!r} membership is {truth}, "
                f"witness claims {w.holds}"
            )
        return values

    def _check_equals(self, w: Witness, env: RelEnv, fixpoints: Scope) -> None:
        if not isinstance(w.formula, Equals):
            self._flag(w, "equality claim on a non-equality")
            return
        values = self._values(w, (w.formula.left, w.formula.right))
        if values is None:
            return
        if (w.detail.get("left"), w.detail.get("right")) != values:
            self._flag(
                w,
                f"cites {w.detail.get('left')!r} = {w.detail.get('right')!r}, "
                f"but its terms name {values[0]!r} = {values[1]!r}",
            )
        if (values[0] == values[1]) != w.holds:
            self._flag(w, "equality claim disagrees with its values")

    def _check_truth(self, w: Witness, env: RelEnv, fixpoints: Scope) -> None:
        if not isinstance(w.formula, Truth) or w.formula.value != w.holds:
            self._flag(w, "truth constant claim mismatch")

    # -- connectives ---------------------------------------------------

    def _check_not(self, w: Witness, env: RelEnv, fixpoints: Scope) -> None:
        if not isinstance(w.formula, Not) or len(w.children) != 1:
            self._flag(w, "negation needs exactly one child")
            return
        if w.children[0].holds == w.holds:
            self._flag(w, "negation claim equals its child's")
        self._children(
            w, env, fixpoints, (w.formula.sub,), repeat(w.assignment)
        )

    def _check_and(self, w: Witness, env: RelEnv, fixpoints: Scope) -> None:
        if not isinstance(w.formula, And):
            self._flag(w, "conjunction claim on a non-conjunction")
            return
        subs = w.formula.subs
        if w.holds:
            if len(w.children) != len(subs):
                self._flag(w, "a true conjunction must witness every conjunct")
            if not all(c.holds for c in w.children):
                self._flag(w, "true conjunction with a failing child")
        elif all(c.holds for c in w.children):
            self._flag(w, "false conjunction without a failing child")
        self._children(w, env, fixpoints, subs, repeat(w.assignment))

    def _check_or(self, w: Witness, env: RelEnv, fixpoints: Scope) -> None:
        if not isinstance(w.formula, Or):
            self._flag(w, "disjunction claim on a non-disjunction")
            return
        subs = w.formula.subs
        if w.holds:
            chosen = w.detail.get("chosen")
            if (
                len(w.children) != 1
                or not w.children[0].holds
                or not isinstance(chosen, int)
                or not 0 <= chosen < len(subs)
            ):
                self._flag(w, "a true disjunction needs its chosen disjunct")
                return
            subs = (subs[chosen],)
        else:
            if len(w.children) != len(subs):
                self._flag(w, "a false disjunction must refute every disjunct")
            if any(c.holds for c in w.children):
                self._flag(w, "false disjunction with a holding child")
        self._children(w, env, fixpoints, subs, repeat(w.assignment))

    def _check_exists(self, w: Witness, env: RelEnv, fixpoints: Scope) -> None:
        self._check_quantifier(w, env, fixpoints, Exists, "value")

    def _check_forall(self, w: Witness, env: RelEnv, fixpoints: Scope) -> None:
        self._check_quantifier(w, env, fixpoints, Forall, "counterexample")

    def _check_quantifier(
        self, w: Witness, env: RelEnv, fixpoints: Scope, node_type, key: str
    ) -> None:
        if not isinstance(w.formula, node_type):
            self._flag(w, "quantifier claim on another connective")
            return
        existential = node_type is Exists
        if w.holds == existential:
            # one child decides: a holding ∃ value, a failing ∀ value
            value = w.detail.get(key)
            if (
                len(w.children) != 1
                or w.children[0].holds != existential
                or value not in self.db.domain
            ):
                self._flag(w, f"needs one deciding child at its {key}")
                return
            values: Sequence[object] = (value,)
        else:
            values = self.db.domain.values
            if len(w.children) != len(values):
                self._flag(w, "must cover every domain value")
            if any(c.holds == existential for c in w.children):
                self._flag(w, "a child contradicts the claim")
        name = w.formula.var.name
        self._children(
            w,
            env,
            fixpoints,
            repeat(w.formula.sub),
            ({**w.assignment, name: value} for value in values),
        )

    # -- fixpoints -----------------------------------------------------

    def _check_fixpoint(
        self, w: Witness, env: RelEnv, fixpoints: Scope
    ) -> None:
        node = w.formula
        if not isinstance(node, _FixpointBase):
            self._flag(w, "fixpoint claim on a non-fixpoint node")
            return
        values = self._values(w, node.args)
        found = self._stages(w, node, env)
        if values is None or found is None:
            return
        closed, (stages, diverged) = found
        expected = {
            "rel": node.rel,
            "tuple": values,
            "kind": type(node).__name__.lower(),
            "stages": len(stages) - 1,
        }
        for key, value in expected.items():
            if w.detail.get(key) != value:
                self._flag(
                    w, f"{key}={w.detail.get(key)!r}, recomputed {value!r}"
                )
        member = not diverged and values in stages[-1]
        if member != w.holds:
            self._flag(
                w,
                f"{node.rel}{values!r} limit membership is {member}, "
                f"witness claims {w.holds}",
            )
        if isinstance(node, PFP):
            trajectory = tuple(
                i for i, stage in enumerate(stages) if values in stage
            )
            if tuple(w.detail.get("trajectory", ())) != trajectory:
                self._flag(w, "PFP trajectory disagrees with recomputation")
            if w.detail.get("diverged") != diverged:
                self._flag(w, "PFP divergence disagrees with recomputation")
        elif w.holds and isinstance(node, (LFP, IFP)):
            if len(w.children) != 1:
                self._flag(w, "membership witness needs a derivation child")
                return
            derivation = w.children[0]
            if derivation.detail.get("stage") != w.detail.get("stage"):
                self._flag(w, "stage claim disagrees with its derivation")
            self._derivation(
                derivation,
                closed,
                values,
                stages,
                len(stages) - 1,
                env,
                fixpoints,
            )

    def _check_derivation(
        self, w: Witness, env: RelEnv, fixpoints: Scope
    ) -> None:
        # its stages and environment come from the claim it supports
        self._flag(w, "a derivation must hang under a fixpoint or stage claim")

    def _derivation(
        self,
        w: Witness,
        node: _FixpointBase,
        values: tuple,
        stages: List[Relation],
        ceiling: int,
        env: RelEnv,
        fixpoints: Scope,
    ) -> None:
        """``w`` must derive ``values`` into ``node``'s iteration at their
        first-entry stage, no later than ``ceiling``."""
        if w.kind != "derivation" or w.formula != node or not w.holds:
            self._flag(w, f"is not a holding derivation in {node.rel}")
            return
        if w.detail.get("tuple") != values:
            self._flag(w, f"derives {w.detail.get('tuple')!r}, not {values!r}")
        stage = w.detail.get("stage")
        if not isinstance(stage, int) or not 1 <= stage <= ceiling:
            self._flag(w, f"derivation stage {stage!r} outside 1..{ceiling}")
            return
        if values not in stages[stage]:
            self._flag(w, f"{values!r} not in stage {stage}")
        if values in stages[stage - 1]:
            self._flag(w, f"{values!r} already present before stage {stage}")
        bound = dict(zip((v.name for v in node.bound_vars), values))
        if w.assignment != bound:
            self._flag(
                w, f"assignment {w.assignment!r} does not bind {bound!r}"
            )
        if len(w.children) != 1:
            self._flag(w, "derivation needs exactly one body witness")
            return
        if not w.children[0].holds:
            self._flag(w, "derivation cites a failing body witness")
        self._children(
            w,
            {**env, node.rel: stages[stage - 1]},
            {**fixpoints, node.rel: (node, stages[:stage], env, fixpoints)},
            (node.body,),
            (bound,),
        )

    def _stage_atom(
        self, w: Witness, env: RelEnv, fixpoints: Scope, member: bool
    ) -> Optional[tuple]:
        """A recursion-variable atom in a derivation body: an atom whose
        relation ``env`` binds to the enclosing derivation's previous
        stage."""
        atom = w.formula
        if not isinstance(atom, RelAtom) or atom.name not in fixpoints:
            self._flag(w, "stage claim outside a derivation of its relation")
            return None
        if w.holds != member:
            self._flag(w, f"claim must be {member}")
        return self._check_atom(w, env, fixpoints)

    def _check_stage_member(
        self, w: Witness, env: RelEnv, fixpoints: Scope
    ) -> None:
        values = self._stage_atom(w, env, fixpoints, True)
        if values is None:
            return
        if len(w.children) != 1:
            self._flag(w, "stage membership needs a derivation child")
            return
        derivation = w.children[0]
        if derivation.detail.get("stage") != w.detail.get("stage"):
            self._flag(w, "stage claim disagrees with its derivation")
        node, stages, outer_env, outer = fixpoints[w.formula.name]
        self._derivation(
            derivation, node, values, stages, len(stages) - 1, outer_env, outer
        )

    def _check_stage_absent(
        self, w: Witness, env: RelEnv, fixpoints: Scope
    ) -> None:
        if self._stage_atom(w, env, fixpoints, False) is None:
            return
        previous = len(fixpoints[w.formula.name][1]) - 1
        if w.detail.get("stage") != previous:
            self._flag(
                w, f"cites stage {w.detail.get('stage')!r}, not {previous}"
            )


__all__ = [
    "ProvenanceError",
    "Witness",
    "check_witness",
    "explain_answer",
    "explain_membership",
]
