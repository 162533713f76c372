"""The paper's Tables 1-3 as data, plus a renderer.

Each row records the paper's claimed complexity together with the
library component whose measured behaviour witnesses the claim's *shape*
(the registered ``repro perf`` experiments of
:mod:`repro.perf.experiments` produce the measurements; see
EXPERIMENTS.md for the recorded outcomes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class TableRow:
    """One row of a complexity table."""

    language: str
    columns: Tuple[Tuple[str, str], ...]   # (column name, complexity claim)
    witness: str                           # library component / experiment id


TABLE1_ROWS: Tuple[TableRow, ...] = (
    TableRow(
        "FO",
        (
            ("data", "AC0"),
            ("expression", "PSPACE-complete"),
            ("combined", "PSPACE-complete"),
        ),
        "experiment T1 (chain joins: cost exponential in width)",
    ),
    TableRow(
        "FP",
        (
            ("data", "PTIME-complete"),
            ("expression", "EXPTIME-complete"),
            ("combined", "EXPTIME-complete"),
        ),
        "experiment F3 (naive strategy: n^{k·l} iterations)",
    ),
    TableRow(
        "ESO",
        (
            ("data", "NP-complete"),
            ("expression", "NEXPTIME-complete"),
            ("combined", "NEXPTIME-complete"),
        ),
        "experiment F6 (grounding without Lemma 3.6: exponential CNF)",
    ),
    TableRow(
        "PFP",
        (
            ("data", "PSPACE-complete"),
            ("expression", "EXPSPACE-complete"),
            ("combined", "EXPSPACE-complete"),
        ),
        "repro.core.pfp_eval (unbounded arity ⇒ exponential live state)",
    ),
)

TABLE2_ROWS: Tuple[TableRow, ...] = (
    TableRow(
        "FO",
        (
            ("data complexity of FO", "AC0"),
            ("combined complexity of FO^k", "PTIME-complete"),
        ),
        "Prop 3.1: repro.core.fo_eval + Prop 3.2: repro.reductions.path_systems "
        "(experiments T2-FO, F4)",
    ),
    TableRow(
        "FP",
        (
            ("data complexity of FP", "PTIME-complete"),
            ("combined complexity of FP^k", "NP ∩ co-NP"),
        ),
        "Thm 3.5: repro.core.alternation + repro.core.certificates "
        "(experiments T2-FP-CERT, T2-FP)",
    ),
    TableRow(
        "ESO",
        (
            ("data complexity of ESO", "NP-complete"),
            ("combined complexity of ESO^k", "NP-complete"),
        ),
        "Lemma 3.6 + Cor 3.7: repro.core.eso_rewrite / eso_eval "
        "(experiment T2-ESO)",
    ),
    TableRow(
        "PFP",
        (
            ("data complexity of PFP", "PSPACE-complete"),
            ("combined complexity of PFP^k", "PSPACE-complete"),
        ),
        "Thm 3.8: repro.core.pfp_eval (experiment T2-PFP)",
    ),
)

TABLE3_ROWS: Tuple[TableRow, ...] = (
    TableRow(
        "FO",
        (
            ("combined complexity of FO^k", "PTIME-complete"),
            ("expression complexity of FO^k", "ALOGTIME"),
        ),
        "Lemma 4.2 + Thm 4.4: repro.grammar (experiment T3-FO)",
    ),
    TableRow(
        "FP",
        (
            ("combined complexity of FP^k", "NP ∩ co-NP"),
            ("expression complexity of FP^k", "NP ∩ co-NP"),
        ),
        "Thm 3.5 applied with fixed B (experiment T3-FP)",
    ),
    TableRow(
        "ESO",
        (
            ("combined complexity of ESO^k", "NP-complete"),
            ("expression complexity of ESO^k", "NP-complete"),
        ),
        "Thm 4.5: repro.reductions.sat_to_eso (experiment T3-ESO)",
    ),
    TableRow(
        "PFP",
        (
            ("combined complexity of PFP^k", "PSPACE-complete"),
            ("expression complexity of PFP^k", "PSPACE-complete"),
        ),
        "Thm 4.6: repro.reductions.qbf_to_pfp (experiment T3-PFP)",
    ),
)


def render_table(
    title: str, rows: Sequence[TableRow], with_witness: bool = True
) -> str:
    """Plain-text rendering of one table."""
    lines: List[str] = [title, "=" * len(title)]
    for row in rows:
        claims = "; ".join(f"{name}: {claim}" for name, claim in row.columns)
        lines.append(f"{row.language:5s} | {claims}")
        if with_witness:
            lines.append(f"      witnessed by {row.witness}")
    return "\n".join(lines)
