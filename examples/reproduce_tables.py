#!/usr/bin/env python
"""Print the paper's Tables 1-3 with this library's evidence, in miniature.

The full regeneration is one registered experiment per row (run
``python -m repro perf record <id>``, ids in DESIGN.md §4); this example
prints the three tables with their claims and witnesses, then runs one
*small* live probe per Table 2 row so the mapping is concrete.

Run:  python examples/reproduce_tables.py
"""

from repro import Database, EvalOptions, FixpointStrategy, evaluate
from repro.complexity import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    TABLE3_ROWS,
    render_table,
)
from repro.core.certificates import extract_membership, verify_membership
from repro.core.naive_eval import naive_answer
from repro.logic.parser import parse_formula
from repro.workloads.graphs import labeled_graph, random_graph


def live_probes() -> None:
    db = labeled_graph(random_graph(5, 0.4, seed=9), {"P": [0, 3]})
    print("\nlive probes (n = 5 random graph)")
    print("-" * 34)

    # FO^k row: bounded intermediates
    fo = parse_formula("exists y. (E(x, y) & exists x. (E(y, x) & P(x)))")
    r = evaluate(fo, db, ("x",))
    print(
        f"FO^3 : answer {sorted(t[0] for t in r.relation)}, "
        f"max intermediate arity {r.stats.max_intermediate_arity} "
        f"(≤ k = 3) ✓"
    )

    # FP^k row: evaluate + certify + verify
    fp = parse_formula("[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)")
    answer = naive_answer(fp, db, ("u",))
    member = next(iter(sorted(answer.tuples)))
    cert = extract_membership(fp, db, ("u",), member)
    assert cert is not None and verify_membership(cert, fp, db)
    print(
        f"FP^3 : membership of {member} certified with "
        f"{cert.certificate.total_guessed_tuples()} guessed tuples, "
        f"verified in poly time ✓"
    )

    # ESO^k row: grounded size
    eso = parse_formula(
        "exists2 R/1. forall x. forall y. "
        "(~E(x, y) | (R(x) & ~R(y)) | (~R(x) & R(y)))"
    )
    r = evaluate(eso, db, ())
    print(
        f"ESO^2: 2-colorable = {r.as_bool()}, grounded to "
        f"{r.stats.sat_variables} SAT vars (poly in |B|+|e|) ✓"
    )

    # PFP^k row: live space vs iterations
    pfp = parse_formula("[pfp X(x). ~X(x)](u)")
    r = evaluate(pfp, db, ("u",))
    print(
        f"PFP^1: oscillator → empty; peak live tuples "
        f"{r.space.peak_live_tuples} (≤ n^k) over "
        f"{r.space.total_iterations} iterations ✓"
    )


def main() -> None:
    print(render_table("Table 1 — complexity of query evaluation", TABLE1_ROWS))
    print()
    print(
        render_table(
            "Table 2 — combined complexity of bounded-variable queries",
            TABLE2_ROWS,
        )
    )
    print()
    print(
        render_table(
            "Table 3 — expression complexity of bounded-variable queries",
            TABLE3_ROWS,
        )
    )
    live_probes()
    print(
        "\nfull regeneration: python -m repro perf record <id>, one id "
        "per row (see EXPERIMENTS.md)"
    )


if __name__ == "__main__":
    main()
