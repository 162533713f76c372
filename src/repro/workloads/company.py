"""The paper's introduction example: employees, managers, secretaries.

Schema (Section 1): ``EMP(Emp, Dept)``, ``MGR(Dept, Mgr)``,
``SCY(Mgr, Scy)``, ``SAL(Emp, Sal)`` — plus an explicit strict order
``LT(Sal, Sal)`` on salary values so "earns less" is expressible.

Query: *find employees who earn less money than their manager's
secretary*.  The naive form uses six distinct variables (one per role);
the bounded form reuses variables and needs only three — its largest
intermediate relation has arity 3 instead of the naive plan's 10-ary
cross product.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.database.database import Database
from repro.database.domain import Domain
from repro.database.relation import Relation
from repro.core.engine import Query
from repro.logic.builders import and_, atom, exists


def company_database(
    num_employees: int = 12,
    num_departments: int = 4,
    num_salary_levels: int = 8,
    seed: int = 0,
) -> Database:
    """A random company instance.

    Domain layout (all integers): employees ``0 .. E-1``; departments
    ``E .. E+D-1``; secretaries are employees; managers are employees;
    salary levels ``E+D .. E+D+L-1`` ordered by ``LT``.
    """
    rng = random.Random(seed)
    employees = list(range(num_employees))
    departments = list(range(num_employees, num_employees + num_departments))
    salary_base = num_employees + num_departments
    salaries = list(range(salary_base, salary_base + num_salary_levels))

    emp_rows: List[Tuple[int, int]] = [
        (e, rng.choice(departments)) for e in employees
    ]
    managers: Dict[int, int] = {
        d: rng.choice(employees) for d in departments
    }
    mgr_rows = [(d, m) for d, m in managers.items()]
    scy_rows = [
        (m, rng.choice(employees)) for m in set(managers.values())
    ]
    sal_rows = [(e, rng.choice(salaries)) for e in employees]
    lt_rows = [
        (a, b) for a in salaries for b in salaries if a < b
    ]
    domain = Domain(employees + departments + salaries)
    return Database(
        domain,
        {
            "EMP": Relation(2, emp_rows),
            "MGR": Relation(2, mgr_rows),
            "SCY": Relation(2, scy_rows),
            "SAL": Relation(2, sal_rows),
            "LT": Relation(2, lt_rows),
        },
    )


def earns_less_naive() -> Query:
    """The six-variable form: one fresh variable per role.

    Mirrors the "naive approach" of Section 1 — a query optimizer that
    evaluates it subformula-by-subformula carries six live variables.
    """
    body = exists(
        ["d", "m", "s", "t", "u"],
        and_(
            atom("EMP", "e", "d"),
            atom("MGR", "d", "m"),
            atom("SCY", "m", "s"),
            atom("SAL", "s", "t"),
            atom("SAL", "e", "u"),
            atom("LT", "u", "t"),
        ),
    )
    return Query(body, output_vars=("e",), name="earns-less-naive")


def earns_less_bounded() -> Query:
    """The three-variable form, reusing ``a`` and ``b`` along the chain.

    ``a`` is successively the department, the secretary, and the
    employee's salary; ``b`` is the manager and the secretary's salary —
    the variable-reuse trick of Section 2.2 applied to the intro example.
    """
    body = exists(
        "a",
        and_(
            atom("EMP", "e", "a"),
            exists(
                "b",
                and_(
                    atom("MGR", "a", "b"),
                    exists(
                        "a",
                        and_(
                            atom("SCY", "b", "a"),
                            exists(
                                "b",
                                and_(
                                    atom("SAL", "a", "b"),
                                    exists(
                                        "a",
                                        and_(
                                            atom("SAL", "e", "a"),
                                            atom("LT", "a", "b"),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    )
    return Query(body, output_vars=("e",), name="earns-less-fo3")


def earns_less_naive_algebra():
    """The cross-product-first algebra plan the introduction warns about.

    Returns a :class:`repro.algebra.ops.PlanNode` whose largest
    intermediate is the 10-ary product EMP × MGR × SCY × SAL × SAL
    (selected and projected afterwards), for comparison against the
    bounded-variable join plan.
    """
    from repro.algebra.ops import (
        CrossProduct,
        Project,
        RelationScan,
        Select,
        column_eq,
    )

    product = CrossProduct(
        (
            RelationScan("EMP", 2),    # columns 0: emp, 1: dept
            RelationScan("MGR", 2),    # columns 2: dept, 3: mgr
            RelationScan("SCY", 2),    # columns 4: mgr, 5: scy
            RelationScan("SAL", 2),    # columns 6: scy, 7: scy-salary
            RelationScan("SAL", 2),    # columns 8: emp, 9: emp-salary
            RelationScan("LT", 2),     # columns 10: lo, 11: hi
        )
    )
    selected = Select(
        product,
        (
            column_eq(1, 2),    # EMP.dept = MGR.dept
            column_eq(3, 4),    # MGR.mgr = SCY.mgr
            column_eq(5, 6),    # SCY.scy = SAL.emp (secretary's row)
            column_eq(0, 8),    # EMP.emp = SAL.emp (employee's row)
            column_eq(9, 10),   # employee salary = LT.lo
            column_eq(7, 11),   # secretary salary = LT.hi
        ),
    )
    return Project(selected, (0,))


def earns_less_bounded_algebra():
    """The join/project plan with intermediates of arity at most 3.

    Follows the introduction's "better approach": join EMP with MGR and
    project to EMP-MGR, join with SCY to EMP-SCY, then join with the two
    SAL rows and LT, projecting eagerly.
    """
    from repro.algebra.ops import Join, Project, RelationScan, Rename

    emp = RelationScan("EMP", 2, columns=("emp", "dept"))
    mgr = RelationScan("MGR", 2, columns=("dept", "mgr"))
    emp_mgr = Project(Join(emp, mgr), ("emp", "mgr"), by_name=True)
    scy = RelationScan("SCY", 2, columns=("mgr", "scy"))
    emp_scy = Project(Join(emp_mgr, scy), ("emp", "scy"), by_name=True)
    scy_sal = RelationScan("SAL", 2, columns=("scy", "hi"))
    emp_scy_sal = Project(Join(emp_scy, scy_sal), ("emp", "hi"), by_name=True)
    emp_sal = RelationScan("SAL", 2, columns=("emp", "lo"))
    both = Join(emp_scy_sal, emp_sal)
    lt = RelationScan("LT", 2, columns=("lo", "hi"))
    return Project(Join(both, lt), ("emp",), by_name=True)
