"""Problem description and backend dispatch for linear programs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class InfeasibleError(Exception):
    """The linear program has no feasible point."""


class UnboundedError(Exception):
    """The linear program's objective is unbounded below."""


@dataclass(frozen=True)
class LinearProgram:
    """An LP: minimise ``c @ x`` s.t. ``A_eq x = b_eq``, ``A_ub x <= b_ub``,
    ``x >= 0``.

    The paper's programs (Sec. IV-B and IV-D) are purely equality-
    constrained; the inequality rows exist for the requirement-driven
    planner (bound L(p) or D(p) while optimising another property).  The
    simplex backend converts inequalities to equalities with slack
    variables internally; scipy handles them natively.

    Attributes:
        c: objective coefficients, shape (n,).
        a_eq: equality constraint matrix, shape (m, n).
        b_eq: equality right-hand side, shape (m,).
        a_ub: optional inequality matrix, shape (p, n).
        b_ub: optional inequality right-hand side, shape (p,).
        names: optional variable labels used in error messages and reports.
    """

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    names: "tuple[str, ...]" = field(default=())

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        a = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        b = np.asarray(self.b_eq, dtype=float)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_eq", a)
        object.__setattr__(self, "b_eq", b)
        if a.shape != (len(b), len(c)):
            raise ValueError(
                f"inconsistent LP shapes: c has {len(c)} vars, A is {a.shape}, b has {len(b)} rows"
            )
        if (self.a_ub is None) != (self.b_ub is None):
            raise ValueError("a_ub and b_ub must be given together")
        if self.a_ub is not None:
            a_ub = np.atleast_2d(np.asarray(self.a_ub, dtype=float))
            b_ub = np.asarray(self.b_ub, dtype=float)
            object.__setattr__(self, "a_ub", a_ub)
            object.__setattr__(self, "b_ub", b_ub)
            if a_ub.shape != (len(b_ub), len(c)):
                raise ValueError(
                    f"inconsistent inequality shapes: A_ub is {a_ub.shape}, "
                    f"b_ub has {len(b_ub)} rows, c has {len(c)} vars"
                )
        if self.names and len(self.names) != len(c):
            raise ValueError("names must match the number of variables")

    @property
    def num_vars(self) -> int:
        return len(self.c)

    @property
    def num_constraints(self) -> int:
        extra = 0 if self.b_ub is None else len(self.b_ub)
        return len(self.b_eq) + extra

    def to_standard_form(self) -> "LinearProgram":
        """Fold inequalities into equalities with slack variables.

        Returns ``self`` when there are no inequality rows.  The solution
        vector of the standard-form program has the slack values appended;
        callers should truncate to :attr:`num_vars` of the original.
        """
        if self.a_ub is None:
            return self
        num_slack = len(self.b_ub)
        c = np.concatenate([self.c, np.zeros(num_slack)])
        top = np.hstack([self.a_eq, np.zeros((len(self.b_eq), num_slack))])
        bottom = np.hstack([self.a_ub, np.eye(num_slack)])
        return LinearProgram(
            c=c,
            a_eq=np.vstack([top, bottom]),
            b_eq=np.concatenate([self.b_eq, self.b_ub]),
        )


@dataclass(frozen=True)
class LPSolution:
    """An optimal solution to a :class:`LinearProgram`.

    Attributes:
        x: optimal variable values, shape (n,).
        objective: optimal objective value ``c @ x``.
        backend: which solver produced the result ("simplex" or "scipy").
        iterations: solver iteration count (0 when not reported).
    """

    x: np.ndarray
    objective: float
    backend: str
    iterations: int = 0


def solve(problem: LinearProgram, backend: str = "auto") -> LPSolution:
    """Solve a linear program with the requested backend.

    Args:
        problem: the standard-form LP.
        backend: "scipy" (HiGHS; also "auto") or "simplex" (this package's
            own solver, the independent oracle of tests and ablations).

    Raises:
        InfeasibleError: no feasible point exists.
        UnboundedError: the objective is unbounded below.
        ValueError: unknown backend name.
    """
    if backend in ("auto", "scipy"):
        from repro.lp.scipy_backend import solve_scipy

        return solve_scipy(problem)
    if backend == "simplex":
        from repro.lp.simplex import solve_simplex

        return solve_simplex(problem)
    raise ValueError(f"unknown LP backend {backend!r}")
