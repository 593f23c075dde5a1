"""Exact rational vectors and a small certified simplex kernel.

Everything here computes over `fractions.Fraction`; no floating point is
used anywhere in the package. The solver returns certificates (primal
witness, dual vector, Farkas vector or improving ray) that can be
re-checked with plain dot products, and `check_certificates` does exactly
that re-check.

Certificate conventions, for a program over variables x (each either
nonnegative or free) with constraint rows (a_i, rel_i, b_i):

* optimal, maximize: the dual y has y_i >= 0 on "<=" rows, y_i <= 0 on
  ">=" rows and is free on "=" rows; (y^T A)_j >= c_j for nonnegative x_j
  and (y^T A)_j = c_j for free x_j; y^T b equals the optimal value.
* optimal, minimize: signs reverse: y_i <= 0 on "<=", y_i >= 0 on ">=",
  (y^T A)_j <= c_j on nonnegative x_j, equality on free x_j; y^T b = value.
* infeasible: Farkas vector y with y_i >= 0 on "<=", y_i <= 0 on ">=",
  (y^T A)_j >= 0 for nonnegative x_j, (y^T A)_j = 0 for free x_j, and
  y^T b < 0. Such a y contradicts feasibility outright.
* unbounded: a feasible witness plus a ray d that keeps every row
  feasible (a_i . d <= 0, = 0 or >= 0 per relation), has d_j >= 0 on
  nonnegative variables, and strictly improves the objective.

Pivoting follows Bland's anti-cycling rule (lowest eligible column index
enters; ratio ties leave by lowest basis column index), so results are a
deterministic function of the input program.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

REL_LE = "<="
REL_EQ = "="
REL_GE = ">="
_RELATIONS = (REL_LE, REL_EQ, REL_GE)


def frac(value: object) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def fvec(values: Iterable[object]) -> Vec:
    return tuple(frac(v) for v in values)


def vzero(dimension: int) -> Vec:
    return (ZERO,) * dimension


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def vdot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """max (or min) objective . x subject to rows (a, rel, b); x_j >= 0 where flagged."""

    num_vars: int
    objective: Vec
    maximize: bool
    constraints: tuple[tuple[Vec, str, Fraction], ...]
    nonneg: tuple[bool, ...]

    @classmethod
    def build(
        cls,
        objective: Sequence[object],
        maximize: bool,
        constraints: Iterable[tuple[Sequence[object], str, object]],
        nonneg: Sequence[bool] | None = None,
    ) -> "LinearProgram":
        obj = fvec(objective)
        n = len(obj)
        rows = tuple((fvec(a), rel, frac(b)) for a, rel, b in constraints)
        mask = tuple(bool(v) for v in nonneg) if nonneg is not None else (True,) * n
        return cls(n, obj, maximize, rows, mask)

    def validate(self) -> None:
        if self.num_vars < 1:
            raise ValueError("a linear program needs at least one variable")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match variable count")
        if len(self.nonneg) != self.num_vars:
            raise ValueError("nonneg mask length does not match variable count")
        for i, (coeffs, rel, _) in enumerate(self.constraints):
            if len(coeffs) != self.num_vars:
                raise ValueError(f"constraint {i} has {len(coeffs)} coefficients, expected {self.num_vars}")
            if rel not in _RELATIONS:
                raise ValueError(f"constraint {i} has unknown relation {rel!r}")


@dataclass(frozen=True)
class LpResult:
    """Solver outcome plus the certificates described in the module docstring.

    `witness` is the optimal point when optimal and a feasible base point
    when unbounded. `dual` is set when optimal, `farkas` when infeasible,
    `ray` when unbounded.
    """

    status: LpStatus
    value: Fraction | None = None
    witness: Vec | None = None
    dual: Vec | None = None
    farkas: Vec | None = None
    ray: Vec | None = None


_MAX_PIVOTS = 200_000


# Every solve re-checks its own result against the certificate conventions
# above; the check is linear in the tableau size and catches solver bugs at
# the moment they happen instead of corrupting downstream verdicts.
VERIFY_CERTIFICATES = True


def lp_solve(lp: LinearProgram) -> LpResult:
    """Two-phase exact simplex with Bland's rule. Deterministic."""
    result = _lp_solve_core(lp)
    if VERIFY_CERTIFICATES:
        issues = check_certificates(lp, result)
        if issues:
            raise RuntimeError(f"solver produced an invalid certificate: {issues[0]}")
    return result


def _lp_solve_core(lp: LinearProgram) -> LpResult:
    lp.validate()
    m = len(lp.constraints)

    # Internal columns: a nonnegative variable maps to one column, a free
    # variable to a positive and a negative column.
    var_cols: list[tuple[int, int]] = []
    for j in range(lp.num_vars):
        var_cols.append((j, 1))
        if not lp.nonneg[j]:
            var_cols.append((j, -1))
    n_var = len(var_cols)

    sign = -1 if lp.maximize else 1  # internally always minimize sign * objective

    n_slack = sum(1 for _, rel, _ in lp.constraints if rel != REL_EQ)
    slack_base = n_var
    art_base = n_var + n_slack

    # First pass: equality rows with slack columns, right-hand sides >= 0.
    body: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    flip: list[int] = []
    slack_info: list[tuple[int, Fraction] | None] = []
    si = 0
    for coeffs, rel, b in lp.constraints:
        row = [coeffs[j] * s for (j, s) in var_cols]
        scol: int | None = None
        scoeff = ZERO
        if rel != REL_EQ:
            scol = slack_base + si
            si += 1
            scoeff = ONE if rel == REL_LE else -ONE
        if b < 0:
            row = [-x for x in row]
            b = -b
            scoeff = -scoeff
            flip.append(-1)
        else:
            flip.append(1)
        body.append(row)
        rhs.append(b)
        slack_info.append(None if scol is None else (scol, scoeff))

    # Second pass: initial basis; rows without a +1 slack get an artificial.
    basis: list[int] = []
    reader: list[int] = []  # unit column carried by each original row
    art_of_row: list[int | None] = [None] * m
    n_art = 0
    for i in range(m):
        info = slack_info[i]
        if info is not None and info[1] == 1:
            basis.append(info[0])
            reader.append(info[0])
        else:
            col = art_base + n_art
            art_of_row[i] = col
            n_art += 1
            basis.append(col)
            reader.append(col)

    width = art_base + n_art + 1  # +1 for the right-hand side cell
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = body[i] + [ZERO] * (n_slack + n_art) + [rhs[i]]
        info = slack_info[i]
        if info is not None:
            row[info[0]] = info[1]
        acol = art_of_row[i]
        if acol is not None:
            row[acol] = ONE
        tableau.append(row)

    # Cost rows, maintained by the same row operations as the tableau.
    cost1 = [ZERO] * width
    for i in range(m):
        acol = art_of_row[i]
        if acol is not None:
            cost1[acol] = ONE
    cost2 = [ZERO] * width
    for k, (j, s) in enumerate(var_cols):
        cost2[k] = sign * lp.objective[j] * s

    # Reduce cost1 against the artificial basics so basic columns read zero.
    for i in range(m):
        if art_of_row[i] is not None:
            row = tableau[i]
            for k in range(width):
                cost1[k] -= row[k]

    pivots = 0

    def pivot(r: int, j: int) -> None:
        nonlocal pivots
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise RuntimeError("simplex pivot limit exceeded")
        prow = tableau[r]
        piv = prow[j]
        inv = ONE / piv
        for k in range(width):
            if prow[k]:
                prow[k] *= inv
        for other in tableau:
            if other is prow:
                continue
            f = other[j]
            if f:
                for k in range(width):
                    if prow[k]:
                        other[k] -= f * prow[k]
        for cost in (cost1, cost2):
            f = cost[j]
            if f:
                for k in range(width):
                    if prow[k]:
                        cost[k] -= f * prow[k]
        basis[r] = j

    def run_phase(cost: list[Fraction], allowed: int) -> int | None:
        """Bland's rule loop; returns entering column when unbounded, else None."""
        while True:
            enter = -1
            for j in range(allowed):
                if cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return None
            leave = -1
            best: Fraction | None = None
            for r in range(len(tableau)):
                a = tableau[r][enter]
                if a > 0:
                    ratio = tableau[r][width - 1] / a
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                        best = ratio
                        leave = r
            if leave < 0:
                return enter
            pivot(leave, enter)

    def read_multipliers(cost: list[Fraction], art_cost: Fraction) -> list[Fraction]:
        # Every original row keeps a unit column (its slack or artificial);
        # the multiplier is that column's objective cost minus its reduced
        # cost. Slacks cost zero in both phases; artificials cost one in
        # phase 1 and zero in phase 2.
        return [
            (art_cost if rcol >= art_base else ZERO) - cost[rcol]
            for rcol in reader
        ]

    if n_art > 0:
        unb = run_phase(cost1, art_base)
        if unb is not None:  # phase-1 objective is bounded below by zero
            raise RuntimeError("phase-1 simplex reported unbounded")
        value1 = sum((tableau[r][width - 1] for r in range(len(tableau)) if basis[r] >= art_base), ZERO)
        if value1 > 0:
            yhat = read_multipliers(cost1, ONE)
            farkas = tuple(-flip[i] * yhat[i] for i in range(m))
            return LpResult(status=LpStatus.INFEASIBLE, farkas=farkas)
        # Feasible: drive remaining artificials out, drop redundant rows.
        drop: list[int] = []
        for r in range(len(tableau)):
            if basis[r] >= art_base:
                col = next((j for j in range(art_base) if tableau[r][j] != 0), None)
                if col is None:
                    drop.append(r)
                else:
                    pivot(r, col)
        for r in reversed(drop):
            del tableau[r]
            del basis[r]

    unb = run_phase(cost2, art_base)

    def witness_point() -> Vec:
        values = [ZERO] * lp.num_vars
        for r, col in enumerate(basis):
            if col < n_var:
                j, s = var_cols[col]
                values[j] += s * tableau[r][width - 1]
        return tuple(values)

    if unb is not None:
        dhat = {unb: ONE}
        for r, col in enumerate(basis):
            coeff = tableau[r][unb]
            if coeff:
                dhat[col] = -coeff
        ray = [ZERO] * lp.num_vars
        for col, val in dhat.items():
            if col < n_var:
                j, s = var_cols[col]
                ray[j] += s * val
        return LpResult(status=LpStatus.UNBOUNDED, witness=witness_point(), ray=tuple(ray))

    witness = witness_point()
    value = vdot(lp.objective, witness)
    yhat = read_multipliers(cost2, ZERO)
    dual_sign = -1 if lp.maximize else 1
    dual = tuple(dual_sign * flip[i] * yhat[i] for i in range(m))
    return LpResult(status=LpStatus.OPTIMAL, value=value, witness=witness, dual=dual)


def check_certificates(lp: LinearProgram, result: LpResult) -> list[str]:
    """Re-check a solver result against the documented conventions.

    Returns a list of violation messages; an empty list means every
    certificate verifies exactly.
    """
    errs: list[str] = []
    m = len(lp.constraints)

    def check_point(x: Vec, label: str) -> None:
        if len(x) != lp.num_vars:
            errs.append(f"{label} has wrong length")
            return
        for j in range(lp.num_vars):
            if lp.nonneg[j] and x[j] < 0:
                errs.append(f"{label}[{j}] violates nonnegativity")
        for i, (coeffs, rel, b) in enumerate(lp.constraints):
            lhs = vdot(coeffs, x)
            ok = lhs <= b if rel == REL_LE else lhs >= b if rel == REL_GE else lhs == b
            if not ok:
                errs.append(f"{label} violates constraint {i}")

    def check_row_signs(y: Vec, le_sign: int, label: str) -> None:
        for i, (_, rel, _) in enumerate(lp.constraints):
            if rel == REL_LE and le_sign * y[i] < 0:
                errs.append(f"{label}[{i}] has the wrong sign for a <= row")
            if rel == REL_GE and le_sign * y[i] > 0:
                errs.append(f"{label}[{i}] has the wrong sign for a >= row")

    def combo(y: Vec, j: int) -> Fraction:
        return sum((y[i] * lp.constraints[i][0][j] for i in range(m)), ZERO)

    if result.status is LpStatus.OPTIMAL:
        if result.witness is None or result.dual is None or result.value is None:
            return ["optimal result is missing witness, dual or value"]
        check_point(result.witness, "witness")
        if vdot(lp.objective, result.witness) != result.value:
            errs.append("objective value does not match the witness")
        y = result.dual
        if len(y) != m:
            return errs + ["dual has wrong length"]
        check_row_signs(y, +1 if lp.maximize else -1, "dual")
        for j in range(lp.num_vars):
            s = combo(y, j)
            c = lp.objective[j]
            if lp.nonneg[j]:
                ok = s >= c if lp.maximize else s <= c
            else:
                ok = s == c
            if not ok:
                errs.append(f"dual combination fails on variable {j}")
        yb = sum((y[i] * lp.constraints[i][2] for i in range(m)), ZERO)
        if yb != result.value:
            errs.append("dual value does not equal the primal value")
    elif result.status is LpStatus.INFEASIBLE:
        y = result.farkas
        if y is None or len(y) != m:
            return ["infeasible result is missing a Farkas vector"]
        check_row_signs(y, +1, "farkas")
        for j in range(lp.num_vars):
            s = combo(y, j)
            if lp.nonneg[j]:
                if s < 0:
                    errs.append(f"farkas combination is negative on variable {j}")
            elif s != 0:
                errs.append(f"farkas combination is nonzero on free variable {j}")
        yb = sum((y[i] * lp.constraints[i][2] for i in range(m)), ZERO)
        if yb >= 0:
            errs.append("farkas vector does not refute the right-hand side")
    elif result.status is LpStatus.UNBOUNDED:
        if result.witness is None or result.ray is None:
            return ["unbounded result is missing witness or ray"]
        check_point(result.witness, "witness")
        d = result.ray
        for j in range(lp.num_vars):
            if lp.nonneg[j] and d[j] < 0:
                errs.append(f"ray[{j}] violates nonnegativity")
        for i, (coeffs, rel, _) in enumerate(lp.constraints):
            slope = vdot(coeffs, d)
            ok = slope <= 0 if rel == REL_LE else slope >= 0 if rel == REL_GE else slope == 0
            if not ok:
                errs.append(f"ray escapes constraint {i}")
        gain = vdot(lp.objective, d)
        if (gain <= 0) if lp.maximize else (gain >= 0):
            errs.append("ray does not improve the objective")
    return errs


@dataclass(frozen=True)
class HullMembership:
    """Outcome of a convex-hull membership query.

    When `member`, the coefficients reproduce the point exactly:
    sum(vertex_coefficients[i] * v_i) + sum(ray_coefficients[j] * r_j) == p
    with vertex coefficients summing to one. Otherwise `functional` f and
    `offset` g certify non-membership: f.v + g >= 0 on every vertex,
    f.r >= 0 on every ray, yet f.p + g < 0.
    """

    member: bool
    vertex_coefficients: tuple[Fraction, ...] | None = None
    ray_coefficients: tuple[Fraction, ...] | None = None
    functional: Vec | None = None
    offset: Fraction | None = None


def _hull_lp(point: Vec, vertices: Sequence[Vec], rays: Sequence[Vec]) -> LinearProgram:
    n = len(point)
    nv, nr = len(vertices), len(rays)
    cols = nv + nr
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for d in range(n):
        rows.append(([v[d] for v in vertices] + [r[d] for r in rays], REL_EQ, point[d]))
    rows.append(([ONE] * nv + [ZERO] * nr, REL_EQ, ONE))
    return LinearProgram.build([ZERO] * cols, True, rows)


def hull_membership(point: Vec, vertices: Sequence[Vec], rays: Sequence[Vec] = ()) -> HullMembership:
    """Exact membership of `point` in conv(vertices) + cone(rays)."""
    if not vertices:
        raise ValueError("hull membership needs at least one vertex")
    n = len(point)
    for v in vertices:
        if len(v) != n:
            raise ValueError("vertex dimension mismatch")
    for r in rays:
        if len(r) != n:
            raise ValueError("ray dimension mismatch")
    res = lp_solve(_hull_lp(point, vertices, rays))
    if res.status is LpStatus.OPTIMAL:
        nv = len(vertices)
        lam = res.witness[:nv]
        mu = res.witness[nv:]
        return HullMembership(True, vertex_coefficients=lam, ray_coefficients=mu)
    if res.status is LpStatus.INFEASIBLE:
        f = res.farkas[:n]
        g = res.farkas[n]
        return HullMembership(False, functional=f, offset=g)
    raise RuntimeError("hull membership program cannot be unbounded")


def relative_interior_membership(point: Vec, vertices: Sequence[Vec], rays: Sequence[Vec] = ()) -> bool:
    """Exact test for `point` in the relative interior of conv(vertices) + cone(rays).

    A point is in the relative interior iff it admits a representation with
    every vertex coefficient and every ray coefficient strictly positive;
    the program below maximizes a common lower bound t on all coefficients.
    """
    if not vertices:
        raise ValueError("relative interior membership needs at least one vertex")
    n = len(point)
    nv, nr = len(vertices), len(rays)
    cols = nv + nr + 1  # slack coefficients plus the common bound t
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for d in range(n):
        tcol = sum((v[d] for v in vertices), ZERO) + sum((r[d] for r in rays), ZERO)
        rows.append(([v[d] for v in vertices] + [r[d] for r in rays] + [tcol], REL_EQ, point[d]))
    rows.append(([ONE] * nv + [ZERO] * nr + [Fraction(nv)], REL_EQ, ONE))
    objective = [ZERO] * (nv + nr) + [ONE]
    res = lp_solve(LinearProgram.build(objective, True, rows))
    if res.status is LpStatus.INFEASIBLE:
        return False
    if res.status is LpStatus.OPTIMAL:
        return res.value > 0
    raise RuntimeError("relative interior program cannot be unbounded")
