"""Exact rational vectors and a small certified simplex kernel.

Answers and certificates go out as `fractions.Fraction`; no floating point
is used anywhere in the package. The vector helpers (`vadd`, `vsub`,
`vscale`, `vdot`, `vcombination`, `is_zero_vec`, `integer_multiple`) take
ints and `Fraction`s and call no `Fraction` operator: each reads every
coordinate's numerator and denominator once (`as_integer_ratio`), adds and
multiplies them as `int`s, and builds one `Fraction` per output
coordinate (`vdot` keeps one running integer ratio). `frac` and `fvec`
are the boundary that refuses floats.

A program carries one integer form: its rows times one common positive
scale, the lcm of every denominator in them (`LinearProgram.scale`).
`LinearProgram.build` computes that form once from rationals, and
`hull_program` writes it directly from cached integer views of the point
sets (`IntegerPoints`) for every program of the "points in a sum of
hulls" shape; `solve_hulls`, the one reader of its layout, solves it and
returns block weights or a Farkas functional with one offset per block.
Both the simplex and `check_certificates` read that one form. The simplex
pivots on Python `int`s without fractions (Edmonds 1967; Bareiss 1968):
every tableau and cost row holds integers over one shared positive basis
determinant, so each entry is the exact rational a `Fraction` tableau
would hold, and results are converted to `Fraction` only where they are
written out. A program with a zero objective carries no phase-2 cost row
and stops after phase 1 and its drive-out: phase 2 on a zero cost row
would not pivot, so the basis is optimal, with value 0 and the zero dual.
The tableau holds only the columns that can enter: one per variable and
one per slack, then the right-hand side. A free variable's two halves are
one column stored up to sign, negated in place when the other half enters,
and the phase-1 artificials are basis labels with no column, since Bland's
rule never lets one enter (Bland 1977). The multipliers that a dual or a
Farkas vector reads are pi = c_B B^-1 on the final basis B (Chvatal
1983, ch. 10): a basic slack or artificial fixes its row's multiplier, and
one elimination gives the rest; a zero-objective optimum, whose dual is
zero, needs none.
The solver returns certificates (primal witness, dual vector, Farkas
vector or improving ray) that can be re-checked with plain dot products,
and `check_certificates` does exactly that re-check, in integer arithmetic
of its own, over the program's integer form and denominators of the
certificates it clears itself, never reading the solver's tableau.

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

Before the simplex, `lp_solve` decides without pivoting (`_unique_point`)
every feasibility program whose feasible set is one point: a zero
objective, only equations, nonnegative variables, and equations of full
column rank whose one solution is nonnegative (the shape of most
decomposition programs). The matrix A, read up to scale (A / gcd of its
entries), is factored once by eliminating [A | I] (`_factor`), and the
last factorization is kept: the queries on one decomposable set write the
same matrix over a new scale each time, so each of them costs one integer
product with its right-hand side. The simplex would end at that same
point, and its zero cost row gives value 0 and the zero dual, so the
result is the simplex's, field for field. Every refutation (rank-deficient
equations, inconsistent rows, a negative coordinate) and every other
program shape comes from the simplex, and `check_certificates` re-checks
the results of both paths (`lp_solve` validates each program once, before
it solves it). That elimination, `_eliminate`, is the package's one
fraction-free Gauss-Jordan routine: the simplex's multipliers, the cone
module's span solver and its facet normals run it too. It takes the
simplex's own row step (`_bareiss_step`), which keeps the determinant
positive.

`frac` reads a string only as an integer or a ratio p/q with a positive
denominator (`_RATIONAL`); the scene files and the command line read every
rational through it, so the size of a number is bounded by its text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

REL_LE = "<="
REL_EQ = "="
REL_GE = ">="
_RELATIONS = (REL_LE, REL_EQ, REL_GE)

# The one written form of a rational: an integer or a ratio with a positive
# denominator, such as "-3" or "3/2". Decimals and exponents are refused, so
# the size of a rational read from text is bounded by the length of the text.
_RATIONAL = re.compile(r"-?\d+(/[1-9]\d*)?")


def frac(value: object) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction; reject floats.
    A string must be written as `_RATIONAL` says (ValueError otherwise)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise ValueError(f"unreadable rational {value!r}; write an integer or p/q, such as -3 or 3/2")
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def fvec(values: Iterable[object]) -> Vec:
    return tuple(frac(v) for v in values)


def vzero(dimension: int) -> Vec:
    return (ZERO,) * dimension


def _plus(a: Vec, b: Vec, sign: int) -> Vec:
    """a + sign * b, summed coordinate by coordinate on integer ratios."""
    out = []
    for x, y in zip(a, b, strict=True):
        n, d = x.as_integer_ratio()
        m, e = y.as_integer_ratio()
        out.append(Fraction(n + sign * m, d) if d == e else Fraction(n * e + sign * m * d, d * e))
    return tuple(out)


def vadd(a: Vec, b: Vec) -> Vec:
    return _plus(a, b, 1)


def vsub(a: Vec, b: Vec) -> Vec:
    return _plus(a, b, -1)


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(c: Fraction, a: Vec) -> Vec:
    cn, cd = c.as_integer_ratio()
    out = []
    for x in a:
        n, d = x.as_integer_ratio()
        out.append(Fraction(cn * n, cd * d))
    return tuple(out)


def vdot(a: Vec, b: Vec) -> Fraction:
    """The dot product, summed as one integer ratio (num, den): a term whose
    denominator is den adds its numerator, any other is cross-multiplied in."""
    num, den = 0, 1
    for x, y in zip(a, b, strict=True):
        n, d = x.as_integer_ratio()
        m, e = y.as_integer_ratio()
        d *= e
        if d == den:
            num += n * m
        else:
            num = num * d + n * m * den
            den *= d
    return Fraction(num, den)


def is_zero_vec(a: Vec) -> bool:
    return not any(x.as_integer_ratio()[0] for x in a)


def vcombination(coefficients: Iterable[Fraction], vectors: Iterable[Vec], dimension: int) -> Vec:
    """The sum of c * v over paired coefficients and vectors, each vector of
    length `dimension` (ValueError otherwise). The coefficients and the
    vectors with a nonzero coefficient are each read over one common
    denominator (`integer_multiple`, `integer_points`) and summed in `int`s."""
    pairs = list(zip(coefficients, vectors, strict=True))
    if any(len(v) != dimension for _, v in pairs):
        raise ValueError(f"every vector of a combination must have length {dimension}")
    c_scale, cs = integer_multiple([c for c, _ in pairs])
    used = [(a, v) for a, (_, v) in zip(cs, pairs) if a]
    view = integer_points([v for _, v in used])
    acc = [0] * dimension
    for (a, _), p in zip(used, view.points):
        acc = [t + a * x for t, x in zip(acc, p)]
    den = c_scale * view.scale
    return tuple(Fraction(t, den) for t in acc)


def integer_multiple(v: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(L, L*v) for L the lcm of v's denominators: integer entries, same signs.
    Each entry (`Fraction` or `int`) is read once, through `as_integer_ratio`."""
    ratios = [x.as_integer_ratio() for x in v]
    scale = lcm(*{d for _, d in ratios})
    return scale, tuple(n * (scale // d) for n, d in ratios)


class IntegerPoints(NamedTuple):
    """Points times one common scale: `points[i]` is `scale` times point i,
    in `int`s, and `scale` is the lcm of every coordinate's denominator."""

    scale: int
    points: tuple[tuple[int, ...], ...]


def integer_points(points: Sequence[Vec]) -> IntegerPoints:
    """The points over the lcm of their coordinates' denominators, each point
    its own tuple of its own length. Every coordinate (`Fraction` or `int`)
    is read once, through `as_integer_ratio`, into one flat list, which is
    scaled in one pass and sliced back into points."""
    ratios = [c.as_integer_ratio() for p in points for c in p]
    scale = lcm(*{d for _, d in ratios})
    flat = [n * (scale // d) for n, d in ratios]
    out = []
    start = 0
    for p in points:
        end = start + len(p)
        out.append(tuple(flat[start:end]))
        start = end
    return IntegerPoints(scale, tuple(out))


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """max (or min) objective . x subject to rows (a, rel, b); x_j >= 0 where flagged.

    The rows are held in one integer form: `rows[i]` is (a_i, rel_i, b_i)
    with a_i and b_i times `scale`, in `int`s. The solver and the checker
    read this form, and the objective's (`integer_objective`, built on
    first use); `constraints` is the same rows as `Fraction`s. `build`
    and `hull_program` set `scale` to the lcm of every denominator in the
    rows, the one scale whose certificates the package pins.
    """

    num_vars: int
    objective: Vec
    maximize: bool
    rows: tuple[tuple[tuple[int, ...], str, int], ...]
    nonneg: tuple[bool, ...]
    scale: int = 1

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
        given = [(fvec(a), rel, frac(b)) for a, rel, b in constraints]
        view = integer_points([(*a, b) for a, _, b in given])  # each row with its b last
        rows = tuple((p[:-1], rel, p[-1]) for p, (_, rel, _) in zip(view.points, given))
        mask = tuple(bool(v) for v in nonneg) if nonneg is not None else (True,) * n
        return cls(n, obj, maximize, rows, mask, view.scale)

    @cached_property
    def constraints(self) -> tuple[tuple[Vec, str, Fraction], ...]:
        """The rows as `Fraction`s, (a, rel, b), derived on first access."""
        s = self.scale
        return tuple((tuple(Fraction(c, s) for c in a), rel, Fraction(b, s)) for a, rel, b in self.rows)

    @cached_property
    def integer_objective(self) -> tuple[int, tuple[int, ...]]:
        """The objective over the lcm of its own denominators (`integer_multiple`)."""
        return integer_multiple(self.objective)

    def validate(self) -> None:
        if self.num_vars < 1:
            raise ValueError("a linear program needs at least one variable")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match variable count")
        if len(self.nonneg) != self.num_vars:
            raise ValueError("nonneg mask length does not match variable count")
        if self.scale < 1:
            raise ValueError("the row scale must be a positive integer")
        for i, (coeffs, rel, _) in enumerate(self.rows):
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


# Work caps. `_MAX_PIVOTS` bounds one simplex run; passing it is a solver
# failure (`RuntimeError`). A cap on the size of an input is checked before
# any of the work it bounds and raises `LimitError`.
_MAX_PIVOTS = 200_000

# Largest program `lp_solve` accepts, counted as rows x (variables + rows),
# which bounds both its simplex tableau, rows x (variables + inequality rows
# + 1), and the multipliers' solve, rows x (rows + 1).
# Measured largest programs: 16,758 in the tests (126 rows, 7 variables: a
# proper separator's program over three chains), 176 in the suite and the
# full-size benchmark (11 rows, 5 variables; 112 on `dominate`, 77 on
# `pareto`) and 77 in the README examples.
_MAX_LP_SIZE = 200_000

# Largest grid `maximals.GridDomain.points` builds, counted in O(dimension).
# It bounds the work that grows with the grid. The invariance check keeps
# tables with one entry per point (values, ranks, axis indices) and no
# relation matrix: at the cap (64 x 64, ratio utility, prices (1, 2), wealth
# 90) it takes 0.024 s with a tracemalloc peak of 1 MB (2 cores, Python
# 3.11.7). `maximals.check_maximizer_convexity` makes one lookup per pair of
# demand points, so it grows with the square of the demand: at the cap with
# 64 tied points (64 x 64, linear utility, prices (1, 1), wealth 63) it
# takes 0.01 s, but with every grid point demanded (a constant utility,
# wealth 126) it makes 8.4 million lookups and takes 6-7 s. The exhaustive
# pair search `find_quasiconcavity_violation` grows with the square of the
# grid by design. The demand grids of the tests, suite, benchmark and README
# have at most 81 points.
_MAX_GRID_POINTS = 4096

# Largest sum of chains `sets.materialize` builds, counted as the product of
# the chain sizes before any point is formed. Measured products: at most 180
# in the tests and the suite (family 1 can draw 6 x 6 x 6 = 216), 64 in the
# benchmark (`pareto`) and 6 in the README.
_MAX_SUM_POINTS = 50_000


class LimitError(ValueError):
    """An input larger than a documented cap, refused before any work."""


def lp_solve(lp: LinearProgram) -> LpResult:
    """Two-phase exact simplex with Bland's rule. Deterministic.

    A program of rows x (variables + rows) above `_MAX_LP_SIZE` is refused
    with `LimitError` before any work. A feasibility program whose feasible
    set is one point is decided by one product with its matrix's kept
    factorization (`_unique_point`) instead of the simplex, with the result
    the simplex gives it; every other program, and every refutation, comes
    from the simplex.
    """
    size = len(lp.rows) * (lp.num_vars + len(lp.rows))
    if size > _MAX_LP_SIZE:
        raise LimitError(
            f"linear program has {len(lp.rows)} rows and {lp.num_vars} variables, "
            f"size {size}, more than the limit of {_MAX_LP_SIZE}"
        )
    lp.validate()
    result = _unique_point(lp) or _lp_solve_core(lp)
    # Every solve re-checks its own result against the certificate conventions
    # (`check_certificates`); the check is linear in the tableau size and catches solver bugs at
    # the moment they happen instead of corrupting downstream verdicts.
    issues = _certificate_errors(lp, result)
    if issues:
        raise RuntimeError(f"solver produced an invalid certificate: {issues[0]}")
    return result


def _bareiss_step(rows: Iterable[list[int]], prow: list[int], j: int, det: int) -> int:
    """One fraction-free Gauss-Jordan step on pivot row `prow` and column j,
    in place; returns the new determinant.

    Every row holds integers over the shared positive determinant `det`.
    Each other row becomes (p*row - row[j]*prow) / det, which clears its
    column j; the division is exact by Sylvester's identity (Bareiss 1968),
    and the pivot p = prow[j] is the new determinant. A negative pivot
    first negates `prow`, so that the determinant stays positive and the
    sign of every entry over it is the sign of the rational it stands for.
    """
    p = prow[j]
    if p < 0:
        p = -p
        prow[:] = [-y for y in prow]
    for row in rows:
        if row is prow:
            continue
        f = row[j]
        if f:
            row[:] = [(p * x - f * y) // det for x, y in zip(row, prow)]
        elif p != det:
            row[:] = [p * x // det for x in row]
    return p


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[tuple[int, int]], int]:
    """Fraction-free Gauss-Jordan (Edmonds 1967; Bareiss 1968) over the first
    `ncols` columns of the integer rows, in place; returns the pivots, as
    (row, column) pairs in column order, and the positive determinant.

    Each column takes as pivot the first nonzero entry at or below the
    current row, which is swapped up, and every step is `_bareiss_step`. The
    rows then hold the reduced row echelon form of the rationals times the
    determinant: each pivot row has the determinant in its own pivot column
    and zero in every other one. The elimination stops when the rows run out.
    """
    pivots: list[tuple[int, int]] = []
    det = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        det = _bareiss_step(rows, rows[r], c, det)
        pivots.append((r, c))
    return pivots, det


def _unique_point(lp: LinearProgram) -> LpResult | None:
    """The simplex's result on a program whose feasible set is one point,
    or None when the program is not of that kind.

    Only the feasibility shape that `hull_program` writes qualifies: a zero
    objective, every row an equation, every variable nonnegative and no
    more variables than rows. The matrix A is read up to scale, A0 = A / g
    for g the gcd of its entries, and factored once (`_factor`): the
    transform T with T A0 = det I on its first n rows and zero on the rest.
    A has full column rank when `_factor` finds a pivot in every column;
    then Ax = b has at most one solution, T[:n] b / (g det), and it has one
    exactly when T[n:] b vanishes. If that solution is also nonnegative, it
    is the one feasible point, so it is the simplex's witness; the zero
    objective gives the simplex's value 0 and zero dual too. Every other
    case (rank-deficient A, inconsistent rows, a negative coordinate) is
    left to the simplex, whose Farkas vector is the refutation.
    """
    n, m = lp.num_vars, len(lp.rows)
    if n > m or any(lp.objective) or not all(lp.nonneg) or any(rel != REL_EQ for _, rel, _ in lp.rows):
        return None
    flat = [c for a, _, _ in lp.rows for c in a]
    g = gcd(*flat)
    factored = _factor(n, tuple([c // g for c in flat])) if g else None
    if factored is None:
        return None
    det, transform = factored
    rhs = [b for _, _, b in lp.rows]
    tb = [_idot(t, rhs) for t in transform]
    if any(tb[n:]) or any(v < 0 for v in tb[:n]):
        return None
    scale = g * det
    return LpResult(LpStatus.OPTIMAL, ZERO, tuple([Fraction(v, scale) for v in tb[:n]]), (ZERO,) * m)


@lru_cache(maxsize=1)
def _factor(n: int, a: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """(det, T) for the integer matrix A of n columns, given row by row in
    one flat tuple, when A has full column rank; else None.

    [A | I_m] is eliminated in integers (`_eliminate`) over A's columns, and
    T is the right-hand block, the row operations themselves: T A = det I_n
    on T's first n rows and zero on the rest. The consecutive programs of a
    set's queries share A up to scale, so the last factorization is kept,
    and each of them costs one product T b.
    """
    m = len(a) // n
    rows = [[*a[i * n : (i + 1) * n], *(int(i == k) for k in range(m))] for i in range(m)]
    pivots, det = _eliminate(rows, n)
    if len(pivots) < n:
        return None
    return det, tuple(tuple(row[n:]) for row in rows)


def _lp_solve_core(lp: LinearProgram) -> LpResult:
    n = lp.num_vars
    sign = -1 if lp.maximize else 1  # internally always minimize sign * objective

    # Column order: one column per variable, then one slack per inequality
    # row in row order, then the right-hand side. Bland's rule picks the
    # lowest eligible column, so this order decides the pivot path and with
    # it every certificate. A free variable x_j is x_j+ - x_j- with two
    # columns, each the other negated, that never both have a negative
    # reduced cost nor are both basic: column j stores the one whose stored
    # sign `signs[j]` says, and is negated in place (`negate`) when the other
    # enters. A row whose slack does not enter with +1 once its right-hand
    # side is made >= 0 (an equation, a "<=" row with b < 0, a ">=" row with
    # b >= 0) starts with an artificial basic: a basis label >= `art_base`,
    # in row order, with no column, since Bland's rule never lets an
    # artificial enter. Labels keep the order of the columns they stand for,
    # so ratio ties leave by the same rule as with every column stored.
    n_slack = sum(rel != REL_EQ for _, rel, _ in lp.rows)
    art_base = n + n_slack
    rhs = art_base  # the right-hand side cell
    free = frozenset(j for j in range(n) if not lp.nonneg[j])
    signs = [1] * n

    # The rows come scaled by one common denominator `scale` (the program's
    # integer form) and the objective is scaled by its own `obj_scale`. A
    # per-row scale would weight the phase-1 artificials differently and
    # change Bland's choices; a common one only rescales the slacks and the
    # artificials, which moves no sign and no ratio-test winner.
    scale = lp.scale
    obj_scale, obj = lp.integer_objective

    # Fraction-free tableau (Edmonds 1967; Bareiss 1968): every row,
    # including both cost rows, holds integers over one shared positive
    # basis determinant `det`; the exact tableau is `row / det`. Each row
    # is written with its right-hand side made >= 0 (flipped by f), and
    # each row's unit column, its +1 slack or its artificial, starts the
    # basis. The phase-1 cost row is the sum of the artificials reduced
    # against their rows: minus each artificial row.
    tableau: list[list[int]] = []
    units: list[tuple[int, int]] = []  # each row's unit label and its flip f
    unit_rows: dict[int, int] = {}  # each slack's and artificial's row
    cost1 = [0] * (rhs + 1)
    slack, art = n, art_base
    for i, (coeffs, rel, b) in enumerate(lp.rows):
        f = -1 if b < 0 else 1
        row = [f * c for c in coeffs] + [0] * n_slack + [f * b]
        unit = None
        if rel != REL_EQ:
            row[slack] = f if rel == REL_LE else -f
            unit_rows[slack] = i
            if row[slack] == 1:
                unit = slack
            slack += 1
        if unit is None:
            cost1 = [c - x for c, x in zip(cost1, row)]
            unit_rows[art] = i
            unit = art
            art += 1
        tableau.append(row)
        units.append((unit, f))
    basis = [label for label, _ in units]
    dropped: list[int] = []  # the artificials of the rows dropped as redundant
    det = 1
    # A zero objective's phase-2 cost row would stay zero through every
    # pivot, so it is not carried, and phase 2 is not run (see below).
    zero_objective = not any(obj)
    cost2 = [sign * c for c in obj] + [0] * (n_slack + 1)
    costs = (cost1,) if zero_objective else (cost1, cost2)

    pivots = 0

    def pivot(r: int, j: int) -> None:
        nonlocal pivots, det
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise RuntimeError("simplex pivot limit exceeded")
        det = _bareiss_step((*tableau, *costs), tableau[r], j, det)
        basis[r] = j

    def negate(j: int) -> None:
        """Store free column j's other half, the column negated."""
        for row in (*tableau, *costs):
            row[j] = -row[j]
        signs[j] = -signs[j]

    def run_phase(cost: list[int]) -> int | None:
        """Bland's rule loop over the columns; returns the entering column
        when unbounded, else None. A free column whose reduced cost is
        positive enters on its other half."""
        while True:
            enter = -1
            for j in range(art_base):
                c = cost[j]
                if c < 0 or (c and j in free):
                    enter = j
                    break
            if enter < 0:
                return None
            if cost[enter] > 0:
                negate(enter)
            leave = -1
            best_rhs = best_a = 0
            for r in range(len(tableau)):
                a = tableau[r][enter]
                if a > 0:
                    # rhs_r / a < best_rhs / best_a, cross-multiplied.
                    key = tableau[r][rhs] * best_a - best_rhs * a
                    if leave < 0 or key < 0 or (key == 0 and basis[r] < basis[leave]):
                        best_rhs = tableau[r][rhs]
                        best_a = a
                        leave = r
            if leave < 0:
                return enter
            pivot(leave, enter)

    def multipliers(costs: Sequence[int], art_cost: int) -> tuple[list[int], int]:
        """The simplex multipliers pi, with pi B = c_B on the final basis B,
        as integers over one positive denominator, for the costs `costs` of
        the variables (of a free one's positive half), `art_cost` on each
        artificial and zero on each slack. B's columns are the program's
        flipped rows read down one column, a dropped row's artificial
        included. A basic slack or artificial is +-1 in its one row i, so its
        equation gives pi_i outright. A variable's equation does not depend
        on the half it is stored as; with the known pi_i moved to the right,
        these equations are a square system in the other rows' pi, which is
        eliminated (`_eliminate`) with its right-hand side beside it."""
        known: list[int | None] = [None] * len(units)
        variables = []
        for label in (*basis, *dropped):
            if label < n:
                variables.append(label)
            else:
                known[unit_rows[label]] = art_cost if label >= art_base else 0
        unknown = [i for i, p in enumerate(known) if p is None]
        system = []
        for j in variables:
            equation, right = [], costs[j]
            for (a, _, _), (_, f), p in zip(lp.rows, units, known):
                if p is None:
                    equation.append(f * a[j])
                elif p:
                    right -= f * a[j] * p
            equation.append(right)
            system.append(equation)
        found, d = _eliminate(system, len(unknown))
        pi = [0 if p is None else p * d for p in known]
        for r, c in found:
            pi[unknown[c]] = system[r][-1]
        return pi, d

    def witness_point() -> Vec:
        values = [0] * n
        for r, col in enumerate(basis):
            if col < n:
                values[col] = signs[col] * tableau[r][rhs]
        return tuple(Fraction(v, det) for v in values)

    if art > art_base:
        unb = run_phase(cost1)
        if unb is not None:  # phase-1 objective is bounded below by zero
            raise RuntimeError("phase-1 simplex reported unbounded")
        if sum(tableau[r][rhs] for r in range(len(tableau)) if basis[r] >= art_base) > 0:
            # The multipliers of the phase-1 costs (one on each artificial)
            # refute the program, read back through each row's flip.
            pi, d = multipliers([0] * n, 1)
            farkas = tuple(Fraction(-f * p, d) for p, (_, f) in zip(pi, units))
            return LpResult(status=LpStatus.INFEASIBLE, farkas=farkas)
        # Feasible: drive remaining artificials out, drop redundant rows. A
        # free column enters the drive-out on its positive half.
        drop: list[int] = []
        for r in range(len(tableau)):
            if basis[r] >= art_base:
                col = next((j for j in range(art_base) if tableau[r][j] != 0), None)
                if col is None:
                    drop.append(r)
                else:
                    if col < n and signs[col] < 0:
                        negate(col)
                    pivot(r, col)
        for r in reversed(drop):
            dropped.append(basis[r])
            del tableau[r]
            del basis[r]

    if zero_objective:
        # Phase 2 on a zero cost row does not pivot: the basis is optimal, with
        # value 0 and the zero dual.
        return LpResult(status=LpStatus.OPTIMAL, value=ZERO, witness=witness_point(), dual=(ZERO,) * len(units))
    unb = run_phase(cost2)

    if unb is not None:
        # One unit of a slack column is 1/scale of a unit of the original
        # slack, so a ray entered by a slack is scaled back up.
        unit = scale if unb >= n else 1
        ray = [0] * n
        if unb < n:
            ray[unb] = signs[unb] * det
        for r, col in enumerate(basis):
            if col < n:
                ray[col] -= signs[col] * tableau[r][unb] * unit
        return LpResult(
            status=LpStatus.UNBOUNDED,
            witness=witness_point(),
            ray=tuple(Fraction(v, det) for v in ray),
        )

    # The right-hand cell of cost2 is minus the scaled internal objective;
    # the multipliers of the phase-2 costs (zero on slacks and artificials)
    # are rescaled from the scaled rows and objective back to the program
    # as given.
    value = Fraction(-sign * cost2[rhs], det * obj_scale)
    pi, d = multipliers([sign * c for c in obj], 0)
    dual = tuple(Fraction(sign * f * p * scale, d * obj_scale) for p, (_, f) in zip(pi, units))
    return LpResult(status=LpStatus.OPTIMAL, value=value, witness=witness_point(), dual=dual)


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _holds(lhs: int, rel: str, rhs: int) -> bool:
    return lhs <= rhs if rel == REL_LE else lhs >= rhs if rel == REL_GE else lhs == rhs


def check_certificates(lp: LinearProgram, result: LpResult) -> list[str]:
    """Re-check a solver result against the documented conventions.

    Returns a list of violation messages; an empty list means every
    certificate verifies exactly. A malformed program raises ValueError.
    """
    lp.validate()
    return _certificate_errors(lp, result)


def _certificate_errors(lp: LinearProgram, result: LpResult) -> list[str]:
    """`check_certificates` on a program already validated: `lp_solve`
    validates each program once, before it solves it."""
    errs: list[str] = []
    m = len(lp.rows)
    n = lp.num_vars
    # The rows are the program's integer form over its scale d_rows; the
    # objective is scaled by its own l_obj and each certificate vector by
    # its own lcm. Every scale is positive, so signs survive and each check
    # is an integer dot product; comparisons against b, c or the value
    # cross-multiply the scales back in. The solver's tableau is never read.
    d_rows = lp.scale
    rows = [coeffs for coeffs, _, _ in lp.rows]
    rhs = [b for _, _, b in lp.rows]
    rels = [rel for _, rel, _ in lp.rows]
    l_obj, obj = lp.integer_objective

    def check_point(x: Vec, label: str) -> tuple[tuple[int, ...], int] | None:
        if len(x) != n:
            errs.append(f"{label} has wrong length")
            return None
        scale, xs = integer_multiple(x)
        for j in range(n):
            if lp.nonneg[j] and xs[j] < 0:
                errs.append(f"{label}[{j}] violates nonnegativity")
        for i in range(m):
            if not _holds(_idot(rows[i], xs), rels[i], rhs[i] * scale):
                errs.append(f"{label} violates constraint {i}")
        return xs, scale

    def check_row_signs(ys: Sequence[int], le_sign: int, label: str) -> None:
        for i, rel in enumerate(rels):
            if rel == REL_LE and le_sign * ys[i] < 0:
                errs.append(f"{label}[{i}] has the wrong sign for a <= row")
            if rel == REL_GE and le_sign * ys[i] > 0:
                errs.append(f"{label}[{i}] has the wrong sign for a >= row")

    def combo(ys: Sequence[int]) -> list[int]:
        # y^T A accumulated row by row; most multipliers are zero.
        total = [0] * n
        for yi, row in zip(ys, rows):
            if yi:
                total = [t + yi * a for t, a in zip(total, row)]
        return total

    if result.status is LpStatus.OPTIMAL:
        if result.witness is None or result.dual is None or result.value is None:
            return ["optimal result is missing witness, dual or value"]
        value = result.value
        point = check_point(result.witness, "witness")
        if point is not None:
            xs, l_x = point
            if _idot(obj, xs) * value.denominator != value.numerator * l_obj * l_x:
                errs.append("objective value does not match the witness")
        if len(result.dual) != m:
            return errs + ["dual has wrong length"]
        l_y, ys = integer_multiple(result.dual)
        check_row_signs(ys, +1 if lp.maximize else -1, "dual")
        s = combo(ys)
        for j in range(n):
            lhs, c = s[j] * l_obj, obj[j] * d_rows * l_y
            if lp.nonneg[j]:
                ok = lhs >= c if lp.maximize else lhs <= c
            else:
                ok = lhs == c
            if not ok:
                errs.append(f"dual combination fails on variable {j}")
        if _idot(ys, rhs) * value.denominator != value.numerator * d_rows * l_y:
            errs.append("dual value does not equal the primal value")
    elif result.status is LpStatus.INFEASIBLE:
        if result.farkas is None or len(result.farkas) != m:
            return ["infeasible result is missing a Farkas vector"]
        _, ys = integer_multiple(result.farkas)
        check_row_signs(ys, +1, "farkas")
        s = combo(ys)
        for j in range(n):
            if lp.nonneg[j]:
                if s[j] < 0:
                    errs.append(f"farkas combination is negative on variable {j}")
            elif s[j] != 0:
                errs.append(f"farkas combination is nonzero on free variable {j}")
        if _idot(ys, rhs) >= 0:
            errs.append("farkas vector does not refute the right-hand side")
    elif result.status is LpStatus.UNBOUNDED:
        if result.witness is None or result.ray is None:
            return ["unbounded result is missing witness or ray"]
        check_point(result.witness, "witness")
        if len(result.ray) != n:
            return errs + ["ray has wrong length"]
        _, ds = integer_multiple(result.ray)
        for j in range(n):
            if lp.nonneg[j] and ds[j] < 0:
                errs.append(f"ray[{j}] violates nonnegativity")
        for i in range(m):
            if not _holds(_idot(rows[i], ds), rels[i], 0):
                errs.append(f"ray escapes constraint {i}")
        gain = _idot(obj, ds)
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


def hull_program(
    target: Vec,
    blocks: Sequence[tuple[int, IntegerPoints]],
    rays: tuple[int, IntegerPoints] | None = None,
    *,
    maximize_rays: bool = False,
    bound: bool = False,
) -> LinearProgram:
    """target = sum of signed points and rays with nonnegative weights, where
    each block's weights sum to one, as a program in integer form.

    Columns: each (sign, view) block's points, then the (sign, view) rays,
    then, with `bound`, a common lower bound t on every weight (each weight
    written as t plus a slack, so t's column is each row's sum). Rows: one
    per coordinate, equal to the target, then one per block. The objective,
    maximized, is zero, the total ray weight (`maximize_rays`) or t
    (`bound`). Rows are written over the lcm of the views' scales and the
    target's denominators, which is the lcm of every denominator in them.
    """
    groups = [*blocks, rays] if rays is not None else blocks
    scale = lcm(*(view.scale for _, view in groups), *(c.denominator for c in target))
    columns = [(sign * (scale // view.scale), view.points) for sign, view in groups]
    rows = []
    for d, t in enumerate(target):
        coeffs = [p[d] * m for m, points in columns for p in points]
        if bound:
            coeffs.append(sum(coeffs))
        rows.append((tuple(coeffs), REL_EQ, t.numerator * (scale // t.denominator)))
    width = sum(len(points) for _, points in columns) + bound
    offset = 0
    for _, view in blocks:
        size = len(view.points)
        coeffs = [0] * width
        coeffs[offset : offset + size] = [scale] * size
        if bound:
            coeffs[-1] = size * scale
        rows.append((tuple(coeffs), REL_EQ, scale))
        offset += size
    objective = [ZERO] * width
    if bound:
        objective[-1] = ONE
    elif maximize_rays:
        objective[offset:] = [ONE] * (width - offset)
    return LinearProgram(width, tuple(objective), True, tuple(rows), (True,) * width, scale)


class HullAnswer(NamedTuple):
    """A solved `hull_program` (`solve_hulls`). Feasible: each block's point
    `weights` (with `bound`, their parts above t), the ray weights and the
    optimum. Infeasible: the Farkas multipliers of the coordinate rows, the
    `functional` f, and of the block rows, one offset c per block: with each
    group's sign, sign f.p + c >= 0 on a block's points and sign f.r >= 0 on
    the rays, while f.target + sum(offsets) < 0."""

    feasible: bool
    weights: tuple[Vec, ...] = ()
    rays: Vec = ()
    value: Fraction | None = None
    functional: Vec | None = None
    offsets: Vec = ()


def solve_hulls(
    target: Vec, blocks: Sequence[tuple[int, IntegerPoints]], rays: tuple[int, IntegerPoints] | None = None, **flags
) -> HullAnswer:
    """`lp_solve` on `hull_program(target, blocks, rays, **flags)`, read back
    by its layout: the one reader of that program. No such program is
    unbounded, so an unbounded result is an internal error."""
    res = lp_solve(hull_program(target, blocks, rays, **flags))
    if res.status is LpStatus.INFEASIBLE:
        n = len(target)
        return HullAnswer(False, functional=res.farkas[:n], offsets=res.farkas[n:])
    if res.status is not LpStatus.OPTIMAL:
        raise RuntimeError("a hull program cannot be unbounded")
    weights, start = [], 0
    for _, view in blocks:
        weights.append(res.witness[start : start + len(view.points)])
        start += len(view.points)
    end = start + (len(rays[1].points) if rays is not None else 0)
    return HullAnswer(True, tuple(weights), res.witness[start:end], res.value)


def _hull_views(point: Vec, *given: Sequence[Vec] | IntegerPoints) -> list[IntegerPoints]:
    """Integer views of the vertices and the rays (built here unless given
    as views), checked against the point's dimension."""
    views = [p if isinstance(p, IntegerPoints) else integer_points(p) for p in given]
    if not views[0].points:
        raise ValueError("hull membership needs at least one vertex")
    for kind, view in zip(("vertex", "ray"), views):
        if any(len(p) != len(point) for p in view.points):
            raise ValueError(f"{kind} dimension mismatch")
    return views


def hull_membership(
    point: Vec, vertices: Sequence[Vec] | IntegerPoints, rays: Sequence[Vec] | IntegerPoints = ()
) -> HullMembership:
    """Exact membership of `point` in conv(vertices) + cone(rays).

    Vertices and rays come as vectors or as their integer view (such as
    `FinitePointSet.integer_view`), which is then read as it is.
    """
    vs, rs = _hull_views(point, vertices, rays)
    answer = solve_hulls(point, [(1, vs)], (1, rs))
    if answer.feasible:
        return HullMembership(True, vertex_coefficients=answer.weights[0], ray_coefficients=answer.rays)
    return HullMembership(False, functional=answer.functional, offset=answer.offsets[0])


def relative_interior_membership(
    point: Vec, vertices: Sequence[Vec] | IntegerPoints, rays: Sequence[Vec] | IntegerPoints = ()
) -> bool:
    """Exact test for `point` in the relative interior of conv(vertices) + cone(rays).

    A point is in the relative interior iff it admits a representation with
    every vertex coefficient and every ray coefficient strictly positive;
    the program maximizes a common lower bound t on all coefficients.
    Vertices and rays come as in `hull_membership`.
    """
    vs, rs = _hull_views(point, vertices, rays)
    answer = solve_hulls(point, [(1, vs)], (1, rs), bound=True)
    return answer.feasible and answer.value > 0
