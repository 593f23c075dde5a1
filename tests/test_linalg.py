"""Solver kernel and membership primitives.

Every frozen optimum below comes with its hand oracle in a comment:
for bounded two-variable programs that is full vertex enumeration, for
infeasibility a contradiction witness, for hulls an explicit convex
combination or an explicit separating functional. Three broader oracles
follow: a golden corpus of exact results (`tests/make_lp_corpus.py`), a
brute-force vertex enumeration that does not depend on the pivot rule, and
a copy of the simplex with its set-up written in separate passes, which
the kernel must match pivot for pivot.
"""

import importlib
import json
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from conedom.cones import Cone
from conedom.dominance import dominating_element
from conedom.linalg import (
    _MAX_LP_SIZE,
    ONE,
    REL_EQ,
    REL_GE,
    REL_LE,
    IntegerPoints,
    LimitError,
    LinearProgram,
    LpResult,
    LpStatus,
    Vec,
    ZERO,
    _factor,
    _lp_solve_core,
    _unique_point,
    check_certificates,
    frac,
    fvec,
    hull_membership,
    hull_program,
    integer_multiple,
    integer_points,
    is_zero_vec,
    lp_solve,
    relative_interior_membership,
    vadd,
    vcombination,
    vdot,
    vscale,
    vsub,
)
from conedom.sets import ChainSet, DecomposableSet

fractions3 = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_rationals = st.builds(F, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3))

LP_CORPUS = Path(__file__).parent / "data" / "lp_corpus.json"

linalg_module = importlib.import_module("conedom.linalg")


class TestLpSolve:
    def test_bounded_maximum(self):
        # Vertices of {x+y<=4, x<=2, x,y>=0}: (0,0)->0, (2,0)->6, (2,2)->10,
        # (0,4)->8. Best is 10 at (2,2).
        res = lp_solve(
            LinearProgram.build([3, 2], True, [([1, 1], "<=", 4), ([1, 0], "<=", 2)])
        )
        assert res.status is LpStatus.OPTIMAL
        assert res.value == 10
        assert res.witness == (F(2), F(2))

    def test_bounded_minimum(self):
        # Vertices of {x+y>=2, x,y>=0}: (2,0)->2, (0,2)->4. Best is 2.
        res = lp_solve(
            LinearProgram.build([1, 2], False, [([1, 1], ">=", 2)])
        )
        assert res.status is LpStatus.OPTIMAL
        assert res.value == 2
        assert res.witness == (F(2), F(0))

    def test_equality_row_with_free_variable(self):
        # x free, y >= 0, x + y = 1: x = 1 - y <= 1, so max x is 1 at y = 0.
        res = lp_solve(
            LinearProgram.build([1, 0], True, [([1, 1], "=", 1)], nonneg=[False, True])
        )
        assert res.status is LpStatus.OPTIMAL
        assert res.value == 1
        assert res.witness == (F(1), F(0))

    def test_negative_rhs_row(self):
        # -x <= -2 is x >= 2; minimize x -> 2. Exercises row flipping.
        res = lp_solve(LinearProgram.build([1], False, [([-1], "<=", -2)]))
        assert res.status is LpStatus.OPTIMAL
        assert res.value == 2

    def test_infeasible_farkas(self):
        # x + y <= -1 with x, y >= 0 cannot hold. The Farkas vector must
        # combine the rows into a contradiction; re-check it by hand here.
        lp = LinearProgram.build([0, 0], True, [([1, 1], "<=", -1)])
        res = lp_solve(lp)
        assert res.status is LpStatus.INFEASIBLE
        (y,) = res.farkas
        assert y >= 0  # right sign for a <= row
        combo = (y * 1, y * 1)
        assert all(c >= 0 for c in combo)  # nonneg on nonneg variables
        assert y * F(-1) < 0  # y.b < 0: contradiction

    def test_unbounded_ray(self):
        # max x with only y <= 1 constraining: x runs away along (1, 0).
        lp = LinearProgram.build([1, 0], True, [([0, 1], "<=", 1)])
        res = lp_solve(lp)
        assert res.status is LpStatus.UNBOUNDED
        d = res.ray
        assert vdot((F(1), F(0)), d) > 0  # improves the objective
        assert vdot((F(0), F(1)), d) <= 0  # keeps the row feasible
        assert all(c >= 0 for c in d)

    def test_redundant_equality_rows(self):
        # The same equality twice forces a redundant artificial row to be
        # dropped after phase 1; the dual must still cover both rows.
        lp = LinearProgram.build(
            [1, 1], True, [([1, 1], "=", 2), ([1, 1], "=", 2), ([1, 0], "<=", 2)]
        )
        res = lp_solve(lp)
        assert res.status is LpStatus.OPTIMAL
        assert res.value == 2
        assert len(res.dual) == 3
        assert check_certificates(lp, res) == []

    def test_validate_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            lp_solve(LinearProgram.build([1, 2], True, [([1], "<=", 1)]))
        with pytest.raises(ValueError):
            lp_solve(LinearProgram.build([1], True, [([1], "<<", 1)]))

    def test_tampered_witness_is_detected(self):
        lp = LinearProgram.build([1], True, [([1], "<=", 5)])
        res = lp_solve(lp)
        forged = LpResult(
            status=LpStatus.OPTIMAL, value=res.value, witness=(F(6),), dual=res.dual
        )
        assert any("constraint" in msg for msg in check_certificates(lp, forged))

    def test_tampered_dual_is_detected(self):
        lp = LinearProgram.build([1], True, [([1], "<=", 5)])
        res = lp_solve(lp)
        forged = LpResult(
            status=LpStatus.OPTIMAL, value=res.value, witness=res.witness, dual=(F(-1),)
        )
        assert check_certificates(lp, forged) != []

    def test_optimal_witness_of_wrong_length_is_reported(self):
        lp = LinearProgram.build([1], True, [([1], "<=", 5)])
        res = lp_solve(lp)
        for witness in ((F(5), F(0)), ()):
            forged = LpResult(status=LpStatus.OPTIMAL, value=res.value, witness=witness, dual=res.dual)
            assert check_certificates(lp, forged) == ["witness has wrong length"]
            assert reference_check_certificates(lp, forged) == ["witness has wrong length"]

    def test_unbounded_ray_of_wrong_length_is_reported(self):
        lp = LinearProgram.build([1, 0], True, [([0, 1], "<=", 1)])
        res = lp_solve(lp)
        for ray in ((F(1),), (F(1), F(0), F(0))):
            forged = LpResult(status=LpStatus.UNBOUNDED, witness=res.witness, ray=ray)
            assert check_certificates(lp, forged) == ["ray has wrong length"]
            assert reference_check_certificates(lp, forged) == ["ray has wrong length"]

    def test_malformed_program_is_refused_not_half_read(self):
        # Integer dot products stop at the shorter vector, so a row with an
        # extra coefficient must be refused before any product is taken.
        lp = LinearProgram.build([1], True, [([1], "<=", 5)])
        res = lp_solve(lp)
        wide = LinearProgram(1, lp.objective, True, (((F(1), F(7)), "<=", F(5)),), (True,))
        with pytest.raises(ValueError):
            check_certificates(wide, res)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=3),
        m=st.integers(min_value=1, max_value=3),
    )
    def test_feasible_by_construction(self, data, n, m):
        # Build b from a known nonnegative point so the program is feasible;
        # the solver must then never report infeasible, and an optimum must
        # be at least as good as the known point.
        x0 = tuple(
            data.draw(st.fractions(min_value=0, max_value=3, max_denominator=3))
            for _ in range(n)
        )
        rows = []
        for _ in range(m):
            coeffs = [data.draw(fractions3) for _ in range(n)]
            rel = data.draw(st.sampled_from(["<=", "=", ">="]))
            val = vdot(tuple(coeffs), x0)
            slackened = val + 1 if rel == "<=" else val - 1 if rel == ">=" else val
            rows.append((coeffs, rel, slackened))
        objective = [data.draw(fractions3) for _ in range(n)]
        res = lp_solve(LinearProgram.build(objective, True, rows))
        assert res.status is not LpStatus.INFEASIBLE
        if res.status is LpStatus.OPTIMAL:
            assert res.value >= vdot(tuple(objective), x0)


def _stored_program(prog: dict) -> LinearProgram:
    return LinearProgram.build(
        prog["objective"], prog["maximize"], [tuple(r) for r in prog["constraints"]], prog["nonneg"]
    )


def _stored_result(stored: dict) -> LpResult:
    def vec(v):
        return None if v is None else tuple(F(c) for c in v)

    return LpResult(
        status=LpStatus(stored["status"]),
        value=None if stored["value"] is None else F(stored["value"]),
        witness=vec(stored["witness"]),
        dual=vec(stored["dual"]),
        farkas=vec(stored["farkas"]),
        ray=vec(stored["ray"]),
    )


class TestGoldenCorpus:
    def test_kernel_reproduces_every_stored_result(self):
        entries = json.loads(LP_CORPUS.read_text(encoding="utf-8"))["programs"]
        assert len(entries) >= 300
        assert {e["result"]["status"] for e in entries} == {s.value for s in LpStatus}
        mismatches = []
        for entry in entries:
            lp = _stored_program(entry["program"])
            res = lp_solve(lp)
            if res != _stored_result(entry["result"]):
                mismatches.append(entry["label"])
            numbers = [res.value] + [
                c for v in (res.witness, res.dual, res.farkas, res.ray) if v is not None for c in v
            ]
            # A raw int compares equal to its Fraction, so check the type too.
            assert all(type(c) is F for c in numbers if c is not None), entry["label"]
        assert mismatches == []

    def test_integer_form_expands_back_to_every_stored_program(self):
        # The solver and the checker both read the integer form, so a
        # scaling slip would hit both; expand it back by hand instead.
        entries = json.loads(LP_CORPUS.read_text(encoding="utf-8"))["programs"]
        for entry in entries:
            stored = [([F(c) for c in a], rel, F(b)) for a, rel, b in entry["program"]["constraints"]]
            lp = _stored_program(entry["program"])
            assert lp.scale == lcm(*(c.denominator for a, _, b in stored for c in (*a, b))), entry["label"]
            assert len(lp.rows) == len(stored)
            for (a, rel, b), (ints, int_rel, int_b) in zip(stored, lp.rows):
                assert int_rel == rel
                assert all(type(c) is int for c in (*ints, int_b))
                assert [F(c, lp.scale) for c in ints] == a and F(int_b, lp.scale) == b, entry["label"]
            assert lp.constraints == tuple((tuple(a), rel, b) for a, rel, b in stored)


class TestTamperGuard:
    """A program's integer form belongs to its rows: a rebuilt or replaced
    program never reads the form, or a cached view, of another one."""

    def test_replaced_rows_bring_their_own_views(self):
        lp = LinearProgram.build([1, 1], True, [([1, "1/2"], "<=", 2), ([1, 0], "<=", 1)])
        res = lp_solve(lp)
        assert lp.constraints[0][0] == (F(1), F(1, 2))  # fills the cached view
        assert lp.integer_objective == (1, (1, 1))
        other = LinearProgram.build([2, 1], True, [([1, "1/3"], "<=", 2), ([1, 0], "<=", 1)])
        tampered = replace(lp, rows=other.rows, scale=other.scale, objective=other.objective)
        assert tampered == other
        assert tampered.constraints == other.constraints != lp.constraints
        assert tampered.integer_objective == (1, (2, 1))
        assert lp_solve(tampered) == lp_solve(other) != res
        # The old certificate does not pass for the new rows.
        assert check_certificates(tampered, res) != []
        assert check_certificates(lp, res) == []

    def test_a_scale_that_does_not_match_its_rows_is_read_as_given(self):
        # Halving the scale doubles every rational in the program; the
        # checker reads the new form and flags the old certificate.
        lp = LinearProgram.build([1], True, [([1], "<=", 4)])
        res = lp_solve(lp)
        doubled = replace(lp, rows=(((2,), "<=", 8),), scale=2)
        assert doubled.constraints == lp.constraints
        assert lp_solve(doubled).value == 4
        halved = replace(lp, rows=(((1,), "<=", 8),))
        assert halved.constraints == (((F(1),), "<=", F(8)),)
        assert check_certificates(halved, res) != []
        with pytest.raises(ValueError):
            lp_solve(replace(lp, scale=0))

    def test_rebuilding_from_the_fraction_view_gives_the_same_program(self):
        lp = LinearProgram.build(["1/2", -3], False, [(["2/3", 1], ">=", "-5/7"), ([1, -1], "=", 0)], [True, False])
        again = LinearProgram.build(lp.objective, lp.maximize, lp.constraints, lp.nonneg)
        assert again == lp and again.rows == (((14, 21), ">=", -15), ((21, -21), "=", 0))
        assert again.scale == 21


def reference_check_certificates(lp: LinearProgram, result: LpResult) -> list[str]:
    """The `Fraction` form of `check_certificates`, kept as its oracle.

    Every product and comparison is taken on the rationals as given, with
    no common denominators; the messages and their order are those the
    integer checker must reproduce.
    """
    errs: list[str] = []
    m = len(lp.constraints)

    def check_point(x: Vec, label: str) -> bool:
        if len(x) != lp.num_vars:
            errs.append(f"{label} has wrong length")
            return False
        for j in range(lp.num_vars):
            if lp.nonneg[j] and x[j] < 0:
                errs.append(f"{label}[{j}] violates nonnegativity")
        for i, (coeffs, rel, b) in enumerate(lp.constraints):
            lhs = vdot(coeffs, x)
            ok = lhs <= b if rel == REL_LE else lhs >= b if rel == REL_GE else lhs == b
            if not ok:
                errs.append(f"{label} violates constraint {i}")
        return True

    def check_row_signs(y: Vec, le_sign: int, label: str) -> None:
        for i, (_, rel, _) in enumerate(lp.constraints):
            if rel == REL_LE and le_sign * y[i] < 0:
                errs.append(f"{label}[{i}] has the wrong sign for a <= row")
            if rel == REL_GE and le_sign * y[i] > 0:
                errs.append(f"{label}[{i}] has the wrong sign for a >= row")

    def combo(y: Vec, j: int) -> F:
        return sum((y[i] * lp.constraints[i][0][j] for i in range(m)), ZERO)

    if result.status is LpStatus.OPTIMAL:
        if result.witness is None or result.dual is None or result.value is None:
            return ["optimal result is missing witness, dual or value"]
        if check_point(result.witness, "witness") and vdot(lp.objective, result.witness) != result.value:
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
        if len(d) != lp.num_vars:
            return errs + ["ray has wrong length"]
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


SHIFTS = (F(1), F(-1), F(1, 3), F(-1, 3), F(1, 10**20))
VECTOR_FIELDS = ("witness", "dual", "farkas", "ray")


def _swap_status(lp: LinearProgram, res: LpResult, rng: random.Random) -> LpResult:
    """The same vectors under another status, so the check reaches their arithmetic."""
    n, m = lp.num_vars, len(lp.constraints)
    status = rng.choice([s for s in LpStatus if s is not res.status])
    witness = res.witness or (ZERO,) * n
    multipliers = res.dual or res.farkas or (ZERO,) * m
    if status is LpStatus.OPTIMAL:
        return LpResult(status, value=vdot(lp.objective, witness), witness=witness, dual=multipliers)
    if status is LpStatus.INFEASIBLE:
        return LpResult(status, farkas=multipliers)
    return LpResult(status, witness=witness, ray=res.witness or (F(1),) * n)


def _tampered(lp: LinearProgram, res: LpResult, rng: random.Random) -> LpResult:
    fields = [f for f in VECTOR_FIELDS if getattr(res, f)]
    kind = rng.choice(("entry",) * 6 + ("length", "value", "status"))
    if kind == "status" or not fields:
        return _swap_status(lp, res, rng)
    if kind == "value" and res.value is not None:
        return replace(res, value=res.value + rng.choice(SHIFTS))
    field = rng.choice(fields)
    vec = list(getattr(res, field))
    if kind == "length":
        vec = vec[:-1] if rng.random() < 0.5 else vec + [ZERO]
    else:
        k = rng.randrange(len(vec))
        op = rng.randrange(len(SHIFTS) + 1)
        vec[k] = -vec[k] if op == len(SHIFTS) else vec[k] + SHIFTS[op]
    return replace(res, **{field: tuple(vec)})


class TestCheckerDifferential:
    def test_integer_checker_matches_the_fraction_reference(self):
        # Every stored result plus 40 seeded tamperings of it: one entry
        # shifted by +-1, +-1/3 or 1/10^20 or negated, a length changed, the
        # value shifted, or the status swapped.
        entries = json.loads(LP_CORPUS.read_text(encoding="utf-8"))["programs"]
        rng = random.Random(20261018)
        mismatches = []
        total = flagged = 0
        for entry in entries:
            lp = _stored_program(entry["program"])
            stored = _stored_result(entry["result"])
            for res in [stored] + [_tampered(lp, stored, rng) for _ in range(40)]:
                expected = reference_check_certificates(lp, res)
                if check_certificates(lp, res) != expected:
                    mismatches.append((entry["label"], res))
                total += 1
                flagged += bool(expected)
        assert mismatches == []
        assert 3 * flagged >= total

def _solve_square(rows: list[tuple[F, ...]], rhs: list[F]) -> tuple[F, ...] | None:
    """The unique solution of a square system by exact elimination, or None if singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return tuple(m[r][n] / m[r][r] for r in range(n))


def _vertices(n: int, rows: list[tuple[tuple[F, ...], str, F]]) -> set[tuple[F, ...]]:
    """Vertices of {x >= 0 satisfying rows}: feasible points where n independent constraints are tight."""
    planes = [(a, b) for a, _, b in rows]
    planes += [(tuple(F(int(k == j)) for k in range(n)), ZERO) for j in range(n)]
    found = set()
    for tight in combinations(planes, n):
        x = _solve_square([a for a, _ in tight], [b for _, b in tight])
        if x is None or any(c < 0 for c in x):
            continue
        if all(
            (vdot(a, x) <= b) if rel == "<=" else (vdot(a, x) >= b) if rel == ">=" else vdot(a, x) == b
            for a, rel, b in rows
        ):
            found.add(x)
    return found


def _brute_force(objective, maximize, rows):
    """Status and optimal value by enumeration, independent of any pivot rule.

    With x >= 0 the feasible region is pointed, so it is empty exactly when
    it has no vertex. Its recession cone {d >= 0 : a.d rel 0} is pointed
    too; the vertices of its slice sum(d) = 1 are its extreme rays, and the
    objective is unbounded exactly when one of them improves it.
    """
    n = len(objective)
    vertices = _vertices(n, rows)
    if not vertices:
        return LpStatus.INFEASIBLE, None
    recession = [(a, rel, ZERO) for a, rel, _ in rows] + [((F(1),) * n, "=", F(1))]
    gains = [vdot(objective, d) for d in _vertices(n, recession)]
    if any(g > 0 if maximize else g < 0 for g in gains):
        return LpStatus.UNBOUNDED, None
    values = [vdot(objective, x) for x in vertices]
    return LpStatus.OPTIMAL, max(values) if maximize else min(values)


class TestBruteForceCrossCheck:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=3),
        m=st.integers(min_value=1, max_value=3),
        maximize=st.booleans(),
    )
    def test_status_and_value_match_enumeration(self, data, n, m, maximize):
        rows = [
            (
                tuple(data.draw(small_rationals) for _ in range(n)),
                data.draw(st.sampled_from(["<=", "=", ">="])),
                data.draw(small_rationals),
            )
            for _ in range(m)
        ]
        objective = tuple(data.draw(small_rationals) for _ in range(n))
        res = lp_solve(LinearProgram.build(objective, maximize, rows))
        status, value = _brute_force(objective, maximize, rows)
        assert res.status is status
        assert res.value == value

    def test_enumeration_on_each_status(self):
        # Hand checks of the oracle itself: x + y <= 4, x <= 2 peaks at (2, 2);
        # x + y <= -1 is empty; y <= 1 lets x run away.
        assert _brute_force((F(3), F(2)), True, [((F(1), F(1)), "<=", F(4)), ((F(1), F(0)), "<=", F(2))]) == (
            LpStatus.OPTIMAL,
            10,
        )
        assert _brute_force((F(0), F(0)), True, [((F(1), F(1)), "<=", F(-1))]) == (LpStatus.INFEASIBLE, None)
        assert _brute_force((F(1), F(0)), True, [((F(0), F(1)), "<=", F(1))]) == (LpStatus.UNBOUNDED, None)


TRIANGLE = ((F(0), F(0)), (F(2), F(0)), (F(0), F(2)))


class TestHullMembership:
    def test_inside_with_reconstruction(self):
        # (1,1) = 1/2*(2,0) + 1/2*(0,2).
        res = hull_membership((F(1), F(1)), TRIANGLE)
        assert res.member
        lam = res.vertex_coefficients
        assert sum(lam) == 1 and all(c >= 0 for c in lam)
        rebuilt = tuple(
            sum((lam[i] * TRIANGLE[i][d] for i in range(3)), ZERO) for d in range(2)
        )
        assert rebuilt == (F(1), F(1))

    def test_outside_with_functional(self):
        res = hull_membership((F(2), F(2)), TRIANGLE)
        assert not res.member
        f, g = res.functional, res.offset
        assert all(vdot(f, v) + g >= 0 for v in TRIANGLE)
        assert vdot(f, (F(2), F(2))) + g < 0

    def test_vertex_and_edge_points_are_members(self):
        assert hull_membership((F(0), F(0)), TRIANGLE).member
        assert hull_membership((F(1), F(0)), TRIANGLE).member

    def test_rays_extend_membership(self):
        vertices = ((F(0), F(0)),)
        rays = ((F(1), F(0)),)
        assert hull_membership((F(3), F(0)), vertices, rays).member
        res = hull_membership((F(-1), F(0)), vertices, rays)
        assert not res.member
        f, g = res.functional, res.offset
        assert vdot(f, vertices[0]) + g >= 0
        assert vdot(f, rays[0]) >= 0
        assert vdot(f, (F(-1), F(0))) + g < 0

    def test_empty_vertices_rejected(self):
        with pytest.raises(ValueError):
            hull_membership((F(0),), ())

    def test_dimension_mismatch_is_refused_for_vectors_and_views(self):
        point, short, ray = (F(1), F(1)), ((F(0),),), ((F(1), F(0), F(0)),)
        for entry in (hull_membership, relative_interior_membership):
            for convert in (tuple, integer_points):
                with pytest.raises(ValueError, match="vertex dimension"):
                    entry(point, convert(short))
                with pytest.raises(ValueError, match="ray dimension"):
                    entry(point, convert(TRIANGLE), convert(ray))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), k=st.integers(min_value=1, max_value=4))
    def test_convex_combinations_are_members(self, data, k):
        pts = [
            tuple(data.draw(fractions3) for _ in range(2)) for _ in range(k)
        ]
        weights = [
            data.draw(st.fractions(min_value=0, max_value=1, max_denominator=5))
            for _ in range(k)
        ]
        total = sum(weights)
        if total == 0:
            weights[0] = F(1)
            total = F(1)
        weights = [w / total for w in weights]
        target = tuple(
            sum((w * p[d] for w, p in zip(weights, pts)), ZERO) for d in range(2)
        )
        assert hull_membership(target, tuple(pts)).member

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), k=st.integers(min_value=1, max_value=4))
    def test_points_beyond_the_coordinate_maximum_are_outside(self, data, k):
        pts = [tuple(data.draw(fractions3) for _ in range(2)) for _ in range(k)]
        beyond = (max(p[0] for p in pts) + 1, F(0))
        assert not hull_membership(beyond, tuple(pts)).member


class TestRelativeInterior:
    def test_triangle_center_inside(self):
        assert relative_interior_membership((F(1, 2), F(1, 2)), TRIANGLE)

    def test_edge_midpoint_on_relative_boundary(self):
        # (1,0) sits on the edge y = 0: the whole hull satisfies y >= 0 and
        # some hull point has y > 0, so the point is boundary, not interior.
        assert not relative_interior_membership((F(1), F(0)), TRIANGLE)

    def test_vertex_on_relative_boundary(self):
        assert not relative_interior_membership((F(0), F(0)), TRIANGLE)

    def test_singleton_is_its_own_relative_interior(self):
        assert relative_interior_membership((F(5), F(7)), ((F(5), F(7)),))
        assert not relative_interior_membership((F(5), F(8)), ((F(5), F(7)),))

    def test_segment_midpoint_inside_endpoints_outside(self):
        seg = ((F(0), F(0)), (F(2), F(0)))
        assert relative_interior_membership((F(1), F(0)), seg)
        assert not relative_interior_membership((F(0), F(0)), seg)
        assert not relative_interior_membership((F(2), F(0)), seg)

    def test_ray_interior_excludes_apex(self):
        vertices = ((F(0), F(0)),)
        rays = ((F(1), F(0)),)
        assert relative_interior_membership((F(1), F(0)), vertices, rays)
        assert not relative_interior_membership((F(0), F(0)), vertices, rays)


# --- integer views ------------------------------------------------------------


def reference_integer_points(points):
    """The former one-liner: every coordinate read twice, one generator per point."""
    scale = lcm(*(c.denominator for p in points for c in p))
    return IntegerPoints(scale, tuple(tuple(c.numerator * (scale // c.denominator) for c in p) for p in points))


view_entries = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.builds(F, st.integers(min_value=-10**20, max_value=10**20), st.integers(min_value=1, max_value=12)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(view_entries, max_size=5).map(tuple), max_size=10))
@example([])
@example([()])
@example([(), ()])
@example([(F(1, 2),), (), (F(1, 3), 4, F(-5, 12)), (0,)])
@example([(F(1, 4), F(1, 6)), (F(5, 9), F(0))])
@example([(0, 0), (-3, 7)])
def test_integer_points_match_the_former_one_liner(points):
    view = integer_points(points)
    assert view == reference_integer_points(points)
    assert type(view) is IntegerPoints and type(view.points) is tuple
    assert all(type(q) is tuple and len(q) == len(p) for p, q in zip(points, view.points))
    assert type(view.scale) is int and all(type(x) is int for q in view.points for x in q)


# --- the unique-point presolve --------------------------------------------------


def _column_rank(rows: list[list[F]], n: int) -> int:
    """Rank of the first n columns by `Fraction` elimination."""
    m = [list(r[:n]) for r in rows]
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


presolve_entries = st.builds(F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=12))
presolve_nonzero = presolve_entries.filter(bool)
presolve_coordinates = st.builds(F, st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=12))
PRESOLVE_SHAPES = ("unique", "negative", "inconsistent", "deficient", "redundant")


@st.composite
def feasibility_programs(draw):
    """(program, shape, A, x0): equations A x = b over nonnegative x with a
    zero objective and at least as many rows as variables, b = A x0 before
    the shape's change. Shapes: a nonnegative x0 ("unique"), a negative
    coordinate in x0, one right-hand side moved off A x0 ("inconsistent"),
    one column a combination of the others ("deficient"), and scaled copies
    of rows appended ("redundant"). Any row may be negated, so right-hand
    sides of both signs appear."""
    shape = draw(st.sampled_from(PRESOLVE_SHAPES))
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=n, max_value=n + 2))
    a = [[draw(presolve_entries) for _ in range(n)] for _ in range(m)]
    if shape == "deficient":
        c0, c1 = draw(presolve_entries), draw(presolve_entries)
        for row in a:
            row[-1] = c0 * row[0] + c1 * row[1] if n > 2 else c0 * row[0] if n > 1 else ZERO
    x0 = [draw(presolve_coordinates) for _ in range(n)]
    if shape == "negative":
        x0[draw(st.integers(min_value=0, max_value=n - 1))] = -draw(presolve_coordinates.filter(bool))
    b = [vdot(tuple(row), tuple(x0)) for row in a]
    if shape == "redundant":
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            k, c = draw(st.integers(min_value=0, max_value=m - 1)), draw(presolve_nonzero)
            a.append([c * x for x in a[k]])
            b.append(c * b[k])
    if shape == "inconsistent":
        b[draw(st.integers(min_value=0, max_value=len(b) - 1))] += draw(presolve_nonzero)
    for i in range(len(a)):
        if draw(st.booleans()):
            a[i], b[i] = [-x for x in a[i]], -b[i]
    lp = LinearProgram.build([0] * n, draw(st.booleans()), [(row, "=", bi) for row, bi in zip(a, b)])
    return lp, shape, a, x0


def _fields_are_fractions(res: LpResult) -> bool:
    numbers = [res.value] + [c for v in (res.witness, res.dual, res.farkas, res.ray) if v is not None for c in v]
    return all(type(c) is F for c in numbers if c is not None)


class TestUniquePointPresolve:
    """`lp_solve` decides a feasibility program with one feasible point by
    one elimination; its result must be the simplex's, field for field."""

    @settings(max_examples=500, deadline=None)
    @given(feasibility_programs())
    def test_the_presolve_gives_the_simplex_result(self, case):
        lp, shape, a, x0 = case
        got, simplex = lp_solve(lp), _lp_solve_core(lp)
        assert got == simplex
        assert _fields_are_fractions(got) and _fields_are_fractions(simplex)
        full_rank = _column_rank(a, lp.num_vars) == lp.num_vars
        hit = _unique_point(lp)
        if shape in ("unique", "redundant"):
            # b = A x0 with x0 >= 0: a hit exactly when A has full column rank.
            assert (hit is not None) == full_rank
            assert got.status is LpStatus.OPTIMAL
            if full_rank:
                assert got.witness == tuple(x0) and got.dual == (ZERO,) * len(lp.rows) and got.value == 0
        elif shape in ("negative", "deficient"):
            assert hit is None
        if hit is not None:
            assert hit == simplex

    @staticmethod
    def _square_with_a_third_row(objective=(0, 0), nonneg=None, relation="="):
        # x = 1, y = 2 is the one solution of the three equations.
        rows = [([1, 0], "=", 1), ([0, 1], "=", 2), ([1, 1], relation, 3)]
        return LinearProgram.build(list(objective), True, rows, nonneg)

    @pytest.mark.parametrize(
        "lp",
        [
            _square_with_a_third_row(objective=(1, 0)),
            _square_with_a_third_row(nonneg=[True, False]),
            _square_with_a_third_row(relation="<="),
        ],
        ids=["nonzero objective", "free variable", "inequality row"],
    )
    def test_a_program_of_another_shape_goes_to_the_simplex(self, lp):
        assert _unique_point(lp) is None
        res = lp_solve(lp)
        assert res == _lp_solve_core(lp) and _fields_are_fractions(res)
        assert res.status is LpStatus.OPTIMAL and res.witness == (F(1), F(2))

    def test_the_eligible_square_program_is_a_hit(self):
        lp = self._square_with_a_third_row()
        assert _unique_point(lp) == _lp_solve_core(lp) == LpResult(
            LpStatus.OPTIMAL, ZERO, (F(1), F(2)), (ZERO, ZERO, ZERO)
        )

    def test_a_negative_pivot_keeps_the_determinant_positive(self):
        # -2x = -1 and 4x = 2: the one pivot is -2, so without the sign fix
        # the determinant would end at -2 and x = 1/2 would read as negative.
        # -2x = 1 and 4x = -2 have the one solution x = -1/2 < 0.
        hit = LinearProgram.build([0], True, [([-2], "=", -1), ([4], "=", 2)])
        miss = LinearProgram.build([0], True, [([-2], "=", 1), ([4], "=", -2)])
        assert _unique_point(hit) == _lp_solve_core(hit) == LpResult(LpStatus.OPTIMAL, ZERO, (F(1, 2),), (ZERO, ZERO))
        assert _unique_point(miss) is None
        assert lp_solve(miss).status is LpStatus.INFEASIBLE

    def test_a_pivotless_column_before_the_last_leaves_the_program_to_the_simplex(self, monkeypatch):
        # Columns 0 and 1 are equal, so column 1 finds no pivot, while column 2
        # still does: the elimination goes on past the gap, but with two pivots
        # for three variables it is no hit. The simplex finds a point (1, 0, 1).
        lp = LinearProgram.build([0, 0, 0], True, [([1, 1, 0], "=", 1), ([2, 2, 1], "=", 3), ([0, 0, 1], "=", 1)])
        assert _unique_point(lp) is None
        calls = []
        monkeypatch.setattr(linalg_module, "_lp_solve_core", lambda lp: calls.append(lp) or _lp_solve_core(lp))
        res = lp_solve(lp)
        assert calls == [lp] and res == _lp_solve_core(lp)
        assert res.status is LpStatus.OPTIMAL and res.witness == (F(1), F(0), F(1))

    def test_a_hit_never_runs_the_simplex_and_a_miss_runs_it_once(self, monkeypatch):
        calls = []

        def counted(lp):
            calls.append(lp)
            return _lp_solve_core(lp)

        monkeypatch.setattr(linalg_module, "_lp_solve_core", counted)
        unique = self._square_with_a_third_row()
        inconsistent = LinearProgram.build([0, 0], True, [([1, 0], "=", 1), ([0, 1], "=", 2), ([1, 1], "=", 4)])
        deficient = LinearProgram.build([0, 0], True, [([1, 1], "=", 1), ([2, 2], "=", 2)])
        negative = LinearProgram.build([0], True, [([1], "=", -1), ([2], "=", -2)])
        others = [
            self._square_with_a_third_row(objective=(1, 0)),
            self._square_with_a_third_row(nonneg=[True, False]),
            self._square_with_a_third_row(relation="<="),
            LinearProgram.build([0, 0, 0], True, [([1, 1, 1], "=", 1)]),  # more variables than rows
        ]
        assert lp_solve(unique).status is LpStatus.OPTIMAL and calls == []
        for lp in [inconsistent, deficient, negative, *others]:
            calls.clear()
            lp_solve(lp)
            assert calls == [lp]


@st.composite
def shared_matrix_sequences(draw):
    """(n, matrices, steps): two integer matrices of n columns and m >= n
    rows, and programs A x = b, x >= 0, in the order a set's queries would
    send them, with the matrix drawn for each program and mostly the first.
    b is A x0 for a drawn x0, with one coordinate of x0 negative or one
    entry of b moved off A x0 on some steps. Each program is written as
    `hull_program` writes its rows: over the lcm of b's denominators times a
    drawn factor k >= 1, so the matrix changes by a whole factor from one
    program to the next."""
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=n, max_value=n + 2))
    entries = st.integers(min_value=-4, max_value=4)
    matrices = [[[draw(entries) for _ in range(n)] for _ in range(m)] for _ in range(2)]
    steps = []
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        a = matrices[draw(st.sampled_from((0, 0, 1)))]
        x0 = [draw(presolve_coordinates) for _ in range(n)]
        change = draw(st.sampled_from(("none", "none", "negative", "inconsistent")))
        if change == "negative":
            x0[draw(st.integers(min_value=0, max_value=n - 1))] = -draw(presolve_coordinates.filter(bool))
        b = [vdot(tuple(F(c) for c in row), tuple(x0)) for row in a]
        if change == "inconsistent":
            b[draw(st.integers(min_value=0, max_value=m - 1))] += draw(presolve_nonzero)
        scale = lcm(*(c.denominator for c in b)) * draw(st.integers(min_value=1, max_value=5))
        rows = tuple((tuple(scale * c for c in row), REL_EQ, int(scale * bi)) for row, bi in zip(a, b))
        steps.append(LinearProgram(n, (ZERO,) * n, draw(st.booleans()), rows, (True,) * n, scale))
    return steps


class TestCachedFactorization:
    """`_unique_point` factors each matrix, read up to scale, once, and keeps
    the last factorization (`_factor`): a run of programs on one matrix costs
    one elimination, and every result is still the simplex's and still
    re-checked by `lp_solve`."""

    @settings(max_examples=300, deadline=None)
    @given(shared_matrix_sequences())
    def test_a_sequence_on_shared_matrices_gives_the_simplex_result_after_every_call(self, steps):
        for lp in steps:
            got = lp_solve(lp)
            assert got == _lp_solve_core(lp) and _fields_are_fractions(got)
            assert _factor.cache_info().currsize <= 1

    @staticmethod
    def _two_chain_set() -> DecomposableSet:
        # The lifted points (0, 0, 1, 0), (1, 2, 1, 0), (0, 1, 0, 1) and
        # (3, 3, 0, 1) are independent, so every program is square, of
        # full rank, and decided by the presolve.
        orthant = Cone.build(2, [[1, 0], [0, 1]], True)
        c1 = ChainSet.build([(0, 0), (1, 2)], orthant)
        c2 = ChainSet.build([(0, 1), (3, 3)], orthant)
        return DecomposableSet((c1, c2))

    def test_ten_queries_on_one_set_run_one_elimination(self, monkeypatch):
        d = self._two_chain_set()
        # y = l (1, 2) + u (3, 3) + (1 - u) (0, 1) with l = 1/(k+1), u = 1/(k+2):
        # a new denominator, and so a new row scale, for every target.
        targets = [(F(1, k + 1) + F(3, k + 2), F(2, k + 1) + 1 + F(2, k + 2)) for k in range(1, 11)]
        eliminations = []
        eliminate = linalg_module._eliminate
        monkeypatch.setattr(linalg_module, "_eliminate", lambda *args: eliminations.append(1) or eliminate(*args))
        simplex = []
        monkeypatch.setattr(linalg_module, "_lp_solve_core", lambda lp: simplex.append(lp) or _lp_solve_core(lp))
        _factor.cache_clear()
        for y in targets:
            cert = dominating_element(y, d)
            assert cert.target == y
        assert len(eliminations) == 1 and simplex == []
        info = _factor.cache_info()
        assert (info.hits, info.misses, info.currsize) == (9, 1, 1)

    def test_a_corrupted_transform_never_gives_a_wrong_answer(self, monkeypatch):
        # Each entry of the remembered T is moved by one in turn, and the
        # determinant is raised by one (an elimination keeps it positive). The
        # result must be the simplex's or the certificate re-check's
        # RuntimeError, and at least one corruption must be caught by it.
        programs = [
            TestUniquePointPresolve._square_with_a_third_row(),
            LinearProgram.build([0, 0], True, [([2, 1], "=", 4), ([1, 3], "=", 7), ([1, -2], "=", -3)]),
            LinearProgram.build([0], True, [([-2], "=", -1), ([4], "=", 2)]),
        ]
        caught = 0
        for lp in programs:
            flat = [c for a, _, _ in lp.rows for c in a]
            g = gcd(*flat)
            det, transform = _factor.__wrapped__(lp.num_vars, tuple(c // g for c in flat))
            corruptions = [(det + 1, transform)]
            for i, t in enumerate(transform):
                for j in range(len(t)):
                    for delta in (1, -1):
                        bad = [list(row) for row in transform]
                        bad[i][j] += delta
                        corruptions.append((det, tuple(map(tuple, bad))))
            for corrupted in corruptions:
                monkeypatch.setattr(linalg_module, "_factor", lambda n, a, corrupted=corrupted: corrupted)
                try:
                    got = lp_solve(lp)
                except RuntimeError as exc:
                    assert "invalid certificate" in str(exc)
                    caught += 1
                    continue
                assert got == _lp_solve_core(lp)
        assert caught > 0


class TestRationalGrammar:
    """`frac` reads a string only in the scene grammar: an integer or p/q
    with a positive denominator, so the text bounds the size of the number."""

    @pytest.mark.parametrize("text, value", [("3", F(3)), ("-3/2", F(-3, 2)), ("0", F(0)), ("4/6", F(2, 3))])
    def test_integers_and_ratios_are_read(self, text, value):
        assert frac(text) == value and type(frac(text)) is F

    @pytest.mark.parametrize("text", ["1e3", "1.5", "+3", " 3", "3\n", "1/0", "1/-2", "1/02", "", "-", "inf", "nan"])
    def test_every_other_form_is_refused(self, text):
        with pytest.raises(ValueError, match="unreadable rational"):
            frac(text)

    def test_a_huge_exponent_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="unreadable rational"):
            frac("1e2000000")
        assert time.perf_counter() - start < 0.1


class TestProgramSizeCap:
    @staticmethod
    def _program(rows: int, variables: int) -> LinearProgram:
        row = ((1,) * variables, "=", 1)
        return LinearProgram(variables, (ZERO,) * variables, True, (row,) * rows, (True,) * variables)

    def test_a_program_just_over_the_cap_is_refused_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise RuntimeError("reached the solver")

        for name in ("_unique_point", "_bareiss_step", "_lp_solve_core"):
            monkeypatch.setattr(linalg_module, name, no_work)
        rows = isqrt(_MAX_LP_SIZE) // 2
        variables = -(-(_MAX_LP_SIZE + 1) // rows) - rows
        assert rows * (variables + rows) > _MAX_LP_SIZE >= rows * (variables - 1 + rows)
        with pytest.raises(LimitError, match=f"more than the limit of {_MAX_LP_SIZE}"):
            lp_solve(self._program(rows, variables))
        # One variable fewer is at or under the cap and reaches the presolve.
        with pytest.raises(RuntimeError, match="reached the solver"):
            lp_solve(self._program(rows, variables - 1))


# The simplex's set-up against a reference that writes it in separate passes.


def reference_lp_solve_core(lp: LinearProgram, paths: Counter | None = None) -> LpResult:
    """The two-phase simplex with its set-up in separate passes: three over
    the rows, with parallel lists, and two more for the phase-1 cost row.

    The kernel must match it field for field and pivot for pivot. Apart from
    the module prefixes and `F` for `Fraction`, its only additions are the
    lines marked `# path`, which count in `paths` the branches a program
    takes.
    """
    paths = Counter() if paths is None else paths
    m = len(lp.rows)

    # Internal columns: a nonnegative variable maps to one column, a free
    # variable to a positive and a negative column.
    var_cols: list[tuple[int, int]] = []
    for j in range(lp.num_vars):
        var_cols.append((j, 1))
        if not lp.nonneg[j]:
            var_cols.append((j, -1))
    n_var = len(var_cols)

    sign = -1 if lp.maximize else 1  # internally always minimize sign * objective

    n_slack = sum(1 for _, rel, _ in lp.rows if rel != REL_EQ)
    slack_base = n_var
    art_base = n_var + n_slack

    # The rows come scaled by one common denominator `scale` (the program's
    # integer form) and the objective is scaled by its own `obj_scale`. A
    # per-row scale would weight the phase-1 artificials differently and
    # change Bland's choices; a common one only rescales slack and
    # artificial columns, which moves no sign and no ratio-test winner.
    scale = lp.scale
    obj_scale, obj = lp.integer_objective

    # First pass: equality rows with slack columns, right-hand sides >= 0.
    body: list[list[int]] = []
    rhs: list[int] = []
    flip: list[int] = []
    slack_info: list[tuple[int, int] | None] = []
    si = 0
    for coeffs, rel, b in lp.rows:
        f = -1 if b < 0 else 1
        flip.append(f)
        body.append([f * s * coeffs[j] for j, s in var_cols])
        rhs.append(f * b)
        if rel == REL_EQ:
            slack_info.append(None)
        else:
            slack_info.append((slack_base + si, f if rel == REL_LE else -f))
            si += 1

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

    # Fraction-free tableau (Edmonds 1967; Bareiss 1968): every row,
    # including both cost rows, holds integers over one shared positive
    # basis determinant `det`; the exact tableau is `row / det`.
    width = art_base + n_art + 1  # +1 for the right-hand side cell
    tableau: list[list[int]] = []
    for i in range(m):
        row = body[i] + [0] * (n_slack + n_art) + [rhs[i]]
        info = slack_info[i]
        if info is not None:
            row[info[0]] = info[1]
        acol = art_of_row[i]
        if acol is not None:
            row[acol] = 1
        tableau.append(row)
    det = 1

    # Cost rows, maintained by the same row operations as the tableau.
    cost1 = [0] * width
    for i in range(m):
        acol = art_of_row[i]
        if acol is not None:
            cost1[acol] = 1
    cost2 = [0] * width
    for k, (j, s) in enumerate(var_cols):
        cost2[k] = sign * s * obj[j]

    # Reduce cost1 against the artificial basics so basic columns read zero.
    for i in range(m):
        if art_of_row[i] is not None:
            row = tableau[i]
            for k in range(width):
                cost1[k] -= row[k]
    costs = (cost1, cost2)

    pivots = 0

    def pivot(r: int, j: int) -> None:
        nonlocal pivots, det
        pivots += 1
        if pivots > linalg_module._MAX_PIVOTS:
            raise RuntimeError("simplex pivot limit exceeded")
        det = linalg_module._bareiss_step((*tableau, *costs), tableau[r], j, det)
        basis[r] = j

    def run_phase(cost: list[int], allowed: int) -> int | None:
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
            best_rhs = best_a = 0
            for r in range(len(tableau)):
                a = tableau[r][enter]
                if a > 0:
                    # rhs_r / a < best_rhs / best_a, cross-multiplied.
                    key = tableau[r][width - 1] * best_a - best_rhs * a
                    if leave >= 0 and key == 0 and min(basis[r], basis[leave]) >= slack_base:  # path
                        paths["slack-artificial tie"] += (basis[r] >= art_base) != (basis[leave] >= art_base)  # path
                    if leave < 0 or key < 0 or (key == 0 and basis[r] < basis[leave]):
                        best_rhs = tableau[r][width - 1]
                        best_a = a
                        leave = r
            if leave < 0:
                return enter
            pivot(leave, enter)

    if n_art > 0:
        paths["phase 1"] += 1  # path
        unb = run_phase(cost1, art_base)
        if unb is not None:  # phase-1 objective is bounded below by zero
            raise RuntimeError("phase-1 simplex reported unbounded")
        if sum(tableau[r][width - 1] for r in range(len(tableau)) if basis[r] >= art_base) > 0:
            # Every original row keeps a unit column (its slack or
            # artificial); the multiplier is that column's objective cost
            # minus its reduced cost. Artificials cost one in phase 1.
            farkas = tuple(
                F(-flip[i] * ((det if rcol >= art_base else 0) - cost1[rcol]), det)
                for i, rcol in enumerate(reader)
            )
            paths["infeasible"] += 1  # path
            return LpResult(status=LpStatus.INFEASIBLE, farkas=farkas)
        # Feasible: drive remaining artificials out, drop redundant rows.
        drop: list[int] = []
        for r in range(len(tableau)):
            if basis[r] >= art_base:
                col = next((j for j in range(art_base) if tableau[r][j] != 0), None)
                if col is None:
                    paths["drop"] += 1  # path
                    drop.append(r)
                else:
                    paths["drive-out"] += 1  # path
                    pivot(r, col)
        for r in reversed(drop):
            del tableau[r]
            del basis[r]

    unb = run_phase(cost2, art_base)

    def witness_point() -> Vec:
        values = [0] * lp.num_vars
        for r, col in enumerate(basis):
            if col < n_var:
                j, s = var_cols[col]
                values[j] += s * tableau[r][width - 1]
        return tuple(F(v, det) for v in values)

    if unb is not None:
        paths["unbounded by a slack" if unb >= n_var else "unbounded by a variable"] += 1  # path
        # One unit of a slack column is 1/scale of a unit of the original
        # slack, so a ray entered by a slack is scaled back up.
        unit = scale if unb >= n_var else 1
        ray = [0] * lp.num_vars
        if unb < n_var:
            j, s = var_cols[unb]
            ray[j] += s * det
        for r, col in enumerate(basis):
            if col < n_var:
                j, s = var_cols[col]
                ray[j] -= s * tableau[r][unb] * unit
        return LpResult(
            status=LpStatus.UNBOUNDED,
            witness=witness_point(),
            ray=tuple(F(v, det) for v in ray),
        )

    # The right-hand cell of cost2 is minus the scaled internal objective;
    # the multipliers are phase-2 costs (zero on slacks and artificials)
    # minus reduced costs, rescaled from the scaled rows and objective back
    # to the program as given.
    paths["optimal"] += 1  # path
    value = F(-sign * cost2[width - 1], det * obj_scale)
    dual = tuple(
        F(sign * flip[i] * -cost2[rcol] * scale, det * obj_scale)
        for i, rcol in enumerate(reader)
    )
    return LpResult(status=LpStatus.OPTIMAL, value=value, witness=witness_point(), dual=dual)


def _simplex_steps(solve, lp: LinearProgram, record) -> LpResult:
    """`solve(lp)`, with `record(label, cost_rows)` called on the label that
    enters at each simplex pivot and the number of cost rows the pivot
    updates. The reference pivots with `_bareiss_step`, whose column is the
    label, on the program's rows and then its cost rows (it drops no row
    before its last pivot); the kernel pivots with `_exchange`, whose slot
    holds the label, on its rows, one per basic label, and then its cost
    rows. Each counts the rows it was given beyond those. The steps that
    `_exchange` takes with `_bareiss_step`, and those of `_eliminate`, which
    solves for the multipliers and pivots no tableau, are not recorded
    again."""
    real_step, real_exchange, real_eliminate = (
        linalg_module._bareiss_step,
        linalg_module._exchange,
        linalg_module._eliminate,
    )
    inside = False

    def unrecorded(real):
        def run(*args):
            nonlocal inside
            inside = True
            try:
                return real(*args)
            finally:
                inside = False

        return run

    def step(rows, prow, j, det):
        rows = tuple(rows)
        if not inside:
            record(j, len(rows) - len(lp.rows))
        return real_step(rows, prow, j, det)

    def exchange(rows, r, k, det, basis, labels, keep):
        record(labels[k], len(rows) - len(basis))
        return unrecorded(real_exchange)(rows, r, k, det, basis, labels, keep)

    linalg_module._bareiss_step, linalg_module._exchange, linalg_module._eliminate = (
        step,
        exchange,
        unrecorded(real_eliminate),
    )
    try:
        return solve(lp)
    finally:
        linalg_module._bareiss_step, linalg_module._exchange, linalg_module._eliminate = (
            real_step,
            real_exchange,
            real_eliminate,
        )


def _counting_steps(solve, lp: LinearProgram) -> tuple[LpResult, int]:
    """`solve(lp)` and the number of simplex pivots it made (`_simplex_steps`),
    so equal counts on equal results mean the same pivot path."""
    steps = []
    return _simplex_steps(solve, lp, lambda label, cost_rows: steps.append(label)), len(steps)


_build = LinearProgram.build
# Hand programs, each named by the shape it has or the branch the reference takes on it.
HAND_PROGRAMS = {
    # x free: max x with x + y = 1 peaks at x = 1.
    "free variable": _build([1, 0], True, [([1, 1], "=", 1)], nonneg=[False, True]),
    # -x <= -2 flips to x - s = 2, which needs an artificial; -x >= -3 flips to x + s = 3, which does not.
    "negative right-hand sides": _build([1], False, [([-1], "<=", -2), ([-1], ">=", -3)]),
    "all three relations": _build([2, 1], True, [([1, 1], "<=", 4), ([1, -1], "=", 1), ([1, 0], ">=", F(1, 2))]),
    "infeasible": _build([0, 0], True, [([1, 1], "<=", -1)]),
    # The same equation twice: the second artificial row reads zero after phase 1.
    "drop": _build([1, 1], True, [([1, 1], "=", 2), ([1, 1], "=", 2), ([1, 0], "<=", 2)]),
    # Opposite equations: the leftover artificial row's first nonzero entry is negative.
    "drive-out": _build([1, 1], True, [([-1, 1], "=", 0), ([1, -1], "=", 0), ([1, 0], "<=", 1)]),
    "unbounded by a variable": _build([1, 0], True, [([0, 1], "<=", 1)]),
    # x >= 1 with x maximized: x = 1 + s grows with its slack s.
    "unbounded by a slack": _build([1], True, [([1], ">=", 1)]),
    # Two degenerate rows (b = 0), x <= 0 with its slack basic and x = 0 with its
    # artificial basic, tie when x enters. The slack, numbered first, leaves, and
    # the artificial is driven out after phase 1: two pivots, where the
    # artificial leaving would take one.
    "slack-artificial tie": _build([1], True, [([1], "<=", 0), ([1], "=", 0)]),
    # x free enters on its negative half in phase 1 and on its positive half in phase 2.
    "negative half, then positive half": _build(
        [-1, -2], False, [([-1, 2], "=", 1), ([-1, 2], "<=", 1), ([-2, 1], ">=", -2)], nonneg=[False, True]
    ),
    # The first equation is the last one negated. Phase 1 drops the first, ahead of the rows it repeats, so the
    # dual (0, 5/2, -1/2) is solved with the first row's artificial in B.
    "drop under an objective": _build([2, 1], True, [([-1, 2], "=", 0), ([1, 0], "=", 1), ([1, -2], "=", 0)]),
    # x_2 free enters on its negative half in phase 1 and leaves; the second drive-out takes its positive
    # half, which phase 2 pivots out of the basis at level 0 before its negative half enters along a ray.
    "drive-out on a negated column": _build(
        [-1, -1, 0, 0],
        False,
        [([1, -2, -2, -1], ">=", 1), ([-2, -2, -1, -1], "=", 1), ([2, 0, -1, 1], "=", -1), ([-2, -2, 0, -2], "<=", 2)],
        nonneg=[True, True, False, False],
    ),
}
BRANCHES = ("infeasible", "drop", "drive-out", "unbounded by a variable", "unbounded by a slack", "slack-artificial tie")


@st.composite
def simplex_programs(draw):
    """Programs over one to three variables, some free, with rows of every
    relation and sign of right-hand side; over a third of the right-hand sides
    are zero, so that a basic slack and a basic artificial can tie in the
    ratio test. Half of them turn a row into an equation and add a multiple
    of it as a second, redundant, equation."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rhs = st.one_of(st.just(F(0)), small_rationals, small_rationals)
    rows = [
        (tuple(draw(small_rationals) for _ in range(n)), draw(st.sampled_from(["<=", "=", ">="])), draw(rhs))
        for _ in range(m)
    ]
    if draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        a, _, b = rows[i]
        rows[i] = (a, "=", b)
        w = draw(small_rationals.filter(bool))
        rows.insert(draw(st.integers(0, m)), (tuple(w * c for c in a), "=", w * b))
    objective = [draw(small_rationals) for _ in range(n)]
    nonneg = [draw(st.booleans()) for _ in range(n)]
    return _build(objective, draw(st.booleans()), rows, nonneg)


class TestOnePassSetUp:
    def test_the_hand_programs_have_their_shapes(self):
        assert not all(HAND_PROGRAMS["free variable"].nonneg)
        assert all(b < 0 for _, _, b in HAND_PROGRAMS["negative right-hand sides"].rows)
        assert {rel for _, rel, _ in HAND_PROGRAMS["all three relations"].rows} == {"<=", "=", ">="}

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_the_reference_takes_each_branch_on_its_hand_program(self, branch):
        paths = Counter()
        reference_lp_solve_core(HAND_PROGRAMS[branch], paths)
        assert paths[branch] > 0

    @pytest.mark.parametrize("name", sorted(HAND_PROGRAMS))
    def test_each_hand_program_matches_the_reference(self, name):
        lp = HAND_PROGRAMS[name]
        assert _counting_steps(_lp_solve_core, lp) == _counting_steps(reference_lp_solve_core, lp)

    @settings(max_examples=400, deadline=None)
    @given(simplex_programs())
    def test_the_kernel_matches_the_reference_field_for_field_and_pivot_for_pivot(self, lp):
        assert _counting_steps(_lp_solve_core, lp) == _counting_steps(reference_lp_solve_core, lp)


def _cost_rows_per_step(solve, lp: LinearProgram) -> tuple[LpResult, list[int]]:
    """`solve(lp)` and, for each simplex pivot (`_simplex_steps`), the number
    of cost rows carried through it."""
    extra = []
    return _simplex_steps(solve, lp, lambda label, cost_rows: extra.append(cost_rows)), extra


def _pivot_paths(lp: LinearProgram) -> tuple[list, list]:
    """The labels the reference and the kernel pivot in, in order. The
    reference's variable columns are named (j, "+") and, for a free x_j,
    then (j, "-"); the kernel's variable labels are named j, whatever slot
    holds them; every slack is "slack"."""
    halves = [(j, h) for j in range(lp.num_vars) for h in ("+", "-")[: 1 if lp.nonneg[j] else 2]]
    reference, kernel = [], []
    _simplex_steps(reference_lp_solve_core, lp, lambda label, cost_rows: reference.append(label))
    _simplex_steps(_lp_solve_core, lp, lambda label, cost_rows: kernel.append(label))
    return (
        [halves[j] if j < len(halves) else "slack" for j in reference],
        [label if label < lp.num_vars else "slack" for label in kernel],
    )


class TestColumnsThatCanEnter:
    """The kernel stores one column per nonbasic variable and slack, a free
    variable's up to sign, and no basic or artificial column; it matches the
    reference, which stores every column, variable for variable along the
    pivot path."""

    @pytest.mark.parametrize(
        "name, path, branches",
        [
            ("negative half, then positive half", [(0, "-"), "slack", (1, "+"), (0, "+")], {"optimal": 1}),
            # The drive-out's pivots are (0, "+") and (2, "+"); x_2's last pivot before them was its negative half.
            (
                "drive-out on a negated column",
                [(2, "-"), (3, "-"), (1, "+"), (0, "+"), (2, "+"), "slack"],
                {"drive-out": 2, "unbounded by a variable": 1},
            ),
        ],
    )
    def test_a_free_column_enters_on_either_half(self, name, path, branches):
        lp = HAND_PROGRAMS[name]
        paths = Counter()
        expected = reference_lp_solve_core(lp, paths)
        assert {branch: paths[branch] for branch in branches} == branches
        reference, kernel = _pivot_paths(lp)
        assert reference == path
        assert kernel == [h if h == "slack" else h[0] for h in path]
        assert _lp_solve_core(lp) == expected

    def test_the_dual_reads_a_dropped_rows_label(self):
        lp = HAND_PROGRAMS["drop under an objective"]
        paths = Counter()
        expected = reference_lp_solve_core(lp, paths)
        assert paths["drop"] == 1
        # y (0, 5/2, -1/2): y A = (2, 1) = c and y b = 5/2, the value at (1, 1/2).
        assert expected == LpResult(LpStatus.OPTIMAL, F(5, 2), (ONE, F(1, 2)), (ZERO, F(5, 2), F(-1, 2)))
        assert _lp_solve_core(lp) == expected and _fields_are_fractions(expected)

    @staticmethod
    def _assert_stored_slots(lp: LinearProgram) -> None:
        """Before and after every pivot, the kernel's slots hold exactly the
        nonbasic labels that can enter (the variables, a free one once, and
        the slacks; no artificial), in label order, and every row holds one
        entry per slot and the right-hand side."""
        can_enter = range(lp.num_vars + sum(rel != REL_EQ for _, rel, _ in lp.rows))
        real = linalg_module._exchange

        def check(rows, basis, labels):
            assert labels == [label for label in can_enter if label not in basis]
            assert {len(row) for row in rows} == {len(labels) + 1}

        def exchange(rows, r, k, det, basis, labels, keep):
            check(rows, basis, labels)
            det = real(rows, r, k, det, basis, labels, keep)
            check(rows, basis, labels)
            return det

        linalg_module._exchange = exchange
        try:
            _lp_solve_core(lp)
        finally:
            linalg_module._exchange = real

    @pytest.mark.parametrize("name", sorted(HAND_PROGRAMS))
    def test_every_pivot_row_holds_the_nonbasic_labels_that_can_enter_and_the_right_hand_side(self, name):
        self._assert_stored_slots(HAND_PROGRAMS[name])

    @settings(max_examples=200, deadline=None)
    @given(simplex_programs())
    def test_every_pivot_row_has_the_width_of_the_columns_that_can_enter(self, lp):
        self._assert_stored_slots(lp)

    @pytest.mark.parametrize("name", sorted(name for name, lp in HAND_PROGRAMS.items() if any(lp.objective)))
    def test_each_phase_2_pivot_of_a_hand_program_carries_one_cost_row(self, name):
        self._assert_one_cost_row_in_phase_2(HAND_PROGRAMS[name])

    @settings(max_examples=200, deadline=None)
    @given(simplex_programs().filter(lambda lp: any(lp.objective)))
    def test_each_phase_2_pivot_carries_one_cost_row(self, lp):
        self._assert_one_cost_row_in_phase_2(lp)

    @staticmethod
    def _assert_one_cost_row_in_phase_2(lp: LinearProgram) -> None:
        """Phase 1 and the drive-out read no objective, so their pivots are
        those of the program with its objective zeroed; they carry both cost
        rows, and every later pivot, in phase 2, carries only its own."""
        _, rows = _cost_rows_per_step(_lp_solve_core, lp)
        _, before = _cost_rows_per_step(_lp_solve_core, replace(lp, objective=(ZERO,) * lp.num_vars))
        assert rows == [2] * len(before) + [1] * (len(rows) - len(before))


@st.composite
def separator_shaped_programs(draw):
    """Programs shaped like `strict_separator`'s, over free (f, a, b) in
    dimensions 2 to 4, so 4 to 6 variables: f.v - a <= 0 on points v of X,
    f.w - b >= 0 on points w of Y and b - a >= 1, 6 to 12 rows in all, every
    right-hand side but the last zero. Every slack of X's rows starts basic,
    and every other row starts on an artificial. A third of them carry an
    objective, so that phase 2 runs on the wide tableau too."""
    d, m = draw(st.integers(2, 4)), draw(st.integers(6, 12))
    x_points = draw(st.integers(1, m - 2))
    point = st.tuples(*[st.integers(-4, 4)] * d)
    rows = [((*draw(point), -1, 0), "<=", 0) for _ in range(x_points)]
    rows += [((*draw(point), 0, -1), ">=", 0) for _ in range(m - 1 - x_points)]
    rows.append(((0,) * d + (-1, 1), ">=", 1))
    n = d + 2
    objective = [draw(st.integers(-3, 3)) for _ in range(n)] if draw(st.integers(0, 2)) == 0 else [0] * n
    return _build(objective, draw(st.booleans()), rows, [False] * n)


@st.composite
def hull_shaped_programs(draw):
    """`hull_program`s over 6 to 18 nonnegative variables: a target in
    dimension 2 to 4 as the sum of points of one or two blocks, each block's
    weights summing to one, plus up to three rays; every row an equation.
    The objective is zero, the total ray weight, or (with `bound`) a common
    lower bound on the weights."""
    d, width = draw(st.integers(2, 4)), draw(st.integers(6, 18))
    point = st.tuples(*[st.integers(-3, 3)] * d).map(fvec)
    bound, n_rays = draw(st.booleans()), draw(st.integers(0, 3))
    n_points = width - n_rays - bound
    cut = draw(st.integers(0, n_points - 1))
    sizes = [n_points - cut, cut] if cut else [n_points]
    blocks = [(1, integer_points([draw(point) for _ in range(size)])) for size in sizes]
    rays = (1, integer_points([draw(point) for _ in range(n_rays)])) if n_rays else None
    maximize_rays = not bound and n_rays > 0 and draw(st.booleans())
    return hull_program(draw(point), blocks, rays, maximize_rays=maximize_rays, bound=bound)


class TestWidePrograms:
    """On programs wider than `simplex_programs` draws, where a slot holds
    one label after another over many exchanges, the kernel matches the
    reference field for field and label for label along the pivot path.
    `target` steers the draws toward long paths."""

    @staticmethod
    def _assert_matches_reference(lp: LinearProgram) -> None:
        reference, kernel = _pivot_paths(lp)
        assert kernel == [h if h == "slack" else h[0] for h in reference]
        assert _lp_solve_core(lp) == reference_lp_solve_core(lp)
        target(float(len(kernel)))

    @settings(max_examples=150, deadline=None)
    @given(separator_shaped_programs())
    def test_separator_shaped_programs_match_the_reference(self, lp):
        assert lp.num_vars in range(4, 7) and len(lp.rows) in range(6, 13) and not any(lp.nonneg)
        self._assert_matches_reference(lp)

    @settings(max_examples=150, deadline=None)
    @given(hull_shaped_programs())
    def test_hull_shaped_programs_match_the_reference(self, lp):
        assert lp.num_vars in range(6, 19) and all(lp.nonneg) and {rel for _, rel, _ in lp.rows} == {REL_EQ}
        self._assert_matches_reference(lp)


# Hand programs with a zero objective, each named by the branch the reference takes on it.
ZERO_OBJECTIVE_PROGRAMS = {
    # The same equation twice: the second artificial row reads zero after phase 1 and is dropped.
    "drop": _build([0, 0], True, [([1, 1], "=", 2), ([1, 1], "=", 2), ([1, 0], "<=", 2)]),
    # Opposite equations: an artificial is left basic at level 0 and driven out.
    "drive-out": _build([0, 0], False, [([-1, 1], "=", 0), ([1, -1], "=", 0), ([1, 0], "<=", 1)]),
    # Every row has its +1 slack, so there are no artificials and no phase 1.
    "no phase 1": _build([0, 0], True, [([1, 1], "<=", 4), ([1, 0], "<=", 3)]),
}


class TestZeroObjectiveStop:
    """A zero objective carries no phase-2 cost row and runs no phase 2; the
    result is the reference's (which carries and runs both), field for field
    and pivot for pivot."""

    @pytest.mark.parametrize("branch", sorted(ZERO_OBJECTIVE_PROGRAMS))
    def test_each_hand_program_matches_the_reference(self, branch):
        lp = ZERO_OBJECTIVE_PROGRAMS[branch]
        paths = Counter()
        expected, reference_rows = _cost_rows_per_step(lambda p: reference_lp_solve_core(p, paths), lp)
        if branch == "no phase 1":
            assert paths["phase 1"] == 0 and reference_rows == []
        else:
            assert paths[branch] > 0 and set(reference_rows) == {2}
        got, rows = _cost_rows_per_step(_lp_solve_core, lp)
        assert got == expected and _fields_are_fractions(got)
        assert got.status is LpStatus.OPTIMAL and got.value == 0 and got.dual == (ZERO,) * len(lp.rows)
        assert len(rows) == len(reference_rows) and set(rows) <= {1}

    @settings(max_examples=200, deadline=None)
    @given(simplex_programs())
    def test_a_zero_objective_matches_the_reference_with_one_cost_row(self, lp):
        lp = replace(lp, objective=(ZERO,) * lp.num_vars)
        got, rows = _cost_rows_per_step(_lp_solve_core, lp)
        expected, reference_rows = _cost_rows_per_step(reference_lp_solve_core, lp)
        assert got == expected
        assert len(rows) == len(reference_rows) and set(rows) <= {1}


def test_lp_solve_validates_its_program_once(monkeypatch):
    calls = []
    real = LinearProgram.validate
    monkeypatch.setattr(LinearProgram, "validate", lambda lp: calls.append(lp) or real(lp))
    lp = HAND_PROGRAMS["all three relations"]
    lp_solve(lp)
    assert calls == [lp]
    assert check_certificates(lp, lp_solve(lp)) == [] and len(calls) == 3


# The vector helpers against their former `Fraction`-operator forms.


def reference_vadd(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def reference_vsub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def reference_vscale(c, a):
    return tuple(c * x for x in a)


def reference_vdot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def reference_is_zero_vec(a):
    return all(x == 0 for x in a)


def reference_vcombination(coefficients, vectors, dimension):
    acc = [ZERO] * dimension
    for c, v in zip(coefficients, vectors, strict=True):
        if c:
            acc = [a + c * x for a, x in zip(acc, v)]
    return tuple(acc)


def reference_integer_multiple(v):
    scale = lcm(*(x.denominator for x in v))
    return scale, tuple(x.numerator * (scale // x.denominator) for x in v)


exact_entries = st.one_of(
    st.just(0),
    st.just(ZERO),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
)
exact_vectors = st.lists(exact_entries, max_size=8).map(tuple)


def _all_fractions(v) -> bool:
    return all(type(x) is F for x in v)


def _outcome(fn, *args):
    """fn(*args), or the ValueError message it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestVectorHelpers:
    @settings(max_examples=300, deadline=None)
    @given(exact_vectors, exact_entries, st.data())
    def test_the_helpers_match_their_operator_forms(self, a, c, data):
        # b has a's length or any other; on a mismatch the pairwise helpers
        # raise the same ValueError as the operator forms.
        same = data.draw(st.booleans())
        b = data.draw(st.lists(exact_entries, min_size=len(a), max_size=len(a)) if same else exact_vectors)
        b = tuple(b)
        for fn, ref in ((vadd, reference_vadd), (vsub, reference_vsub), (vdot, reference_vdot)):
            got = _outcome(fn, a, b)
            assert got == _outcome(ref, a, b)
            if len(a) == len(b):
                assert _all_fractions(got if fn is not vdot else (got,))
        for v in (a, b):
            got = vscale(c, v)
            assert got == reference_vscale(c, v) and _all_fractions(got)
            assert is_zero_vec(v) == reference_is_zero_vec(v)
            assert integer_multiple(v) == reference_integer_multiple(v)
            assert all(type(x) is int for x in integer_multiple(v)[1])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=8), st.lists(st.tuples(exact_entries, exact_vectors), max_size=6), st.data())
    def test_a_combination_matches_its_operator_form(self, dimension, pairs, data):
        vectors = [(v + (0,) * dimension)[:dimension] for _, v in pairs]
        coefficients = [c for c, _ in pairs]
        got = vcombination(coefficients, vectors, dimension)
        assert got == reference_vcombination(coefficients, vectors, dimension) and _all_fractions(got)
        assert len(got) == dimension
        if pairs:  # one coefficient too many or too few
            extra = data.draw(st.booleans())
            shifted = coefficients + [ONE] if extra else coefficients[:-1]
            expected = _outcome(reference_vcombination, shifted, vectors, dimension)
            assert _outcome(vcombination, shifted, vectors, dimension) == expected

    def test_a_combination_refuses_a_vector_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="length 2"):
            vcombination([ONE], [(1, 2, 3)], 2)
        with pytest.raises(ValueError, match="length 2"):
            vcombination([ONE], [(1,)], 2)

    def test_no_helper_calls_a_fraction_operator(self, monkeypatch):
        a, b, c = (F(1, 3), F(-2, 5), F(0), 7), (F(2, 7), F(3), F(-1, 2), F(5, 14)), F(-3, 4)
        cases = [
            (vadd, reference_vadd, (a, b)),
            (vsub, reference_vsub, (a, b)),
            (vdot, reference_vdot, (a, b)),
            (vscale, reference_vscale, (c, a)),
            (is_zero_vec, reference_is_zero_vec, ((F(0), F(0), 0),)),
            (vcombination, reference_vcombination, ((c, F(0), ONE), (a, b, b), 4)),
            (integer_multiple, reference_integer_multiple, (a,)),
        ]

        def refuse(*_):
            raise AssertionError("a Fraction operator was called")

        with monkeypatch.context() as patched:
            for dunder in (
                "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
                "__rpow__", "__neg__", "__pos__", "__abs__", "__eq__", "__lt__", "__le__", "__gt__",
                "__ge__", "__bool__",
            ):
                patched.setattr(F, dunder, refuse)
            got = [fn(*args) for fn, _, args in cases]
        assert got == [ref(*args) for _, ref, args in cases]
