"""Regenerate tests/data/lp_corpus.json.

The corpus pins the exact outcome of the LP kernel on a few hundred
programs: each entry stores the program and its full `LpResult` (status,
value, witness, dual, Farkas vector, ray) as rational strings. Any change
to the kernel must reproduce every entry exactly, so the pivot sequence
(Bland's rule) and every certificate stay what they were when the corpus
was written. Run from the repository root:

    PYTHONPATH=src python3 tests/make_lp_corpus.py

Contents:

* seeded random programs, kept by status quota so that optimal,
  infeasible and unbounded outcomes are all well represented; they mix
  free variables, all three relations, negative right-hand sides,
  denominators {1, 2, 3, 5} and some numerators near 10^20;
* programs with redundant equality rows, including rows whose drive-out
  pivot after phase 1 falls on a negative entry;
* hand-written programs: unbounded rays entered by a slack column,
  Beale's cycling example and Klee-Minty cubes for n = 3 and 4;
* one program of every shape the package builds (decomposition, hull,
  relative interior, common point, separation and the rest), recorded
  from the library calls that build them.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from conedom import linalg, separation
from conedom.cones import Cone, cone_membership
from conedom.dominance import OutsideHullError, decompose_in_hulls, is_pareto_in_hull
from conedom.linalg import LinearProgram, LpResult, hull_membership, lp_solve, relative_interior_membership
from conedom.separation import hulls_disjoint, proper_separator, strict_separator
from conedom.sets import ChainSet, DecomposableSet, FinitePointSet, Polyhedron

OUT = Path(__file__).parent / "data" / "lp_corpus.json"
SEED = 20261018
QUOTA = {"optimal": 100, "infeasible": 100, "unbounded": 100}
DENOMINATORS = (1, 2, 3, 5)
RELATIONS = ("<=", "=", ">=")


def encode_program(lp: LinearProgram) -> dict:
    return {
        "objective": [str(c) for c in lp.objective],
        "maximize": lp.maximize,
        "constraints": [[[str(c) for c in a], rel, str(b)] for a, rel, b in lp.constraints],
        "nonneg": list(lp.nonneg),
    }


def encode_result(res: LpResult) -> dict:
    def vec(v):
        return None if v is None else [str(c) for c in v]

    return {
        "status": res.status.value,
        "value": None if res.value is None else str(res.value),
        "witness": vec(res.witness),
        "dual": vec(res.dual),
        "farkas": vec(res.farkas),
        "ray": vec(res.ray),
    }


def _rational(rng: random.Random, big: bool) -> Fraction:
    den = rng.choice(DENOMINATORS)
    if big:
        num = rng.choice((-1, 1)) * (10**20 + rng.randint(-50, 50))
        return Fraction(num, den) if rng.random() < 0.3 else Fraction(rng.randint(-4, 4), den)
    return Fraction(rng.randint(-4, 4), den)


def random_program(rng: random.Random) -> LinearProgram:
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    big = rng.random() < 0.1
    rows = []
    for _ in range(m):
        coeffs = [_rational(rng, big) for _ in range(n)]
        rows.append((coeffs, rng.choice(RELATIONS), _rational(rng, big)))
    objective = [_rational(rng, big) for _ in range(n)]
    nonneg = [rng.random() < 0.75 for _ in range(n)]
    return LinearProgram.build(objective, rng.random() < 0.5, rows, nonneg)


def feasible_program(rng: random.Random) -> LinearProgram:
    """Right-hand sides taken from a known point, so phase 1 succeeds."""
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    nonneg = [rng.random() < 0.75 for _ in range(n)]
    x0 = [Fraction(rng.randint(0 if nn else -3, 3), rng.choice(DENOMINATORS)) for nn in nonneg]
    rows = []
    for _ in range(m):
        coeffs = [_rational(rng, False) for _ in range(n)]
        rel = rng.choice(RELATIONS)
        val = sum((c * x for c, x in zip(coeffs, x0)), Fraction(0))
        rows.append((coeffs, rel, val + (1 if rel == "<=" else -1 if rel == ">=" else 0)))
    objective = [_rational(rng, False) for _ in range(n)]
    return LinearProgram.build(objective, rng.random() < 0.5, rows, nonneg)


def redundant_program(rng: random.Random) -> LinearProgram:
    """Feasible equality rows plus a negated or scaled copy of a combination of them."""
    n = rng.randint(2, 4)
    k = rng.randint(1, 2)
    x0 = [Fraction(rng.randint(0, 3), rng.choice(DENOMINATORS)) for _ in range(n)]
    eq_rows = []
    for _ in range(k):
        coeffs = [_rational(rng, False) for _ in range(n)]
        eq_rows.append((coeffs, "=", sum((c * x for c, x in zip(coeffs, x0)), Fraction(0))))
    weights = [Fraction(rng.choice((-3, -2, -1, 1, 2)), rng.choice(DENOMINATORS)) for _ in range(k)]
    combo = [sum((w * r[0][j] for w, r in zip(weights, eq_rows)), Fraction(0)) for j in range(n)]
    rhs = sum((w * r[2] for w, r in zip(weights, eq_rows)), Fraction(0))
    rows = list(eq_rows)
    rows.insert(rng.randint(0, len(rows)), (combo, "=", rhs))
    if rng.random() < 0.5:
        rows.append(([Fraction(1)] * n, "<=", Fraction(rng.randint(1, 6))))
    objective = [_rational(rng, False) for _ in range(n)]
    return LinearProgram.build(objective, rng.random() < 0.5, rows)


def hand_programs() -> list[tuple[str, LinearProgram]]:
    b = LinearProgram.build
    out = [
        # Redundant equalities whose first nonzero entry in the leftover
        # artificial row is negative.
        ("drive_out_negative", b([1, 1], True, [([-1, 1], "=", 0), ([1, -1], "=", 0), ([1, 0], "<=", 1)])),
        ("drive_out_negative_scaled", b([2, -1, 1], False, [([-2, 1, 0], "=", 0), ([2, -1, 0], "=", 0), ([0, 0, 1], ">=", 1)])),
        ("drive_out_negative_free", b([1, 0], True, [([-1, 3], "=", 0), ([1, -3], "=", 0), ([1, 1], "<=", 4)], [False, True])),
        # Unbounded along a slack column entering in phase 2.
        ("slack_ray_ge", b([1], True, [([1], ">=", 1)])),
        ("slack_ray_flipped", b([1], True, [([-1], "<=", -1)])),
        ("slack_ray_scaled", b([1, 1], True, [(["1/3", "2/5"], ">=", "7/2"), ([1, -1], "<=", 2), ([1, -1], ">=", -2)])),
        # Beale's cycling example: cycles under the textbook largest-coefficient rule.
        (
            "beale",
            b(
                ["3/4", -20, "1/2", -6],
                True,
                [(["1/4", -8, -1, 9], "<=", 0), (["1/2", -12, "-1/2", 3], "<=", 0), ([0, 0, 1, 0], "<=", 1)],
            ),
        ),
    ]
    for n in (3, 4):
        # Klee-Minty cube: max sum 2^(n-j) x_j, sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^i.
        rows = []
        for i in range(1, n + 1):
            coeffs = [2 ** (i - j + 1) if j < i else 1 if j == i else 0 for j in range(1, n + 1)]
            rows.append((coeffs, "<=", 5**i))
        out.append((f"klee_minty_{n}", b([2 ** (n - j) for j in range(1, n + 1)], True, rows)))
    return out


@contextmanager
def recording(store: list[LinearProgram]):
    """Rebind `lp_solve` in every module that solves programs, recording each one."""
    modules = (linalg, separation)

    def record(lp):
        store.append(lp)
        return lp_solve(lp)

    for module in modules:
        module.lp_solve = record
    try:
        yield
    finally:
        for module in modules:
            module.lp_solve = lp_solve


def package_programs() -> list[tuple[str, LinearProgram]]:
    orthant = Cone.build(2, [(1, 0), (0, 1)], contains_zero=True)
    c1 = ChainSet.build([(0, 0), (1, 1), (2, 3)], orthant)
    c2 = ChainSet.build([(0, 0), (Fraction(1, 2), 1)], orthant)
    y = DecomposableSet((c1, c2))
    triangle = ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)), (Fraction(0), Fraction(2)))
    x = Polyhedron.build([(3, 3)], [(1, 0), (0, 1)])
    p = Polyhedron.build([(0, 0), (2, 0), (0, 2)])
    touching = Polyhedron.build([(2, 2)], [(1, 0), (0, 1)])
    fan = Cone.build(2, [(1, 0), (1, 1), (0, 1)], contains_zero=False)

    def outside_decomposition():
        try:
            decompose_in_hulls((Fraction(9), Fraction(0)), y)
        except OutsideHullError:
            pass

    touching_chain = ChainSet.build([(0, 0), (2, 2)], orthant)

    def relative_interior_fallback():
        # The programs that decide ri(X) for a point of Y when X's facets are
        # over the work cap. `proper_separator` asks about one point, the sum
        # t of the chains' tops, and reads the facets under the cap.
        for q in touching_chain.base.points:
            relative_interior_membership(q, touching.vertices.integer_view, touching.ray_view)

    calls = [
        ("decomposition", lambda: decompose_in_hulls((Fraction(1), Fraction(3, 2)), y)),
        ("decomposition_outside", outside_decomposition),
        ("hull", lambda: hull_membership((Fraction(1), Fraction(1)), triangle)),
        ("hull_outside", lambda: hull_membership((Fraction(2), Fraction(2)), triangle)),
        ("relative_interior", lambda: relative_interior_membership((Fraction(1, 2), Fraction(1, 2)), triangle)),
        ("relative_interior_ray", lambda: relative_interior_membership((Fraction(1), Fraction(0)), ((Fraction(0), Fraction(0)),), ((Fraction(1), Fraction(0)),))),
        ("common_point_disjoint", lambda: hulls_disjoint(x, y)),
        ("common_point_meeting", lambda: hulls_disjoint(p, FinitePointSet.build([(1, 1), (3, 3)]))),
        ("strict_separation", lambda: strict_separator(x, p)),
        ("relative_interior_fallback", relative_interior_fallback),
        ("proper_separation", lambda: proper_separator(touching, DecomposableSet((touching_chain,)))),
        ("pareto_in_hull", lambda: is_pareto_in_hull((Fraction(2), Fraction(3)), y)),
        ("cone_membership", lambda: cone_membership(fan, (Fraction(-1), Fraction(2)))),
    ]
    out: list[tuple[str, LinearProgram]] = []
    for label, call in calls:
        store: list[LinearProgram] = []
        with recording(store):
            call()
        if not store:
            raise RuntimeError(f"{label} built no linear program")
        out.extend((f"{label}_{k}" if len(store) > 1 else label, lp) for k, lp in enumerate(store))
    return out


def main() -> None:
    rng = random.Random(SEED)
    labelled: list[tuple[str, LinearProgram]] = []
    counts = dict.fromkeys(QUOTA, 0)
    draws = 0
    while any(counts[s] < QUOTA[s] for s in QUOTA):
        draws += 1
        lp = random_program(rng) if draws % 2 else feasible_program(rng)
        status = lp_solve(lp).status.value
        if counts[status] < QUOTA[status]:
            counts[status] += 1
            labelled.append((f"random_{len(labelled)}", lp))
    labelled.extend((f"redundant_{k}", redundant_program(rng)) for k in range(40))
    labelled.extend(hand_programs())
    labelled.extend(package_programs())
    entries = []
    for label, lp in labelled:
        entries.append({"label": label, "program": encode_program(lp), "result": encode_result(lp_solve(lp))})
    # One program per line keeps the file small and its diffs readable.
    lines = ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(f'{{"seed": {SEED}, "programs": [\n{lines}\n]}}\n', encoding="utf-8")
    tally: dict[str, int] = {}
    for entry in entries:
        tally[entry["result"]["status"]] = tally.get(entry["result"]["status"], 0) + 1
    print(f"wrote {len(entries)} programs ({tally}) to {OUT}")


if __name__ == "__main__":
    main()
