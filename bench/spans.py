"""Span tracing around calls into `conedom`, done from the benchmark alone.

`Tracer.install` wraps each function in TRACED and rebinds the wrapper
under every name that any `conedom` module holds for the original, so
calls between modules (`lp_solve` from `cones`, `dominance`, `separation`;
`check_certificates` from inside `lp_solve`) are caught too. A span
records its name, start, end, parent span and query id, in flat arrays
that stay in memory until `write` puts them on disk.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

TRACED = {
    "linalg": ("lp_solve", "check_certificates", "hull_membership", "relative_interior_membership"),
    "cones": ("cone_contains", "cone_membership", "relate", "is_pointed"),
    "sets": ("first_incomparable_pair", "materialize", "convex_hull"),
    "dominance": (
        "dominating_element",
        "decompose_in_hulls",
        "dominating_element_chain",
        "validate_certificate",
        "pareto_optima_finite",
    ),
    "separation": ("hulls_disjoint", "strict_separator"),
    "maximals": ("check_convexification_invariance", "convexified_maximals", "budget_set"),
    "instances": (
        "rand_pointed_cone",
        "rand_decomposable",
        "rand_hull_point",
        "rand_disjoint_pair",
        "rand_bounded_disjoint_pair",
        "rand_upward_polyhedron",
        "rand_relative_interior_point",
        "rand_cone_member",
        "rand_point",
    ),
    "scene": ("parse_scene",),
    "cli": ("main",),
}

# Query ids below zero mark spans outside the timed phase.
SETUP = -1
REPLAY = -2


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.current_query = SETUP
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []
        # Per lp_solve span: (span index, columns, infeasible, certificate bits).
        self.lp_info: list[tuple[int, int, bool, int]] = []
        # Per materialize span: (span index, points returned).
        self.materialized: list[tuple[int, int]] = []

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.current_query)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        is_lp = name == "linalg.lp_solve"
        is_materialize = name == "sets.materialize"

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if is_lp:
                certificate = [result.value] if result.value is not None else []
                for part in (result.witness, result.dual, result.farkas, result.ray):
                    certificate.extend(part or ())
                tracer.lp_info.append(
                    (idx, args[0].num_vars, result.status.value == "infeasible", _bits(certificate))
                )
            elif is_materialize:
                tracer.materialized.append((idx, len(result)))
            return result

        return traced

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        homes = {name: importlib.import_module(f"conedom.{name}") for name in TRACED}
        modules = [m for n, m in list(sys.modules.items()) if n == "conedom" or n.startswith("conedom.")]
        for module_name, functions in TRACED.items():
            home = homes[module_name]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._bound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bound):
            setattr(mod, attr, original)
        self._bound.clear()

    # -- analysis -------------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [self.end[i] - self.start[i] for i in range(len(self.name))]
        for i in range(len(self.name)):
            p = self.parent[i]
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def summary(self, phase) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, for spans whose
        query id satisfies `phase`."""
        selfs = self.self_times()
        agg: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i in range(len(self.name)):
            if phase(self.query[i]):
                a = agg[self.names[self.name[i]]]
                a["calls"] += 1
                a["incl_s"] += self.end[i] - self.start[i]
                a["self_s"] += selfs[i]
        return agg

    def outermost_seconds(self, prefix: str, phase) -> float:
        """Inclusive time of spans named `prefix*` with no such ancestor."""
        total = 0.0
        for i in range(len(self.name)):
            if not phase(self.query[i]) or not self.names[self.name[i]].startswith(prefix):
                continue
            p = self.parent[i]
            while p >= 0 and not self.names[self.name[p]].startswith(prefix):
                p = self.parent[p]
            if p < 0:
                total += self.end[i] - self.start[i]
        return total

    def lp_fallback_share(self, phase) -> tuple[int, int]:
        """(cone queries holding an lp_solve span, all cone queries)."""
        cone_ids = {self._name_ids.get(n) for n in ("cones.cone_contains", "cones.cone_membership")}
        with_lp = set()
        for idx, _, _, _ in self.lp_info:
            p = self.parent[idx]
            while p >= 0:
                if self.name[p] in cone_ids:
                    with_lp.add(p)
                p = self.parent[p]
        total = sum(1 for i in range(len(self.name)) if self.name[i] in cone_ids and phase(self.query[i]))
        return sum(1 for i in with_lp if phase(self.query[i])), total

    def write(self, path: str) -> None:
        """One tab-separated line per span: name, start, end, parent, query."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tquery\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.query[i]}\n"
                )

