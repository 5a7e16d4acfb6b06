"""Ambient homology bookkeeping for divisor pairs.

A pair couples a divisor with classes in a fixed ambient lattice of
signature (1, n): either (h, e_1, ..., e_n) with pairing diag(+1, -1, ...)
or (f_1, f_2, e_1, ..., e_n) with a hyperbolic block on the first two
coordinates.  The first Chern class is stored explicitly and every
component class must sum to it; adjunction ties each class to its
component's self-intersection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .divisor import (
    Divisor,
    InvalidDivisor,
    PreconditionError,
    SphereCycle,
    Torus,
    _check_int,
    dihedral_index_maps,
    divisor_from_obj,
    divisor_to_obj,
    intersection_matrix,
)
from .linalg import inertia
from . import moves as _moves
from .moves import Move, NonToricBlowUp, ToricBlowDown, ToricBlowUp

__all__ = [
    "AmbientBasis",
    "LogCYPair",
    "RuleCheck",
    "SATISFIED",
    "VIOLATED",
    "NOT_APPLICABLE",
    "check_constraints",
    "complement_betti",
    "pair_from_json",
    "pair_from_obj",
    "pair_to_obj",
    "transport",
    "validate_pair",
]

Vec = tuple[int, ...]


@dataclass(frozen=True)
class AmbientBasis:
    """Basis of the ambient second homology with its intersection pairing.

    kind "rational": basis (h, e_1, ..., e_n), pairing diag(1, -1, ..., -1).
    kind "ruled":    basis (f_1, f_2, e_1, ..., e_n), pairing with f_1.f_2 = 1,
    f_i.f_i = 0 and diag(-1, ...) on the rest.  Both have b+ = 1.
    """

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("rational", "ruled"):
            raise InvalidDivisor(f"unknown basis kind {self.kind!r}")
        if self.n < 0:
            raise InvalidDivisor("negative number of exceptional classes")

    @property
    def dim(self) -> int:
        return self.n + (1 if self.kind == "rational" else 2)

    @property
    def head(self) -> int:
        """Number of leading coordinates before the exceptional block."""
        return 1 if self.kind == "rational" else 2

    def pair(self, u: Sequence[int], v: Sequence[int]) -> int:
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("class length does not match basis dimension")
        if self.kind == "rational":
            head = u[0] * v[0]
        else:
            head = u[0] * v[1] + u[1] * v[0]
        return head - sum(ui * vi for ui, vi in zip(u[self.head :], v[self.head :]))

    def pairing_matrix(self) -> tuple[tuple[int, ...], ...]:
        d = self.dim
        rows = [[0] * d for _ in range(d)]
        if self.kind == "rational":
            rows[0][0] = 1
        else:
            rows[0][1] = rows[1][0] = 1
        for i in range(self.head, d):
            rows[i][i] = -1
        return tuple(tuple(r) for r in rows)

    def blow_up(self) -> tuple["AmbientBasis", Vec]:
        """Basis with one more exceptional class; returns it and the new class."""
        grown = AmbientBasis(self.kind, self.n + 1)
        e = tuple(0 if i < grown.dim - 1 else 1 for i in range(grown.dim))
        return grown, e


def _vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def _vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def _vpad(u: Vec, dim: int) -> Vec:
    return u + (0,) * (dim - len(u))


@dataclass(frozen=True)
class LogCYPair:
    """A divisor together with its ambient homology context.

    ``basis``, ``classes`` and ``c1`` may all be ``None`` for divisors whose
    ambient homology is not modelled (the elliptic ruled minimal torus);
    such pairs carry sequence-level data only.
    """

    divisor: Divisor
    basis: AmbientBasis | None
    classes: tuple[Vec, ...] | None
    c1: Vec | None

    def __post_init__(self) -> None:
        if self.classes is not None:
            object.__setattr__(
                self, "classes", tuple(tuple(int(x) for x in c) for c in self.classes)
            )
        if self.c1 is not None:
            object.__setattr__(self, "c1", tuple(int(x) for x in self.c1))

    @property
    def has_homology(self) -> bool:
        return self.basis is not None


def validate_pair(p: LogCYPair) -> tuple[str, ...]:
    """Named violations of the pair invariants; empty when valid.

    Checks, in order: class dimensions, component count, sum of classes
    equal to c1, per-component self-intersections, the cycle adjacency
    pairings (1 between neighbours, 2 for a length-2 cycle, 0 otherwise),
    and adjunction (c1 . C_i = s_i + 2 for spheres, = s for a torus).
    """
    if not p.has_homology:
        return ()
    basis = p.basis
    violations: list[str] = []
    assert p.classes is not None and p.c1 is not None
    if any(len(c) != basis.dim for c in p.classes) or len(p.c1) != basis.dim:
        return ("class_dimension",)

    d = p.divisor
    seq = (d.s,) if isinstance(d, Torus) else d.seq
    k = len(seq)
    if len(p.classes) != k:
        return ("component_count",)

    total = p.classes[0]
    for c in p.classes[1:]:
        total = _vadd(total, c)
    if total != p.c1:
        violations.append("class_sum")
    for i, c in enumerate(p.classes):
        if basis.pair(c, c) != seq[i]:
            violations.append(f"self_intersection_{i}")
    if isinstance(d, SphereCycle):
        for i in range(k):
            for j in range(i + 1, k):
                got = basis.pair(p.classes[i], p.classes[j])
                if k == 2:
                    expected = 2
                else:
                    expected = 1 if (j - i == 1 or (i == 0 and j == k - 1)) else 0
                if got != expected:
                    violations.append(f"pairing_{i}_{j}")
    for i, c in enumerate(p.classes):
        expected = seq[i] if isinstance(d, Torus) else seq[i] + 2
        if basis.pair(p.c1, c) != expected:
            violations.append(f"adjunction_{i}")
    return tuple(violations)


def transport(p: LogCYPair, move: Move) -> LogCYPair:
    """Carry a pair through a blow-up move, updating classes and c1.

    Blow-ups grow the basis by one exceptional class e: a non-toric blow-up
    subtracts e from the blown-up component and from c1; a toric blow-up
    additionally inserts a new component with class e.  A toric blow-down
    keeps the basis and folds the removed class into the neighbours and c1.
    """
    d = p.divisor
    new_divisor = _moves.apply_move(d, move)

    if not p.has_homology:
        if isinstance(move, NonToricBlowUp) and isinstance(d, Torus):
            return LogCYPair(new_divisor, None, None, None)
        raise PreconditionError("pair has no homology context for this move")

    assert p.basis is not None and p.classes is not None and p.c1 is not None
    if isinstance(move, ToricBlowDown):
        assert isinstance(d, SphereCycle)
        k = len(d)
        i = move.component
        removed = p.classes[i]
        classes = list(p.classes)
        classes[(i - 1) % k] = _vadd(classes[(i - 1) % k], removed)
        classes[(i + 1) % k] = _vadd(classes[(i + 1) % k], removed)
        del classes[i]
        return LogCYPair(new_divisor, p.basis, tuple(classes), _vadd(p.c1, removed))

    grown, e = p.basis.blow_up()
    dim = grown.dim
    classes = [_vpad(c, dim) for c in p.classes]
    c1 = _vpad(p.c1, dim)
    if isinstance(move, NonToricBlowUp):
        classes[move.component] = _vsub(classes[move.component], e)
        return LogCYPair(new_divisor, grown, tuple(classes), _vsub(c1, e))
    if isinstance(move, ToricBlowUp):
        assert isinstance(d, SphereCycle)
        k = len(d)
        i = move.edge
        j = (i + 1) % k
        classes[i] = _vsub(classes[i], e)
        classes[j] = _vsub(classes[j], e)
        insert_at = 1 if k == 2 else i + 1
        classes.insert(insert_at, e)
        return LogCYPair(new_divisor, grown, tuple(classes), _vsub(c1, e))
    raise TypeError(f"not a move: {move!r}")


def complement_betti(b2_ambient: int, r: int) -> int:
    """Second Betti number of the complement of a plumbed neighbourhood.

    Equals ``b2_ambient - r - 1`` for a nondegenerate cycle of length r.
    """
    value = b2_ambient - r - 1
    if value < 0:
        raise PreconditionError(
            f"InvalidInput: b2 = {b2_ambient} is too small for r = {r}"
        )
    return value


# ---------------------------------------------------------------------------
# Constraint report.

SATISFIED = "satisfied"
VIOLATED = "violated"
NOT_APPLICABLE = "not_applicable"


class RuleCheck(NamedTuple):
    rule: str
    status: str
    detail: str


_RULES = (
    "at_most_three_homologous",
    "three_homologous_needs_length_3",
    "homologous_pair_needs_length_le_4",
    "adjacent_equal_classes_shape",
    "disjoint_nonnegative_components",
    "nonnegative_count_le_4",
    "four_nonnegative_shape",
    "adjacent_positive_product_shape",
    "long_cycle_nonnegative_bound",
    "table_length_4_three_nonnegative",
    "table_length_4_two_nonnegative",
    "table_length_3_three_nonnegative",
    "table_length_3_two_nonnegative",
    "table_length_2_two_nonnegative",
    "table_length_2_zero_nonnegative",
)


def _not_applicable_report(detail: str) -> tuple[RuleCheck, ...]:
    return tuple(RuleCheck(rule, NOT_APPLICABLE, detail) for rule in _RULES)


def check_constraints(p: LogCYPair) -> tuple[RuleCheck, ...]:
    """Evaluate the homological constraints a cycle in a b+ = 1 surface obeys.

    Each rule is reported as satisfied, violated or not applicable; nothing
    raises, so the report can serve as an advisory filter.  The
    length-stratified table rules assume the cycle pairing itself has
    b+ = 1 and are reported as not applicable otherwise.
    """
    if not p.has_homology:
        return _not_applicable_report("no homology context")
    if isinstance(p.divisor, Torus):
        return _not_applicable_report("single torus component")

    d = p.divisor
    seq = d.seq
    k = len(seq)
    cls = p.classes
    assert cls is not None
    results: list[RuleCheck] = []

    def add(rule: str, ok: bool | None, detail: str = "") -> None:
        if ok is None:
            results.append(RuleCheck(rule, NOT_APPLICABLE, detail))
        else:
            results.append(RuleCheck(rule, SATISFIED if ok else VIOLATED, detail))

    counts: dict[Vec, int] = {}
    for c in cls:
        counts[c] = counts.get(c, 0) + 1
    max_mult = max(counts.values())
    add("at_most_three_homologous", max_mult <= 3, f"max multiplicity {max_mult}")
    if max_mult >= 3:
        add("three_homologous_needs_length_3", k == 3, f"r = {k}")
    else:
        add("three_homologous_needs_length_3", None, "no three homologous components")
    if max_mult >= 2:
        add("homologous_pair_needs_length_le_4", k <= 4, f"r = {k}")
    else:
        add("homologous_pair_needs_length_le_4", None, "no homologous pair")

    adjacent_equal = [
        i for i in range(1 if k == 2 else k) if cls[i] == cls[(i + 1) % k]
    ]
    if adjacent_equal:
        ok = all(
            (k == 3 and seq[i] == seq[(i + 1) % k] == 1)
            or (k == 2 and seq[i] == seq[(i + 1) % k] == 2)
            for i in adjacent_equal
        )
        add("adjacent_equal_classes_shape", ok, f"at positions {adjacent_equal}")
    else:
        add("adjacent_equal_classes_shape", None, "no adjacent equal classes")

    def adjacent(i: int, j: int) -> bool:
        return (j - i) % k in (1, k - 1)

    disjoint_nonneg = [
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if not adjacent(i, j) and seq[i] >= 0 and seq[j] >= 0
    ]
    if disjoint_nonneg:
        ok = all(
            cls[i] == cls[j] and seq[i] == seq[j] == 0 for i, j in disjoint_nonneg
        )
        add("disjoint_nonnegative_components", ok, f"pairs {disjoint_nonneg}")
    else:
        add("disjoint_nonnegative_components", None, "no disjoint nonnegative pair")

    nonneg = sum(1 for x in seq if x >= 0)
    add("nonnegative_count_le_4", nonneg <= 4, f"count {nonneg}")
    if nonneg == 4:
        ok = (
            k == 4
            and all(x == 0 for x in seq)
            and cls[0] == cls[2]
            and cls[1] == cls[3]
        )
        add("four_nonnegative_shape", ok, "")
    else:
        add("four_nonnegative_shape", None, f"count {nonneg}")

    if k >= 3:
        hot = [
            i
            for i in range(k)
            if seq[i] >= 0 and seq[(i + 1) % k] >= 0 and seq[i] * seq[(i + 1) % k] >= 1
        ]
        if hot:
            ok = k == 3 and all(
                cls[i] == cls[(i + 1) % k] and seq[i] == seq[(i + 1) % k] == 1
                for i in hot
            )
            add("adjacent_positive_product_shape", ok, f"at positions {hot}")
        else:
            add("adjacent_positive_product_shape", None, "no such adjacent pair")
    else:
        add("adjacent_positive_product_shape", None, "length 2")

    if k >= 5:
        if nonneg > 2:
            add("long_cycle_nonnegative_bound", False, f"count {nonneg}")
        elif nonneg == 2:
            pair = [i for i in range(k) if seq[i] >= 0]
            i, j = pair
            ok = adjacent(i, j) and (seq[i] == 0 or seq[j] == 0)
            add("long_cycle_nonnegative_bound", ok, f"nonnegative at {pair}")
        else:
            add("long_cycle_nonnegative_bound", True, f"count {nonneg}")
    else:
        add("long_cycle_nonnegative_bound", None, f"r = {k}")

    def image(pi: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(seq[t] for t in pi)

    # At most one table row applies, so the b+ gate and the dihedral maps
    # are computed at most once per call, and only when a row applies.
    def table_row(rule: str, applies: bool, matcher) -> None:
        if not applies:
            add(rule, None, f"r = {k}, nonnegative count {nonneg}")
        elif (b_plus := inertia(intersection_matrix(d)).b_plus) != 1:
            add(rule, None, f"cycle pairing has b+ = {b_plus}")
        else:
            add(rule, any(matcher(pi) for pi in dihedral_index_maps(k)), "")

    def match_4_three(pi) -> bool:
        s = image(pi)
        return (
            s[0] >= 0
            and s[1] == 0
            and s[2] < 0
            and s[3] == 0
            and cls[pi[1]] == cls[pi[3]]
            and s[0] + s[2] <= 0
        )

    table_row("table_length_4_three_nonnegative", k == 4 and nonneg == 3, match_4_three)

    def match_4_two(pi) -> bool:
        s = image(pi)
        opposite = s[0] == 0 and s[1] < 0 and s[2] == 0 and s[3] < 0 and cls[pi[0]] == cls[pi[2]]
        consecutive = s[0] >= 0 and s[1] == 0 and s[2] < 0 and s[3] < 0 and s[0] + s[2] + s[3] <= 0
        return opposite or consecutive

    table_row("table_length_4_two_nonnegative", k == 4 and nonneg == 2, match_4_two)

    def match_3_three(pi) -> bool:
        s = image(pi)
        if s == (1, 1, 1):
            return cls[pi[0]] == cls[pi[1]] == cls[pi[2]]
        if s == (1, 1, 0):
            return cls[pi[0]] == cls[pi[1]]
        return 0 <= s[0] <= 2 and s[1] == 0 and s[2] == 0

    table_row("table_length_3_three_nonnegative", k == 3 and nonneg == 3, match_3_three)

    def match_3_two(pi) -> bool:
        s = image(pi)
        if s[0] == 1 and s[1] == 1 and s[2] < 0:
            return cls[pi[0]] == cls[pi[1]]
        return s[0] >= 0 and s[1] == 0 and s[2] < 0 and s[0] + s[2] <= 2

    table_row("table_length_3_two_nonnegative", k == 3 and nonneg == 2, match_3_two)

    allowed_2 = {
        (4, 1), (4, 0), (3, 1), (3, 0), (2, 2),
        (2, 1), (2, 0), (1, 1), (1, 0), (0, 0),
    }
    table_row(
        "table_length_2_two_nonnegative",
        k == 2 and nonneg == 2,
        lambda pi: image(pi) in allowed_2,
    )
    table_row(
        "table_length_2_zero_nonnegative",
        k == 2 and nonneg == 0,
        lambda pi: image(pi) in {(-1, -1), (-1, -2), (-1, -3)},
    )

    return tuple(results)


# ---------------------------------------------------------------------------
# JSON file schema:
#   {"divisor": <divisor>, "basis": {"kind": "rational"|"ruled", "n": <int>},
#    "classes": [[<int>, ...], ...], "c1": [<int>, ...]}
# A pair without homology context stores null for basis, classes and c1.

def pair_to_obj(p: LogCYPair) -> dict:
    return {
        "divisor": divisor_to_obj(p.divisor),
        "basis": None if p.basis is None else {"kind": p.basis.kind, "n": p.basis.n},
        "classes": None if p.classes is None else [list(c) for c in p.classes],
        "c1": None if p.c1 is None else list(p.c1),
    }


def pair_from_obj(obj) -> LogCYPair:
    if not isinstance(obj, dict) or "divisor" not in obj:
        raise InvalidDivisor("pair object must contain a divisor")
    d = divisor_from_obj(obj["divisor"])
    basis_obj = obj.get("basis")
    if basis_obj is None:
        return LogCYPair(d, None, None, None)
    if not isinstance(basis_obj, dict) or basis_obj.get("kind") not in ("rational", "ruled"):
        raise InvalidDivisor("malformed basis object")
    basis = AmbientBasis(basis_obj["kind"], _check_int(basis_obj.get("n")))
    classes = obj.get("classes")
    c1 = obj.get("c1")
    if not isinstance(classes, list) or not isinstance(c1, list):
        raise InvalidDivisor("pair needs classes and c1 lists")
    try:
        return LogCYPair(
            d,
            basis,
            tuple(tuple(_check_int(x) for x in c) for c in classes),
            tuple(_check_int(x) for x in c1),
        )
    except TypeError as exc:
        raise InvalidDivisor(f"malformed class data: {exc}") from exc


def pair_from_json(text: str) -> LogCYPair:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDivisor(f"invalid JSON: {exc}") from exc
    return pair_from_obj(obj)
