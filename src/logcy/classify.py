"""Contact trichotomy and related classification operations.

The signature of the intersection form decides everything: negative
definite divisors have convex neighbourhoods, b+ = 1 divisors have concave
neighbourhoods (after a local deformation of the ambient symplectic form),
and degenerate forms with b+ = 0 admit no regular neighbourhood with
contact boundary.  b+ >= 2 cannot occur for an anti-canonical divisor and
is reported as invalid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .divisor import (
    Divisor,
    PreconditionError,
    SphereCycle,
    Torus,
    descriptors,
    dihedral_images,
    intersection_matrix,
)
from .linalg import Inertia, determinant, inertia, nullspace, rank, rref, solve_rational
from .homology import LogCYPair
from .monodromy import bundle_type, monodromy
from . import moves as _moves
from .moves import MoveWord, is_toric_minimal

__all__ = [
    "Classification",
    "ContactType",
    "DefinitenessPrediction",
    "FillingProfile",
    "RigidPattern",
    "classification_report",
    "classify",
    "contact_from_inertia",
    "negative_definite",
    "definiteness_shortcut",
    "exact_on_boundary",
    "exists_positive_exact_area",
    "filling_profile_check",
    "i2_criterion",
    "rigidity_witness",
]


class ContactType(Enum):
    CONVEX = "convex"
    CONCAVE = "concave"
    NO_CONTACT_BOUNDARY = "none"
    INVALID_FOR_LOG_CY = "invalid_for_log_cy"

    @property
    def kod_label(self) -> str | None:
        if self is ContactType.CONVEX:
            return "Kod <= 0"
        if self is ContactType.CONCAVE:
            return "Kod = -infinity"
        return None


@dataclass(frozen=True)
class Classification:
    inertia: Inertia
    contact: ContactType
    note: str | None = None


def contact_from_inertia(iq: Inertia) -> ContactType:
    if iq.b_plus >= 2:
        return ContactType.INVALID_FOR_LOG_CY
    if iq.b_plus == 1:
        return ContactType.CONCAVE
    if iq.b_zero == 0:
        return ContactType.CONVEX
    return ContactType.NO_CONTACT_BOUNDARY


def classify(d: Divisor) -> Classification:
    """Exact signature of the intersection form plus the contact branch."""
    iq = inertia(intersection_matrix(d))
    contact = contact_from_inertia(iq)
    note = None
    if contact is ContactType.CONCAVE:
        note = "concave neighbourhoods exist after a local deformation of the symplectic form"
    elif contact is ContactType.INVALID_FOR_LOG_CY:
        note = "b+ >= 2 cannot occur for an anti-canonical divisor"
    return Classification(iq, contact, note)


def negative_definite(d: Divisor) -> bool:
    """Exact negative-definiteness test, linear in the cycle length.

    Sylvester's criterion on the leading principal minors: for a cycle the
    leading blocks below full size are tridiagonal, so their determinants
    satisfy the continuant recurrence, and the full determinant equals
    (-1)^k (tr A - 2) for the transfer-matrix product A of the sequence.
    Agrees with the signature computed by congruence diagonalization.
    """
    if isinstance(d, Torus):
        return d.s < 0
    seq = d.seq
    k = len(seq)
    if k == 2:
        return seq[0] < 0 and seq[0] * seq[1] - 4 > 0
    d_prev, d_cur = 0, 1
    for m in range(1, k):
        d_prev, d_cur = d_cur, seq[m - 1] * d_cur - d_prev
        if (-1) ** m * d_cur <= 0:
            return False
    det = (-1) ** k * (monodromy(d).trace - 2)
    return (-1) ** k * det > 0


class DefinitenessPrediction(Enum):
    NEGATIVE_DEFINITE = "negative_definite"
    NEGATIVE_SEMIDEFINITE = "negative_semidefinite"
    B_PLUS_AT_LEAST_ONE = "b_plus_at_least_one"


def definiteness_shortcut(d: SphereCycle) -> DefinitenessPrediction | None:
    """Combinatorial definiteness prediction for a toric minimal cycle.

    All entries <= -2 with one below gives negative definite; all entries
    equal to -2 gives negative semidefinite but not definite; any entry
    >= 0 gives b+ >= 1.  Returns None when the cycle is not toric minimal.
    """
    if not is_toric_minimal(d):
        return None
    if any(x >= 0 for x in d.seq):
        return DefinitenessPrediction.B_PLUS_AT_LEAST_ONE
    if all(x == -2 for x in d.seq):
        return DefinitenessPrediction.NEGATIVE_SEMIDEFINITE
    # toric minimal with no entry >= 0 means every entry <= -2
    return DefinitenessPrediction.NEGATIVE_DEFINITE


def _check_area(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("areas must be exact rationals, not floats")
    if not isinstance(x, Rational):
        raise TypeError(f"area {x!r} is not a rational number")
    value = Fraction(x)
    if value <= 0:
        raise PreconditionError(f"areas must be strictly positive, got {x}")
    return value


def exact_on_boundary(d: Divisor, areas: Sequence) -> tuple[Fraction, ...] | None:
    """Witness z with Q z = a for the component area vector, or None.

    The restriction of the symplectic form to the plumbed boundary is exact
    precisely when such a solution exists; any nondegenerate Q therefore
    qualifies for every area vector.
    """
    a = [_check_area(x) for x in areas]
    r = descriptors(d).r
    if len(a) != r:
        raise PreconditionError(f"expected {r} areas, got {len(a)}")
    return solve_rational(intersection_matrix(d), a)


def exists_positive_exact_area(d: Divisor) -> bool:
    """Whether some strictly positive area vector makes the boundary exact.

    Exactness needs the area vector to lie in the image of the intersection
    form, so this asks whether the row space of Q meets the open positive
    orthant.  Nondegenerate forms qualify immediately; otherwise the strict
    homogeneous system is decided exactly by Fourier-Motzkin elimination
    over the rationals (no floating point, no LP solver).
    """
    q = intersection_matrix(d)
    k = len(q)
    reduced, pivots = rref(list(q))
    basis = reduced[: len(pivots)]
    if len(basis) == k:
        return True
    # a = sum_j t_j basis_j with every a_i > 0: one strict homogeneous
    # inequality per component; eliminate the t_j one at a time
    ineqs = [tuple(b[i] for b in basis) for i in range(k)]
    for var in range(len(basis)):
        if any(not any(c) for c in ineqs):
            return False  # a derived constraint reads 0 > 0
        zero, pos, neg = [], [], []
        for c in ineqs:
            (zero if c[var] == 0 else pos if c[var] > 0 else neg).append(c)
        ineqs = zero + [
            tuple(-n[var] * p[t] + p[var] * n[t] for t in range(len(basis)))
            for p in pos
            for n in neg
        ]
    return not ineqs


def i2_criterion(p: LogCYPair) -> bool:
    """Whether component classes plus their pairing-orthogonal complement span.

    I1 is the span of the component classes, I2 the orthogonal complement
    of I1 under the ambient pairing; exactness on the boundary follows when
    I1 and I2 together span the whole ambient lattice (over the rationals).
    """
    if not p.has_homology:
        raise PreconditionError("pair has no homology context")
    assert p.basis is not None and p.classes is not None
    q = p.basis.pairing_matrix()
    dim = p.basis.dim
    # rows of (classes . Q): functionals cutting out the orthogonal complement
    functionals = [
        tuple(sum(c[t] * q[t][l] for t in range(dim)) for l in range(dim))
        for c in p.classes
    ]
    complement = nullspace(functionals)
    stacked = [list(c) for c in p.classes] + [list(v) for v in complement]
    return rank(stacked) == dim


# ---------------------------------------------------------------------------
# Rigidity patterns.

def _is_chain_pattern(s: tuple[int, ...]) -> bool:
    # (1, x_1, ..., x_l), l >= 2, ends <= -1 and interior <= -2
    if len(s) < 3 or s[0] != 1:
        return False
    tail = s[1:]
    return tail[0] <= -1 and tail[-1] <= -1 and all(x <= -2 for x in tail[1:-1])


_PATTERNS: tuple[tuple[str, object], ...] = (
    ("all_entries_ge_minus_one", lambda s: all(x >= -1 for x in s)),
    ("zero_zero_zero_n", lambda s: len(s) == 4 and s[:3] == (0, 0, 0) and s[3] <= 0),
    ("one_then_negative_chain", _is_chain_pattern),
    ("one_one_p", lambda s: len(s) == 3 and s[0] == 1 and s[1] == 1 and s[2] <= 1),
    ("one_p_ge_4", lambda s: len(s) == 2 and s[0] == 1 and s[1] >= 4),
    ("zero_n_le_4", lambda s: len(s) == 2 and s[0] == 0 and s[1] <= 4),
    ("minus_one_minus_two_or_three", lambda s: s in ((-1, -2), (-1, -3))),
)


@dataclass(frozen=True)
class RigidPattern:
    pattern: str
    representative: SphereCycle
    word: MoveWord


def _match_patterns(key: tuple[int, ...]) -> tuple[str, tuple[int, ...]] | None:
    images = sorted(set(dihedral_images(key)))
    for name, pred in _PATTERNS:
        for img in images:
            if pred(img):
                return name, img
    return None


def rigidity_witness(
    d: SphereCycle,
    *,
    max_length: int,
    min_entry: int,
    max_steps: int,
) -> RigidPattern | None:
    """Bounded search for a toric-equivalent representative of a rigid shape.

    Explores the toric-equivalence class of ``d`` breadth-first within the
    bounds and reports the first representative matching one of the rigid
    sequence shapes, together with the move word reaching it.  ``None``
    means no match was found within bounds, never "not rigid".
    """
    if max_length < 2 or max_steps < 0:
        raise PreconditionError("bounds must be positive")
    start = _moves._canon_key(d)
    children = _moves._toric_children(max_length, min_entry)
    parents: dict[tuple[int, ...], tuple[int, ...] | None] = {start: None}
    frontier = [start]
    for depth in range(max_steps + 1):
        for key in frontier:
            match = _match_patterns(key)
            if match is not None:
                path = _moves._path_to(parents, key)
                word = _moves._realize_path(d, path, max_length, min_entry)
                return RigidPattern(match[0], SphereCycle(key), word)
        if depth < max_steps:
            frontier = sorted(_moves._bfs_layer(frontier, parents, children))
    return None


# ---------------------------------------------------------------------------
# Betti arithmetic for fillings of negative definite toric minimal cycles.

@dataclass(frozen=True)
class FillingProfile:
    b_plus_closed: int
    euler: int
    branch: int | None
    violations: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def filling_profile_check(
    b1: int, b2_plus: int, b2_zero: int, b2_minus: int
) -> FillingProfile:
    """Arithmetic constraints on the Betti numbers of a filling.

    Gluing the filling to the divisor complement yields a closed manifold
    with b+ equal to 1 + b2_plus + b2_zero, which must be 1 or 3; the
    isotropy defect satisfies b2_zero + b1 = 1.  The b+ = 1 branch forces a
    negative definite filling with b1 = 1 and Euler number b2_minus; the
    b+ = 3 branch allows exactly (b2_plus, b2_zero, b1) = (1, 1, 0) or
    (2, 0, 1) with Euler number between 2 and 21.
    """
    for name, value in (("b1", b1), ("b2_plus", b2_plus), ("b2_zero", b2_zero), ("b2_minus", b2_minus)):
        if value < 0:
            raise PreconditionError(f"{name} must be non-negative, got {value}")
    b_plus_closed = 1 + b2_plus + b2_zero
    euler = 1 - b1 + b2_plus + b2_zero + b2_minus
    violations: list[str] = []
    if b2_zero + b1 != 1:
        violations.append("b2_zero_plus_b1_not_one")
    branch: int | None = None
    if b_plus_closed == 1:
        branch = 1
        # b2_plus = b2_zero = 0 holds by arithmetic; euler == b2_minus follows
    elif b_plus_closed == 3:
        branch = 3
        if (b2_plus, b2_zero, b1) not in ((1, 1, 0), (2, 0, 1)):
            violations.append("betti_triple_not_allowed")
        if not 2 <= euler <= 21:
            violations.append("euler_out_of_range")
    else:
        violations.append("b_plus_closed_not_1_or_3")
    return FillingProfile(b_plus_closed, euler, branch, tuple(violations))


# ---------------------------------------------------------------------------
# Report in the stable CLI schema.

def classification_report(d: Divisor) -> dict:
    """Classification data in the JSON report schema.

    Raises when b+ >= 2; callers that want the raw branch should use
    :func:`classify` instead.
    """
    c = classify(d)
    if c.contact is ContactType.INVALID_FOR_LOG_CY:
        raise PreconditionError("InvalidForLogCY: intersection form has b+ >= 2")
    det = determinant(intersection_matrix(d))
    if isinstance(d, SphereCycle):
        m = monodromy(d)
        trace: int | None = m.trace
        bundle: str | None = bundle_type(m).value
    else:
        trace = None
        bundle = None
    return {
        "inertia": list(c.inertia),
        "det": det,
        "trace": trace,
        "contact": c.contact.value,
        "bundle_type": bundle,
    }
