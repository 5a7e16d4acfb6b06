"""Minimal-model catalog and bounded generation of anti-canonical sequences.

Every anti-canonical sequence arises from one of finitely many minimal
models by blow-up moves, so the generator takes the catalog pairs and
closes them under toric and non-toric blow-ups within explicit bounds,
deduplicating by canonical form.  Each emitted record carries provenance
(minimal model plus move word) that replays to the sequence, and the
invariants of the sequence.  The closure is explored breadth-first in a
single thread; output order is (length, canonical sequence).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterator

from .classify import ContactType, contact_from_inertia
from .divisor import (
    Divisor,
    PreconditionError,
    SphereCycle,
    Torus,
    canonical_form,
    descriptors,
    dihedral_images,
    intersection_matrix,
)
from .homology import (
    AmbientBasis,
    LogCYPair,
    VIOLATED,
    check_constraints,
    transport,
    validate_pair,
)
from .linalg import Inertia, determinant, inertia
from .monodromy import monodromy
from .moves import (
    Move,
    MoveWord,
    NonToricBlowUp,
    ToricBlowUp,
    _bfs_layer,
    _blow_up_edges,
    moves_to_obj,
)

__all__ = [
    "Bounds",
    "CatalogEntry",
    "EnumRecord",
    "UnknownWithinBounds",
    "catalog",
    "enumerate_anticanonical",
    "is_anticanonical",
    "jsonl_line",
    "minimal_model",
    "sequence_obstructions",
    "write_jsonl",
]

CASES = ("A", "B1", "B2", "B3", "C1", "C2", "C3", "C4", "D2a", "D2b", "D3", "D4")
PARAMETRIC_CASES = ("C2", "C3", "C4", "D2a", "D3", "D4")

# D-surface classes are stored in the rational basis via f = h - e1, s = h,
# so c1 = f + 2s = 3h - e1.
_D_F = (1, -1)
_D_S = (1, 0)


def _dvec(f_coeff: int, s_coeff: int) -> tuple[int, int]:
    return (f_coeff * _D_F[0] + s_coeff * _D_S[0], f_coeff * _D_F[1] + s_coeff * _D_S[1])


def minimal_model(case: str, param: int | None = None) -> LogCYPair:
    """The catalog pair for one minimal-model case.

    Cases: a minimal torus in an elliptic ruled surface (A), tori and
    sphere cycles in the plane (B1-B3), in the product of two spheres
    (C1-C4) and in the one-point blow-up of the plane (D2a-D4).  The C and
    D cycle cases take one integer parameter.
    """
    if case in PARAMETRIC_CASES:
        if param is None:
            raise PreconditionError(f"case {case} needs an integer parameter")
        b = a = param
    elif param is not None:
        raise PreconditionError(f"case {case} takes no parameter")

    rational0 = AmbientBasis("rational", 0)
    ruled0 = AmbientBasis("ruled", 0)
    rational1 = AmbientBasis("rational", 1)
    c1_d = _dvec(1, 2)  # (3, -1)

    if case == "A":
        return LogCYPair(Torus(0), None, None, None)
    if case == "B1":
        return LogCYPair(Torus(9), rational0, ((3,),), (3,))
    if case == "B2":
        return LogCYPair(SphereCycle((1, 4)), rational0, ((1,), (2,)), (3,))
    if case == "B3":
        return LogCYPair(SphereCycle((1, 1, 1)), rational0, ((1,), (1,), (1,)), (3,))
    if case == "C1":
        return LogCYPair(Torus(8), ruled0, ((2, 2),), (2, 2))
    if case == "C2":
        return LogCYPair(
            SphereCycle((2 * b, 4 - 2 * b)),
            ruled0,
            ((b, 1), (2 - b, 1)),
            (2, 2),
        )
    if case == "C3":
        return LogCYPair(
            SphereCycle((2 * b, 0, 2 - 2 * b)),
            ruled0,
            ((b, 1), (1, 0), (1 - b, 1)),
            (2, 2),
        )
    if case == "C4":
        return LogCYPair(
            SphereCycle((2 * b, 0, -2 * b, 0)),
            ruled0,
            ((b, 1), (1, 0), (-b, 1), (1, 0)),
            (2, 2),
        )
    if case == "D2a":
        return LogCYPair(
            SphereCycle((2 * a + 1, 3 - 2 * a)),
            rational1,
            (_dvec(a, 1), _dvec(1 - a, 1)),
            c1_d,
        )
    if case == "D2b":
        return LogCYPair(
            SphereCycle((4, 0)),
            rational1,
            (_dvec(0, 2), _dvec(1, 0)),
            c1_d,
        )
    if case == "D3":
        return LogCYPair(
            SphereCycle((2 * a + 1, 0, 1 - 2 * a)),
            rational1,
            (_dvec(a, 1), _dvec(1, 0), _dvec(-a, 1)),
            c1_d,
        )
    if case == "D4":
        return LogCYPair(
            SphereCycle((2 * a + 1, 0, -2 * a - 1, 0)),
            rational1,
            (_dvec(a, 1), _dvec(1, 0), _dvec(-(a + 1), 1), _dvec(1, 0)),
            c1_d,
        )
    raise PreconditionError(f"unknown case {case!r}")


@dataclass(frozen=True)
class CatalogEntry:
    case: str
    param: int | None
    pair: LogCYPair


def catalog(param_range: tuple[int, int]) -> list[CatalogEntry]:
    """All minimal models, with C/D parameters ranging over the interval."""
    lo, hi = param_range
    if lo > hi:
        raise PreconditionError("empty parameter range")
    entries = []
    for case in CASES:
        if case in PARAMETRIC_CASES:
            for p in range(lo, hi + 1):
                entries.append(CatalogEntry(case, p, minimal_model(case, p)))
        else:
            entries.append(CatalogEntry(case, None, minimal_model(case)))
    return entries


@dataclass(frozen=True)
class Bounds:
    max_length: int
    min_entry: int
    max_moves: int
    param_range: tuple[int, int]

    def __post_init__(self) -> None:
        if self.max_length < 1 or self.max_moves < 0:
            raise PreconditionError("bounds must be positive")
        if self.param_range[0] > self.param_range[1]:
            raise PreconditionError("empty parameter range")


@dataclass(frozen=True)
class EnumRecord:
    """A canonical anti-canonical sequence with provenance and invariants."""

    divisor: Divisor
    case: str
    param: int | None
    moves: tuple[Move, ...]
    pair: LogCYPair
    inertia: Inertia
    det: int
    trace: int | None
    s_total: int
    contact: ContactType

    def word(self) -> MoveWord:
        return MoveWord(minimal_model(self.case, self.param).divisor, self.moves)

    def to_obj(self) -> dict:
        seq = {"torus": self.divisor.s} if isinstance(self.divisor, Torus) else list(self.divisor.seq)
        return {
            "seq": seq,
            "case": self.case,
            "param": self.param,
            "moves": moves_to_obj(self.moves),
            "inertia": list(self.inertia),
            "trace": self.trace,
            "s_total": self.s_total,
            "contact": self.contact.value,
        }


@dataclass(frozen=True)
class UnknownWithinBounds:
    """Negative answer of a bounded membership query, with any hard obstructions."""

    obstructions: tuple[str, ...]


def sequence_obstructions(d: Divisor) -> tuple[str, ...]:
    """Certificates that a divisor can never be anti-canonical.

    Anti-canonical divisors satisfy s_total <= 9, exclude the two-component
    shapes (5 + l, -l) for l >= 2, carry at most four non-negative
    components, and at length >= 5 at most two non-negative components
    which must be adjacent with a zero among them.
    """
    desc = descriptors(d)
    if isinstance(d, Torus):
        return ("s_total_exceeds_9",) if d.s > 9 else ()
    out = []
    if desc.s_total > 9:
        out.append("s_total_exceeds_9")
    if desc.r == 2:
        for x, y in dihedral_images(d.seq):
            if y <= -2 and x == 5 - y:
                out.append("excluded_two_component_shape")
                break
    if desc.r_nonneg > 4:
        out.append("more_than_four_nonnegative")
    if desc.r >= 5:
        if desc.r_nonneg > 2:
            out.append("long_cycle_nonnegative_bound")
        elif desc.r_nonneg == 2:
            k = desc.r
            pos = [i for i, x in enumerate(d.seq) if x >= 0]
            i, j = pos
            adjacent = (j - i) % k in (1, k - 1)
            if not (adjacent and (d.seq[i] == 0 or d.seq[j] == 0)):
                out.append("long_cycle_nonnegative_bound")
    return tuple(out)


def _canon_divisor(d: Divisor) -> Divisor:
    return d if isinstance(d, Torus) else canonical_form(d)


def _sort_key(d: Divisor) -> tuple[int, tuple[int, ...]]:
    if isinstance(d, Torus):
        return (1, (d.s,))
    return (len(d.seq), d.seq)


def _within_bounds(d: Divisor, bounds: Bounds) -> bool:
    if isinstance(d, Torus):
        return 1 <= bounds.max_length and d.s >= bounds.min_entry
    return len(d.seq) <= bounds.max_length and min(d.seq) >= bounds.min_entry


def _move_candidates(d: Divisor, bounds: Bounds) -> list[Move]:
    if isinstance(d, Torus):
        return [NonToricBlowUp(0)] if d.s - 1 >= bounds.min_entry else []
    out: list[Move] = [
        ToricBlowUp(e) for e in _blow_up_edges(d.seq, bounds.max_length, bounds.min_entry)
    ]
    for i in range(len(d.seq)):
        if d.seq[i] - 1 >= bounds.min_entry:
            out.append(NonToricBlowUp(i))
    return out


def _make_record(case: str, param: int | None, word: tuple[Move, ...], pair: LogCYPair) -> EnumRecord:
    d = pair.divisor
    canon = _canon_divisor(d)
    q = intersection_matrix(canon)
    iq = inertia(q)
    det = determinant(q)
    trace = monodromy(canon).trace if isinstance(canon, SphereCycle) else None
    s_total = descriptors(canon).s_total
    contact = contact_from_inertia(iq)
    if contact is ContactType.INVALID_FOR_LOG_CY:
        raise RuntimeError(f"generated divisor {canon} has b+ >= 2")
    bad = validate_pair(pair)
    if bad:
        raise RuntimeError(f"generated pair fails validation: {bad}")
    violated = [c.rule for c in check_constraints(pair) if c.status == VIOLATED]
    if violated:
        raise RuntimeError(f"generated pair violates constraints: {violated}")
    flagged = sequence_obstructions(canon)
    if flagged:
        raise RuntimeError(f"generated sequence is obstructed: {flagged}")
    return EnumRecord(canon, case, param, word, pair, iq, det, trace, s_total, contact)


def _index_memory_guard(index_size: int) -> None:
    cap = os.environ.get("LOGCY_MAX_MEM")
    if not cap:
        return
    try:
        cap_bytes = int(cap)
    except ValueError:
        raise PreconditionError(f"LOGCY_MAX_MEM must be an integer byte count, got {cap!r}")
    # coarse estimate: ~256 bytes per deduplication index entry
    if index_size * 256 > cap_bytes:
        raise RuntimeError(
            f"deduplication index (~{index_size * 256} bytes) exceeds LOGCY_MAX_MEM={cap_bytes}"
        )


def _closure(bounds: Bounds) -> Iterator[EnumRecord]:
    """The catalog closure under blow-up moves, in discovery order.

    Breadth-first over move count with deduplication by canonical form;
    layers are expanded in catalog order, then move order, and the first
    provenance found for a canonical form wins.
    """
    seen: dict[Divisor, EnumRecord | None] = {}
    frontier: list[EnumRecord] = []
    for entry in catalog(bounds.param_range):
        if not _within_bounds(entry.pair.divisor, bounds):
            continue
        key = _canon_divisor(entry.pair.divisor)
        if key not in seen:
            seen[key] = None
            frontier.append(_make_record(entry.case, entry.param, (), entry.pair))
    yield from frontier

    # a child is the argument tuple of its record, the transported pair last
    def children(record: EnumRecord) -> Iterator[tuple]:
        for move in _move_candidates(record.pair.divisor, bounds):
            yield record.case, record.param, record.moves + (move,), transport(record.pair, move)

    for _ in range(bounds.max_moves):
        if not frontier:
            break
        layer = _bfs_layer(frontier, seen, children, key=lambda c: _canon_divisor(c[-1].divisor))
        _index_memory_guard(len(seen))
        frontier = [_make_record(*child) for child in layer]
        yield from frontier


def enumerate_anticanonical(bounds: Bounds, workers: int = 1) -> Iterator[EnumRecord]:
    """Generate the catalog closure under blow-up moves within bounds.

    Breadth-first over move count with deduplication by canonical form;
    the first provenance found (in catalog order, then move order) wins.
    Records come out sorted by (length, canonical sequence).  ``workers``
    is validated and otherwise ignored: the search runs in one thread.
    """
    if workers < 1:
        raise PreconditionError("workers must be >= 1")
    yield from sorted(_closure(bounds), key=lambda r: _sort_key(r.divisor))


def is_anticanonical(d: Divisor, bounds: Bounds) -> EnumRecord | UnknownWithinBounds:
    """Membership query against the bounded enumeration closure.

    The closure is explored only until the target first appears, and the
    witness is the record :func:`enumerate_anticanonical` emits for it.  A
    witness record proves the sequence anti-canonical; the negative answer
    carries any hard obstructions but is otherwise only "unknown within
    these bounds".
    """
    obstructions = sequence_obstructions(d)
    if not obstructions:
        target = _canon_divisor(d)
        for record in _closure(bounds):
            if record.divisor == target:
                return record
    return UnknownWithinBounds(obstructions)


def jsonl_line(record: EnumRecord) -> str:
    return json.dumps(record.to_obj()) + "\n"


def write_jsonl(records, fp) -> None:
    for record in records:
        fp.write(jsonl_line(record))
