"""Core divisor types: a torus, or a cycle of spheres with integer labels.

A divisor is recorded purely combinatorially.  A torus carries a single
self-intersection number; a cycle of spheres carries the cyclic sequence of
component self-intersections.  Two cyclic sequences related by rotation or
reversal describe the same divisor, and :func:`canonical_form` picks a
distinguished representative of that dihedral class.

All values are immutable and hashable, and every function is pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, NamedTuple

__all__ = [
    "Descriptors",
    "Divisor",
    "InvalidDivisor",
    "PreconditionError",
    "SphereCycle",
    "Torus",
    "canonical_form",
    "cycle",
    "descriptors",
    "dihedral_images",
    "dihedral_index_maps",
    "divisor_from_json",
    "divisor_from_obj",
    "divisor_to_obj",
    "intersection_matrix",
    "torus",
]


class InvalidDivisor(ValueError):
    """Raised for structurally malformed divisor data."""


class PreconditionError(ValueError):
    """An operation was applied to a value outside its domain."""


@dataclass(frozen=True)
class Torus:
    """A single torus component with self-intersection ``s``."""

    s: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", int(self.s))


@dataclass(frozen=True)
class SphereCycle:
    """A cycle of spheres, stored as its self-intersection sequence.

    Component ``i`` meets components ``i - 1`` and ``i + 1`` (indices mod
    length) transversally once; for length 2 the two components meet in two
    points.  Length-1 cycles would be nodal and are rejected.
    """

    seq: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(int(x) for x in self.seq)
        if len(entries) < 2:
            raise InvalidDivisor("a sphere cycle needs at least two components")
        object.__setattr__(self, "seq", entries)

    def __len__(self) -> int:
        return len(self.seq)


def _sphere_cycle(seq: tuple[int, ...]) -> SphereCycle:
    """A cycle from a tuple of ints, without the per-entry ``int()`` pass.

    For callers whose entries are already ints: canonicalisation, the
    blow-up moves and block-form expansion.  The length is still checked.
    """
    if len(seq) < 2:
        raise InvalidDivisor("a sphere cycle needs at least two components")
    d = object.__new__(SphereCycle)
    object.__setattr__(d, "seq", seq)
    return d


Divisor = Torus | SphereCycle


def torus(s: int) -> Torus:
    return Torus(s)


def cycle(*entries: int) -> SphereCycle:
    return SphereCycle(entries)


def intersection_matrix(d: Divisor) -> tuple[tuple[int, ...], ...]:
    """Symmetric pairing matrix of the components of ``d``.

    Diagonal entries are the self-intersections.  Off-diagonal entries count
    intersection points: cyclically adjacent spheres meet once (twice in a
    length-2 cycle), all other pairs are disjoint.  A torus gives the 1x1
    matrix of its self-intersection.
    """
    if isinstance(d, Torus):
        return ((d.s,),)
    s = d.seq
    k = len(s)
    if k == 2:
        return ((s[0], 2), (2, s[1]))
    rows = []
    for i in range(k):
        row = [0] * k
        row[i] = s[i]
        row[(i - 1) % k] += 1
        row[(i + 1) % k] += 1
        rows.append(tuple(row))
    return tuple(rows)


class Descriptors(NamedTuple):
    """Elementary numeric descriptors of a divisor."""

    r: int
    s_total: int
    r_nonneg: int


def descriptors(d: Divisor) -> Descriptors:
    """Component count, total-class self-intersection, non-negative count.

    For a cycle ``s_total`` is ``sum(s_i + 2)``, the self-intersection of
    the total divisor class; for a torus it is ``s`` itself.
    """
    if isinstance(d, Torus):
        return Descriptors(1, d.s, 1 if d.s >= 0 else 0)
    return Descriptors(
        len(d.seq),
        sum(x + 2 for x in d.seq),
        sum(1 for x in d.seq if x >= 0),
    )


def dihedral_index_maps(k: int) -> list[tuple[int, ...]]:
    """The 2k index maps of the dihedral group acting on cyclic positions.

    Each map ``pi`` sends position ``t`` of the transformed sequence to
    position ``pi[t]`` of the original one.
    """
    maps = []
    for r in range(k):
        maps.append(tuple((t + r) % k for t in range(k)))
    for r in range(k):
        maps.append(tuple((r - t) % k for t in range(k)))
    return maps


def dihedral_images(seq: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All rotations of ``seq`` and of its reversal."""
    for pi in dihedral_index_maps(len(seq)):
        yield tuple(seq[i] for i in pi)


def canonical_form(d: SphereCycle) -> SphereCycle:
    """Lexicographically minimal sequence over all rotations and reversals.

    Only the rotations of the sequence and of its reversal that start at an
    occurrence of the minimum entry are compared: the least of all 2k
    dihedral images must begin with the minimum entry, so it is among them
    and the result equals ``min(dihedral_images(d.seq))``.

    Idempotent, and two cycles have equal canonical forms exactly when they
    are related by a rotation or a reversal.
    """
    seq = d.seq
    m = min(seq)
    return _sphere_cycle(min([
        s[i:] + s[:i] for s in (seq, seq[::-1]) for i, x in enumerate(s) if x == m
    ]))


# ---------------------------------------------------------------------------
# JSON file schema:  {"kind": "torus", "s": <int>}
#                 or {"kind": "cycle", "s": [<int>, ...]}  (length >= 2)

def _check_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidDivisor(f"expected an integer, got {x!r}")
    return x


def divisor_to_obj(d: Divisor) -> dict:
    if isinstance(d, Torus):
        return {"kind": "torus", "s": d.s}
    return {"kind": "cycle", "s": list(d.seq)}


def divisor_from_obj(obj) -> Divisor:
    if not isinstance(obj, dict):
        raise InvalidDivisor("divisor object must be a JSON object")
    kind = obj.get("kind")
    if kind == "torus":
        return Torus(_check_int(obj.get("s")))
    if kind == "cycle":
        s = obj.get("s")
        if not isinstance(s, list) or len(s) < 2:
            raise InvalidDivisor("cycle needs a list of at least two integers")
        return SphereCycle(tuple(_check_int(x) for x in s))
    raise InvalidDivisor(f"unknown divisor kind {kind!r}")


def divisor_from_json(text: str) -> Divisor:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDivisor(f"invalid JSON: {exc}") from exc
    return divisor_from_obj(obj)
