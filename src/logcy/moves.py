"""Blow-up rewriting moves on divisors and bounded equivalence search.

A toric blow-up inserts a -1 sphere at a node of the cycle and decrements
both ends of that node; toric blow-down removes a -1 sphere and increments
its two neighbours.  A non-toric blow-up happens away from the nodes and
just decrements one component.  Two cycles are toric equivalent when a
chain of toric moves connects them; searching for such a chain is done
breadth-first over canonical forms within explicit bounds, and a negative
answer only ever means "not found within bounds".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .divisor import (
    Divisor,
    PreconditionError,
    SphereCycle,
    Torus,
    canonical_form,
)

__all__ = [
    "LengthTooShort",
    "Move",
    "MoveWord",
    "NonToricBlowUp",
    "NotBlowDownable",
    "ToricBlowDown",
    "ToricBlowUp",
    "apply_move",
    "is_toric_minimal",
    "moves_from_obj",
    "moves_to_obj",
    "non_toric_blow_up",
    "toric_blow_down",
    "toric_blow_up",
    "toric_equivalent",
    "toric_minimal_reduce",
]


class NotBlowDownable(PreconditionError):
    """Blow-down requested at a component whose self-intersection is not -1."""


class LengthTooShort(PreconditionError):
    """Blow-down of a length-2 cycle would create a nodal component."""


@dataclass(frozen=True)
class ToricBlowUp:
    edge: int


@dataclass(frozen=True)
class ToricBlowDown:
    component: int


@dataclass(frozen=True)
class NonToricBlowUp:
    component: int


Move = ToricBlowUp | ToricBlowDown | NonToricBlowUp


def toric_blow_up(d: SphereCycle, edge: int) -> SphereCycle:
    """Insert a -1 sphere at the cyclic edge (edge, edge + 1).

    Both ends of the edge lose 1.  For a length-2 cycle the two edges are
    the two intersection points and either choice yields (s1-1, -1, s2-1).
    """
    k = len(d)
    if not 0 <= edge < k:
        raise PreconditionError(f"edge index {edge} out of range for length {k}")
    s = list(d.seq)
    if k == 2:
        return SphereCycle((s[0] - 1, -1, s[1] - 1))
    j = (edge + 1) % k
    s[edge] -= 1
    s[j] -= 1
    return SphereCycle(tuple(s[: edge + 1] + [-1] + s[edge + 1 :]))


def toric_blow_down(d: SphereCycle, component: int) -> SphereCycle:
    """Remove a -1 component, incrementing its two neighbours."""
    k = len(d)
    if not 0 <= component < k:
        raise PreconditionError(f"component index {component} out of range")
    if k == 2:
        raise LengthTooShort("blowing down a length-2 cycle would be nodal")
    if d.seq[component] != -1:
        raise NotBlowDownable(f"component {component} has s = {d.seq[component]}, not -1")
    s = list(d.seq)
    s[(component - 1) % k] += 1
    s[(component + 1) % k] += 1
    del s[component]
    return SphereCycle(tuple(s))


def non_toric_blow_up(d: Divisor, component: int) -> Divisor:
    """Blow up at a smooth interior point: one component loses 1."""
    if isinstance(d, Torus):
        if component != 0:
            raise PreconditionError("a torus has a single component, index 0")
        return Torus(d.s - 1)
    if not 0 <= component < len(d):
        raise PreconditionError(f"component index {component} out of range")
    s = list(d.seq)
    s[component] -= 1
    return SphereCycle(tuple(s))


def apply_move(d: Divisor, move: Move) -> Divisor:
    if isinstance(move, ToricBlowUp):
        if isinstance(d, Torus):
            raise PreconditionError("toric blow-up needs a cycle")
        return toric_blow_up(d, move.edge)
    if isinstance(move, ToricBlowDown):
        if isinstance(d, Torus):
            raise PreconditionError("toric blow-down needs a cycle")
        return toric_blow_down(d, move.component)
    if isinstance(move, NonToricBlowUp):
        return non_toric_blow_up(d, move.component)
    raise TypeError(f"not a move: {move!r}")


@dataclass(frozen=True)
class MoveWord:
    """A replayable sequence of moves anchored at an initial divisor."""

    initial: Divisor
    moves: tuple[Move, ...]

    def replay(self) -> Divisor:
        cur = self.initial
        for move in self.moves:
            cur = apply_move(cur, move)
        return cur

    def __len__(self) -> int:
        return len(self.moves)


_OPS = {"toric_up": ToricBlowUp, "toric_down": ToricBlowDown, "nontoric_up": NonToricBlowUp}
_OP_NAMES = {ToricBlowUp: "toric_up", ToricBlowDown: "toric_down", NonToricBlowUp: "nontoric_up"}


def moves_to_obj(moves: Sequence[Move]) -> list[dict]:
    out = []
    for move in moves:
        index = move.edge if isinstance(move, ToricBlowUp) else move.component
        out.append({"op": _OP_NAMES[type(move)], "index": index})
    return out


def moves_from_obj(obj) -> tuple[Move, ...]:
    if not isinstance(obj, list):
        raise ValueError("move word must be a JSON list")
    moves = []
    for entry in obj:
        op = entry.get("op") if isinstance(entry, dict) else None
        if op not in _OPS or not isinstance(entry.get("index"), int):
            raise ValueError(f"malformed move entry {entry!r}")
        moves.append(_OPS[op](entry["index"]))
    return tuple(moves)


def is_toric_minimal(d: Divisor) -> bool:
    """True when no component is a -1 sphere."""
    if isinstance(d, Torus):
        return True
    return -1 not in d.seq


def toric_minimal_reduce(d: SphereCycle) -> tuple[SphereCycle, MoveWord]:
    """Blow down -1 components until none remain or the length guard stops.

    The input is canonicalized once; thereafter the lowest-index -1 is
    removed at each step, so the result is deterministic.  It is toric
    minimal unless it has length 2 and still carries a -1 (the terminal
    (-1, p) family).  Different reduction orders may reach different
    representatives of the same toric-equivalence class.
    """
    start = canonical_form(d)
    cur = start
    moves: list[Move] = []
    while len(cur) >= 3 and -1 in cur.seq:
        i = cur.seq.index(-1)
        moves.append(ToricBlowDown(i))
        cur = toric_blow_down(cur, i)
    return cur, MoveWord(start, tuple(moves))


# ---------------------------------------------------------------------------
# Bounded breadth-first search over canonical forms.

def _canon_key(d: SphereCycle) -> tuple[int, ...]:
    return canonical_form(d).seq


def _blow_up_edges(seq: tuple[int, ...], max_length: int, min_entry: int) -> Iterator[int]:
    """Edges whose toric blow-up keeps the cycle inside the bounds."""
    k = len(seq)
    if k + 1 <= max_length and -1 >= min_entry:
        for e in range(k):
            if seq[e] - 1 >= min_entry and seq[(e + 1) % k] - 1 >= min_entry:
                yield e


def _toric_moves(d: SphereCycle, max_length: int, min_entry: int) -> Iterator[Move]:
    """Toric moves applicable to ``d`` whose result stays inside the bounds."""
    yield from map(ToricBlowUp, _blow_up_edges(d.seq, max_length, min_entry))
    k = len(d)
    if k >= 3:
        for i in range(k):
            if d.seq[i] == -1:
                yield ToricBlowDown(i)


def _toric_children(max_length: int, min_entry: int) -> Callable[[tuple], list[tuple]]:
    """Canonical keys one in-bounds toric move away from a canonical key."""
    def children(key: tuple[int, ...]) -> list[tuple[int, ...]]:
        d = SphereCycle(key)
        return [_canon_key(apply_move(d, m)) for m in _toric_moves(d, max_length, min_entry)]
    return children


def _bfs_layer(
    frontier: Iterable,
    parents: dict,
    children: Callable,
    key: Callable | None = None,
) -> list:
    """Expand one breadth-first layer.

    Nodes of ``frontier`` are expanded in the given order.  Each child whose
    key (the child itself unless ``key`` is given) is not yet in ``parents``
    is recorded there with its parent node and joins the returned layer, in
    discovery order, so the first path to reach a key wins.
    """
    layer = []
    for node in frontier:
        for child in children(node):
            k = child if key is None else key(child)
            if k not in parents:
                parents[k] = node
                layer.append(child)
    return layer


def _path_to(parents: dict, key) -> list:
    """Keys from a search root (parent ``None``) down to ``key``."""
    path = [key]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def _realize_path(
    a: SphereCycle,
    keys: list[tuple[int, ...]],
    max_length: int,
    min_entry: int,
) -> MoveWord:
    """Turn a path of canonical keys into concrete moves starting at ``a``.

    The set of canonical children is the same for every dihedral
    representative, so each step is realizable; the first matching move in
    the fixed move order is taken.
    """
    cur: SphereCycle = a
    word: list[Move] = []
    for nxt in keys[1:]:
        for move in _toric_moves(cur, max_length, min_entry):
            res = apply_move(cur, move)
            if _canon_key(res) == nxt:
                word.append(move)
                cur = res
                break
        else:  # pragma: no cover - children sets are dihedral-invariant
            raise AssertionError("canonical path could not be realized")
    return MoveWord(a, tuple(word))


def toric_equivalent(
    a: SphereCycle,
    b: SphereCycle,
    *,
    max_length: int,
    min_entry: int,
    max_steps: int,
) -> MoveWord | None:
    """Search for a toric-move path from ``a`` to a rotation/reversal of ``b``.

    Bidirectional breadth-first search over canonical forms, pruned to
    intermediate cycles with length <= max_length and every entry >=
    min_entry.  Each step expands the smaller non-empty frontier (the
    forward one on ties) by one sorted layer; the first layer that meets the
    other side picks the meeting key nearest to the other root, then the
    least.  A returned word replays from ``a`` to a cycle whose canonical
    form equals that of ``b``.  ``None`` reports exhaustion of the bounds
    and is not a proof of inequivalence.
    """
    if max_length < 2 or max_steps < 0:
        raise PreconditionError("bounds must be positive")
    ka = _canon_key(a)
    kb = _canon_key(b)
    if ka == kb:
        return MoveWord(a, ())
    children = _toric_children(max_length, min_entry)
    parents: tuple[dict, dict] = ({ka: None}, {kb: None})
    fronts = [[ka], [kb]]
    for _ in range(max_steps):
        side = 0 if fronts[0] and (not fronts[1] or len(fronts[0]) <= len(fronts[1])) else 1
        fronts[side] = sorted(_bfs_layer(fronts[side], parents[side], children))
        other = parents[1 - side]
        meets = [k for k in fronts[side] if k in other]
        if meets:
            meet = min(meets, key=lambda k: (len(_path_to(other, k)), k))
            keys = _path_to(parents[0], meet) + _path_to(parents[1], meet)[-2::-1]
            return _realize_path(a, keys, max_length, min_entry)
    return None
