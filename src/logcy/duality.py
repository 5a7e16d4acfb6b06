"""Block-form parsing and the dual-cycle construction.

A negative definite toric minimal cycle whose total class has
self-intersection at most -2 can be written in blocks
(a_1, -2 x b_1, a_2, -2 x b_2, ...) with a_i <= -3 and b_i >= 0.  Its dual
is the cycle with blocks given by a*_i = -b_i - 3 and b*_i = -a_{i+1} - 3
(indices cyclic); the boundaries of the two plumbings are orientation
reversing diffeomorphic.  For a single torus the dual simply negates the
self-intersection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import negative_definite
from .divisor import (
    PreconditionError,
    SphereCycle,
    Torus,
    _sphere_cycle,
    canonical_form,
    descriptors,
)
from .moves import is_toric_minimal

__all__ = ["BlockForm", "NotEligible", "block_form", "dual_cycle", "elliptic_dual"]


class NotEligible(PreconditionError):
    """The cycle is outside the domain of the dual construction."""

    def __init__(self, failed: str):
        self.failed = failed
        super().__init__(f"not eligible for the dual construction: {failed}")


@dataclass(frozen=True)
class BlockForm:
    """Cyclic list of (a_i, b_i) blocks with a_i <= -3 and b_i >= 0."""

    pairs: tuple[tuple[int, int], ...]

    def expand(self) -> SphereCycle:
        seq: list[int] = []
        for a, b in self.pairs:
            seq.append(a)
            seq.extend([-2] * b)
        return _sphere_cycle(tuple(seq))


def block_form(d: SphereCycle) -> BlockForm:
    """Parse an eligible cycle into its block form.

    Eligibility: toric minimal, at least one entry <= -3, negative definite
    and total-class self-intersection <= -2.  The parse starts at the
    lexicographically smallest rotation beginning with an a-entry, after
    canonicalizing, so the result is deterministic and its expansion
    round-trips up to rotation/reversal.  That rotation is the canonical
    sequence itself: it starts with the minimum entry, which is <= -3.
    """
    if not is_toric_minimal(d):
        raise NotEligible("toric_minimal")
    if not any(x <= -3 for x in d.seq):
        raise NotEligible("no_component_at_most_minus_3")
    if not negative_definite(d):
        raise NotEligible("negative_definite")
    if descriptors(d).s_total > -2:
        raise NotEligible("s_total_at_most_minus_2")

    base = canonical_form(d).seq
    k = len(base)
    pairs: list[tuple[int, int]] = []
    i = 0
    while i < k:
        a = base[i]
        i += 1
        b = 0
        while i < k and base[i] == -2:
            b += 1
            i += 1
        pairs.append((a, b))
    return BlockForm(tuple(pairs))


def dual_cycle(d: SphereCycle) -> SphereCycle:
    """The dual of an eligible negative definite toric minimal cycle.

    Applies a*_i = -b_i - 3, b*_i = -a_{i+1} - 3 on the block form and
    expands; the result is returned in canonical form since the dual is
    only defined up to rotation and reversal.  It is again eligible, and
    the construction is an involution up to dihedral symmetry.
    """
    bf = block_form(d)
    m = len(bf.pairs)
    a = [p[0] for p in bf.pairs]
    b = [p[1] for p in bf.pairs]
    dual_pairs = tuple((-b[i] - 3, -a[(i + 1) % m] - 3) for i in range(m))
    return canonical_form(BlockForm(dual_pairs).expand())


def elliptic_dual(t: Torus) -> Torus:
    """Dual of a torus divisor: negate the self-intersection."""
    if not isinstance(t, Torus):
        raise PreconditionError("elliptic_dual expects a torus")
    return Torus(-t.s)
