"""Reference computations the benchmark checks library answers against.

Nothing here imports ``logcy``: the checks must not trust the code they
measure.  A divisor is a plain tuple of self-intersections; a 1-tuple is a
torus and a longer tuple a cycle of spheres.  Moves are ``(op, index)``
pairs with op ``"toric_up"``, ``"toric_down"`` or ``"nontoric_up"``.
"""

from __future__ import annotations

from fractions import Fraction

Seq = tuple[int, ...]


def dihedral(seq: Seq) -> list[Seq]:
    k = len(seq)
    rev = seq[::-1]
    return [seq[r:] + seq[:r] for r in range(k)] + [rev[r:] + rev[:r] for r in range(k)]


def canon(seq: Seq) -> Seq:
    return seq if len(seq) == 1 else min(dihedral(seq))


def apply(seq: Seq, op: str, i: int) -> Seq:
    """Apply one move; raises ValueError where the move is undefined."""
    k = len(seq)
    if not 0 <= i < k:
        raise ValueError(f"index {i} out of range for length {k}")
    s = list(seq)
    if op == "nontoric_up":
        s[i] -= 1
        return tuple(s)
    if k == 1:
        raise ValueError("toric move on a torus")
    if op == "toric_up":
        if k == 2:
            return (s[0] - 1, -1, s[1] - 1)
        j = (i + 1) % k
        s[i] -= 1
        s[j] -= 1
        return tuple(s[: i + 1] + [-1] + s[i + 1 :])
    if op == "toric_down":
        if k == 2 or s[i] != -1:
            raise ValueError(f"cannot blow down component {i} of {seq}")
        s[(i - 1) % k] += 1
        s[(i + 1) % k] += 1
        del s[i]
        return tuple(s)
    raise ValueError(f"unknown move {op!r}")


def within(seq: Seq, max_length: int, min_entry: int) -> bool:
    return len(seq) <= max_length and min(seq) >= min_entry


def trace(seq: Seq) -> int:
    """Trace of the boundary monodromy: product of ((-s, 1), (-1, 0))."""
    a, b, c, d = 1, 0, 0, 1
    for s in seq:
        a, b, c, d = -s * a + c, -s * b + d, -a, -b
    return a + d


def matrix(seq: Seq) -> list[list[int]]:
    k = len(seq)
    if k == 1:
        return [[seq[0]]]
    if k == 2:
        return [[seq[0], 2], [2, seq[1]]]
    q = [[0] * k for _ in range(k)]
    for i in range(k):
        q[i][i] = seq[i]
        q[i][(i + 1) % k] += 1
        q[(i + 1) % k][i] += 1
    return q


def leading_minors(seq: Seq) -> list[int]:
    """Leading principal minors D_1 .. D_k of a cycle's intersection matrix.

    Blocks below full size are tridiagonal paths, so the continuant
    recurrence gives them; the full determinant is (-1)^k (trace - 2).
    """
    k = len(seq)
    out = []
    prev, cur = 0, 1
    for m in range(1, k):
        prev, cur = cur, seq[m - 1] * cur - prev
        out.append(cur)
    out.append((-1) ** k * (trace(seq) - 2))
    return out


def jacobi_inertia(seq: Seq) -> tuple[int, int, int] | None:
    """Inertia from sign changes of the leading minors, when none is zero."""
    minors = leading_minors(seq)
    if 0 in minors:
        return None
    signs = [1] + minors
    neg = sum(1 for x, y in zip(signs, signs[1:]) if (x > 0) != (y > 0))
    return (len(seq) - neg, 0, neg)


# ---------------------------------------------------------------------------
# Rigid shapes, by the names the library reports.

def _chain(s: Seq) -> bool:
    if len(s) < 3 or s[0] != 1:
        return False
    t = s[1:]
    return t[0] <= -1 and t[-1] <= -1 and all(x <= -2 for x in t[1:-1])


RIGID = {
    "all_entries_ge_minus_one": lambda s: all(x >= -1 for x in s),
    "zero_zero_zero_n": lambda s: len(s) == 4 and s[:3] == (0, 0, 0) and s[3] <= 0,
    "one_then_negative_chain": _chain,
    "one_one_p": lambda s: len(s) == 3 and s[0] == 1 and s[1] == 1 and s[2] <= 1,
    "one_p_ge_4": lambda s: len(s) == 2 and s[0] == 1 and s[1] >= 4,
    "zero_n_le_4": lambda s: len(s) == 2 and s[0] == 0 and s[1] <= 4,
    "minus_one_minus_two_or_three": lambda s: s in ((-1, -2), (-1, -3)),
}


def rigid_name(seq: Seq) -> str | None:
    """Name of a rigid shape some dihedral image of ``seq`` has, if any."""
    images = dihedral(seq)
    for name, pred in RIGID.items():
        if any(pred(img) for img in images):
            return name
    return None


# ---------------------------------------------------------------------------
# Dual cusps.

def dual_eligible(seq: Seq) -> bool:
    """Toric minimal, negative definite, some entry <= -3, s_total <= -2.

    Restricted to cycles with every entry <= -2, where negative
    definiteness follows from the entries alone.
    """
    return (
        len(seq) >= 2
        and all(x <= -2 for x in seq)
        and any(x <= -3 for x in seq)
        and sum(x + 2 for x in seq) <= -2
    )


# ---------------------------------------------------------------------------
# Minimal-model catalog and the bounded blow-up closure.

def catalog(param_range: tuple[int, int]) -> list[tuple[str, int | None, Seq]]:
    lo, hi = param_range
    out: list[tuple[str, int | None, Seq]] = [
        ("A", None, (0,)), ("B1", None, (9,)), ("B2", None, (1, 4)),
        ("B3", None, (1, 1, 1)), ("C1", None, (8,)),
    ]
    shapes = {
        "C2": lambda b: (2 * b, 4 - 2 * b),
        "C3": lambda b: (2 * b, 0, 2 - 2 * b),
        "C4": lambda b: (2 * b, 0, -2 * b, 0),
        "D2a": lambda a: (2 * a + 1, 3 - 2 * a),
        "D3": lambda a: (2 * a + 1, 0, 1 - 2 * a),
        "D4": lambda a: (2 * a + 1, 0, -2 * a - 1, 0),
    }
    order = ("C2", "C3", "C4", "D2a", "D2b", "D3", "D4")
    for case in order:
        if case == "D2b":
            out.append(("D2b", None, (4, 0)))
            continue
        for p in range(lo, hi + 1):
            out.append((case, p, shapes[case](p)))
    return out


def blow_up_moves(seq: Seq, max_length: int, min_entry: int) -> list[tuple[str, int]]:
    """Blow-ups of ``seq`` whose result stays inside the bounds."""
    k = len(seq)
    out = []
    if k >= 2 and k + 1 <= max_length and -1 >= min_entry:
        for e in range(k):
            if seq[e] - 1 >= min_entry and seq[(e + 1) % k] - 1 >= min_entry:
                out.append(("toric_up", e))
    for i in range(k):
        if seq[i] - 1 >= min_entry:
            out.append(("nontoric_up", i))
    return out


def closure(max_length: int, min_entry: int, max_moves: int, param_range) -> set[Seq]:
    """Canonical sequences reachable from the catalog within the bounds."""
    seen: set[Seq] = set()
    frontier = []
    for _, _, seq in catalog(param_range):
        if within(seq, max_length, min_entry):
            key = canon(seq)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    for _ in range(max_moves):
        nxt = []
        for seq in frontier:
            for op, i in blow_up_moves(seq, max_length, min_entry):
                key = canon(apply(seq, op, i))
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# Exact linear algebra for witnesses.

def mat_vec(q: list[list[int]], z) -> list[Fraction]:
    return [sum((Fraction(x) * y for x, y in zip(row, z)), Fraction(0)) for row in q]
