import itertools
import random

import pytest
import sympy
from hypothesis import given, strategies as st

from logcy.divisor import SphereCycle, cycle, intersection_matrix, torus
from logcy.linalg import determinant
from logcy.monodromy import (
    BundleType,
    Monodromy,
    NotACycle,
    bundle_type,
    monodromy,
    nondegeneracy_by_trace,
)


def mul2(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def oracle_product(seq):
    """Direct 2x2 product, leftmost factor from the last entry."""
    acc = ((1, 0), (0, 1))
    for s in reversed(seq):
        acc = mul2(acc, ((-s, 1), (-1, 0)))
    return acc


def test_minus_two_twice():
    m = monodromy(cycle(-2, -2))
    assert m == Monodromy(3, 2, -2, -1)
    assert m.matrix() == oracle_product((-2, -2))
    assert m.trace == 2


def test_hand_computed_traces():
    assert monodromy(cycle(3, -2, 0)).matrix() == oracle_product((3, -2, 0))
    assert monodromy(cycle(3, -2, 0)).trace == 1
    assert monodromy(cycle(2, -1, 0)).trace == 1
    assert monodromy(cycle(-3, -3)) == Monodromy(8, 3, -3, -1)


def test_trace_certificates():
    assert nondegeneracy_by_trace(cycle(-2, -2)) == (2, False)
    cert = nondegeneracy_by_trace(cycle(-3, -3))
    assert cert.trace == 7 and cert.certifies_nondegenerate
    # degenerate circulant must come out with trace exactly 2
    cert4 = nondegeneracy_by_trace(cycle(0, 0, 0, 0))
    assert cert4.trace == 2
    assert determinant(intersection_matrix(cycle(0, 0, 0, 0))) == 0


def test_rejects_torus():
    with pytest.raises(NotACycle):
        monodromy(torus(5))


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=8))
def test_determinant_one(entries):
    assert monodromy(SphereCycle(tuple(entries))).det == 1


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=8))
def test_matches_direct_product(entries):
    assert monodromy(SphereCycle(tuple(entries))).matrix() == oracle_product(tuple(entries))


def test_trace_rotation_invariance_1000():
    rng = random.Random(99)
    for _ in range(1000):
        k = rng.randint(2, 8)
        seq = tuple(rng.randint(-9, 9) for _ in range(k))
        r = rng.randrange(k)
        rotated = seq[r:] + seq[:r]
        assert monodromy(SphereCycle(rotated)).trace == monodromy(SphereCycle(seq)).trace


def test_trace_reversal_invariance_500():
    rng = random.Random(98)
    for _ in range(500):
        k = rng.randint(2, 8)
        seq = tuple(rng.randint(-9, 9) for _ in range(k))
        assert monodromy(SphereCycle(seq[::-1])).trace == monodromy(SphereCycle(seq)).trace


def test_trace_det_relation_500():
    # det Q = (-1)^k (trace A - 2): independent cross-check of both modules
    rng = random.Random(97)
    for _ in range(500):
        k = rng.randint(2, 8)
        seq = tuple(rng.randint(-9, 9) for _ in range(k))
        d = SphereCycle(seq)
        det = determinant(intersection_matrix(d))
        assert det == (-1) ** k * (monodromy(d).trace - 2)


def test_blow_up_identity_symbolic():
    # A(b - 1) A(-1) A(a - 1) = A(b) A(a): a toric blow-up at an inner edge
    # (a, b) -> (a - 1, -1, b - 1) leaves the monodromy product unchanged
    a, b = sympy.symbols("a b", integer=True)

    def factor(s):
        return sympy.Matrix([[-s, 1], [-1, 0]])

    lhs = factor(b - 1) * factor(-1) * factor(a - 1)
    assert (lhs - factor(b) * factor(a)).expand() == sympy.zeros(2, 2)


def test_nondegeneracy_direction_small_exhaustive():
    # trace != 2 implies det != 0, exhaustively for short cycles
    for k in (2, 3, 4):
        for seq in itertools.product(range(-3, 4), repeat=k):
            d = SphereCycle(seq)
            if monodromy(d).trace != 2:
                assert determinant(intersection_matrix(d)) != 0, seq


def test_bundle_type_thresholds():
    assert bundle_type(Monodromy(5, 1, 1, 5)) is BundleType.HYPERBOLIC
    assert bundle_type(Monodromy(1, 0, 0, 1)) is BundleType.PARABOLIC
    assert bundle_type(Monodromy(1, -1, 1, 0)) is BundleType.ELLIPTIC
    assert bundle_type(monodromy(cycle(-2, -2))) is BundleType.PARABOLIC
