import itertools
import random

import pytest
from hypothesis import given, strategies as st

from logcy.divisor import (
    InvalidDivisor,
    SphereCycle,
    Torus,
    canonical_form,
    cycle,
    descriptors,
    divisor_from_json,
    divisor_from_obj,
    divisor_to_obj,
    intersection_matrix,
    torus,
)


def brute_canonical(seq):
    """Independent oracle: minimum over all rotations and reversals."""
    best = None
    n = len(seq)
    for base in (tuple(seq), tuple(reversed(seq))):
        for r in range(n):
            img = base[r:] + base[:r]
            if best is None or img < best:
                best = img
    return best


def test_torus_matrix():
    assert intersection_matrix(torus(8)) == ((8,),)


def test_length_two_matrix():
    assert intersection_matrix(cycle(-3, -3)) == ((-3, 2), (2, -3))


def test_length_four_matrix_is_circulant():
    assert intersection_matrix(cycle(0, 0, 0, 0)) == (
        (0, 1, 0, 1),
        (1, 0, 1, 0),
        (0, 1, 0, 1),
        (1, 0, 1, 0),
    )


def test_triangle_matrix():
    assert intersection_matrix(cycle(3, -2, 0)) == (
        (3, 1, 1),
        (1, -2, 1),
        (1, 1, 0),
    )


def test_descriptors_examples():
    assert descriptors(cycle(1, 4)) == (2, 9, 2)
    # (1+2) + (-2+2) + (0+2) = 5
    assert descriptors(cycle(1, -2, 0)) == (3, 5, 2)
    assert descriptors(cycle(-2, -2)) == (2, 0, 0)
    assert descriptors(torus(-5)) == (1, -5, 0)
    assert descriptors(torus(0)) == (1, 0, 1)


def test_canonical_form_examples():
    # value frozen from the brute-force dihedral oracle
    assert brute_canonical((0, -3, 0, -5)) == (-5, 0, -3, 0)
    assert canonical_form(cycle(0, -3, 0, -5)).seq == (-5, 0, -3, 0)
    assert canonical_form(cycle(-3, -3)).seq == (-3, -3)
    assert canonical_form(cycle(2, -1, 0)) == canonical_form(cycle(0, -1, 2))


def test_no_nodal_cycles():
    with pytest.raises(InvalidDivisor):
        SphereCycle((5,))
    with pytest.raises(InvalidDivisor):
        SphereCycle(())


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=10))
def test_canonical_matches_oracle(entries):
    assert canonical_form(SphereCycle(tuple(entries))).seq == brute_canonical(entries)


def test_canonical_matches_oracle_exhaustive():
    # every cycle with k = 2..6 and entries in [-3, 2]
    for k in range(2, 7):
        for seq in itertools.product(range(-3, 3), repeat=k):
            assert canonical_form(SphereCycle(seq)).seq == brute_canonical(seq)


def structured_cycles(max_k):
    """Words with many occurrences of the minimum: all-equal, periodic, palindromic."""
    for k in range(2, max_k + 1):
        yield (-2,) * k
    for a, b in itertools.permutations((-3, 0, 1), 2):
        for n in range(1, max_k // 2 + 1):
            yield (a, b) * n
        for n in range(1, max_k // 3 + 1):
            yield (a, a, b) * n
            yield (a, b, b) * n
    for n in range(1, max_k // 4 + 1):
        half = (-4, 1) * n
        yield half + half[::-1]  # even palindrome, minima on both halves
        yield half + (2,) + half[::-1]  # odd palindrome
        yield (-4, 0, -4) + (3,) * (4 * n - 3)  # palindrome, two minima one apart


def test_canonical_matches_oracle_structured():
    count = 0
    for seq in structured_cycles(40):
        expected = brute_canonical(seq)
        k = len(seq)
        for r in range(k):
            rotated = seq[r:] + seq[:r]
            assert canonical_form(SphereCycle(rotated)).seq == expected
            assert canonical_form(SphereCycle(rotated[::-1])).seq == expected
        count += 1
    assert count > 200


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=10))
def test_canonical_idempotent(entries):
    c = canonical_form(SphereCycle(tuple(entries)))
    assert canonical_form(c) == c


def test_canonical_dihedral_invariance_1000():
    rng = random.Random(2024)
    for _ in range(1000):
        k = rng.randint(2, 10)
        seq = tuple(rng.randint(-9, 9) for _ in range(k))
        d = SphereCycle(seq)
        r = rng.randrange(k)
        rotated = SphereCycle(seq[r:] + seq[:r])
        reversed_ = SphereCycle(seq[::-1])
        assert canonical_form(rotated) == canonical_form(d)
        assert canonical_form(reversed_) == canonical_form(d)


def test_row_sums_are_s_plus_2_1000():
    rng = random.Random(55)
    for _ in range(1000):
        k = rng.randint(2, 10)
        seq = tuple(rng.randint(-9, 9) for _ in range(k))
        q = intersection_matrix(SphereCycle(seq))
        assert all(q[i][j] == q[j][i] for i in range(k) for j in range(k))
        for i in range(k):
            assert sum(q[i]) == seq[i] + 2


def test_s_total_is_total_class_square_1000():
    rng = random.Random(77)
    for _ in range(1000):
        k = rng.randint(2, 10)
        seq = tuple(rng.randint(-9, 9) for _ in range(k))
        d = SphereCycle(seq)
        q = intersection_matrix(d)
        assert descriptors(d).s_total == sum(sum(row) for row in q)


def test_json_round_trip():
    for d in (torus(-7), cycle(3, -2, 0)):
        assert divisor_from_obj(divisor_to_obj(d)) == d
    assert divisor_from_json('{"kind":"torus","s":8}') == Torus(8)
    assert divisor_from_json('{"kind":"cycle","s":[-3,-3]}') == cycle(-3, -3)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1,2]",
        '{"kind":"circle","s":[1,2]}',
        '{"kind":"cycle","s":[1]}',
        '{"kind":"cycle","s":[1,"x"]}',
        '{"kind":"cycle","s":[1,true]}',
        '{"kind":"torus","s":"many"}',
    ],
)
def test_malformed_json_rejected(text):
    with pytest.raises(InvalidDivisor):
        divisor_from_json(text)
