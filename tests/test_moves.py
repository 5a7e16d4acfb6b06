import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from logcy.divisor import (
    SphereCycle,
    canonical_form,
    cycle,
    descriptors,
    intersection_matrix,
    torus,
)
from logcy.linalg import determinant, solve_rational
from logcy.monodromy import monodromy
from logcy.moves import (
    LengthTooShort,
    NonToricBlowUp,
    NotBlowDownable,
    ToricBlowDown,
    ToricBlowUp,
    apply_move,
    is_toric_minimal,
    moves_from_obj,
    moves_to_obj,
    non_toric_blow_up,
    toric_blow_down,
    toric_blow_up,
    toric_equivalent,
    toric_minimal_reduce,
)


def test_toric_blow_up_examples():
    assert toric_blow_up(cycle(3, -2, 0), 2).seq == (2, -2, -1, -1)
    # length 2: both edges give (s1 - 1, -1, s2 - 1)
    assert toric_blow_up(cycle(-3, -3), 0).seq == (-4, -1, -4)
    assert toric_blow_up(cycle(-3, -3), 1).seq == (-4, -1, -4)


def test_toric_blow_down_examples():
    assert toric_blow_down(cycle(2, -2, -1, -1), 2).seq == (2, -1, 0)
    assert toric_blow_down(cycle(-4, -1, -4), 1).seq == (-3, -3)


def test_blow_down_guards():
    with pytest.raises(LengthTooShort):
        toric_blow_down(cycle(-1, -4), 0)
    with pytest.raises(LengthTooShort):
        toric_blow_down(cycle(-1, -4), 1)
    with pytest.raises(NotBlowDownable):
        toric_blow_down(cycle(-2, -1, -3), 0)


def test_non_toric_examples():
    assert non_toric_blow_up(torus(9), 0) == torus(8)
    assert non_toric_blow_up(cycle(1, 1, 1), 2).seq == (1, 1, 0)
    d = non_toric_blow_up(non_toric_blow_up(cycle(0, 0, 2), 2), 2)
    assert d.seq == (0, 0, 0)


def test_s_total_bookkeeping():
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(2, 8)
        d = SphereCycle(tuple(rng.randint(-5, 5) for _ in range(k)))
        before = descriptors(d).s_total
        up = toric_blow_up(d, rng.randrange(k))
        assert descriptors(up).s_total == before - 1
        nt = non_toric_blow_up(d, rng.randrange(k))
        assert descriptors(nt).s_total == before - 1
        # blowing the inserted sphere back down restores the count
        down_index = 1 if k == 2 else None
        if down_index is not None:
            assert descriptors(toric_blow_down(up, down_index)).s_total == before


def test_round_trip_1000():
    rng = random.Random(15)
    for _ in range(1000):
        k = rng.randint(2, 8)
        d = SphereCycle(tuple(rng.randint(-9, 9) for _ in range(k)))
        e = rng.randrange(k)
        up = toric_blow_up(d, e)
        inserted = 1 if k == 2 else e + 1
        assert up.seq[inserted] == -1
        assert toric_blow_down(up, inserted) == d


def test_trace_invariance_under_blow_up_1000():
    rng = random.Random(25)
    for _ in range(1000):
        k = rng.randint(2, 8)
        d = SphereCycle(tuple(rng.randint(-9, 9) for _ in range(k)))
        t = monodromy(d).trace
        for e in range(k):
            assert monodromy(toric_blow_up(d, e)).trace == t


def test_nondegeneracy_invariance_under_blow_up_300():
    rng = random.Random(35)
    for _ in range(300):
        k = rng.randint(2, 6)
        d = SphereCycle(tuple(rng.randint(-5, 5) for _ in range(k)))
        nondeg = determinant(intersection_matrix(d)) != 0
        for e in range(k):
            up = toric_blow_up(d, e)
            assert (determinant(intersection_matrix(up)) != 0) == nondeg


def induced_areas(k, areas, edge, eps):
    """Area vector after blowing up the edge: ends lose eps, the new sphere gets eps."""
    new = list(areas)
    j = (edge + 1) % k
    new[edge] -= eps
    new[j] -= eps
    insert_at = 1 if k == 2 else edge + 1
    new.insert(insert_at, eps)
    return new


def test_exactness_transport_500():
    rng = random.Random(45)
    solvable_seen = 0
    for _ in range(500):
        k = rng.randint(2, 6)
        d = SphereCycle(tuple(rng.randint(-5, 5) for _ in range(k)))
        q = intersection_matrix(d)
        if rng.random() < 0.6:
            z = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k)]
            a = [sum(q[i][j] * z[j] for j in range(k)) for i in range(k)]
        else:
            a = [rng.randint(-6, 6) for _ in range(k)]
        before = solve_rational(q, a) is not None
        solvable_seen += before
        edge = rng.randrange(k)
        up = toric_blow_up(d, edge)
        for eps in (1, 2, 3):
            after = solve_rational(
                intersection_matrix(up), induced_areas(k, a, edge, eps)
            ) is not None
            assert after == before
    assert solvable_seen >= 250  # the suite actually exercises solvable instances


def test_toric_minimal_reduce_chain():
    result, word = toric_minimal_reduce(cycle(2, -2, -1, -1))
    assert is_toric_minimal(result)
    assert result.seq == (1, 3)
    assert word.replay() == result
    assert word.initial == canonical_form(cycle(2, -2, -1, -1))


def test_toric_minimal_reduce_fixed_points():
    d = cycle(-3, -2, -3)
    result, word = toric_minimal_reduce(d)
    assert result == canonical_form(d)
    assert word.moves == ()
    # terminal (-1, p) family: the length guard stops the reduction
    result, word = toric_minimal_reduce(cycle(-1, -4))
    assert result.seq == (-4, -1)
    assert word.moves == ()


def op_pairs(word):
    return [(step["op"], step["index"]) for step in moves_to_obj(word.moves)]


def test_equivalence_balanced_triple():
    word = toric_equivalent(
        cycle(3, -2, 0), cycle(2, -1, 0), max_length=5, min_entry=-4, max_steps=3
    )
    assert word is not None and len(word) == 2
    assert op_pairs(word) == [("toric_up", 2), ("toric_down", 2)]
    assert canonical_form(word.replay()) == canonical_form(cycle(2, -1, 0))
    assert word.initial == cycle(3, -2, 0)


def test_equivalence_single_step():
    word = toric_equivalent(
        cycle(-3, -3), cycle(-4, -1, -4), max_length=4, min_entry=-6, max_steps=2
    )
    assert word is not None and len(word) == 1
    assert op_pairs(word) == [("toric_up", 0)]


def test_equivalence_not_found():
    # traces 7 and 10 differ and the trace is a toric-move invariant
    assert monodromy(cycle(-3, -3)).trace != monodromy(cycle(-3, -4)).trace
    word = toric_equivalent(
        cycle(-3, -3), cycle(-3, -4), max_length=7, min_entry=-9, max_steps=8
    )
    assert word is None


def test_equivalence_identity():
    word = toric_equivalent(
        cycle(0, -1, 2), cycle(2, -1, 0), max_length=4, min_entry=-4, max_steps=2
    )
    assert word is not None and len(word) == 0


def test_move_word_json_round_trip():
    moves = (ToricBlowUp(2), ToricBlowDown(3), NonToricBlowUp(0))
    obj = moves_to_obj(moves)
    assert obj == [
        {"op": "toric_up", "index": 2},
        {"op": "toric_down", "index": 3},
        {"op": "nontoric_up", "index": 0},
    ]
    assert moves_from_obj(obj) == moves


@given(st.lists(st.integers(-6, 6), min_size=2, max_size=7), st.data())
def test_apply_move_matches_direct_calls(entries, data):
    d = SphereCycle(tuple(entries))
    k = len(entries)
    e = data.draw(st.integers(0, k - 1))
    assert apply_move(d, ToricBlowUp(e)) == toric_blow_up(d, e)
    assert apply_move(d, NonToricBlowUp(e)) == non_toric_blow_up(d, e)
