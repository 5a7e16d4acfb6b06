import itertools

import pytest

from logcy.classify import ContactType, classify, negative_definite
from logcy.divisor import (
    SphereCycle,
    canonical_form,
    cycle,
    descriptors,
    dihedral_images,
    torus,
)
from logcy.duality import BlockForm, NotEligible, block_form, dual_cycle, elliptic_dual
from logcy.monodromy import monodromy
from logcy.moves import is_toric_minimal


def eligible_cycles(max_k, min_entry):
    """All eligible canonical cycles: entries in [min_entry, -2], one <= -3,
    total class self-intersection <= -2."""
    for k in range(2, max_k + 1):
        for seq in itertools.product(range(min_entry, -1), repeat=k):
            if seq[0] != min(seq):
                continue
            if seq != min(dihedral_images(seq)):
                continue
            if not any(x <= -3 for x in seq):
                continue
            if sum(x + 2 for x in seq) > -2:
                continue
            yield SphereCycle(seq)


def test_block_form_examples():
    bf = block_form(cycle(-4, -2))
    assert bf.pairs == ((-4, 1),)
    assert canonical_form(bf.expand()) == canonical_form(cycle(-4, -2))
    bf = block_form(cycle(-3, -4))
    assert bf.pairs == ((-4, 0), (-3, 0))
    assert canonical_form(bf.expand()) == canonical_form(cycle(-3, -4))


def test_block_form_round_trips():
    for d in eligible_cycles(6, -6):
        bf = block_form(d)
        assert all(a <= -3 and b >= 0 for a, b in bf.pairs)
        assert canonical_form(bf.expand()) == canonical_form(d)


def test_block_form_rejections():
    with pytest.raises(NotEligible) as exc:
        block_form(cycle(-2, -2, -2))
    assert exc.value.failed == "no_component_at_most_minus_3"
    with pytest.raises(NotEligible) as exc:
        block_form(cycle(-1, -3, -2))
    assert exc.value.failed == "toric_minimal"
    # (-3, -2): s_total = -1, too shallow for the dual construction
    with pytest.raises(NotEligible) as exc:
        block_form(cycle(-3, -2))
    assert exc.value.failed == "s_total_at_most_minus_2"
    with pytest.raises(NotEligible) as exc:
        block_form(cycle(-3, 0, -3))
    assert exc.value.failed == "negative_definite"
    # b+ = 2: a zero-led cycle whose first leading minor is 0, not negative
    with pytest.raises(NotEligible) as exc:
        dual_cycle(cycle(0, -2, -5, -5, -5, 2))
    assert exc.value.failed == "negative_definite"


def test_dual_fixed_cases():
    assert dual_cycle(cycle(-4, -2)) == canonical_form(cycle(-4, -2))
    assert dual_cycle(cycle(-3, -3)) == canonical_form(cycle(-3, -3))
    assert dual_cycle(cycle(-3, -4)) == canonical_form(cycle(-3, -2, -3))
    assert dual_cycle(cycle(-3, -2, -3)) == canonical_form(cycle(-3, -4))


def test_dual_involution_and_trace_sweep():
    count = 0
    for d in eligible_cycles(6, -7):
        dual = dual_cycle(d)
        # closure: the dual is again eligible and negative definite
        assert is_toric_minimal(dual)
        assert negative_definite(dual)
        if count % 50 == 0:  # signature recomputation, on a subsample
            assert classify(dual).contact is ContactType.CONVEX
        assert descriptors(dual).s_total <= -2
        # dual length is determined by the total self-intersection
        assert len(dual.seq) == -descriptors(d).s_total
        # involution up to dihedral symmetry
        assert dual_cycle(dual) == canonical_form(d)
        # the boundary bundles are orientation-reversing diffeomorphic:
        # in SL(2, Z) this shows up as equality of traces
        assert monodromy(dual).trace == monodromy(d).trace
        count += 1
    assert count > 3000


def test_block_expand_is_inverse_of_parse():
    bf = BlockForm(((-5, 2), (-3, 0)))
    assert bf.expand().seq == (-5, -2, -2, -3)


def test_elliptic_dual():
    assert elliptic_dual(torus(3)) == torus(-3)
    assert elliptic_dual(torus(0)) == torus(0)
    assert elliptic_dual(elliptic_dual(torus(-8))) == torus(-8)
