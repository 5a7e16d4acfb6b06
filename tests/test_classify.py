import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from logcy.classify import (
    ContactType,
    DefinitenessPrediction,
    classification_report,
    classify,
    definiteness_shortcut,
    exact_on_boundary,
    filling_profile_check,
    i2_criterion,
    negative_definite,
    rigidity_witness,
)
from logcy.divisor import (
    PreconditionError,
    SphereCycle,
    canonical_form,
    cycle,
    dihedral_images,
    intersection_matrix,
    torus,
)
from logcy.enumeration import Bounds, enumerate_anticanonical, minimal_model
from logcy.homology import transport, validate_pair
from logcy.linalg import Inertia, solve_rational
from logcy.moves import NonToricBlowUp, ToricBlowDown, ToricBlowUp


def test_classify_examples():
    c = classify(cycle(-3, -3))
    assert c.inertia == Inertia(0, 0, 2)
    assert c.contact is ContactType.CONVEX
    c = classify(cycle(0, 0, 0, 0))
    assert c.inertia == Inertia(1, 2, 1)
    assert c.contact is ContactType.CONCAVE
    c = classify(cycle(-2, -2))
    assert c.inertia == Inertia(0, 1, 1)
    assert c.contact is ContactType.NO_CONTACT_BOUNDARY


def test_classify_torus():
    assert classify(torus(-5)).contact is ContactType.CONVEX
    assert classify(torus(0)).contact is ContactType.NO_CONTACT_BOUNDARY
    assert classify(torus(3)).contact is ContactType.CONCAVE


def test_classify_invalid_branch():
    c = classify(cycle(1, 1, 1, 1))
    assert c.inertia.b_plus >= 2
    assert c.contact is ContactType.INVALID_FOR_LOG_CY
    with pytest.raises(PreconditionError):
        classification_report(cycle(1, 1, 1, 1))


def test_kod_labels():
    assert ContactType.CONVEX.kod_label == "Kod <= 0"
    assert ContactType.CONCAVE.kod_label == "Kod = -infinity"
    assert ContactType.NO_CONTACT_BOUNDARY.kod_label is None


@given(st.lists(st.integers(-6, 6), min_size=2, max_size=7))
def test_classify_invariant_under_canonical_form(entries):
    d = SphereCycle(tuple(entries))
    assert classify(d) == classify(canonical_form(d))


def test_shortcut_examples():
    assert definiteness_shortcut(cycle(-3, -3)) is DefinitenessPrediction.NEGATIVE_DEFINITE
    assert definiteness_shortcut(cycle(-2, -2, -2)) is DefinitenessPrediction.NEGATIVE_SEMIDEFINITE
    assert definiteness_shortcut(cycle(0, -3, -2)) is DefinitenessPrediction.B_PLUS_AT_LEAST_ONE
    assert definiteness_shortcut(cycle(2, -1, 0)) is None  # not toric minimal


def test_shortcut_agrees_with_classify_exhaustive():
    # every toric minimal cycle, k <= 6, entries in [-5, 5], one per dihedral class
    checked = 0
    for k in range(2, 7):
        for seq in itertools.product(range(-5, 6), repeat=k):
            if seq[0] != min(seq) or -1 in seq:
                continue
            if seq != min(dihedral_images(seq)):
                continue
            d = SphereCycle(seq)
            prediction = definiteness_shortcut(d)
            iq = classify(d).inertia
            if prediction is DefinitenessPrediction.NEGATIVE_DEFINITE:
                assert (iq.b_plus, iq.b_zero) == (0, 0), seq
            elif prediction is DefinitenessPrediction.NEGATIVE_SEMIDEFINITE:
                assert iq.b_plus == 0 and iq.b_zero > 0, seq
            else:
                assert iq.b_plus >= 1, seq
            checked += 1
    assert checked > 50000


def test_negative_definite_agrees_with_inertia():
    # exhaustive small sweep plus random larger cycles and tori
    import random

    for k in range(2, 5):
        for seq in itertools.product(range(-4, 3), repeat=k):
            d = SphereCycle(seq)
            iq = classify(d).inertia
            assert negative_definite(d) == ((iq.b_plus, iq.b_zero) == (0, 0)), seq
    # cycles led by a zero entry: a continuant started at (1, 1) read the
    # first leading minor as -1 and called 173 of these negative definite
    assert classify(cycle(0, -2, -5, -5, 2)).inertia == (2, 0, 3)
    assert not negative_definite(cycle(0, -2, -5, -5, 2))
    for k in range(2, 7):
        for rest in itertools.product(range(-5, 3), repeat=k - 1):
            d = SphereCycle((0,) + rest)
            iq = classify(d).inertia
            assert negative_definite(d) == ((iq.b_plus, iq.b_zero) == (0, 0)), d
    rng = random.Random(23)
    for _ in range(300):
        k = rng.randint(2, 20)
        d = SphereCycle(tuple(rng.randint(-5, 2) for _ in range(k)))
        iq = classify(d).inertia
        assert negative_definite(d) == ((iq.b_plus, iq.b_zero) == (0, 0))
    assert negative_definite(torus(-1)) and not negative_definite(torus(0))


def test_exact_on_boundary_examples():
    assert exact_on_boundary(cycle(-3, -3), (1, 1)) is not None
    assert exact_on_boundary(cycle(-2, -2), (1, 1)) is None
    z = exact_on_boundary(cycle(0, 0, 0, 0), (1, 1, 1, 1))
    q = intersection_matrix(cycle(0, 0, 0, 0))
    assert z is not None
    for i in range(4):
        assert sum(q[i][j] * z[j] for j in range(4)) == 1


def test_exact_on_boundary_guards():
    with pytest.raises(PreconditionError):
        exact_on_boundary(cycle(-3, -3), (1, 0))
    with pytest.raises(PreconditionError):
        exact_on_boundary(cycle(-3, -3), (1,))
    with pytest.raises(TypeError):
        exact_on_boundary(cycle(-3, -3), (1.0, 2.0))
    assert exact_on_boundary(cycle(-3, -3), (Fraction(1, 2), 1)) is not None


def test_i2_criterion_b3():
    assert i2_criterion(minimal_model("B3")) is True


def test_i2_criterion_blown_up_b3():
    p = minimal_model("B3")
    for _ in range(3):
        p = transport(p, NonToricBlowUp(2))
    assert validate_pair(p) == ()
    assert p.divisor.seq == (1, 1, -2)
    assert i2_criterion(p) is True


def test_i2_criterion_false_for_degenerate_span():
    # (1, 4) blown down to (-2, -2): the summed class is pairing-orthogonal
    # to both components, so I1 meets I2 and the union cannot span
    p = minimal_model("B2")
    for _ in range(3):
        p = transport(p, NonToricBlowUp(0))
    for _ in range(6):
        p = transport(p, NonToricBlowUp(1))
    assert p.divisor.seq == (-2, -2)
    assert validate_pair(p) == ()
    assert i2_criterion(p) is False


def test_i2_implies_adjunction_areas_solvable():
    # catalog-derived pairs up to 4 blow-ups
    bounds = Bounds(max_length=8, min_entry=-9, max_moves=4, param_range=(-2, 2))
    for record in enumerate_anticanonical(bounds):
        if not record.pair.has_homology or not isinstance(record.divisor, SphereCycle):
            continue
        if i2_criterion(record.pair):
            d = record.pair.divisor
            areas = [s + 2 for s in d.seq]
            assert solve_rational(intersection_matrix(d), areas) is not None, d.seq


def test_exists_positive_exact_area():
    from logcy.classify import exists_positive_exact_area
    from logcy.linalg import determinant, nullspace

    assert exists_positive_exact_area(cycle(-3, -3)) is True
    assert exists_positive_exact_area(cycle(-2, -2)) is False
    assert exists_positive_exact_area(cycle(0, 0, 0, 0)) is True
    # image is cut out by a1 + 3 a2 = a3, met by e.g. (1, 1, 4)
    assert exists_positive_exact_area(cycle(-2, 0, 4)) is True
    assert exists_positive_exact_area(torus(0)) is False

    # duality oracle for corank one: a positive vector exists in the image
    # exactly when the kernel vector changes sign (Stiemke's lemma)
    import random

    rng = random.Random(29)
    checked = 0
    while checked < 200:
        k = rng.randint(2, 5)
        d = SphereCycle(tuple(rng.randint(-4, 4) for _ in range(k)))
        q = intersection_matrix(d)
        if determinant(q) != 0:
            continue
        kernel = nullspace(q)
        if len(kernel) != 1:
            continue
        v = kernel[0]
        sign_definite = all(x >= 0 for x in v) or all(x <= 0 for x in v)
        assert exists_positive_exact_area(d) == (not sign_definite), d.seq
        checked += 1


def test_rigidity_examples():
    r = rigidity_witness(cycle(0, 0, 0, -5), max_length=6, min_entry=-9, max_steps=3)
    assert r is not None and r.pattern == "zero_zero_zero_n"
    assert len(r.word) == 0

    r = rigidity_witness(cycle(1, 1, 1), max_length=6, min_entry=-9, max_steps=3)
    assert r is not None and r.pattern == "all_entries_ge_minus_one"

    r = rigidity_witness(cycle(2, -1, 0), max_length=6, min_entry=-9, max_steps=3)
    assert r is not None
    assert canonical_form(r.word.replay()) == canonical_form(r.representative)


def test_rigidity_needs_search():
    # (3, -4, 0) matches no shape directly; balancing moves reach (0, -1, 0)
    r = rigidity_witness(cycle(3, -4, 0), max_length=6, min_entry=-9, max_steps=6)
    assert r is not None
    assert r.pattern == "all_entries_ge_minus_one"
    assert r.representative == cycle(-1, 0, 0)
    assert r.word.moves == (
        ToricBlowUp(2), ToricBlowUp(3), ToricBlowUp(4),
        ToricBlowDown(2), ToricBlowDown(2), ToricBlowDown(2),
    )
    assert canonical_form(r.word.replay()) == canonical_form(r.representative)


def test_filling_profile_examples():
    p = filling_profile_check(0, 1, 1, 3)
    assert p.valid and p.branch == 3 and p.euler == 6 and p.b_plus_closed == 3
    p = filling_profile_check(1, 2, 0, 0)
    assert p.valid and p.branch == 3 and p.euler == 2
    p = filling_profile_check(0, 1, 0, 5)
    assert not p.valid and "b2_zero_plus_b1_not_one" in p.violations


def test_filling_profile_branch_one():
    p = filling_profile_check(1, 0, 0, 7)
    assert p.valid and p.branch == 1
    assert p.b_plus_closed == 1
    assert p.euler == 7 == p.b_plus_closed - 1 + 7  # e(U) = b2_minus here


def test_filling_profile_rejects_negative():
    with pytest.raises(PreconditionError):
        filling_profile_check(-1, 0, 0, 0)
