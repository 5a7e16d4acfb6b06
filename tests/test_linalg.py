import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from logcy.divisor import cycle, intersection_matrix
from logcy.linalg import Inertia, determinant, inertia, nullspace, rank, solve_rational
from logcy.monodromy import monodromy


def inertia_by_charpoly(m):
    """Independent oracle via the characteristic polynomial.

    A symmetric integer matrix has a real spectrum, so Descartes' rule of
    signs counts its positive eigenvalues exactly and trailing zero
    coefficients count the zero eigenvalue multiplicity.
    """
    mat = sympy.Matrix(m)
    coeffs = mat.charpoly().all_coeffs()
    zeros = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zeros += 1
    signs = [c for c in coeffs if c != 0]
    pos = sum(1 for x, y in zip(signs, signs[1:]) if (x > 0) != (y > 0))
    n = mat.shape[0]
    return Inertia(pos, zeros, n - pos - zeros)


def random_symmetric(rng, n, lo=-9, hi=9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


# --- determinant -----------------------------------------------------------

def test_determinant_identity():
    assert determinant([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


@given(st.integers(-9, 9), st.integers(-9, 9))
def test_determinant_of_length_two_cycle(s1, s2):
    # cofactor expansion of [[s1, 2], [2, s2]]
    assert determinant(intersection_matrix(cycle(s1, s2))) == s1 * s2 - 4


def test_determinant_minus_two_cycle_matches_monodromy_identity():
    d = cycle(-2, -2, -2)
    det = determinant(intersection_matrix(d))
    assert det == 0
    assert det == 2 - monodromy(d).trace


def test_minus_one_p_degenerate_only_at_minus_4():
    # det [[-1, 2], [2, p]] = -p - 4
    for p in range(-9, 3):
        det = determinant(intersection_matrix(cycle(-1, p)))
        assert (det == 0) == (p == -4)


def test_determinant_against_sympy_200():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 7)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == sympy.Matrix(m).det()


# --- inertia ----------------------------------------------------------------

def test_inertia_examples():
    assert inertia([[1, 1, 1], [1, 1, 1], [1, 1, 1]]) == Inertia(1, 2, 0)
    assert inertia(intersection_matrix(cycle(-2, -2))) == Inertia(0, 1, 1)
    assert inertia(intersection_matrix(cycle(-3, -3))) == Inertia(0, 0, 2)


def test_inertia_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        inertia([[1, 2], [3, 4]])


def test_inertia_b_zero_is_corank_500():
    rng = random.Random(21)
    for _ in range(500):
        n = rng.randint(1, 8)
        m = random_symmetric(rng, n)
        iq = inertia(m)
        assert iq.b_plus + iq.b_zero + iq.b_minus == n
        assert iq.b_zero == n - rank(m)


def test_inertia_against_charpoly_oracle_200():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 7)
        m = random_symmetric(rng, n)
        assert inertia(m) == inertia_by_charpoly(m)


def test_inertia_against_charpoly_oracle_large():
    # up to 40 rows, the sizes the invariants benchmark classifies
    rng = random.Random(37)
    cases = [random_symmetric(rng, n) for n in range(9, 41)]
    for n in (14, 23, 31, 40):
        sparse = [[0] * n for _ in range(n)]
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            sparse[i][j] = sparse[j][i] = rng.randint(-3, 3)
        cases.append(sparse)
        vs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(4)]
        ws = [rng.choice((-2, -1, 1, 2)) for _ in vs]
        cases.append([
            [sum(w * v[i] * v[j] for w, v in zip(ws, vs)) for j in range(n)]
            for i in range(n)
        ])  # rank at most 4
    for k in range(13, 41):
        cases.append(intersection_matrix(cycle(*(rng.randint(-6, 2) for _ in range(k)))))
    for k in (13, 16, 20, 27, 40):
        # degenerate: the last residual row is zero
        cases.append(intersection_matrix(cycle(*(-2,) * k)))
        # all-zero diagonal: every other pivot takes the add-row-and-column
        # repair, and at k divisible by 4 two residual rows are zero
        cases.append(intersection_matrix(cycle(*(0,) * k)))
    for m in cases:
        assert inertia(m) == inertia_by_charpoly(m)


def random_unimodular(rng, n):
    # product of elementary integer row operations applied to the identity
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = rng.randint(-3, 3)
        p[i] = [a + f * b for a, b in zip(p[i], p[j])]
    return p


def test_inertia_congruence_invariance_200():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n, -5, 5)
        p = random_unimodular(rng, n)
        pmpt = [
            [
                sum(p[i][a] * m[a][b] * p[j][b] for a in range(n) for b in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert inertia(pmpt) == inertia(m)


def test_fraction_free_routines_reject_non_integers():
    # floor division would silently truncate these
    for m in (
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 5)]],
        [[Fraction(2), 0], [0, 1]],
        [[1.5, 0], [0, 2]],
    ):
        with pytest.raises(ValueError):
            determinant(m)
        with pytest.raises(ValueError):
            inertia(m)


# --- rank --------------------------------------------------------------------

def test_rank_examples():
    assert rank([[1, 1, 1], [1, 1, 1], [1, 1, 1]]) == 1
    # circulant with eigenvalues 2, 0, -2, 0
    assert rank(intersection_matrix(cycle(0, 0, 0, 0))) == 2
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0


# --- solve_rational -----------------------------------------------------------

def test_solve_nondegenerate():
    z = solve_rational(intersection_matrix(cycle(-3, -3)), (1, 1))
    assert z is not None
    assert (-3 * z[0] + 2 * z[1], 2 * z[0] - 3 * z[1]) == (1, 1)


def test_solve_inconsistent():
    # -2 z1 + 2 z2 = 1 and 2 z1 - 2 z2 = 1 sum to 0 = 2
    assert solve_rational(intersection_matrix(cycle(-2, -2)), (1, 1)) is None


def test_solve_zero_rhs():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert solve_rational(m, [0] * n) is not None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_rational([[1, 0], [0, 1]], (1, 2, 3))


def test_solve_matches_rank_criterion_500():
    rng = random.Random(61)
    for _ in range(500):
        n = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        a = [rng.randint(-3, 3) for _ in range(n)]
        z = solve_rational(m, a)
        sm = sympy.Matrix(m)
        solvable = sm.rank() == sm.row_join(sympy.Matrix(n, 1, a)).rank()
        assert (z is not None) == solvable
        if z is not None:
            for i in range(n):
                assert sum(Fraction(m[i][j]) * z[j] for j in range(n)) == a[i]


# --- nullspace ----------------------------------------------------------------

def test_nullspace_dimension_and_membership():
    rng = random.Random(71)
    for _ in range(100):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(m)
        assert len(basis) == ncols - rank(m)
        for v in basis:
            for row in m:
                assert sum(Fraction(c) * x for c, x in zip(row, v)) == 0
