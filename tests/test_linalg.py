import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from logcy.divisor import cycle, intersection_matrix
from logcy.linalg import Inertia, determinant, inertia, nullspace, rank, rref, solve_rational
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


def unit_triangular(rng, n, lower):
    return [
        [int(i == j) if (j >= i if lower else j <= i) else rng.randint(-3, 3) for j in range(n)]
        for i in range(n)
    ]


def matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def test_rank_of_dense_known_rank_products():
    # P D Q with P, Q unit triangular and D diagonal of rank r: dense, with
    # entries of at most a few bits.  An elimination without division doubles
    # the bit length at every pivot and does not finish at these sizes.
    rng = random.Random(81)
    for n in range(20, 33):
        for r in (n, n - 1, n // 2):
            diag = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)] + [0] * (n - r)
            rng.shuffle(diag)
            pd = [[p * dj for p, dj in zip(row, diag)] for row in unit_triangular(rng, n, True)]
            assert rank(matmul(pd, unit_triangular(rng, n, False))) == r


# --- differential tests against sympy ----------------------------------------

def to_sympy(m, ncols):
    return sympy.Matrix(len(m), ncols, [sympy.Rational(str(Fraction(x))) for row in m for x in row])


def to_fraction(x):
    return Fraction(int(x.p), int(x.q))


def random_small_matrix(rng):
    nrows, ncols = rng.randint(1, 8), rng.randint(0, 9)
    kind = rng.choice(("int", "fraction", "sparse"))
    def entry():
        if kind == "int":
            return rng.randint(-5, 5)
        if kind == "fraction":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.choice((0, 0, 0, 0, 1, -1, 2))
    m = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if ncols and rng.random() < 0.3:
        m[rng.randrange(nrows)] = [0] * ncols
    if rng.random() < 0.3:
        zero = rng.randrange(ncols) if ncols else None
        m = [[0 if j == zero else x for j, x in enumerate(row)] for row in m]
    if nrows >= 3 and rng.random() < 0.4:
        # rank deficient: one row a combination of two others
        m[2] = [3 * x - Fraction(1, 2) * y for x, y in zip(m[0], m[1])]
    return m


def test_rref_and_nullspace_match_sympy():
    rng = random.Random(91)
    cases = [[], [[]], [[], []], [[0]], [[0, 0, 0]], [[0], [0], [5]]]
    cases += [random_small_matrix(rng) for _ in range(400)]
    for m in cases:
        ncols = len(m[0]) if m else 0
        expected, pivots = to_sympy(m, ncols).rref()
        rows = [list(row) for row in m]
        got, got_pivots = rref(rows)
        assert got is rows
        assert got_pivots == list(pivots)
        assert got == [[to_fraction(x) for x in expected.row(i)] for i in range(len(m))]
        assert rank(m) == len(pivots)
        if m:
            assert nullspace(m) == [tuple(to_fraction(x) for x in v) for v in to_sympy(m, ncols).nullspace()]


def sympy_witness(m, a):
    """The reduced-echelon solution read off sympy's RREF of [m | a], or None."""
    ncols = len(m[0])
    aug = to_sympy(m, ncols).row_join(to_sympy([[v] for v in a], 1))
    reduced, pivots = aug.rref()
    if ncols in pivots:
        return None
    z = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        z[c] = to_fraction(reduced[r, ncols])
    return tuple(z)


def test_solve_matches_sympy_rref_on_cycle_systems():
    # the systems of exact_on_boundary at every length the invariants
    # benchmark draws, with positive rational areas
    rng = random.Random(97)
    for k in range(2, 33):
        for seq in (
            [rng.randint(-6, -2) if rng.random() < 0.8 else rng.randint(-1, 3) for _ in range(k)],
            [-2] * k,
        ):
            q = intersection_matrix(cycle(*seq))
            a = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(k)]
            for rhs in (a, [1] * k):
                z = solve_rational(q, rhs)
                expected = sympy_witness(q, rhs)
                assert (z is None) == (expected is None)
                if z is not None:
                    assert [str(x) for x in z] == [str(x) for x in expected]


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
    for i in range(500):
        n = rng.randint(1, 6)
        ncols = n if i % 2 else rng.randint(1, 7)
        m = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(n)]
        a = [rng.randint(-3, 3) if i % 3 else Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(n)]
        z = solve_rational(m, a)
        sm = sympy.Matrix(m)
        solvable = sm.rank() == sm.row_join(sympy.Matrix(n, 1, a)).rank()
        assert (z is not None) == solvable
        if z is not None:
            for r in range(n):
                assert sum(Fraction(m[r][j]) * z[j] for j in range(ncols)) == a[r]
        # the reduced-echelon witness, not merely a valid one
        assert z == sympy_witness(m, a)


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
