import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthlab.errors import DimensionError, InputError, SingularMatrixError
from growthlab.linalg import (
    Mat,
    _check_unit_triangular,
    _prefix_ranks,
    _reduce,
    _solve,
    _substitute,
    int_identity,
    int_mul,
)
import linalg_reference
from linalg_reference import (
    apply,
    col,
    mat_mul,
    mat_pow,
    solve_lower_triangular,
    solve_unit_triangular,
    solve_upper_triangular,
    zero,
)

TL7_SIMPLE = Mat([(1, 1, 1, 1), (0, 1, 4, 13), (0, 0, 1, 6), (0, 0, 0, 1)])
TL7_LINV = Mat([(1, 0, 0, 0), (-1, 1, 0, 0), (3, -4, 1, 0), (-6, 11, -6, 1)])


def rand_mat(rng, n, lo=-4, hi=4):
    return Mat([[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)])


def solve_identity(a: Mat) -> Mat:
    """The library's inverse of a: `_solve` against the identity."""
    return Mat(_solve(a.rows, int_identity(a.nrows)))


def test_mat_is_a_value_view():
    # rows to read, transpose, compare and hash: no arithmetic, whose
    # referees (product, inverse, kernel) live in `linalg_reference`
    # (a frozen `Record` of one field, whose == and hash are the record's)
    assert Mat._fields == ("rows",)
    public = sorted(name for name in vars(Mat) if not name.startswith("_"))
    assert public == ["identity", "is_square", "ncols", "nrows", "shape", "transpose"]
    special = sorted(name for name, value in vars(Mat).items() if name.startswith("__") and inspect.isfunction(value))
    assert special == ["__eq__", "__hash__", "__init__", "__post_init__", "__repr__"]


def test_mat_values_compare_hash_and_refuse_bad_shapes():
    a = Mat([(1, Fraction(1, 2)), (0, -3)])
    assert a == Mat([(Fraction(1), Fraction(1, 2)), (0, -3)]) and hash(a) == hash(Mat(a.rows))
    assert all(type(x) is Fraction for row in a.rows for x in row)
    assert a.shape == (2, 2) and a.is_square() and not Mat([(1, 2)]).is_square()
    assert a.transpose() == Mat([(1, 0), (Fraction(1, 2), -3)]) and a.transpose().transpose() == a
    assert repr(a) == "Mat[1 1/2; 0 -3]"
    assert Mat.identity(2) == Mat([(1, 0), (0, 1)])
    with pytest.raises(AttributeError):
        a.rows = ()
    for rows in ([], [()], [(1, 2), (3,)]):
        with pytest.raises(DimensionError):
            Mat(rows)


# the library multiplies int rows (`int_mul`); the Fraction triple loop referees it
def test_mat_mul_identity():
    a = [[1, 2], [3, 4], [5, 6]]
    assert int_mul(int_identity(3), a) == a == int_mul(a, int_identity(2))


def test_mat_mul_annihilation():
    a = [[1, 2], [3, 4]]
    assert int_mul(a, [[0, 0], [0, 0]]) == [[0, 0], [0, 0]]
    assert mat_mul(Mat(a), zero(2, 2)) == zero(2, 2)


def test_mat_mul_printed_inverse_pair():
    # the transposed simple table times its printed inverse is the identity
    assert int_mul(list(zip(*TL7_SIMPLE.rows)), TL7_LINV.rows) == int_identity(4)
    assert mat_mul(TL7_SIMPLE.transpose(), TL7_LINV) == Mat.identity(4)


def test_mat_mul_shape_error():
    with pytest.raises(DimensionError):
        int_mul([(1, 2)], [(1, 2)])
    with pytest.raises(DimensionError):
        mat_mul(Mat([(1, 2)]), Mat([(1, 2)]))


# zero and negative entries up to 2**40
INT_ENTRY = st.one_of(st.just(0), st.integers(-(2**40), 2**40))


def int_matrices(nrows, ncols):
    return st.lists(st.lists(INT_ENTRY, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def products(draw):
    """(a, b), int rows with a of shape (n, k) and b of shape (k, p), sizes 1-6."""
    n, k, p = draw(st.tuples(*[st.integers(1, 6)] * 3))
    return draw(int_matrices(n, k)), draw(int_matrices(k, p))


@settings(max_examples=200, deadline=None)
@given(products())
def test_mat_mul_matches_fraction_triple_loop(pair):
    a, b = pair
    product = int_mul(a, b)
    assert Mat(product) == mat_mul(Mat(a), Mat(b))
    assert all(type(x) is int for row in product for x in row)
    # halved, a is not integral, and the referee multiplies it on Fractions
    half = Mat([[Fraction(x, 2) for x in row] for row in a])
    assert Mat([[Fraction(x, 2) for x in row] for row in product]) == mat_mul(half, Mat(b))
    if len(a) == len(a[0]):
        assert Mat(int_mul(a, a)) == mat_mul(Mat(a), Mat(a))
    else:  # a·a is then misshapen
        with pytest.raises(DimensionError):
            int_mul(a, a)


def test_mat_pow_trivial_cases():
    a = Mat([(1, 2), (3, 4)])
    assert mat_pow(a, 0) == Mat.identity(2)
    assert mat_pow(a, 1) == a


def test_mat_pow_additivity():
    rng = random.Random(7)
    for _ in range(10):
        a = rand_mat(rng, 3)
        for n in range(5):
            for m in range(5):
                assert mat_pow(a, n + m) == mat_mul(mat_pow(a, n), mat_pow(a, m))


def test_mat_pow_errors():
    with pytest.raises(DimensionError):
        mat_pow(Mat([(1, 2)]), 2)
    with pytest.raises(InputError):
        mat_pow(Mat.identity(2), -1)


def test_solve_upper_identity():
    v = (Fraction(3), Fraction(-1), Fraction(7))
    assert solve_upper_triangular(Mat.identity(3), v) == v


def test_solve_transposed_simple_tables():
    # decomposing a simple character against the table returns a unit vector
    x = solve_lower_triangular(TL7_SIMPLE.transpose(), (0, 1, 4, 13))
    assert x == (0, 1, 0, 0)
    mo5 = Mat(
        [
            (1, 1, 1, 1, 1, 1),
            (0, 1, 2, 5, 12, 30),
            (0, 0, 1, 3, 8, 20),
            (0, 0, 0, 1, 4, 14),
            (0, 0, 0, 0, 1, 5),
            (0, 0, 0, 0, 0, 1),
        ]
    )
    assert solve_lower_triangular(mo5.transpose(), (0, 1, 2, 5, 12, 30)) == (0, 1, 0, 0, 0, 0)


def test_solve_round_trip():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 5)
        u = Mat(
            [
                [
                    Fraction(rng.randint(1, 5)) if i == j
                    else Fraction(rng.randint(-3, 3)) if j > i
                    else 0
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
        v = apply(u, x)
        assert solve_upper_triangular(u, v) == x
        lt = u.transpose()
        assert solve_lower_triangular(lt, apply(lt, x)) == x


def test_solve_errors():
    u = Mat([(1, 2), (0, 0)])
    with pytest.raises(SingularMatrixError):
        solve_upper_triangular(u, (1, 1))
    with pytest.raises(InputError):
        solve_upper_triangular(Mat([(1, 0), (2, 1)]), (1, 1))
    with pytest.raises(DimensionError):
        solve_upper_triangular(Mat.identity(2), (1, 1, 1))


BIG = st.integers(-(2**70), 2**70)


@st.composite
def unit_triangular_systems(draw):
    """(unit upper-triangular integer matrix, right-hand sides)."""
    n = draw(st.integers(1, 8))
    rows = [
        [1 if j == i else draw(BIG) if j > i else 0 for j in range(n)] for i in range(n)
    ]
    rhs = draw(st.lists(st.lists(BIG, min_size=n, max_size=n), min_size=1, max_size=4))
    return rows, rhs


@st.composite
def sparse_unit_triangular_systems(draw):
    """(unit upper-triangular integer matrix, right-hand sides with zero parts).

    Each right-hand side has a zero head, a zero tail, a single 1 or no
    nonzero entry at all.
    """
    rows, _ = draw(unit_triangular_systems())
    n = len(rows)
    rhs = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(("head", "tail", "unit", "zero")))
        if shape == "unit":
            k = draw(st.integers(0, n - 1))
            rhs.append([int(i == k) for i in range(n)])
        elif shape == "zero":
            rhs.append([0] * n)
        else:
            zeros = [0] * draw(st.integers(1, n))
            body = draw(st.lists(BIG, min_size=n - len(zeros), max_size=n - len(zeros)))
            rhs.append(zeros + body if shape == "head" else body + zeros)
    return rows, rhs


@settings(max_examples=400, deadline=None)
@given(st.one_of(unit_triangular_systems(), sparse_unit_triangular_systems()))
def test_unit_triangular_solve_matches_fraction_solves(system):
    rows, rhs = system
    u = Mat(rows)
    lt = u.transpose()
    upper = solve_unit_triangular(rows, rhs, lower=False)
    lower = solve_unit_triangular(list(zip(*rows)), rhs, lower=True)
    # the library's forward substitution, which skips the zero head of each b
    assert _substitute(list(zip(*rows)), rhs) == lower
    assert upper == tuple(solve_upper_triangular(u, b) for b in rhs)
    assert lower == tuple(solve_lower_triangular(lt, b) for b in rhs)
    assert all(type(v) is int for sol in upper + lower for v in sol)


# The integer solve with a checked right-hand side is a test referee
# (`linalg_reference`); the library keeps only the check of the table and the
# unchecked forward substitution.
def test_unit_triangular_solve_checks_every_right_hand_side_entry():
    rows = [(1, 2, 3), (0, 1, 4), (0, 0, 1)]
    columns = list(zip(*rows))
    # Fraction(0) in the skipped part is a zero like any other
    assert solve_unit_triangular(rows, [(5, 0, Fraction(0))], lower=False) == ((5, 0, 0),)
    assert solve_unit_triangular(columns, [(Fraction(0), 0, 5)], lower=True) == ((0, 0, 5),)
    for k in range(3):
        for fill in (0, 1):
            b = [fill] * 3
            b[k] = Fraction(1, 3)
            for t, lower in ((rows, False), (columns, True)):
                with pytest.raises(InputError, match="non-integer right-hand side"):
                    solve_unit_triangular(t, [b], lower=lower)


@pytest.mark.parametrize(
    "rows, lower, error",
    [
        ([(1, 2), (0, 0)], False, SingularMatrixError),  # zero diagonal
        ([(1, 0), (3, 0)], True, SingularMatrixError),
        ([(2, 1), (0, 1)], False, InputError),  # diagonal 2
        ([(1, 0), (5, -1)], True, InputError),  # diagonal -1
        ([(1, Fraction(1, 2)), (0, 1)], False, InputError),  # non-integer entry
        ([(1, 0), (1, 1)], False, InputError),  # entry below the diagonal
        ([(1, 1), (0, 1)], True, InputError),  # entry above the diagonal
        ([(1, 2, 3), (0, 1, 4)], False, InputError),  # not square
    ],
)
def test_unit_triangular_solve_rejects(rows, lower, error):
    # the check wants zeros below the diagonal: a lower triangular t is checked as its transpose
    square = all(len(row) == len(rows) for row in rows)
    with pytest.raises(error, match=None if square else "table is not square"):
        _check_unit_triangular(list(zip(*rows)) if lower else rows)


def test_unit_triangular_solve_rejects_bad_right_hand_sides():
    identity = [(1, 0), (0, 1)]
    with pytest.raises(DimensionError):
        solve_unit_triangular(identity, [(1, 1), (1, 1, 1)], lower=True)
    with pytest.raises(InputError):
        solve_unit_triangular(identity, [(1, Fraction(1, 3))], lower=False)


# the library inverts by `_solve` against the identity
def test_inverse_identity():
    assert solve_identity(Mat.identity(4)) == Mat.identity(4)


def test_inverse_tl7():
    assert solve_identity(TL7_SIMPLE.transpose()) == TL7_LINV
    sums = [sum(col(TL7_LINV, j)) for j in range(4)]
    assert sums == [-3, 8, -5, 1]


def test_inverse_round_trip_random():
    rng = random.Random(3)
    done = 0
    while done < 8:
        a = rand_mat(rng, 4)
        try:
            ainv = solve_identity(a)
        except SingularMatrixError:
            continue
        assert mat_mul(a, ainv) == Mat.identity(4)
        assert mat_mul(ainv, a) == Mat.identity(4)
        done += 1


def test_inverse_rational_entries():
    a = Mat([(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 5), Fraction(2, 7))])
    assert mat_mul(a, solve_identity(a)) == Mat.identity(2)


def test_inverse_errors():
    for a in (Mat([(1, 1), (1, 1)]), zero(3, 3), Mat([(1, 2, 3), (0, 1, 1), (1, 3, 4)])):
        with pytest.raises(SingularMatrixError):
            solve_identity(a)


SMALL_RATIONALS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def square_rational_matrices(draw):
    """Square matrices of size 1-6; some start with a zero (forcing a row
    swap) and some have a row that is a combination of the others."""
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(SMALL_RATIONALS, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        rows[0][0] = Fraction(0)
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(SMALL_RATIONALS, min_size=n, max_size=n))
        others = [(c, row) for i, (c, row) in enumerate(zip(coeffs, rows)) if i != k]
        rows[k] = [sum((c * row[j] for c, row in others), Fraction(0)) for j in range(n)]
    return Mat(rows)


@settings(max_examples=200, deadline=None)
@given(square_rational_matrices())
def test_inverse_agrees_with_kernel_and_rank(a):
    # `_solve` inverts a exactly when its reduced form has a pivot in every column
    n = a.nrows
    rank = len(_reduce(a.rows, n))
    if rank < n:
        with pytest.raises(SingularMatrixError):
            solve_identity(a)
    else:
        ainv = solve_identity(a)
        assert mat_mul(a, ainv) == Mat.identity(n) == mat_mul(ainv, a)


@st.composite
def rational_matrices(draw):
    """Matrices of 1-6 rows and columns, square about half the time; some
    have zero columns and some a row that combines the others."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(1, 6))
    rows = [draw(st.lists(SMALL_RATIONALS, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = Fraction(0)
    if nrows > 1 and draw(st.booleans()):
        k = draw(st.integers(0, nrows - 1))
        coeffs = draw(st.lists(SMALL_RATIONALS, min_size=nrows, max_size=nrows))
        others = [(c, row) for i, (c, row) in enumerate(zip(coeffs, rows)) if i != k]
        rows[k] = [sum((c * row[j] for c, row in others), Fraction(0)) for j in range(ncols)]
    return Mat(rows)


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
# negative and non-unit pivots, rank deficient
@example(Mat([(-2, 3), (4, -6)]))
@example(Mat([(-3, Fraction(1, 2), 5), (6, -1, -10), (0, 0, Fraction(-7, 3))]))
# a zero column, and wide and tall shapes
@example(Mat([(0, 2, -4), (0, -3, 6)]))
@example(Mat([(Fraction(-2, 3),), (4,), (0,)]))
def test_elimination_matches_the_fraction_reference(a):
    # each int pivot (c, p, row) divided by p is a row of the reduced form
    pivots = _reduce(a.rows, a.ncols)
    pivot_cols, reduced = linalg_reference.reduce_rows(a.rows, a.ncols)
    assert [c for c, _, _ in pivots] == pivot_cols
    assert [[Fraction(x, p) for x in row] for _, p, row in pivots] == reduced[: len(pivot_cols)]
    if not a.is_square():
        return
    if len(pivot_cols) < a.nrows:
        with pytest.raises(SingularMatrixError):
            solve_identity(a)
        with pytest.raises(SingularMatrixError):
            linalg_reference.inverse(a)
    else:
        assert solve_identity(a) == linalg_reference.inverse(a)


@st.composite
def integer_matrices(draw):
    """Int rows, 1-8 by 1-8: 0/1 entries (as in a Gram form) or small signed
    ones, some rows repeated or combining others with integer weights."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = st.integers(0, 1) if draw(st.booleans()) else st.integers(-3, 3)
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        k = draw(st.integers(0, nrows - 1))
        weights = draw(st.lists(st.integers(-2, 2), min_size=nrows, max_size=nrows))
        rows[k] = [sum(w * row[j] for w, row in zip(weights, rows) if row is not rows[k]) for j in range(ncols)]
    if nrows > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return rows


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example([[0, 0], [0, 0]])
@example([[1, 1, 0], [1, 1, 0], [0, 1, 1], [1, 0, -1]])
@example([[2, 4], [3, 6], [-1, -2]])
def test_int_rank_matches_the_fraction_rank(rows):
    rank = _prefix_ranks(map(tuple, rows))[-1]
    assert rank == linalg_reference.kernel_and_rank(Mat(rows))[0]
    assert rank == _prefix_ranks(zip(*rows))[-1]  # row rank is column rank


@st.composite
def row_sequences(draw):
    """The rows of `integer_matrices`, with zero rows and repeats of earlier rows
    put in anywhere."""
    rows = draw(integer_matrices())
    ncols = len(rows[0])
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(rows)))
        repeat = k > 0 and draw(st.booleans())
        rows.insert(k, list(rows[draw(st.integers(0, k - 1))]) if repeat else [0] * ncols)
    return rows


@settings(max_examples=300, deadline=None)
@given(row_sequences())
@example([])
@example([[0, 0], [1, 1], [0, 0], [1, 1], [2, 2], [1, 0]])
@example([[1, 1, 0], [1, 1, 0], [0, 1, 1], [1, 0, -1]])
def test_prefix_ranks_match_the_fraction_rank_of_every_prefix(rows):
    ranks = _prefix_ranks(map(tuple, rows))
    assert ranks == [0] + [linalg_reference.kernel_and_rank(Mat(rows[:k]))[0] for k in range(1, len(rows) + 1)]


# the kernel the tests referee with (`linalg_reference`), and the library's rank beside it
def test_kernel_zero_matrix():
    rank, kernel = linalg_reference.kernel_and_rank(zero(2, 2))
    assert rank == 0 == len(_reduce(zero(2, 2).rows, 2))
    assert len(kernel) == 2


def test_kernel_symmetric_example():
    rank, kernel = linalg_reference.kernel_and_rank(Mat([(1, 1), (1, 1)]))
    assert rank == 1 == len(_reduce([(1, 1), (1, 1)], 2))
    assert len(kernel) == 1
    x, y = kernel[0]
    assert x == -y and x != 0


def test_rank_nullity():
    rng = random.Random(19)
    for _ in range(12):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        a = Mat([[Fraction(rng.randint(-2, 2)) for _ in range(ncols)] for _ in range(nrows)])
        rank, kernel = linalg_reference.kernel_and_rank(a)
        assert rank == len(_reduce(a.rows, ncols))
        assert rank + len(kernel) == ncols
        for v in kernel:
            assert all(x == 0 for x in apply(a, v))
