import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siltglue.exactlin import (Mat, block, det, diag, echelon, kernel_basis,
                               rank, reduce_row, rref, solve, sparse_product,
                               sparse_rank, sparse_transpose, sylvester_rows)
from siltglue.kronecker import _poly_det


def test_rank_identity_and_zero():
    assert rank(Mat.identity(2)) == 2
    assert rank(Mat.zeros(3, 3)) == 0


def test_rank_dependent_rows():
    # second row is twice the first
    assert rank(Mat.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(Mat.identity(3)) == []


def test_kernel_of_difference_row():
    basis = kernel_basis(Mat.from_rows([[1, -1]]))
    assert basis == [(Fraction(1), Fraction(1))]


def test_kernel_zero_matrix_standard_basis():
    basis = kernel_basis(Mat.zeros(2, 3))
    assert len(basis) == 3
    assert sorted(basis) == sorted([
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1))])


def test_from_rows_rejects_wrong_cols():
    assert Mat.from_rows([[1, 2]], cols=2).cols == 2
    assert Mat.from_rows([], cols=3) == Mat(0, 3, ())
    with pytest.raises(ValueError):
        Mat.from_rows([[1, 2]], cols=3)
    with pytest.raises(ValueError):
        Mat.from_rows([[], []], cols=1)


def test_block_infers_zero_blocks():
    a = Mat.from_rows([[1, 2]])
    b = Mat.from_rows([[3], [4], [5]])
    assert block([[a, None], [None, b]]) == Mat.from_rows(
        [[1, 2, 0], [0, 0, 3], [0, 0, 4], [0, 0, 5]])
    # zero-size blocks keep their extent in the other direction
    empty_row, empty_col = Mat(0, 2, ()), Mat(3, 0, ())
    assert block([[empty_row, None], [None, b]]) == Mat.from_rows(
        [[0, 0, 3], [0, 0, 4], [0, 0, 5]])
    assert block([[a, None], [None, empty_col]]) == Mat.from_rows(
        [[1, 2], [0, 0], [0, 0], [0, 0]])
    nothing = Mat(0, 0, ())
    assert block([[nothing, None], [None, nothing]]) == nothing
    assert block([]) == nothing
    with pytest.raises(ValueError):
        block([[a, None], [None, None]])


@pytest.mark.parametrize("grid", [
    [[Mat.identity(1), None], [Mat.identity(1)]],           # ragged
    [[Mat.identity(1), Mat.zeros(2, 1)]],                   # height in a row
    [[Mat.identity(1)], [Mat.zeros(1, 2)]]])                # width in a column
def test_block_rejects_a_misfit(grid):
    with pytest.raises(ValueError):
        block(grid)


def test_diag():
    m = Mat.from_rows([[1, 2], [3, 4], [5, 6]])
    assert diag([]) == Mat(0, 0, ())
    assert diag([m]) == m
    assert diag([m, Mat.identity(1)]) == Mat.from_rows(
        [[1, 2, 0], [3, 4, 0], [5, 6, 0], [0, 0, 1]])


def test_solve_identity():
    x = solve(Mat.identity(2), [3, 5])
    assert x == (Fraction(3), Fraction(5))


def test_solve_underdetermined_verified_by_substitution():
    m = Mat.from_rows([[1, 1]])
    x = solve(m, [2])
    assert x is not None
    assert sum(x) == 2


def test_solve_inconsistent():
    m = Mat.from_rows([[1], [1]])
    assert solve(m, [1, 2]) is None


def test_solve_dimension_mismatch_is_usage_error():
    with pytest.raises(ValueError):
        solve(Mat.identity(2), [1, 2, 3])


def to_rows(m: Mat) -> list:
    return [list(m.row(i)) for i in range(m.rows)]


def transpose(m: Mat) -> Mat:
    return Mat(m.cols, m.rows, tuple(m.at(i, j) for j in range(m.cols)
                                     for i in range(m.rows)))


def mat_mul(a: Mat, b: Mat) -> Mat:
    """The dense product a b, in place of a product on Mat: row i of a
    times b, skipping the zero entries of both."""
    assert a.cols == b.rows, "shape mismatch in matrix product"
    out = []
    for i in range(a.rows):
        acc = [Fraction(0)] * b.cols
        for k, x in enumerate(a.row(i)):
            if x:
                for j, y in enumerate(b.row(k)):
                    if y:
                        acc[j] += x * y
        out += acc
    return Mat(a.rows, b.cols, tuple(out))


def is_zero(m: Mat) -> bool:
    return not any(m.entries)


def left_kernel_basis(m: Mat) -> list:
    """Basis of {v : v m = 0}, i.e. the kernel of the row action."""
    return kernel_basis(transpose(m))


def test_left_kernel():
    m = Mat.from_rows([[1, 0], [2, 0], [0, 0]])
    basis = left_kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert is_zero(mat_mul(Mat(1, 3, tuple(v)), m))


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    ent = draw(st.lists(small_fractions, min_size=r * c, max_size=r * c))
    return Mat(r, c, tuple(ent))


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_plus_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_rank_invariant_under_permutation(m, rng):
    rows = to_rows(m)
    rng.shuffle(rows)
    permuted = Mat.from_rows(rows, cols=m.cols)
    cols = list(range(m.cols))
    rng.shuffle(cols)
    twisted = Mat.from_rows(
        [[row[c] for c in cols] for row in to_rows(permuted)], cols=m.cols)
    assert rank(twisted) == rank(m)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert is_zero(mat_mul(m, Mat(m.cols, 1, tuple(v))))


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_sparse_rank_agrees_with_dense(m):
    rows = []
    for i in range(m.rows):
        row = {j: m.at(i, j) for j in range(m.cols) if m.at(i, j) != 0}
        rows.append(row)
    assert sparse_rank(rows) == rank(m)


@st.composite
def matrices_of(draw, r, c):
    ent = draw(st.lists(small_fractions, min_size=r * c, max_size=r * c))
    return Mat(r, c, tuple(ent))


@st.composite
def sylvester_cases(draw):
    """Random terms (out, var, sign, A, B) on one vector of unknowns, with
    the unknown blocks X_v and the output blocks laid out back to back.
    Some terms give A, B or both as an int, the identity's size."""
    dim = st.integers(min_value=0, max_value=3)
    terms, blocks, outs = [], [], []
    nvar = neqs = 0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        p, q, r, s = draw(dim), draw(dim), draw(dim), draw(dim)
        ident = draw(st.sampled_from(("", "", "a", "b", "ab")))
        if draw(st.booleans()) and blocks:
            var, q, r = draw(st.sampled_from(blocks))
        else:
            var = nvar
            blocks.append((var, q, r))
            nvar += q * r
        if draw(st.booleans()) and outs:
            out, p, s = draw(st.sampled_from(outs))
        else:
            # a new output block takes the shape an identity factor needs
            p, s = (q if "a" in ident else p), (r if "b" in ident else s)
            out = neqs
            outs.append((out, p, s))
            neqs += p * s
        a = q if "a" in ident and p == q else draw(matrices_of(p, q))
        b = r if "b" in ident and r == s else draw(matrices_of(r, s))
        terms.append((out, var, draw(st.sampled_from((1, -1))), a, b))
    x = draw(st.lists(small_fractions, min_size=nvar, max_size=nvar))
    return neqs, terms, x


@given(sylvester_cases())
@settings(max_examples=80, deadline=None)
def test_sylvester_rows_apply_the_sum_of_products(case):
    neqs, terms, x = case
    # the same terms with every int factor given as the identity Mat
    mats = [(out, var, sign, *(Mat.identity(m) if isinstance(m, int) else m
                               for m in (a, b)))
            for out, var, sign, a, b in terms]
    want = [Fraction(0)] * neqs
    for out, var, sign, a, b in mats:
        xv = Mat(a.cols, b.rows, tuple(x[var:var + a.cols * b.rows]))
        for t, v in enumerate(mat_mul(mat_mul(a, xv), b).scale(sign).entries):
            want[out + t] += v
    rows = sylvester_rows(neqs, terms)
    assert len(rows) == neqs
    assert [sum(v * x[c] for c, v in row.items()) for row in rows] == want
    assert rows == sylvester_rows(neqs, mats)


def test_sylvester_rows_int_is_identity():
    a = Mat.from_rows([[1, 2], [3, 4]])
    ident = sylvester_rows(4, [(0, 0, 1, a, 2)])
    assert ident == sylvester_rows(4, [(0, 0, 1, a, Mat.identity(2))])
    assert ident == [{0: 1, 2: 2}, {1: 1, 3: 2}, {0: 3, 2: 4}, {1: 3, 3: 4}]


@given(sylvester_cases())
@settings(max_examples=60, deadline=None)
def test_integral_entries_reach_the_elimination_core_as_ints(case):
    neqs, terms, _ = case
    # the same terms on Fraction Mats whose entries are all integral
    terms = [(out, var, sign, *(m if isinstance(m, int) else Mat(
        m.rows, m.cols, tuple(Fraction(x.numerator) for x in m.entries))
        for m in (a, b))) for out, var, sign, a, b in terms]
    rows = sylvester_rows(neqs, terms)
    assert all(type(v) is int for row in rows for v in row.values())
    piv = echelon(rows)
    want = echelon([{c: Fraction(v) for c, v in row.items()} for row in rows])
    assert piv == want and list(piv) == list(want)
    for m in (t[k] for t in terms for k in (3, 4)):
        if isinstance(m, Mat):
            assert all(type(v) is int
                       for row in m.sparse_rows() for v in row.values())
            assert rref(m) == reference_rref(m)


def test_sparse_rows_keep_a_proper_fraction():
    (row,) = Mat.from_rows([[Fraction(1, 2), 2, 0]]).sparse_rows()
    assert row == {0: Fraction(1, 2), 1: 2}
    assert [type(v) for v in row.values()] == [Fraction, int]


# -- the integer kernels against rational Gauss-Jordan -----------------------


def reference_rref(m: Mat) -> tuple:
    """Gauss-Jordan over Fraction: leftmost nonzero column, first available
    row, each pivot row divided by its pivot as soon as it is chosen.  A
    row operation visits only the nonzero columns of the pivot row, which
    leaves every other entry as it is."""
    rows = to_rows(m)
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        sel = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        nonzero = [(j, x) for j, x in enumerate(rows[r]) if x != 0]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f, row = rows[i][c], rows[i]
                for j, x in nonzero:
                    row[j] -= f * x
        pivots.append(c)
        r += 1
    return Mat.from_rows(rows, cols=nc), tuple(pivots)


def rows_are_multiples(got: Mat, want: Mat) -> bool:
    """Each row of got is a nonzero multiple of the same row of want."""
    if (got.rows, got.cols) != (want.rows, want.cols):
        return False
    for i in range(got.rows):
        g, w = got.row(i), want.row(i)
        k = next((x / y for x, y in zip(g, w) if y), None)
        if k is None:
            if any(g):
                return False
        elif k == 0 or any(x != k * y for x, y in zip(g, w)):
            return False
    return True


def reference_kernel_basis(m: Mat) -> list:
    """The kernel basis read off reference_rref: one vector per free
    column, 1 there, minus the reduced entries of that column at the
    pivots."""
    red, pivots = reference_rref(m)
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * m.cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -red.at(r, f)
        basis.append(tuple(vec))
    return basis


def reference_det(rows) -> Fraction:
    """Determinant over Fraction: the product of the pivots of Gaussian
    elimination, negated once per row swap."""
    n = len(rows)
    rows = [[Fraction(x) for x in r] for r in rows]
    out = Fraction(1)
    for c in range(n):
        sel = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            out = -out
        out *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return out


dense_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def dependent_matrices(draw, max_dim=6):
    """Matrices with non-unit denominators and rows that are rational
    combinations of earlier rows, at random positions."""
    c = draw(st.integers(min_value=0, max_value=max_dim))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_dim))):
        if rows and draw(st.booleans()):
            coef = draw(st.lists(dense_fractions, min_size=len(rows),
                                 max_size=len(rows)))
            rows.append([sum((k * row[j] for k, row in zip(coef, rows)),
                             Fraction(0)) for j in range(c)])
        else:
            rows.append(draw(st.lists(st.one_of(st.just(Fraction(0)),
                                                dense_fractions),
                                      min_size=c, max_size=c)))
    order = draw(st.permutations(range(len(rows))))
    return Mat.from_rows([rows[i] for i in order], cols=c)


@given(dependent_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_rational_gauss_jordan(m):
    red, pivots = rref(m)
    want_red, want_pivots = reference_rref(m)
    assert pivots == want_pivots
    assert red.entries == want_red.entries
    assert all(type(x) is Fraction for x in red.entries)


@given(dependent_matrices())
@settings(max_examples=100, deadline=None)
def test_rref_kept_on_the_matrix_equals_a_fresh_elimination(m):
    first = rref(m)
    fresh = Mat(m.rows, m.cols, m.entries)
    assert fresh is not m and rref(fresh) == first
    assert rref(m) is first


@given(dependent_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_solve_and_projection_are_the_reference_constructions(m, data):
    assert kernel_basis(m) == reference_kernel_basis(m)
    # a right-hand side in the column space, or an arbitrary one, which is
    # inconsistent whenever it leaves the column space
    if data.draw(st.booleans()):
        x = data.draw(st.lists(dense_fractions, min_size=m.cols,
                               max_size=m.cols))
        b = mat_mul(m, Mat(m.cols, 1, tuple(x))).entries
    else:
        b = tuple(data.draw(st.lists(dense_fractions, min_size=m.rows,
                                     max_size=m.rows)))
    red, pivots = reference_rref(block([[m, Mat(m.rows, 1, b)]]))
    want = None
    if m.cols not in pivots:
        want = [Fraction(0)] * m.cols
        for r, p in enumerate(pivots):
            want[p] = red.at(r, m.cols)
        want = tuple(want)
    assert solve(m, b) == want


@given(dependent_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_sparse_rank_matches_reference_with_stored_zeros(m, rng):
    rows = [{j: v for j, v in enumerate(m.row(i))
             if v != 0 or rng.random() < 0.4} for i in range(m.rows)]
    assert sparse_rank(iter(rows)) == len(reference_rref(m)[1])
    # one matrix in several forms: its Fraction rows and the same rows with
    # integral entries at random stored as ints; each row cleared of its
    # denominators, as Fractions, mixed, and all ints.  echelon and rref
    # see the same integer rows in every form.
    cleared = [[v * math.lcm(*(x.denominator for x in row)) for v in row]
               for row in to_rows(m)]
    for fracs in (to_rows(m), cleared):
        forms = [fracs, [[int(v) if v.denominator == 1 and rng.random() < 0.5
                          else v for v in row] for row in fracs]]
        if fracs is cleared:
            forms.append([[int(v) for v in row] for row in fracs])
        got = []
        for form in forms:
            piv = echelon([{j: v for j, v in enumerate(row)
                            if v != 0 or rng.random() < 0.4} for row in form])
            assert all(type(v) is int for r in piv.values() for v in r.values())
            got.append((piv, list(piv), rref(
                Mat(m.rows, m.cols, tuple(v for row in form for v in row)))))
        assert all(g == got[0] for g in got)


def sparse_rows(m: Mat) -> list:
    return [{j: v for j, v in enumerate(m.row(i)) if v} for i in range(m.rows)]


@given(dependent_matrices(), st.integers(min_value=0, max_value=6))
@settings(max_examples=150, deadline=None)
def test_echelon_one_row_at_a_time_matches_one_call(m, split):
    rows = sparse_rows(m)
    piv = echelon(rows[:split])
    for row in rows[split:]:
        reduce_row(piv, row)
    want = echelon(rows)
    assert piv == want and list(piv) == list(want)


@given(dependent_matrices())
@settings(max_examples=150, deadline=None)
def test_reduce_row_without_insert_clears_every_pivot_column(m):
    rows = sparse_rows(m)
    if not rows:
        return
    piv = echelon(rows[1:])
    before = dict(piv)
    rest = reduce_row(piv, rows[0], insert=False)
    assert piv == before
    assert not rest.keys() & piv.keys()
    basis = list(piv.values())
    assert (sparse_rank(basis + [rows[0]]) == sparse_rank(basis + [rest])
            == sparse_rank(basis + [rows[0], rest]))


@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=-30, max_value=30)
                                | st.just(0), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=150, deadline=None)
def test_det_matches_reference(rows):
    assert det(rows) == reference_det(rows)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([[1, 2]])


linear_grids = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(st.lists(st.lists(st.one_of(st.just(Fraction(0)),
                                                   dense_fractions),
                                         min_size=2, max_size=2),
                                min_size=n, max_size=n),
                       min_size=n, max_size=n))


@given(linear_grids)
@settings(max_examples=100, deadline=None)
def test_poly_det_evaluates_to_det_of_evaluated_grid(grid):
    poly = _poly_det(grid)
    # trimmed: _support reads a degree drop as a summand at (1:0)
    assert len(poly) == 1 or poly[-1] != 0
    for t in (Fraction(0), Fraction(3), Fraction(-7), Fraction(5, 2),
              Fraction(-1, 3)):
        value = sum((c * t ** k for k, c in enumerate(poly)), Fraction(0))
        evaluated = [[e[0] + e[1] * t for e in row] for row in grid]
        assert value == reference_det(evaluated)


@given(dependent_matrices())
@settings(max_examples=60, deadline=None)
def test_equal_mats_hash_equal_and_share_a_cache_entry(m):
    twin = Mat(m.rows, m.cols,
               tuple(Fraction(x.numerator, x.denominator) for x in m.entries))
    assert twin is not m and twin == m
    calls = []

    @lru_cache(maxsize=16)
    def cached(x):
        calls.append(x)
        return x.rows

    cached(m)
    assert hash(twin) == hash(m) == hash((m.rows, m.cols, m.entries))
    cached(twin)
    assert len(calls) == 1 and cached.cache_info().hits == 1


# -- the sparse product and transpose against the dense reference ------------


def dense_product(a: list, b: list, cols: int) -> list:
    """Entry (i, j) of a b as the sum over k of a[i][k] b[k][j], zeros
    included."""
    return [[sum((row[k] * b[k][j] for k in range(len(b))), 0)
             for j in range(cols)] for row in a]


def dict_rows(dense: list) -> list:
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


# ints, proper fractions and zeros, few values so that sums cancel often
product_entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2),
                                   Fraction(-1, 2), Fraction(2, 3)])


@st.composite
def product_cases(draw):
    """Dense r x m and m x c lists, each size 0 to 4: no rows, no columns
    and no inner dimension all occur."""
    r, m, c = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))

    def dense(rows, cols):
        return [draw(st.lists(product_entries, min_size=cols,
                              max_size=cols)) for _ in range(rows)]

    return dense(r, m), dense(m, c), m, c


@given(product_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sparse_product_and_transpose_match_the_dense_reference(case):
    a, b, m, c = case
    want = dense_product(a, b, c)
    got = sparse_product(dict_rows(a), [r.items() for r in dict_rows(b)])
    assert got == dict_rows(want)
    assert all(v for row in got for v in row.values())  # zeros dropped
    # right-hand rows as tuples of pairs, as the oracle's tables hold them
    assert sparse_product(dict_rows(a),
                          [tuple(r.items()) for r in dict_rows(b)]) == got
    assert sparse_transpose(dict_rows(b), c) == dict_rows(
        [[row[j] for row in b] for j in range(c)])
    # the test-local dense product that stands in for a product on Mat
    assert mat_mul(Mat.from_rows(a, cols=m), Mat.from_rows(b, cols=c)) == \
        Mat.from_rows(want, cols=c)


def test_sparse_product_drops_what_cancels_and_keeps_fractions():
    b = [((0, 2), (1, Fraction(1, 3))), ((0, -2), (1, Fraction(2, 3))), ()]
    got = sparse_product([{0: 1, 1: 1}, {}, {2: 5}, {0: 1}], b)
    assert got == [{1: 1}, {}, {}, {0: 2, 1: Fraction(1, 3)}]
    assert type(got[0][1]) is Fraction and type(got[3][0]) is int
    assert sparse_product([{0: 1, 1: -1}], [((0, 3),), ((0, 3),)]) == [{}]
    assert sparse_product([], b) == []
    # zero columns: every right-hand row is empty
    assert sparse_product([{0: 1}, {}], [()]) == [{}, {}]


def test_sparse_transpose_lists_every_column():
    assert sparse_transpose([{}, {}], 3) == [{}, {}, {}]
    assert sparse_transpose([], 0) == []
    assert sparse_transpose([{2: Fraction(1, 2)}, {0: 4, 2: -1}], 3) == [
        {1: 4}, {}, {0: Fraction(1, 2), 1: -1}]
    with pytest.raises(IndexError):
        sparse_transpose([{3: 1}], 3)


def test_mat_mul_helper_on_known_products():
    a = Mat.from_rows([[1, 2], [0, Fraction(1, 2)]])
    b = Mat.from_rows([[0, 1, -1], [3, 0, 2]])
    assert mat_mul(a, b) == Mat.from_rows([[6, 1, 3], [Fraction(3, 2), 0, 1]])
    assert mat_mul(Mat.identity(2), a) == a == mat_mul(a, Mat.identity(2))
    assert mat_mul(Mat(2, 0, ()), Mat(0, 3, ())) == Mat.zeros(2, 3)
    assert is_zero(mat_mul(a, Mat.zeros(2, 4)))
    assert not is_zero(a)
