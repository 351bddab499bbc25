from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siltglue.exactlin import (Mat, block, kernel_basis, left_kernel_basis,
                               rank, row_space_projection, solve, sparse_rank,
                               sylvester_rows)


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


def test_left_kernel():
    m = Mat.from_rows([[1, 0], [2, 0], [0, 0]])
    basis = left_kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        prod = Mat(1, 3, tuple(v)).mul(m)
        assert prod.is_zero()


def test_row_space_projection_section():
    m = Mat.from_rows([[1, 2, 0], [0, 0, 1]])
    proj, section = row_space_projection(m)
    assert proj.cols == 1 and section.rows == 1
    assert section.mul(proj) == Mat.identity(1)
    # rows of m project to zero
    assert m.mul(proj).is_zero()


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
    rows = m.to_rows()
    rng.shuffle(rows)
    permuted = Mat.from_rows(rows, cols=m.cols)
    cols = list(range(m.cols))
    rng.shuffle(cols)
    twisted = Mat.from_rows(
        [[row[c] for c in cols] for row in permuted.to_rows()], cols=m.cols)
    assert rank(twisted) == rank(m)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        out = m.mul(Mat(m.cols, 1, tuple(v)))
        assert out.is_zero()


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
    the unknown blocks X_v and the output blocks laid out back to back."""
    dim = st.integers(min_value=0, max_value=3)
    terms, blocks, outs = [], [], []
    nvar = neqs = 0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        p, q, r, s = draw(dim), draw(dim), draw(dim), draw(dim)
        if draw(st.booleans()) and blocks:
            var, q, r = draw(st.sampled_from(blocks))
        else:
            var = nvar
            blocks.append((var, q, r))
            nvar += q * r
        if draw(st.booleans()) and outs:
            out, p, s = draw(st.sampled_from(outs))
        else:
            out = neqs
            outs.append((out, p, s))
            neqs += p * s
        a = draw(matrices_of(p, q))
        b = draw(matrices_of(r, s))
        terms.append((out, var, draw(st.sampled_from((1, -1))), a, b))
    x = draw(st.lists(small_fractions, min_size=nvar, max_size=nvar))
    return neqs, terms, x


@given(sylvester_cases())
@settings(max_examples=80, deadline=None)
def test_sylvester_rows_apply_the_sum_of_products(case):
    neqs, terms, x = case
    want = [Fraction(0)] * neqs
    for out, var, sign, a, b in terms:
        xv = Mat(a.cols, b.rows, tuple(x[var:var + a.cols * b.rows]))
        for t, v in enumerate(a.mul(xv).mul(b).scale(sign).entries):
            want[out + t] += v
    rows = sylvester_rows(neqs, terms)
    assert len(rows) == neqs
    assert [sum(v * x[c] for c, v in row.items()) for row in rows] == want


def test_sylvester_rows_int_is_identity():
    a = Mat.from_rows([[1, 2], [3, 4]])
    ident = sylvester_rows(4, [(0, 0, 1, a, 2)])
    assert ident == sylvester_rows(4, [(0, 0, 1, a, Mat.identity(2))])
    assert ident == [{0: 1, 2: 2}, {1: 1, 3: 2}, {0: 3, 2: 4}, {1: 3, 3: 4}]
