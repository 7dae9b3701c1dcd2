import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitstab.linalg import (
    DimensionMismatchError,
    RationalMatrix,
    canonicalize,
    complement_chart,
    full_subspace,
    join,
    kernel,
    lift_from_quotient,
    meet,
    parse_rational,
    quotient_image,
    span,
    subspace_digest,
    zero_subspace,
)

from util import rand_invertible, rand_subspace, rand_vector


def F(x, y=1):
    return Fraction(x, y)


class TestParseRational:
    def test_string_fraction(self):
        assert parse_rational("2/3") == F(2, 3)

    def test_integer(self):
        assert parse_rational(7) == F(7)

    def test_negative_string(self):
        assert parse_rational("-5/2") == F(-5, 2)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            parse_rational(True)

    def test_exponent_rejected(self):
        for text in ("1e200000", "2E3", "1.5e-2"):
            with pytest.raises(ValueError):
                parse_rational(text)

    def test_zero_denominator_rejected(self):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rational("1/0")


class TestRationalMatrix:
    def test_identity_inverse(self):
        m = RationalMatrix.identity(3)
        assert m.inverse() == m

    def test_inverse_roundtrip(self):
        rng = random.Random(11)
        for _ in range(10):
            m = rand_invertible(rng, 3)
            assert m @ m.inverse() == RationalMatrix.identity(3)

    def test_singular_inverse_raises(self):
        m = RationalMatrix.from_rows([[F(1), F(2)], [F(2), F(4)]])
        with pytest.raises(ValueError):
            m.inverse()

    def test_det_multiplicative(self):
        rng = random.Random(3)
        a = rand_invertible(rng, 3)
        b = rand_invertible(rng, 3)
        assert (a @ b).det() == a.det() * b.det()

    def test_rank_of_rank_deficient(self):
        m = RationalMatrix.from_rows([[F(1), F(2)], [F(2), F(4)], [F(3), F(6)]])
        assert m.rank() == 1

    def test_matmul_dimension_mismatch(self):
        a = RationalMatrix.identity(2)
        b = RationalMatrix.identity(3)
        with pytest.raises(DimensionMismatchError):
            a @ b

    def test_det_matches_cofactor_expansion(self):
        rng = random.Random(29)
        for trial in range(150):
            n = 1 + trial % 5
            rows = [
                [F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 7])) for _ in range(n)]
                for _ in range(n)
            ]
            if trial % 3 == 0 and n > 1:
                # singular: one row a rational combination of two others
                i, j, k = (rng.randrange(n) for _ in range(3))
                a, b = F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 5)
                rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
                if i in (j, k):
                    rows[i] = [F(0)] * n
            m = RationalMatrix.from_rows(rows)
            assert m.det() == _cofactor_det(rows)

    def test_det_of_empty_and_zero_column(self):
        assert RationalMatrix(0, 0, ()).det() == 1
        m = RationalMatrix.from_rows([[F(0), F(1, 2)], [F(0), F(3)]])
        assert m.det() == 0
        swap = RationalMatrix.from_rows([[F(0), F(1, 2)], [F(1, 3), F(3)]])
        assert swap.det() == F(-1, 6)


def _cofactor_det(rows):
    if not rows:
        return F(1)
    return sum(
        (
            (-1) ** j * rows[0][j] * _cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]])
            for j in range(len(rows))
        ),
        F(0),
    )


def _gauss_jordan(rows, width):
    """Reference reduced row echelon form by Fraction Gauss-Jordan."""
    rows = [[F(x) for x in row] for row in rows]
    r = 0
    for col in range(width):
        found = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


@st.composite
def spanning_rows(draw):
    """Rows of width 1-9 with fractional entries, zero and repeated rows."""
    width = draw(st.integers(min_value=1, max_value=9))
    entry = st.one_of(
        st.just(F(0)),
        st.fractions(min_value=-7, max_value=7, max_denominator=12),
    )
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=7))
    pool = rows + [[F(0)] * width]
    rows += draw(st.lists(st.sampled_from(pool), max_size=3))
    return width, draw(st.permutations(rows))


class TestIntegerKernel:
    @settings(max_examples=200, deadline=None)
    @given(spanning_rows())
    def test_span_matches_gauss_jordan(self, data):
        width, rows = data
        sub = span(rows, width)
        expected = _gauss_jordan(rows, width)
        assert sub.rows == expected
        assert all(type(x) is Fraction for row in sub.rows for x in row)
        assert sub.pivots == tuple(
            next(j for j, x in enumerate(row) if x) for row in expected
        )
        assert sub.int_rows == span(sub.rows, width).int_rows
        if rows:
            assert RationalMatrix.from_rows(rows).rank() == len(expected)

    def test_equal_spans_hash_equal(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 6)
            sub = rand_subspace(rng, n, rng.randint(0, n))
            mixed = [[F(0)] * n]
            for _ in range(sub.dim + 2):
                coefs = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in sub.rows]
                mixed.append([
                    sum((c * row[i] for c, row in zip(coefs, sub.rows)), F(0))
                    for i in range(n)
                ])
            other = span(mixed + [list(r) for r in sub.rows[::-1]], n)
            assert other == sub
            assert hash(other) == hash(sub)
            assert len({sub, other}) == 1

    def test_directly_built_subspaces_hash_like_spans(self):
        rng = random.Random(19)
        for n in range(1, 6):
            assert hash(full_subspace(n)) == hash(canonicalize(rand_invertible(rng, n)))
            h = rand_subspace(rng, n, rng.randint(0, n))
            chart = complement_chart(h)
            rebuilt = span([[x * 3 for x in row] for row in chart.rows], n)
            assert chart == rebuilt and hash(chart) == hash(rebuilt)
            assert chart.int_rows == rebuilt.int_rows

    def test_meet_and_join_keep_cache_info(self):
        a = span([[F(1), F(2), F(0)]], 3)
        b = span([[F(0), F(1, 2), F(1)], [F(1), F(0), F(0)]], 3)
        for op in (meet, join):
            before = op.cache_info()
            op(a, b)
            op(a, b)
            after = op.cache_info()
            assert after.hits + after.misses == before.hits + before.misses + 2
            assert after.hits >= before.hits + 1


class TestSubspaceCanonicalForm:
    def test_same_span_same_object(self):
        a = span([[F(1), F(2)], [F(0), F(1)]], 2)
        b = span([[F(3), F(1)], [F(1), F(1)]], 2)
        assert a == b
        assert a.is_full

    def test_scaling_invariance(self):
        a = span([[F(2), F(4), F(6)]], 3)
        b = span([[F(1), F(2), F(3)]], 3)
        assert a == b

    def test_zero_vectors_dropped(self):
        a = span([[F(0), F(0)], [F(1), F(0)]], 2)
        assert a.dim == 1

    def test_digest_stable(self):
        a = span([[F(1), F(0)]], 2)
        b = span([[F(2), F(0)]], 2)
        assert subspace_digest([a]) == subspace_digest([b])

    def test_contains_vector(self):
        a = span([[F(1), F(1), F(0)]], 3)
        assert a.contains_vector((F(3), F(3), F(0)))
        assert not a.contains_vector((F(1), F(0), F(0)))

    def test_coordinates_roundtrip(self):
        rng = random.Random(5)
        sub = rand_subspace(rng, 4, 2)
        vec = tuple(
            sum((r[i] * c for r, c in zip(sub.rows, [F(3), F(-2)])), F(0))
            for i in range(4)
        )
        coords = sub.coordinates_of(vec)
        assert coords == (F(3), F(-2))


@st.composite
def subspace_pair(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    def pick():
        rows = draw(
            st.lists(
                st.lists(
                    st.integers(min_value=-5, max_value=5), min_size=n, max_size=n
                ),
                min_size=0,
                max_size=n,
            )
        )
        return span([[F(x) for x in row] for row in rows], n)
    return pick(), pick()


class TestLatticeLaws:
    @settings(max_examples=60, deadline=None)
    @given(subspace_pair())
    def test_dimension_formula(self, pair):
        a, b = pair
        assert meet(a, b).dim + join(a, b).dim == a.dim + b.dim

    @settings(max_examples=60, deadline=None)
    @given(subspace_pair())
    def test_meet_contained_join_contains(self, pair):
        a, b = pair
        lo, hi = meet(a, b), join(a, b)
        assert a.contains(lo) and b.contains(lo)
        assert hi.contains(a) and hi.contains(b)

    @settings(max_examples=40, deadline=None)
    @given(subspace_pair())
    def test_commutativity(self, pair):
        a, b = pair
        assert meet(a, b) == meet(b, a)
        assert join(a, b) == join(b, a)

    def test_meet_join_with_extremes(self):
        rng = random.Random(2)
        sub = rand_subspace(rng, 3, 2)
        assert meet(sub, full_subspace(3)) == sub
        assert join(sub, zero_subspace(3)) == sub


class TestKernel:
    def test_kernel_dimension(self):
        m = RationalMatrix.from_rows([[F(1), F(0), F(1)], [F(0), F(1), F(1)]])
        ker = kernel(m)
        assert ker.dim == 1
        assert ker.contains_vector((F(1), F(1), F(-1)))

    def test_kernel_of_invertible_is_zero(self):
        rng = random.Random(9)
        m = rand_invertible(rng, 3)
        assert kernel(m).is_zero

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(13)
        rows = [rand_vector(rng, 5) for _ in range(2)]
        m = RationalMatrix.from_rows(rows)
        ker = kernel(m)
        assert m.rank() + ker.dim == 5
        for vec in ker.rows:
            out = m.mul_vector(vec)
            assert all(x == 0 for x in out)


class TestQuotient:
    def test_quotient_dims(self):
        rng = random.Random(4)
        h = rand_subspace(rng, 4, 2)
        k = rand_subspace(rng, 4, 3)
        img = quotient_image(k, h)
        assert img.ambient_dim == 2
        assert img.dim == k.dim - meet(k, h).dim

    def test_lift_section(self):
        rng = random.Random(8)
        h = rand_subspace(rng, 4, 2)
        k = rand_subspace(rng, 4, 3)
        img = quotient_image(k, h)
        for vec in img.rows:
            lifted = lift_from_quotient(vec, h)
            back = quotient_image(span([list(lifted)], 4), h)
            assert back.contains_vector(vec)

    def test_quotient_of_contained_is_zero(self):
        h = span([[F(1), F(0), F(0)], [F(0), F(1), F(0)]], 3)
        k = span([[F(1), F(1), F(0)]], 3)
        assert quotient_image(k, h).is_zero


class TestCanonicalize:
    def test_column_span(self):
        m = RationalMatrix.from_rows([[F(1), F(2)], [F(0), F(0)], [F(1), F(2)]])
        sub = canonicalize(m)
        assert sub.dim == 1
        assert sub.contains_vector((F(1), F(0), F(1)))
