import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitstab.linalg import (
    DimensionMismatchError,
    RationalMatrix,
    canonicalize,
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
