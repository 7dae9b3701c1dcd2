import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitstab.config import tensor_with_full_w
from gitstab.linalg import (
    DimensionMismatchError,
    RationalMatrix,
    _format_ratio,
    canonicalize,
    complement_chart,
    excess_rank,
    full_subspace,
    join,
    kernel,
    kron,
    lift_from_quotient,
    meet,
    meet_dim,
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
            other = rand_subspace(rng, 3, rng.randint(0, 3))
            for built in (
                complement_chart(h),
                full_subspace(n),
                kron(h, other),
                kron(other, complement_chart(h)),
                tensor_with_full_w(h, 2),
                tensor_with_full_w(h, 3),
            ):
                amb = built.ambient_dim
                rebuilt = span([[x * 3 for x in row] for row in built.rows], amb)
                assert built == rebuilt and hash(built) == hash(rebuilt)
                assert built.int_rows == rebuilt.int_rows
                assert built.pivots == rebuilt.pivots

    def test_kron_matches_pairwise_products(self):
        rng = random.Random(23)

        def factor(n):
            dim = rng.randint(0, n)
            vectors = [
                [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(dim)
            ]
            return vectors, span(vectors, n)

        cases = [factor(rng.randint(1, 4)) for _ in range(30)]
        cases += [([], zero_subspace(3)), ([[F(1), F(0)], [F(0), F(1)]], full_subspace(2))]
        for _ in range(60):
            (us, a), (vs, b) = rng.choice(cases), rng.choice(cases)
            p, q = a.ambient_dim, b.ambient_dim
            # every pairwise product of spanning vectors, coordinate i*q + j
            products = [
                [u[i] * v[j] for i in range(p) for j in range(q)] for u in us for v in vs
            ]
            product = kron(a, b)
            assert product.ambient_dim == p * q
            assert product.rows == _gauss_jordan(products, p * q)
            assert product == span(products, p * q)
            assert product.dim == a.dim * b.dim

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


def _fraction_text(x: Fraction) -> str:
    """Reference formatter: the Fraction's own lowest terms."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fraction_rank(rows) -> int:
    """Reference rank by Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _fractional_rows(rng, n, dim):
    """dim random rows of Q^n: a third of the entries zero, the rest of
    either sign over denominators up to 997."""
    return [
        [F(0) if rng.random() < 1 / 3 else F(rng.randint(-9, 9), rng.randint(1, 997))
         for _ in range(n)]
        for _ in range(dim)
    ]


def _seeded_subspaces(seed):
    """Zero, full and fractional subspaces of Q^1..Q^5, plus d = 2 products
    h tensor w and h tensor W, grouped by ambient dimension."""
    rng = random.Random(seed)
    by_ambient = {}
    for n in range(1, 6):
        subs = [zero_subspace(n), full_subspace(n)]
        subs += [span(_fractional_rows(rng, n, rng.randint(1, n)), n) for _ in range(8)]
        by_ambient[n] = subs
    for _ in range(8):
        n = rng.randint(1, 3)
        h = span(_fractional_rows(rng, n, rng.randint(1, n)), n)
        w = span(_fractional_rows(rng, 2, 1), 2)
        by_ambient.setdefault(2 * n, []).extend(
            [kron(h, w), tensor_with_full_w(h, 2)]
        )
    return by_ambient


class TestAnnihilator:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_orthogonal_and_full_rank(self, seed):
        for n, subs in _seeded_subspaces(seed).items():
            for s in subs:
                ann = s.annihilator
                assert all(len(y) == n for y in ann)
                for row, y in itertools.product(s.int_rows, ann):
                    assert sum(a * b for a, b in zip(row, y)) == 0
                assert len(ann) == n - s.dim
                assert _fraction_rank(ann) == n - s.dim

    @pytest.mark.parametrize("seed", [1, 2])
    def test_excess_rank_and_meet_dim_match_join_and_meet(self, seed):
        pairs = 0
        for subs in _seeded_subspaces(seed).values():
            for a, b in itertools.product(subs, repeat=2):
                assert excess_rank(a, b) == join(a, b).dim - b.dim
                assert meet_dim(a, b) == meet(a, b).dim
                pairs += 1
        assert pairs > 400

    def test_excess_rank_checks_ambient(self):
        with pytest.raises(DimensionMismatchError):
            excess_rank(full_subspace(2), zero_subspace(3))

    def test_ignored_by_eq_hash_repr(self):
        rows = _fractional_rows(random.Random(7), 4, 2)
        a, b = span(rows, 4), span(rows, 4)
        assert a.annihilator and b._ann is None
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        object.__setattr__(b, "_ann", ((1, 0, 0, 0),))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_ann" not in repr(a)


class TestDigestFormat:
    def test_ratio_matches_fraction_formatter(self):
        rng = random.Random(31)
        for subs in _seeded_subspaces(31).values():
            for s in subs:
                for row, p in zip(s.int_rows, s.pivots):
                    assert [_format_ratio(x, row[p]) for x in row] == [
                        _fraction_text(Fraction(x, row[p])) for x in row
                    ]
        for _ in range(500):
            x, q = rng.randint(-10**6, 10**6), rng.randint(1, 997)
            assert _format_ratio(x, q) == _fraction_text(Fraction(x, q))
        assert [_format_ratio(x, 6) for x in (0, -6, 4, -9)] == ["0", "-1", "2/3", "-3/2"]

    def test_digest_matches_fraction_rows(self):
        for subs in _seeded_subspaces(32).values():
            h = hashlib.sha256()
            for s in subs:
                h.update(f"{s.ambient_dim}:".encode())
                for row in s.rows:
                    h.update(";".join(_fraction_text(x) for x in row).encode())
                    h.update(b"|")
                h.update(b"#")
            assert subspace_digest(subs) == h.hexdigest()
