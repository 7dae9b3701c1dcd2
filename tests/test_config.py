import random
from fractions import Fraction

import pytest

from gitstab.config import (
    ConfigSchemaError,
    WeightedConfiguration,
    apply_gl,
    config_from_dict,
    config_to_dict,
    configuration,
    induced_quotient,
    induced_sub,
    intersection_dims,
    merge_items,
    slope_at,
    slope_total,
    split_item,
    supp_v,
    tensor_with_full_w,
    zero_item,
)
from gitstab.linalg import RationalMatrix, full_subspace, span

from util import rand_config, rand_invertible, rand_subspace, transform_subspace


def F(x, y=1):
    return Fraction(x, y)


def line(n, *coords):
    return span([[F(x) for x in coords]], n)


class TestConstruction:
    def test_minimal(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1)])
        assert c.m == 1 and c.n == 2 and c.d == 1

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            configuration(2, 1, [(line(2, 1, 0), 0)])

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            configuration(3, 1, [(line(2, 1, 0), 1)])

    def test_tensor_ambient_is_n_times_d(self):
        sub = span([[F(1), F(0), F(0), F(0)]], 4)
        c = configuration(2, 2, [(sub, 1)])
        assert c.items[0][0].ambient_dim == 4

    def test_empty_items_rejected(self):
        with pytest.raises(ValueError):
            WeightedConfiguration(2, 1, ())


class TestSlopes:
    def test_slope_total(self):
        c = configuration(
            2, 1, [(line(2, 1, 0), 3), (line(2, 0, 1), 1)]
        )
        assert slope_total(c) == F(4, 2)

    def test_slope_at_line(self):
        c = configuration(2, 1, [(line(2, 1, 0), 3), (line(2, 0, 1), 1)])
        assert slope_at(c, line(2, 1, 0)) == F(3)
        assert slope_at(c, line(2, 0, 1)) == F(1)

    def test_slope_at_zero_rejected(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1)])
        with pytest.raises(ValueError):
            slope_at(c, span([], 2))

    def test_slope_at_full_equals_total(self):
        rng = random.Random(21)
        for _ in range(10):
            c = rand_config(rng)
            assert slope_at(c, full_subspace(c.n)) == slope_total(c)

    def test_intersection_dims_tensor(self):
        sub = span([[F(1), F(0), F(0), F(0)]], 4)
        c = configuration(2, 2, [(sub, 1)])
        assert intersection_dims(c, line(2, 1, 0)) == (1,)
        assert intersection_dims(c, line(2, 0, 1)) == (0,)


class TestTensorWithFullW:
    def test_pivots(self):
        h = line(2, 1, 0)
        hw = tensor_with_full_w(h, 3)
        assert hw.ambient_dim == 6
        assert hw.dim == 3
        assert hw.pivots == (0, 1, 2)

    def test_full_h(self):
        hw = tensor_with_full_w(full_subspace(2), 2)
        assert hw.is_full

    def test_matches_explicit_span(self):
        rng = random.Random(6)
        h = rand_subspace(rng, 3, 2)
        d = 2
        explicit = []
        for row in h.rows:
            for l in range(d):
                vec = [F(0)] * (3 * d)
                for i, x in enumerate(row):
                    vec[i * d + l] = x
                explicit.append(vec)
        assert tensor_with_full_w(h, d) == span(explicit, 3 * d)


class TestSuppV:
    def test_rank_one(self):
        k = span([[F(1), F(0), F(0), F(0)]], 4)
        assert supp_v(k, 2, 2) == line(2, 1, 0)

    def test_full_support(self):
        k = span([[F(1), F(0), F(0), F(1)]], 4)
        assert supp_v(k, 2, 2).is_full


class TestInduced:
    def test_induced_sub_dims(self):
        c = configuration(
            3,
            1,
            [(line(3, 1, 0, 0), 1), (line(3, 0, 1, 0), 2), (line(3, 0, 0, 1), 1)],
        )
        h = span([[F(1), F(0), F(0)], [F(0), F(1), F(0)]], 3)
        sub = induced_sub(c, h)
        assert sub.n == 2
        assert [s.dim for s, _ in sub.items] == [1, 1, 0]
        assert [w for _, w in sub.items] == [F(1), F(2), F(1)]

    def test_induced_quotient_dims(self):
        c = configuration(
            3,
            1,
            [(line(3, 1, 0, 0), 1), (line(3, 0, 1, 0), 2), (line(3, 0, 0, 1), 1)],
        )
        h = line(3, 1, 0, 0)
        q = induced_quotient(c, h)
        assert q.n == 2
        assert [s.dim for s, _ in q.items] == [0, 1, 1]

    def test_induced_quotient_tensor(self):
        k = span([[F(1), F(0), F(0), F(1)]], 4)
        c = configuration(2, 2, [(k, 1)])
        q = induced_quotient(c, line(2, 1, 0))
        assert q.n == 1 and q.d == 2
        assert q.items[0][0].dim == 1


class TestSplitMerge:
    def test_split_then_merge_roundtrip(self):
        c = configuration(2, 1, [(line(2, 1, 1), 2)])
        parts = split_item(c, 0, F(1, 2), F(3, 2))
        assert parts.m == 2
        assert slope_total(parts) == slope_total(c)
        back = merge_items(parts, 0, 1)
        assert back == c

    def test_split_weights_must_sum(self):
        c = configuration(2, 1, [(line(2, 1, 1), 2)])
        with pytest.raises(ValueError):
            split_item(c, 0, F(1), F(3))

    def test_merge_requires_same_subspace(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1)])
        with pytest.raises(ValueError):
            merge_items(c, 0, 1)

    def test_slopes_preserved_at_every_subspace(self):
        rng = random.Random(31)
        c = configuration(2, 1, [(line(2, 1, 1), 2), (line(2, 1, 0), 1)])
        parts = split_item(c, 0, F(1), F(1))
        for _ in range(5):
            h = rand_subspace(rng, 2, 1)
            assert slope_at(parts, h) == slope_at(c, h)


class TestApplyGl:
    def test_dims_and_slopes_invariant(self):
        rng = random.Random(17)
        c = rand_config(rng, n_max=3, m_max=3)
        g = rand_invertible(rng, c.n)
        moved = apply_gl(c, g)
        assert [s.dim for s, _ in moved.items] == [s.dim for s, _ in c.items]
        assert slope_total(moved) == slope_total(c)

    def test_fractional_g_matches_transform_subspace(self):
        rng = random.Random(19)
        for _ in range(10):
            c = rand_config(rng, n_max=4, m_max=3)
            g = RationalMatrix.from_rows(
                [[F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(c.n)]
                 for _ in range(c.n)]
            )
            if g.rank() != c.n:
                continue
            moved = apply_gl(c, g)
            assert [s for s, _ in moved.items] == [
                transform_subspace(g, s) for s, _ in c.items
            ]
            assert moved.weights() == c.weights()

    def test_d2_matches_explicit_g_tensor_identity(self):
        rng = random.Random(20)
        n, d = 3, 2
        g = RationalMatrix.from_rows(
            [[F(1, 2), F(-1), F(0)], [F(2, 3), F(1), F(3)], [F(0), F(-1, 4), F(1)]]
        )
        # (g tensor I)[i*d + l, j*d + m] = g[i, j] when l == m
        big = RationalMatrix.from_rows(
            [
                [g.entry(i, j) if l == m else F(0) for j in range(n) for m in range(d)]
                for i in range(n)
                for l in range(d)
            ]
        )
        items = [(rand_subspace(rng, n * d, k), F(1)) for k in (1, 2, 3, 5)]
        c = configuration(n, d, items)
        moved = apply_gl(c, g)
        assert [s for s, _ in moved.items] == [
            transform_subspace(big, s) for s, _ in items
        ]

    def test_identity_fixes(self):
        rng = random.Random(18)
        c = rand_config(rng, n_max=3, m_max=3)
        from gitstab.linalg import RationalMatrix

        assert apply_gl(c, RationalMatrix.identity(c.n)) == c


class TestSerialization:
    def test_roundtrip(self):
        rng = random.Random(23)
        for _ in range(10):
            c = rand_config(rng)
            assert config_from_dict(config_to_dict(c)) == c

    def test_roundtrip_tensor(self):
        k = span([[F(1), F(0), F(1, 3), F(1)]], 4)
        c = configuration(2, 2, [(k, F(2, 7))])
        assert config_from_dict(config_to_dict(c)) == c

    def test_missing_field_path(self):
        with pytest.raises(ConfigSchemaError, match="items"):
            config_from_dict({"n": 2, "d": 1})

    def test_weight_error_has_path(self):
        data = {
            "n": 2,
            "d": 1,
            "items": [{"weight": "-1", "basis": [["1", "0"]]}],
        }
        with pytest.raises(ConfigSchemaError, match=r"items\[0\].weight"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "field, data",
        [
            ("n", {"n": True, "d": 1, "items": [{"weight": "1", "basis": [["1"]]}]}),
            ("d", {"n": 1, "d": True, "items": [{"weight": "1", "basis": [["1"]]}]}),
            (r"items\[0\].weight", {"n": 1, "d": 1, "items": [{"weight": True, "basis": [["1"]]}]}),
            (r"items\[0\].basis", {"n": 1, "d": 1, "items": [{"weight": "1", "basis": [[True]]}]}),
            (r"items\[0\].weight", {"n": 1, "d": 1, "items": [{"weight": "1e200000", "basis": [["1"]]}]}),
        ],
    )
    def test_booleans_and_exponents_rejected(self, field, data):
        with pytest.raises(ConfigSchemaError, match=field):
            config_from_dict(data)

    def test_decimal_weight_accepted(self):
        data = {"n": 1, "d": 1, "items": [{"weight": "0.5", "basis": [["1"]]}]}
        assert config_from_dict(data).items[0][1] == F(1, 2)

    def test_bad_vector_length_has_path(self):
        data = {
            "n": 2,
            "d": 1,
            "items": [{"weight": "1", "basis": [["1", "0", "0"]]}],
        }
        with pytest.raises(ConfigSchemaError, match=r"items\[0\].basis\[0\]"):
            config_from_dict(data)


class TestZeroItem:
    def test_zero_item_allowed(self):
        c = configuration(2, 1, [(zero_item(2, 1), 1), (line(2, 1, 0), 1)])
        assert c.items[0][0].is_zero
        assert slope_total(c) == F(1, 2)
