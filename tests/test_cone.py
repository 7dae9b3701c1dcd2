import random
from fractions import Fraction

import pytest

from gitstab.cone import (
    ConeSpec,
    Region,
    conjecture_probe,
    foth_fixed_plane,
    foth_witness,
    hypersimplex_membership,
    necessary_direction_check,
    probe_trial,
    sample_configuration,
)
from gitstab.config import configuration, slope_at, slope_total, zero_item
from gitstab.linalg import meet, span
from gitstab.stability import Status, decide

F = Fraction


def line(n, *coords):
    return span([[F(x) for x in coords]], n)


class TestConeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConeSpec(0, (1,))
        with pytest.raises(ValueError):
            ConeSpec(2, ())
        with pytest.raises(ValueError):
            ConeSpec(2, (1, 0))

    def test_m(self):
        assert ConeSpec(4, (2, 2, 2)).m == 3


class TestMembership:
    def test_interior(self):
        r = hypersimplex_membership(ConeSpec(4, (2, 2, 2)), [1, 1, 1])
        assert r.region == Region.INTERIOR
        assert r.x == (F(2, 3), F(2, 3), F(2, 3))

    def test_boundary(self):
        r = hypersimplex_membership(ConeSpec(4, (2, 2, 2)), [2, 1, 1])
        assert r.region == Region.BOUNDARY
        assert r.x[0] == 1

    def test_outside(self):
        r = hypersimplex_membership(ConeSpec(4, (2, 2, 2)), [3, 1, 1])
        assert r.region == Region.OUTSIDE
        assert r.x[0] == F(12, 10)

    def test_normalization_identity(self):
        rng = random.Random(91)
        for _ in range(20):
            m = rng.randint(1, 5)
            n = rng.randint(1, 6)
            k = tuple(rng.randint(1, max(1, n)) for _ in range(m))
            spec = ConeSpec(n, k)
            ws = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(m)]
            r = hypersimplex_membership(spec, ws)
            assert sum(ki * xi for ki, xi in zip(k, r.x)) == n

    def test_scale_invariance(self):
        spec = ConeSpec(4, (2, 1, 3))
        ws = [F(1), F(2), F(1, 3)]
        r1 = hypersimplex_membership(spec, ws)
        r2 = hypersimplex_membership(spec, [w * F(5, 3) for w in ws])
        assert r1 == r2

    def test_input_validation(self):
        spec = ConeSpec(2, (1, 1))
        with pytest.raises(ValueError):
            hypersimplex_membership(spec, [1])
        with pytest.raises(ValueError):
            hypersimplex_membership(spec, [1, 0])

    def test_unit_dims_reduction(self):
        # ambient k*n with every item dimension n classifies exactly like
        # ambient k with unit dimensions
        rng = random.Random(92)
        for _ in range(15):
            m = rng.randint(2, 5)
            k = rng.randint(1, m - 1)
            n = rng.randint(1, 4)
            ws = [F(rng.randint(1, 9)) for _ in range(m)]
            big = hypersimplex_membership(ConeSpec(k * n, tuple([n] * m)), ws)
            std = hypersimplex_membership(ConeSpec(k, tuple([1] * m)), ws)
            assert big.region == std.region
            assert big.x == std.x


class TestNecessaryDirection:
    def test_orthogonal_pair(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1)])
        r = necessary_direction_check(c)
        assert r.verdict.status == Status.STRICTLY_SEMISTABLE
        assert r.margins == (F(0), F(0))
        assert r.membership.region == Region.BOUNDARY

    def test_three_generic_lines(self):
        c = configuration(
            2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1), (line(2, 1, 1), 1)]
        )
        r = necessary_direction_check(c)
        assert r.verdict.status == Status.STABLE
        assert r.margins == (F(1, 2), F(1, 2), F(1, 2))
        assert r.membership.region == Region.INTERIOR
        assert r.membership.x == (F(2, 3), F(2, 3), F(2, 3))

    def test_single_line(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1)])
        r = necessary_direction_check(c)
        assert r.verdict.status == Status.UNSTABLE
        assert r.margins == (F(-1, 2),)
        assert r.membership.region == Region.OUTSIDE

    def test_zero_item_margin_none(self):
        c = configuration(2, 1, [(zero_item(2, 1), 1), (line(2, 1, 0), 1)])
        r = necessary_direction_check(c)
        assert r.margins[0] is None
        assert r.membership is None

    def test_rejects_tensor(self):
        from gitstab.linalg import full_subspace

        c = configuration(2, 2, [(full_subspace(4), 1)])
        with pytest.raises(ValueError):
            necessary_direction_check(c)


class TestProbe:
    def test_requires_room(self):
        with pytest.raises(ValueError):
            conjecture_probe(ConeSpec(4, (2, 1)), [1, 1], trials=1)

    def test_interior_finds_semistable(self):
        r = conjecture_probe(ConeSpec(4, (2, 2, 2)), [1, 1, 1], trials=6, seed=5)
        assert r.fraction_semistable > 0
        assert sum(r.counts.values()) == 6
        assert r.membership.region == Region.INTERIOR

    def test_outside_finds_none(self):
        r = conjecture_probe(ConeSpec(4, (2, 2, 2)), [3, 1, 1], trials=6, seed=5)
        assert r.fraction_semistable == 0.0
        assert r.counts[Status.UNSTABLE.value] == 6

    def test_boundary_yields_no_stable_samples(self):
        # an item with x_i = 1 pins its own slope at the total, so stable
        # verdicts are impossible on the boundary
        r = conjecture_probe(ConeSpec(4, (2, 2, 2)), [2, 1, 1], trials=6, seed=5)
        assert r.fraction_stable == 0.0
        assert r.fraction_semistable > 0

    def test_trial_determinism(self):
        spec = ConeSpec(3, (1, 2))
        a = probe_trial(spec, [F(1), F(1)], seed=7, index=4)
        b = probe_trial(spec, [F(1), F(1)], seed=7, index=4)
        assert a == b

    def test_sample_shape(self):
        spec = ConeSpec(4, (2, 1, 3))
        c = sample_configuration(spec, [1, 2, 3], random.Random(0))
        assert c.n == 4
        assert [s.dim for s in c.subspaces()] == [2, 1, 3]
        assert c.weights() == [F(1), F(2), F(3)]


class TestFoth:
    def test_fixed_plane(self):
        f = foth_fixed_plane()
        assert f.dim == 2
        assert f.rows == ((F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0)))

    def test_three_planes(self):
        c = foth_witness(3, [1, 1, 1])
        f = foth_fixed_plane()
        assert slope_at(c, f) == F(3, 2) == slope_total(c)
        v = decide(c, extra=[f])
        assert v.status == Status.STRICTLY_SEMISTABLE
        assert v.certificate == f
        for i, (a, _) in enumerate(c.items):
            assert meet(a, f).dim == 1
            for b, _ in c.items[i + 1 :]:
                assert meet(a, b).dim == 0

    def test_four_planes(self):
        c = foth_witness(4, [1, 1, 1, 1])
        v = decide(c, extra=[foth_fixed_plane()])
        assert v.status == Status.STRICTLY_SEMISTABLE

    def test_boundary_weights_accepted(self):
        c = foth_witness(3, [2, 1, 1])
        assert decide(c, extra=[foth_fixed_plane()]).status == (
            Status.STRICTLY_SEMISTABLE
        )

    def test_outside_weights_rejected(self):
        with pytest.raises(ValueError):
            foth_witness(3, [3, 1, 1])

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            foth_witness(1, [1])

    def test_weight_count(self):
        with pytest.raises(ValueError):
            foth_witness(3, [1, 1])
