import random
from fractions import Fraction

import numpy as np
import pytest

from gitstab.balance import (
    BalanceResult,
    HermitianMetric,
    MomentValue,
    NoGapError,
    SampledBundleConfig,
    SolveStatus,
    balance_solve,
    bundle_balance_solve,
    bundle_moment_map,
    extract_destabilizer,
    kempf_ness_value,
    moment_map,
)
from gitstab.config import apply_gl, configuration
from gitstab.linalg import RationalMatrix, span
from gitstab.stability import candidate_subspaces, exactify_destabilizer, mu_lambda_s

from util import rand_config

F = Fraction


def line(n, *coords):
    return span([[F(x) for x in coords]], n)


def _expm_herm(a: np.ndarray, t: float) -> np.ndarray:
    lam, v = np.linalg.eigh(a)
    return (v * np.exp(t * lam)) @ v.conj().T


def _rand_herm_traceless(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (x + x.conj().T) / 2
    return a - (np.trace(a) / n) * np.eye(n)


class TestHermitianMetric:
    def test_identity(self):
        h = HermitianMetric.identity(3)
        assert h.n == 3

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMetric(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianMetric(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            HermitianMetric(np.diag([1.0, -1.0]))

    def test_rejects_unnormalized_det(self):
        with pytest.raises(ValueError):
            HermitianMetric(np.diag([2.0, 1.0]))

    def test_from_matrix_normalizes(self):
        h = HermitianMetric.from_matrix(np.diag([4.0, 1.0]))
        assert abs(np.linalg.det(h.matrix) - 1.0) < 1e-12


class TestMomentValue:
    def test_rejects_trace(self):
        with pytest.raises(ValueError):
            MomentValue(np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            MomentValue(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_residual_is_frobenius(self):
        phi = MomentValue(np.diag([1.0, -1.0]))
        assert phi.residual == pytest.approx(np.sqrt(2.0))


class TestMomentMap:
    def test_zero_at_identity_for_coordinate_pair(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1)])
        phi = moment_map(c, HermitianMetric.identity(2))
        assert phi.residual == 0.0

    def test_traceless_and_hermitian_random(self):
        rng = random.Random(71)
        nprng = np.random.default_rng(71)
        for _ in range(10):
            c = rand_config(rng)
            a = _rand_herm_traceless(nprng, c.n)
            h = HermitianMetric.from_matrix(_expm_herm(a, 0.3))
            phi = moment_map(c, h).matrix
            assert abs(complex(np.trace(phi))) < 1e-10
            assert float(np.abs(phi - phi.conj().T).max()) < 1e-12

    def test_orthogonal_equivariance(self):
        # exact rational rotation (3/5, 4/5); at the identity metric the
        # moment value conjugates by the rotation
        g = RationalMatrix.from_rows(
            [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]]
        )
        c = configuration(
            2, 1, [(line(2, 1, 0), 2), (line(2, 1, 1), 1), (line(2, 1, -3), 1)]
        )
        moved = apply_gl(c, g)
        phi = moment_map(c, HermitianMetric.identity(2)).matrix
        phi_g = moment_map(moved, HermitianMetric.identity(2)).matrix
        u = np.array([[0.6, -0.8], [0.8, 0.6]])
        assert float(np.abs(phi_g - u @ phi @ u.T).max()) < 1e-10

    def test_weight_scaling_scales_value(self):
        rng = random.Random(72)
        c = rand_config(rng)
        phi1 = moment_map(c, HermitianMetric.identity(c.n)).matrix
        phi2 = moment_map(
            c.scale_weights(F(3)), HermitianMetric.identity(c.n)
        ).matrix
        assert float(np.abs(phi2 - 3 * phi1).max()) < 1e-12

    def test_metric_size_checked(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1)])
        with pytest.raises(ValueError):
            moment_map(c, HermitianMetric.identity(3))


class TestKempfNessGradient:
    def test_directional_derivative_matches_moment_pairing(self):
        rng = random.Random(73)
        nprng = np.random.default_rng(73)
        eps = 1e-5
        for _ in range(10):
            c = rand_config(rng, n_max=4, m_max=3)
            phi = moment_map(c, HermitianMetric.identity(c.n)).matrix
            a = _rand_herm_traceless(nprng, c.n)
            up = kempf_ness_value(c, HermitianMetric.from_matrix(_expm_herm(a, eps)))
            dn = kempf_ness_value(c, HermitianMetric.from_matrix(_expm_herm(a, -eps)))
            numeric = (up - dn) / (2 * eps)
            exact = float(np.trace(phi @ a).real)
            scale = max(1.0, abs(exact))
            assert abs(numeric - exact) / scale < 1e-5

    def test_gradient_tensor_item(self):
        nprng = np.random.default_rng(74)
        k = span(
            [
                [F(1), F(0), F(0), F(1)],
                [F(0), F(1), F(1), F(0)],
            ],
            4,
        )
        c = configuration(2, 2, [(k, F(2)), (line(4, 1, 2, 3, 4), F(1))])
        phi = moment_map(c, HermitianMetric.identity(2)).matrix
        eps = 1e-5
        for _ in range(5):
            a = _rand_herm_traceless(nprng, 2)
            up = kempf_ness_value(c, HermitianMetric.from_matrix(_expm_herm(a, eps)))
            dn = kempf_ness_value(c, HermitianMetric.from_matrix(_expm_herm(a, -eps)))
            numeric = (up - dn) / (2 * eps)
            exact = float(np.trace(phi @ a).real)
            assert abs(numeric - exact) / max(1.0, abs(exact)) < 1e-5

    def test_scale_invariance_of_kn(self):
        c = configuration(
            2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1), (line(2, 1, 1), 1)]
        )
        base = HermitianMetric.from_matrix(np.diag([2.0, 0.5]))
        # from_matrix rescales to det one, so build the comparison by hand
        v1 = kempf_ness_value(c, base)
        v2 = kempf_ness_value(c, HermitianMetric.from_matrix(3.0 * base.matrix))
        assert v1 == pytest.approx(v2, abs=1e-12)


class TestExtractDestabilizer:
    def test_zero_has_no_gap(self):
        with pytest.raises(NoGapError):
            extract_destabilizer(MomentValue(np.zeros((2, 2))), 1e-8)

    def test_wide_tolerance_sees_no_gap(self):
        phi = MomentValue(np.diag([1.0, -1.0]))
        with pytest.raises(NoGapError):
            extract_destabilizer(phi, 10.0)

    def test_flags_above_each_gap(self):
        phi = MomentValue(np.diag([2.0, 0.0, -2.0]))
        flags = extract_destabilizer(phi, 1e-8)
        assert [f.shape[1] for f in flags] == [1, 2]
        assert abs(abs(flags[0][0, 0]) - 1.0) < 1e-12


class TestBalanceSolve:
    def test_tol_positive(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1)])
        with pytest.raises(ValueError):
            balance_solve(c, tol=0.0)

    def test_already_balanced(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1)])
        r = balance_solve(c)
        assert r.status == SolveStatus.BALANCED
        assert r.residual <= 1e-10
        assert float(np.abs(r.metric.matrix - np.eye(2)).max()) < 1e-9

    def test_stable_config_balances(self):
        c = configuration(
            2,
            1,
            [(line(2, 1, 0), 1), (line(2, 0, 1), 1), (line(2, 1, 1), 1), (line(2, 1, -1), 2)],
        )
        r = balance_solve(c)
        assert r.status == SolveStatus.BALANCED
        assert moment_map(c, r.metric).residual < 1e-8

    def test_unstable_diverges_with_verifiable_hint(self):
        c = configuration(2, 1, [(line(2, 1, 0), 5), (line(2, 0, 1), 1)])
        r = balance_solve(c)
        assert r.status == SolveStatus.DIVERGED
        assert r.destabilizer_hint
        found = None
        for hint in r.destabilizer_hint:
            h = exactify_destabilizer(c, hint, candidate_subspaces(c))
            if h is not None and mu_lambda_s(c, h) > 0:
                found = h
                break
        assert found == line(2, 1, 0)

    def test_kn_never_above_identity_value(self):
        rng = random.Random(75)
        for _ in range(6):
            c = rand_config(rng)
            r = balance_solve(c, max_iter=2000)
            if r.status == SolveStatus.BALANCED:
                start = kempf_ness_value(c, HermitianMetric.identity(c.n))
                assert r.kn_value <= start + 1e-9


def _frame(cols):
    return np.array(cols, dtype=complex).T


class TestBundle:
    def test_validation(self):
        e1 = _frame([[1, 0]])
        with pytest.raises(ValueError):
            SampledBundleConfig(2, (1.0,), (1, 1), (((1.0, (e1,))),))
        with pytest.raises(ValueError):
            SampledBundleConfig(2, (1.0,), (1,), ())
        with pytest.raises(ValueError):
            SampledBundleConfig(2, (1.0,), (1,), ((0.0, (e1,)),))
        with pytest.raises(ValueError):
            SampledBundleConfig(2, (1.0,), (1,), ((1.0, (_frame([[1, 1]]),)),))
        with pytest.raises(ValueError):
            SampledBundleConfig(2, (1.0,), (2,), ((1.0, (e1,)),))

    def test_single_point_matches_flat_moment_map(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 3)])
        b = SampledBundleConfig(
            2,
            (1.0, 3.0),
            (1, 1),
            ((1.0, (_frame([[1, 0]]), _frame([[0, 1]]))),),
        )
        flat = moment_map(c, HermitianMetric.identity(2)).matrix
        sampled = bundle_moment_map(b).matrix
        assert np.array_equal(flat, sampled)

    def test_slope_and_volume(self):
        b = SampledBundleConfig(
            2,
            (1.0, 1.0),
            (1, 1),
            (
                (0.5, (_frame([[1, 0]]), _frame([[0, 1]]))),
                (0.5, (_frame([[1, 1]]) / np.sqrt(2), _frame([[1, -1]]) / np.sqrt(2))),
            ),
        )
        assert b.volume == pytest.approx(1.0)
        assert b.slope == pytest.approx(1.0)
        assert b.m == 2

    def test_balanced_sample_unique_metric(self):
        # four distinct directions leave only scalar stabilizers, so the
        # restarted solve must land on the same metric
        b = SampledBundleConfig(
            2,
            (1.0, 1.0),
            (1, 1),
            (
                (0.5, (_frame([[1, 0]]), _frame([[0, 1]]))),
                (0.5, (_frame([[1, 1]]) / np.sqrt(2), _frame([[1, -1]]) / np.sqrt(2))),
            ),
        )
        r = bundle_balance_solve(b)
        assert r.status == SolveStatus.BALANCED
        assert r.metric_agreement is not None
        assert r.metric_agreement < 1e-6

    def test_balanced_hint_absent(self):
        b = SampledBundleConfig(
            2,
            (1.0, 1.0),
            (1, 1),
            ((1.0, (_frame([[1, 0]]), _frame([[0, 1]]))),),
        )
        r = bundle_balance_solve(b)
        assert r.status == SolveStatus.BALANCED
        assert r.destabilizer_hint is None
