import random
from fractions import Fraction

import numpy as np
import pytest

from gitstab import balance
from gitstab.balance import (
    BalanceResult,
    HermitianMetric,
    MomentValue,
    NoGapError,
    SampledBundleConfig,
    SolveStatus,
    _bundle_bases,
    _metric_from_g,
    _pulled_back_hints,
    balance_solve,
    bundle_balance_solve,
    bundle_moment_map,
    config_bases,
    extract_destabilizer,
    kempf_ness_value,
    moment_map,
)
from gitstab.config import apply_gl, configuration, slope_total
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        e1 = _frame([[1, 0]])
        with pytest.raises(ValueError, match="volume must be finite"):
            SampledBundleConfig(2, (1.0,), (1,), ((bad, (e1,)),))
        with pytest.raises(ValueError, match="entries must be finite"):
            SampledBundleConfig(2, (1.0,), (1,), ((1.0, (_frame([[1, bad]]),)),))
        with pytest.raises(ValueError, match="weights must be finite"):
            SampledBundleConfig(2, (bad,), (1,), ((1.0, (e1,)),))

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


# The descent as it ran before the items were stacked by shape: one QR per
# item, a fresh SVD for every condition check and a fresh moment value per
# iteration.  The stacked descent must reproduce every float it returns.


def _ref_move(g, b, n, d):
    if d == 1:
        return g @ b
    k = b.shape[1]
    x = b.reshape(n, d, k)
    return np.einsum("ab,bdk->adk", g, x).reshape(n * d, k)


def _ref_phi_from_moved(moved, n, d, wp):
    phi = -wp * np.eye(n, dtype=complex)
    for w, mb in moved:
        q, _ = np.linalg.qr(mb)
        p = q @ q.conj().T
        if d == 1:
            tr_w = p
        else:
            tr_w = np.einsum("adbd->ab", p.reshape(n, d, n, d))
        phi = phi + w * tr_w
    return phi


def _ref_kn_of_moved(moved, logdet_h, wp):
    total = 0.0
    for w, mb in moved:
        r = np.linalg.qr(mb, mode="r")
        diag = np.abs(np.diag(r))
        if float(diag.min(initial=1.0)) <= 0:
            raise ValueError("degenerate Gram matrix")
        total += w * 2.0 * float(np.log(diag).sum())
    return total - wp * logdet_h


def _ref_logdet_h(g):
    s = np.linalg.svd(g, compute_uv=False)
    return 2.0 * float(np.log(s).sum())


def _ref_descend(bases, n, d, wp, tol, max_iter, g0=None):
    g = np.eye(n, dtype=complex) if g0 is None else np.asarray(g0, dtype=complex)

    def norm_det(mat):
        s = np.linalg.svd(mat, compute_uv=False)
        scale = float(np.exp(np.log(s).mean()))
        return mat / scale

    g = norm_det(g)
    eta = 1.0
    moved = [(w, _ref_move(g, b, n, d)) for w, b in bases]
    f_cur = _ref_kn_of_moved(moved, _ref_logdet_h(g), wp)
    iterations = 0
    for it in range(max_iter + 1):
        iterations = it
        phi = _ref_phi_from_moved(moved, n, d, wp)
        res = float(np.linalg.norm(phi, "fro"))
        if res < tol:
            return SolveStatus.BALANCED, g, res, it, f_cur, None
        sv = np.linalg.svd(g, compute_uv=False)
        cond_h = (float(sv.max()) / float(sv.min())) ** 2
        if cond_h > 1e12:
            hints = _pulled_back_hints(phi, res, g)
            return SolveStatus.DIVERGED, g, res, it, f_cur, hints
        if it == max_iter:
            break
        lam, u = np.linalg.eigh(phi)
        noise = 64.0 * np.finfo(float).eps * (1.0 + abs(f_cur))
        accepted = False
        while eta > 1e-18:
            stepper = (u * np.exp(-eta * lam)) @ u.conj().T
            g_new = norm_det(stepper @ g)
            moved_new = [(w, _ref_move(g_new, b, n, d)) for w, b in bases]
            try:
                f_new = _ref_kn_of_moved(moved_new, _ref_logdet_h(g_new), wp)
            except ValueError:
                eta *= 0.5
                continue
            wanted = 0.25 * eta * res * res
            if wanted >= noise:
                if f_new <= f_cur - wanted:
                    accepted = True
                    break
            else:
                phi_new = _ref_phi_from_moved(moved_new, n, d, wp)
                res_new = float(np.linalg.norm(phi_new, "fro"))
                if res_new < res and f_new <= f_cur + noise:
                    accepted = True
                    break
            eta *= 0.5
        if not accepted:
            break
        g, moved, f_cur = g_new, moved_new, f_new
        eta = min(eta * 2.0, 1e6)
    phi = _ref_phi_from_moved(moved, n, d, wp)
    res = float(np.linalg.norm(phi, "fro"))
    return SolveStatus.MAX_ITER, g, res, iterations, f_cur, None


def _assert_same_result(r, ref, agreement=None):
    status, g, res, iters, kn, hints = ref
    assert r.status == status
    assert np.array_equal(r.metric.matrix, _metric_from_g(g).matrix)
    assert r.residual == res
    assert r.iterations == iters
    assert r.kn_value == kn
    if hints is None:
        assert r.destabilizer_hint is None
    else:
        assert len(r.destabilizer_hint) == len(hints)
        assert all(np.array_equal(a, b) for a, b in zip(r.destabilizer_hint, hints))
    assert r.metric_agreement == agreement


def _plane(n, *rows):
    return span([[F(x) for x in row] for row in rows], n)


_SAME_AS_PER_ITEM = {
    # four lines in C^2 with unequal weights; reaches a zero of the moment map
    "balanced": (
        configuration(
            2,
            1,
            [(line(2, 1, 0), 1), (line(2, 0, 1), 1), (line(2, 1, 1), 1), (line(2, 1, -1), 2)],
        ),
        300,
        SolveStatus.BALANCED,
    ),
    "diverged": (
        configuration(2, 1, [(line(2, 1, 0), 5), (line(2, 0, 1), 1), (line(2, 1, 3), 1)]),
        300,
        SolveStatus.DIVERGED,
    ),
    # semistable and not split: the descent never settles
    "max_iter": (
        configuration(2, 1, [(line(2, 1, 2), 2), (line(2, 3, -1), 1), (line(2, 2, 5), 1)]),
        120,
        SolveStatus.MAX_ITER,
    ),
    # ranks 1, 2, 3 interleaved with unequal weights, so the shape groups
    # hold items out of their order; nine items, so a pairwise sum of the
    # per-item terms would round differently from the running sum
    "mixed_ranks": (
        configuration(
            4,
            1,
            [
                (line(4, 1, 2, 0, -1), 3),
                (_plane(4, [1, 0, 1, 0], [0, 1, 0, 2]), 2),
                (line(4, 0, 1, 3, 1), 7),
                (_plane(4, [1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 3]), 1),
                (_plane(4, [2, 1, 0, 0], [0, 0, 1, -1]), 5),
                (line(4, 1, -1, 1, 2), 4),
                (_plane(4, [1, 0, 0, 2], [0, 1, -1, 0], [0, 0, 2, 1]), 2),
                (line(4, 3, 0, 1, 1), 1),
                (_plane(4, [0, 1, 0, 1], [1, 0, -2, 0]), 6),
            ],
        ),
        300,
        None,
    ),
    "d2": (
        configuration(
            2,
            2,
            [
                (line(4, 1, 0, 2, 1), 2),
                (_plane(4, [1, 1, 0, 0], [0, 0, 1, -1]), 3),
                (line(4, 0, 1, 1, 0), 1),
                (_plane(4, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]), 1),
            ],
        ),
        300,
        None,
    ),
    "zero_and_full": (
        configuration(
            2,
            1,
            [
                (span([], 2), 3),
                (line(2, 1, 0), 1),
                (_plane(2, [1, 0], [0, 1]), 2),
                (line(2, 0, 1), 1),
                (line(2, 1, 1), 1),
            ],
        ),
        300,
        None,
    ),
}


class TestStackedDescentMatchesPerItem:
    @pytest.mark.parametrize("name", sorted(_SAME_AS_PER_ITEM))
    def test_balance_solve(self, name):
        c, max_iter, status = _SAME_AS_PER_ITEM[name]
        wp = float(slope_total(c))
        ref = _ref_descend(config_bases(c), c.n, c.d, wp, 1e-10, max_iter)
        r = balance_solve(c, max_iter=max_iter)
        if status is not None:
            assert r.status == status
        if status == SolveStatus.DIVERGED:
            assert r.destabilizer_hint
        _assert_same_result(r, ref)

    def test_moment_and_kn_values(self):
        nprng = np.random.default_rng(5)
        for c, _, _ in _SAME_AS_PER_ITEM.values():
            wp = float(slope_total(c))
            for _ in range(8):
                h = HermitianMetric.from_matrix(
                    _expm_herm(_rand_herm_traceless(nprng, c.n), 0.4)
                )
                g = np.linalg.cholesky(h.matrix).conj().T
                moved = [(w, _ref_move(g, b, c.n, c.d)) for w, b in config_bases(c)]
                phi = _ref_phi_from_moved(moved, c.n, c.d, wp)
                assert np.array_equal(moment_map(c, h).matrix, phi)
                kn = _ref_kn_of_moved(moved, _ref_logdet_h(g), wp)
                assert kempf_ness_value(c, h) == kn

    def test_bundle_restart(self):
        b = SampledBundleConfig(
            2,
            (2.0, 1.0),
            (1, 1),
            (
                (0.2, (_frame([[1, 0]]), _frame([[0, 1]]))),
                (0.3, (_frame([[1, 1]]) / np.sqrt(2), _frame([[1, -1]]) / np.sqrt(2))),
                (0.5, (_frame([[3, 4]]) / 5, _frame([[4, -3]]) / 5)),
            ),
        )
        bases = _bundle_bases(b)
        wp = b.slope * b.volume
        ref = _ref_descend(bases, 2, 1, wp, 1e-10, 300)
        assert ref[0] == SolveStatus.BALANCED
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g0 = np.eye(2, dtype=complex) + 0.2 * noise / np.sqrt(2)
        ref2 = _ref_descend(bases, 2, 1, wp, 1e-10, 300, g0=g0)
        assert ref2[0] == SolveStatus.BALANCED
        agreement = float(
            np.abs(_metric_from_g(ref[1]).matrix - _metric_from_g(ref2[1]).matrix).max()
        )
        _assert_same_result(bundle_balance_solve(b, max_iter=300), ref, agreement)
        assert np.array_equal(
            bundle_moment_map(b).matrix, _ref_phi_from_moved(bases, 2, 1, wp)
        )


@pytest.mark.parametrize(
    "items, groups",
    [
        ([(line(2, 1, 2), 2), (line(2, 3, -1), 1), (line(2, 2, 5), 1)], 1),
        ([(line(3, 1, 0, 2), 1), (_plane(3, [1, 1, 0], [0, 1, 1]), 1), (line(3, 0, 1, -1), 1)], 2),
    ],
    ids=["three_lines", "lines_and_plane"],
)
def test_lapack_calls_per_trial(monkeypatch, items, groups):
    # every line-search trial takes one log-determinant; the condition check
    # reuses its singular values, and each evaluation factors every shape
    # group with one QR call
    c = configuration(items[0][0].ambient_dim, 1, items)
    counts = {"svd": 0, "kn_qr": 0, "phi_qr": 0, "logdet": 0}
    svd, qr, logdet_h = np.linalg.svd, np.linalg.qr, balance._logdet_h

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counting_qr(a, mode="reduced"):
        counts["phi_qr" if mode == "reduced" else "kn_qr"] += 1
        return qr(a, mode=mode)

    def counting_logdet_h(g):
        counts["logdet"] += 1
        return logdet_h(g)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(balance, "_logdet_h", counting_logdet_h)
    r = balance_solve(c, max_iter=50)
    assert r.iterations > 0
    trials = counts["logdet"]
    # one SVD to det-normalize each trial's g (and the start), one for its
    # log-determinant, and one for the returned metric
    assert counts["svd"] == 2 * trials + 1
    assert counts["kn_qr"] == groups * trials
    assert counts["phi_qr"] <= groups * trials


def test_qr_results_as_plain_tuples(monkeypatch):
    # numpy before 2.0 returns QR factors as a plain tuple, not a named one
    c = configuration(
        3,
        1,
        [(line(3, 1, 0, 2), 1), (_plane(3, [1, 1, 0], [0, 1, 1]), 1), (line(3, 0, 1, -1), 1)],
    )
    herm = _rand_herm_traceless(np.random.default_rng(3), 3)
    h = HermitianMetric.from_matrix(_expm_herm(herm, 0.4))
    want = (moment_map(c, h).matrix, kempf_ness_value(c, h), balance_solve(c, max_iter=50))
    qr = np.linalg.qr

    def tuple_qr(a, mode="reduced"):
        out = qr(a, mode=mode)
        return tuple(out) if isinstance(out, tuple) else out

    monkeypatch.setattr(np.linalg, "qr", tuple_qr)
    assert np.array_equal(moment_map(c, h).matrix, want[0])
    assert kempf_ness_value(c, h) == want[1]
    r = balance_solve(c, max_iter=50)
    assert np.array_equal(r.metric.matrix, want[2].metric.matrix)
    assert r.residual == want[2].residual
