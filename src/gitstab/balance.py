"""Moment-map descent to balanced metrics, and divergence forensics.

The descent variable is an invertible complex g acting on V; the metric it
induces is H = g*g, kept det-normalized.  The objective decreases along the
flow, vanishing gradient means the weighted projectors onto the items sum
to the slope multiple of the identity, and unbounded descent (metric
condition number blowing up) exposes an approximate destabilizing flag via
eigenvalue clustering of the terminal gradient.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import WeightedConfiguration, slope_total

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_DET_TOL = 1e-10
_COND_LIMIT = 1e12
_FRAME_TOL = 1e-10


class NoGapError(ValueError):
    """All eigenvalues cluster together; no flag can be extracted."""


class SolveStatus(str, enum.Enum):
    BALANCED = "Balanced"
    DIVERGED = "Diverged"
    MAX_ITER = "MaxIter"


@dataclass(frozen=True)
class HermitianMetric:
    matrix: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", h)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("metric must be square")
        if float(np.abs(h - h.conj().T).max(initial=0.0)) > _HERM_TOL:
            raise ValueError("metric must be Hermitian")
        eigs = np.linalg.eigvalsh(h)
        if float(eigs.min()) <= 0:
            raise ValueError("metric must be positive definite")
        # det checked in log space; eigenvalues of an ill-conditioned
        # metric carry a relative error of order eps * cond, so the slack
        # has to grow with the condition number
        logdet = float(np.log(eigs).sum())
        cond = float(eigs[-1] / eigs[0])
        slack = _DET_TOL + 256 * np.finfo(float).eps * cond
        if abs(logdet) > slack:
            raise ValueError("metric must be det-normalized")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int) -> "HermitianMetric":
        return cls(np.eye(n, dtype=complex))

    @classmethod
    def from_matrix(cls, h) -> "HermitianMetric":
        """Symmetrize rounding noise and rescale to unit determinant."""
        h = np.asarray(h, dtype=complex)
        h = (h + h.conj().T) / 2
        eigs = np.linalg.eigvalsh(h)
        if float(eigs.min()) <= 0:
            raise ValueError("metric must be positive definite")
        logdet = float(np.log(eigs).sum())
        return cls(h * np.exp(-logdet / h.shape[0]))


@dataclass(frozen=True)
class MomentValue:
    matrix: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", phi)
        if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
            raise ValueError("moment value must be square")
        if float(np.abs(phi - phi.conj().T).max(initial=0.0)) > _HERM_TOL:
            raise ValueError("moment value must be Hermitian")
        if abs(complex(np.trace(phi))) > _TRACE_TOL:
            raise ValueError("moment value must be traceless")

    @property
    def residual(self) -> float:
        return float(np.linalg.norm(self.matrix, "fro"))


@dataclass(frozen=True)
class BalanceResult:
    status: SolveStatus
    metric: HermitianMetric
    residual: float
    iterations: int
    kn_value: float
    destabilizer_hint: Optional[tuple[np.ndarray, ...]] = None
    metric_agreement: Optional[float] = None


class FloatRangeError(ValueError):
    """An exact value of the configuration lies beyond the float range."""


def _as_float(x, where: str) -> float:
    try:
        return float(x)
    except OverflowError as exc:
        raise FloatRangeError(f"{where}: too large for the float solver") from exc


def config_bases(c: WeightedConfiguration) -> list[tuple[float, np.ndarray]]:
    """(weight, complex basis matrix) per nonzero item; columns are basis
    vectors in Q^(n*d) cast to floats.  Raises FloatRangeError, naming the
    item, when a weight or basis entry is too large for a float."""
    out = []
    for idx, (sub, w) in enumerate(c.items):
        if sub.is_zero:
            continue
        try:
            rows = [[float(x) for x in row] for row in sub.rows]
        except OverflowError as exc:
            raise FloatRangeError(
                f"items[{idx}].basis: an entry is too large for the float solver"
            ) from exc
        b = np.array(rows, dtype=complex).T
        out.append((_as_float(w, f"items[{idx}].weight"), b))
    return out


def _g_factor(metric: HermitianMetric) -> np.ndarray:
    # H = L L* with L lower-triangular, so g = L* satisfies g*g = H
    return np.linalg.cholesky(metric.matrix).conj().T


def _shape_groups(bases: list[tuple[float, np.ndarray]]):
    """The item bases grouped by shape, in order of first appearance: one
    (positions, weights, stack) per shape, where positions are the items'
    indices in `bases`, so per-item terms can still be summed in item
    order."""
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for pos, (_, b) in enumerate(bases):
        by_shape.setdefault(b.shape, []).append(pos)
    return [
        (
            np.array(pos),
            np.array([bases[p][0] for p in pos]),
            np.stack([bases[p][1] for p in pos]),
        )
        for pos in by_shape.values()
    ]


def _move_stacks(g: np.ndarray, groups, n: int, d: int):
    """Every group's stack moved by g tensor 1."""
    if d == 1:
        return [(pos, w, g @ stack) for pos, w, stack in groups]
    return [
        (
            pos,
            w,
            np.einsum("ab,sbdk->sadk", g, stack.reshape(len(stack), n, d, -1)).reshape(
                stack.shape
            ),
        )
        for pos, w, stack in groups
    ]


def _phi_of_stacks(groups, n: int, d: int, wp: float) -> np.ndarray:
    terms = np.empty((sum(len(pos) for pos, _, _ in groups), n, n), dtype=complex)
    for pos, w, stack in groups:
        q, _ = np.linalg.qr(stack)
        p = q @ q.conj().swapaxes(1, 2)
        if d > 1:
            p = np.einsum("sadbd->sab", p.reshape(len(p), n, d, n, d))
        terms[pos] = w[:, None, None] * p
    phi = -wp * np.eye(n, dtype=complex)
    for term in terms:
        phi = phi + term
    return phi


def _moved_config(c: WeightedConfiguration, metric: HermitianMetric):
    """The metric's factor g and the items' shape groups moved by g tensor 1."""
    if metric.n != c.n:
        raise ValueError("metric size must be n")
    g = _g_factor(metric)
    return g, _move_stacks(g, _shape_groups(config_bases(c)), c.n, c.d)


def moment_map(c: WeightedConfiguration, metric: HermitianMetric) -> MomentValue:
    """Weighted sum of metric-orthogonal item projectors minus the slope
    multiple of the identity; for d > 1 projectors are partial-traced over
    the W factor down to V."""
    _, moved = _moved_config(c, metric)
    wp = _as_float(slope_total(c), "slope")
    return MomentValue(_phi_of_stacks(moved, c.n, c.d, wp))


def kempf_ness_value(c: WeightedConfiguration, metric: HermitianMetric) -> float:
    """Descent objective: weighted log-Gram volumes of the items in the
    metric, minus the slope times the metric log-determinant.

    Scale-invariant in the metric; its directional derivative at the
    identity along a Hermitian traceless a equals <Phi, a>.
    """
    g, moved = _moved_config(c, metric)
    logdet_h, _ = _logdet_h(g)
    return _kn_of_stacks(moved, logdet_h, _as_float(slope_total(c), "slope"))


def extract_destabilizer(phi: MomentValue, gap_tol: float) -> list[np.ndarray]:
    """Partial-sum eigenspaces of phi above each eigenvalue gap, eigenvalues
    taken in descending order.  These are numeric candidates only; callers
    must rationalize and re-verify exactly."""
    mat = phi.matrix
    if float(np.linalg.norm(mat, "fro")) == 0.0:
        raise NoGapError("zero moment value has no eigenvalue gaps")
    lam, vecs = np.linalg.eigh(mat)
    order = np.argsort(-lam)
    lam = lam[order]
    vecs = vecs[:, order]
    flags = []
    for j in range(len(lam) - 1):
        if lam[j] - lam[j + 1] > gap_tol:
            flags.append(vecs[:, : j + 1].copy())
    if not flags:
        raise NoGapError("all eigenvalues within gap_tol")
    return flags


def _kn_of_stacks(groups, logdet_h: float, wp: float) -> float:
    terms = np.empty(sum(len(pos) for pos, _, _ in groups))
    for pos, w, stack in groups:
        # the raw factor holds R (transposed) without the triu copy of
        # mode="r"; the diagonal is all this needs, and it is the same
        h, _ = np.linalg.qr(stack, mode="raw")
        diag = np.abs(np.diagonal(h, axis1=1, axis2=2))
        if (diag.min(axis=1) <= 0).any():
            raise ValueError("degenerate Gram matrix")
        terms[pos] = w * 2.0 * np.log(diag).sum(axis=1)
    total = 0.0
    for term in terms.tolist():
        total += term
    return total - wp * logdet_h


def _logdet_h(g: np.ndarray) -> tuple[float, np.ndarray]:
    """log det(g*g), and the singular values of g it was read from."""
    s = np.linalg.svd(g, compute_uv=False)
    return 2.0 * float(np.log(s).sum()), s


def _descend(
    groups,
    n: int,
    d: int,
    wp: float,
    tol: float,
    max_iter: int,
    g0: Optional[np.ndarray] = None,
):
    """Shared descent loop.  Returns (status, g, residual, iterations,
    kn_value, hints) with hints pulled back to the original coordinates.

    `groups` are the items grouped by `_shape_groups`, so each evaluation
    of the Kempf-Ness value or the moment value factors every group with
    one QR call; per-item terms are still added in item order.  The singular
    values behind an accepted trial's log-determinant serve the next
    condition check, and a moment value the line search already computed
    for the accepted trial is reused.  Every float is the same as with one
    QR per item and fresh SVDs and moment values."""
    g = np.eye(n, dtype=complex) if g0 is None else np.asarray(g0, dtype=complex)

    def norm_det(mat):
        s = np.linalg.svd(mat, compute_uv=False)
        scale = float(np.exp(np.log(s).mean()))
        return mat / scale

    def moment(moved):
        phi = _phi_of_stacks(moved, n, d, wp)
        return phi, float(np.linalg.norm(phi, "fro"))

    g = norm_det(g)
    eta = 1.0
    moved = _move_stacks(g, groups, n, d)
    logdet_h, sv = _logdet_h(g)
    f_cur = _kn_of_stacks(moved, logdet_h, wp)
    phi, res = moment(moved)
    iterations = 0
    for it in range(max_iter + 1):
        iterations = it
        if res < tol:
            return SolveStatus.BALANCED, g, res, it, f_cur, None
        try:
            cond_h = (float(sv.max()) / float(sv.min())) ** 2
        except OverflowError:
            cond_h = float("inf")
        if cond_h > _COND_LIMIT:
            hints = _pulled_back_hints(phi, res, g)
            return SolveStatus.DIVERGED, g, res, it, f_cur, hints
        if it == max_iter:
            break
        lam, u = np.linalg.eigh(phi)
        # Near the minimum the functional is quadratically flat: the Armijo
        # decrease 0.25*eta*res^2 drops below the resolution of f itself
        # long before res reaches tol.  Below that noise floor, acceptance
        # switches to direct residual decrease, which stays measurable.
        noise = 64.0 * np.finfo(float).eps * (1.0 + abs(f_cur))
        accepted = False
        while eta > 1e-18:
            stepper = (u * np.exp(-eta * lam)) @ u.conj().T
            try:
                g_new = norm_det(stepper @ g)
                moved_new = _move_stacks(g_new, groups, n, d)
                logdet_new, sv_new = _logdet_h(g_new)
                f_new = _kn_of_stacks(moved_new, logdet_new, wp)
            except ValueError:  # a non-finite trial raises LinAlgError, a ValueError
                eta *= 0.5
                continue
            wanted = 0.25 * eta * res * res
            moment_new = None
            if wanted >= noise:
                if f_new <= f_cur - wanted:
                    accepted = True
                    break
            else:
                moment_new = moment(moved_new)
                if moment_new[1] < res and f_new <= f_cur + noise:
                    accepted = True
                    break
            eta *= 0.5
        if not accepted:
            break
        g, moved, f_cur, sv = g_new, moved_new, f_new, sv_new
        phi, res = moment(moved) if moment_new is None else moment_new
        eta = min(eta * 2.0, 1e6)
    return SolveStatus.MAX_ITER, g, res, iterations, f_cur, None


def _metric_from_g(g: np.ndarray) -> HermitianMetric:
    # H = g*g has condition cond(g)^2, which on a diverged run can exceed
    # what a positive definite double matrix can hold, so the spectrum is
    # floored before det-normalizing; balanced runs are far from the floor
    _, s, vh = np.linalg.svd(g)
    s = np.maximum(s, s.max() * 1e-6)
    logs = 2.0 * np.log(s)
    logs -= logs.mean()
    h = (vh.conj().T * np.exp(logs)) @ vh
    return HermitianMetric((h + h.conj().T) / 2)


def _pulled_back_hints(phi: np.ndarray, res: float, g: np.ndarray):
    try:
        flags = extract_destabilizer(MomentValue(phi), 1e-4 * res)
    except (NoGapError, ValueError):
        return None
    hints = []
    for q in flags:
        back = np.linalg.solve(g, q)
        hints.append(back)
    return tuple(hints) if hints else None


def balance_solve(
    c: WeightedConfiguration,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> BalanceResult:
    """Descend until the moment map vanishes (Balanced), the metric
    condition number passes 1e12 (Diverged, with destabilizer hints), or
    the iteration budget runs out.  Deterministic.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    groups = _shape_groups(config_bases(c))
    wp = _as_float(slope_total(c), "slope")
    status, g, res, iters, kn, hints = _descend(
        groups, c.n, c.d, wp, tol, max_iter
    )
    metric = _metric_from_g(g)
    return BalanceResult(
        status=status,
        metric=metric,
        residual=res,
        iterations=iters,
        kn_value=kn,
        destabilizer_hint=hints,
    )


@dataclass(frozen=True)
class SampledBundleConfig:
    """Finite sample of a family of subspace maps into C^N.

    points[t] = (volume, frames) where frames[i] is an N x ranks[i]
    orthonormal column frame; the total volume is the sum of the sample
    volumes.
    """

    n_ambient: int
    weights: tuple[float, ...]
    ranks: tuple[int, ...]
    points: tuple[tuple[float, tuple[np.ndarray, ...]], ...]

    def __post_init__(self):
        if self.n_ambient < 1:
            raise ValueError("N must be >= 1")
        if len(self.weights) != len(self.ranks):
            raise ValueError("weights and ranks must align")
        if not self.points:
            raise ValueError("need at least one sample point")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        for t, (vol, frames) in enumerate(self.points):
            if not np.isfinite(vol):
                raise ValueError(f"point {t}: volume must be finite")
            if vol <= 0:
                raise ValueError(f"point {t}: volume must be positive")
            if len(frames) != len(self.ranks):
                raise ValueError(f"point {t}: one frame per item required")
            for i, a in enumerate(frames):
                a = np.asarray(a, dtype=complex)
                if a.shape != (self.n_ambient, self.ranks[i]):
                    raise ValueError(f"point {t} frame {i}: wrong shape")
                if not np.isfinite(a).all():
                    raise ValueError(f"point {t} frame {i}: entries must be finite")
                gram = a.conj().T @ a
                if float(np.abs(gram - np.eye(self.ranks[i])).max()) > _FRAME_TOL:
                    raise ValueError(f"point {t} frame {i}: not orthonormal")

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def volume(self) -> float:
        return float(sum(v for v, _ in self.points))

    @property
    def slope(self) -> float:
        return float(
            sum(w * r for w, r in zip(self.weights, self.ranks)) / self.n_ambient
        )


def _bundle_bases(b: SampledBundleConfig) -> list[tuple[float, np.ndarray]]:
    out = []
    for vol, frames in b.points:
        for w, a in zip(b.weights, frames):
            out.append((w * vol, np.asarray(a, dtype=complex)))
    return out


def bundle_moment_map(b: SampledBundleConfig) -> MomentValue:
    """Volume-weighted sum of the pointwise frame projectors, centered by
    the slope times total volume."""
    groups = _shape_groups(_bundle_bases(b))
    return MomentValue(_phi_of_stacks(groups, b.n_ambient, 1, b.slope * b.volume))


def bundle_balance_solve(
    b: SampledBundleConfig,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    seed: int = 0,
) -> BalanceResult:
    """Descend over a common transform of C^N, re-orthonormalizing frames
    each step; on Balanced, re-solve from a seeded random start and report
    the worst entrywise disagreement of the two normalized metrics."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    groups = _shape_groups(_bundle_bases(b))
    n = b.n_ambient
    status, g, res, iters, kn, hints = _descend(
        groups, n, 1, b.slope * b.volume, tol, max_iter
    )
    metric = _metric_from_g(g)
    agreement = None
    if status == SolveStatus.BALANCED:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g0 = np.eye(n, dtype=complex) + 0.2 * noise / np.sqrt(n)
        status2, g2, res2, _, _, _ = _descend(
            groups, n, 1, b.slope * b.volume, tol, max_iter, g0=g0
        )
        if status2 == SolveStatus.BALANCED:
            h2 = _metric_from_g(g2)
            agreement = float(np.abs(metric.matrix - h2.matrix).max())
    return BalanceResult(
        status=status,
        metric=metric,
        residual=res,
        iterations=iters,
        kn_value=kn,
        destabilizer_hint=hints,
        metric_agreement=agreement,
    )
