"""Semistability verdicts for weighted subspace configurations.

The test quantifies over nonzero proper subspaces h of V: the configuration
is semistable when slope_at(c, h) <= slope_total(c) for all h, stable when
strict, and the sign of mu_lambda_s(c, h) encodes the comparison exactly.
The quantifier is searched over a finite candidate lattice, so verdicts that
assert the absence of a violator carry a within-depth confidence tag, while
any violator found is a complete proof.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .config import (
    WeightedConfiguration,
    act_on_rows,
    intersection_dims,
    slope_at,
    slope_total,
    supp_v,
    tensor_with_full_w,
)
from .linalg import (
    RationalMatrix,
    Subspace,
    _rref,
    complement_chart,
    join,
    meet,
    span,
    subspace_digest,
)


class Status(str, enum.Enum):
    UNSTABLE = "Unstable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    STABLE = "Stable"
    POLYSTABLE = "Polystable"


class Confidence(str, enum.Enum):
    EXACT_COMPLETE = "ExactComplete"
    EXACT_WITHIN_DEPTH = "ExactWithinDepth"
    NUMERICALLY_CORROBORATED = "NumericallyCorroborated"


SEMISTABLE_STATUSES = (Status.STRICTLY_SEMISTABLE, Status.STABLE, Status.POLYSTABLE)


@dataclass(frozen=True)
class Verdict:
    status: Status
    confidence: Confidence
    certificate: Optional[Subspace] = None
    summands: Optional[tuple[Subspace, ...]] = None
    slope: Optional[Fraction] = None
    certificate_slope: Optional[Fraction] = None
    mu: Optional[Fraction] = None
    candidate_digest: Optional[str] = None
    depth: Optional[int] = None

    @property
    def is_semistable(self) -> bool:
        return self.status in SEMISTABLE_STATUSES


@dataclass(frozen=True)
class OnePS:
    """One-parameter direction: an ordered frame of V and sorted weights.

    frame columns are the adapted basis; q must be non-increasing integers
    summing to zero.
    """

    frame: RationalMatrix
    q: tuple[int, ...]

    def __post_init__(self):
        n = self.frame.rows
        if self.frame.cols != n:
            raise ValueError("frame must be square")
        if len(self.q) != n:
            raise ValueError("q length must match frame size")
        if any(int(x) != x for x in self.q):
            raise ValueError("q must be integral")
        if any(a < b for a, b in zip(self.q, self.q[1:])):
            raise ValueError("q must be non-increasing")
        if sum(self.q) != 0:
            raise ValueError("q must sum to zero")
        if self.frame.rank() != n:
            raise ValueError("frame must be invertible")


def mu_lambda_s(c: WeightedConfiguration, h: Subspace) -> Fraction:
    """n * sum(w_i dim(K_i meet h tensor W)) - dim h * sum(w_i dim K_i).

    Positive exactly when h violates the stability inequality; the identity
    n * dim h * (slope_at - slope_total) = mu holds over the rationals.
    """
    if h.is_zero or h.dim >= c.n:
        raise ValueError("h must be a proper nonzero subspace of V")
    dims = intersection_dims(c, h)
    inner = sum((w * dim for (_, w), dim in zip(c.items, dims)), Fraction(0))
    total = sum((w * sub.dim for sub, w in c.items), Fraction(0))
    return c.n * inner - h.dim * total


def _jump_positions(vectors: list, width: int) -> list[int]:
    """1-based positions where a subspace meets the coordinate flag deeper.

    Elimination by trailing entries: reduce rows so their last nonzero
    positions are distinct; those positions are the jumps.
    """
    _, pivots = _rref([list(reversed(v)) for v in vectors])
    return sorted(width - p for p in pivots)


def mu_general(c: WeightedConfiguration, lam: OnePS) -> Fraction:
    """Weight of the limit against the adapted flag of the frame.

    Each item contributes the sum of q' at its jump positions, where q' is
    q with every entry repeated d times (the flag on V tensor W refines the
    frame flag on V by the d multiplicity directions).
    """
    inv = lam.frame.inverse()
    q_prime = [q for q in lam.q for _ in range(c.d)]
    total = Fraction(0)
    for sub, w in c.items:
        jumps = _jump_positions(act_on_rows(inv, sub.rows, c.d), c.n * c.d)
        total += w * sum(q_prime[t - 1] for t in jumps)
    return total


def adapted_frame(h: Subspace) -> RationalMatrix:
    """Invertible frame whose first dim(h) columns span h.

    Completed by the rows of h's complement chart.
    """
    return RationalMatrix.from_columns(h.rows + complement_chart(h).rows)


def lambda_for_subspace(h: Subspace) -> OnePS:
    """The standard direction testing h: weights (n-s) on h, -s off it."""
    n, s = h.ambient_dim, h.dim
    if s == 0 or s == n:
        raise ValueError("h must be proper nonzero")
    q = tuple([n - s] * s + [-s] * (n - s))
    return OnePS(adapted_frame(h), q)


def _closure_round(
    current: set[Subspace], c: WeightedConfiguration
) -> set[Subspace]:
    found: set[Subspace] = set(current)
    items = [sub for sub, _ in c.items]
    pool = sorted(current, key=lambda s: (s.dim, s.rows))
    for i, a in enumerate(pool):
        for b in pool[i + 1 :]:
            for candidate in (meet(a, b), join(a, b)):
                if 0 < candidate.dim < a.ambient_dim:
                    found.add(candidate)
    if c.d > 1:
        for k in items:
            for h in pool:
                s = supp_v(meet(k, tensor_with_full_w(h, c.d)), c.n, c.d)
                if 0 < s.dim < c.n:
                    found.add(s)
    return found


def candidate_subspaces(
    c: WeightedConfiguration,
    depth: int = 3,
    extra: Sequence[Subspace] = (),
) -> list[Subspace]:
    """Finite search set for the stability quantifier.

    For d = 1 this is the meet/join lattice generated by the items,
    truncated after `depth` closure rounds; for d > 1 the item V-supports
    seed the lattice and each round also adds supp of item intersections
    with h tensor W.  Zero and V are excluded; the ordering (dim, then
    lexicographic basis) is the tie-break order for certificates.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = c.n
    base: set[Subspace] = set()
    for sub, _ in c.items:
        h = sub if c.d == 1 else supp_v(sub, c.n, c.d)
        if 0 < h.dim < n:
            base.add(h)
    for h in extra:
        if h.ambient_dim != n:
            raise ValueError("extra candidate has wrong ambient dimension")
        if 0 < h.dim < n:
            base.add(h)
    current = base
    for _ in range(depth):
        grown = _closure_round(current, c)
        if grown == current:
            break
        current = grown
    if not current and n >= 2:
        # every item is 0 or full, so any single proper h settles the verdict
        e1 = [Fraction(1)] + [Fraction(0)] * (n - 1)
        current = {span([e1], n)}
    return sorted(current, key=lambda s: (s.dim, s.rows))


def scan_margins(
    c: WeightedConfiguration, cands: Sequence[Subspace], depth: int
) -> tuple[Verdict, list[Subspace]]:
    """Exact verdict from the stability margins of the given candidates.

    Scans in order; the first strict violator proves Unstable
    (ExactComplete).  Otherwise the first equality witness gives
    StrictlySemistable and silence gives Stable, both within depth.  Also
    returns the equality witnesses in scan order, which is every one of
    them unless the verdict is Unstable.
    """
    total = slope_total(c)
    equalities: list[Subspace] = []
    for h in cands:
        margin = mu_lambda_s(c, h)
        if margin > 0:
            return Verdict(
                status=Status.UNSTABLE,
                confidence=Confidence.EXACT_COMPLETE,
                certificate=h,
                slope=total,
                certificate_slope=slope_at(c, h),
                mu=margin,
                depth=depth,
            ), equalities
        if margin == 0:
            equalities.append(h)
    if equalities:
        verdict = Verdict(
            status=Status.STRICTLY_SEMISTABLE,
            confidence=Confidence.EXACT_WITHIN_DEPTH,
            certificate=equalities[0],
            slope=total,
            certificate_slope=total,
            mu=Fraction(0),
            depth=depth,
        )
    else:
        verdict = Verdict(
            status=Status.STABLE,
            confidence=Confidence.EXACT_WITHIN_DEPTH,
            slope=total,
            candidate_digest=subspace_digest(cands),
            depth=depth,
        )
    return verdict, equalities


def decide(
    c: WeightedConfiguration,
    depth: int = 3,
    numeric: bool = False,
    extra: Sequence[Subspace] = (),
) -> Verdict:
    """Semistability verdict with an exact certificate.

    Scans the margins of the candidate set (see scan_margins).  With
    numeric=True the balance solver corroborates the verdict; numeric
    evidence changes a status only after exact re-verification.
    """
    verdict, _ = scan_margins(c, candidate_subspaces(c, depth, extra), depth)
    if numeric:
        verdict = _corroborate(c, verdict, depth, extra)
    return verdict


def _corroborate(
    c: WeightedConfiguration,
    verdict: Verdict,
    depth: int,
    extra: Sequence[Subspace],
) -> Verdict:
    from . import balance

    result = balance.balance_solve(c)
    if result.status == balance.SolveStatus.BALANCED:
        if verdict.is_semistable:
            return replace(verdict, confidence=Confidence.NUMERICALLY_CORROBORATED)
        return verdict
    if result.status == balance.SolveStatus.DIVERGED and result.destabilizer_hint:
        for basis in result.destabilizer_hint:
            h = exactify_destabilizer(c, basis, depth, extra)
            if h is None:
                continue
            # an exact re-check of the hint alone: a violator proves
            # Unstable, an equality witness refutes a Stable verdict
            checked, _ = scan_margins(c, [h], depth)
            if checked.status == Status.UNSTABLE or (
                checked.status == Status.STRICTLY_SEMISTABLE
                and verdict.status == Status.STABLE
            ):
                return checked
    return verdict


def exactify_destabilizer(
    c: WeightedConfiguration,
    numeric_basis,
    depth: int = 3,
    extra: Sequence[Subspace] = (),
    angle_tol: float = 1e-6,
    max_denominator: int = 10**6,
) -> Optional[Subspace]:
    """Turn a numeric subspace basis into an exact one, or give up.

    First snaps to the candidate lattice by principal angle, then falls
    back to continued-fraction rounding of the echelonized basis.  Returns
    a proper nonzero Subspace or None; callers must re-verify the verdict
    claim exactly themselves.
    """
    import numpy as np

    arr = np.asarray(numeric_basis)
    if arr.ndim != 2 or arr.shape[0] != c.n:
        return None
    if np.iscomplexobj(arr):
        if float(np.abs(arr.imag).max(initial=0.0)) > 1e-6:
            return None
        arr = arr.real.copy()
    arr = np.asarray(arr, dtype=float)
    j = arr.shape[1]
    if j == 0 or j >= c.n:
        return None
    qb, _ = np.linalg.qr(arr)
    for h in candidate_subspaces(c, depth, extra):
        if h.dim != j:
            continue
        hb = np.array([[float(x) for x in row] for row in h.rows], dtype=float).T
        qc, _ = np.linalg.qr(hb)
        sv = np.linalg.svd(qc.T @ qb, compute_uv=False)
        angle = float(np.arccos(min(1.0, float(sv.min()))))
        if angle < angle_tol:
            return h
    # continued-fraction fallback on the echelonized numeric basis
    work = arr.T.copy()
    rows, cols = work.shape
    r = 0
    for col in range(cols):
        if r >= rows:
            break
        p = int(np.argmax(np.abs(work[r:, col]))) + r
        if abs(work[p, col]) < 1e-9:
            continue
        work[[r, p]] = work[[p, r]]
        work[r] /= work[r, col]
        for i in range(rows):
            if i != r:
                work[i] -= work[i, col] * work[r]
        r += 1
    vectors = []
    for i in range(r):
        vectors.append(
            [Fraction(float(x)).limit_denominator(max_denominator) for x in work[i]]
        )
    h = span(vectors, c.n)
    if 0 < h.dim < c.n:
        return h
    return None


@dataclass(frozen=True)
class DominantWeightReport:
    """How far item i's weight dominates the rest, and what that forces."""

    index: int
    threshold: Fraction
    ratio_bound: Fraction
    is_dominant: bool
    config_verdict: Verdict
    singleton_verdict: Verdict
    consistent: bool
    transferred_certificate: Optional[Subspace] = None


class InternalSoundnessError(AssertionError):
    """A proven implication failed on exact data; indicates a bug."""


def dominant_weight_check(
    c: WeightedConfiguration, i: int, depth: int = 3
) -> DominantWeightReport:
    """Threshold analysis for when one item's verdict controls the whole.

    For any proper nonzero h the contribution of item j to the stability
    margin is bounded by (n-1) * w_j * dim K_j in absolute value, and the
    margin of item i alone is a nonzero integer multiple of w_i whenever it
    has a sign.  So with w_i above threshold = (n-1) * sum_{j != i} w_j k_j
    the ratio R of the others' contribution to item i's is below 1 in
    absolute value and item i's own verdict wins: an unstable singleton
    forces the configuration unstable (same certificate), and a stable
    singleton forces it stable.
    """
    if c.m < 2:
        raise ValueError("needs at least two items")
    if not 0 <= i < c.m:
        raise IndexError("item index out of range")
    w_i = c.items[i][1]
    threshold = (c.n - 1) * sum(
        (w * sub.dim for j, (sub, w) in enumerate(c.items) if j != i), Fraction(0)
    )
    ratio_bound = threshold / w_i
    is_dominant = w_i > threshold
    config_verdict = decide(c, depth)
    singleton = WeightedConfiguration(c.n, c.d, (c.items[i],))
    singleton_verdict = decide(singleton, depth)
    consistent = True
    transferred: Optional[Subspace] = None
    if is_dominant:
        if singleton_verdict.status == Status.UNSTABLE:
            h = singleton_verdict.certificate
            if mu_lambda_s(c, h) <= 0:
                raise InternalSoundnessError(
                    "dominant weight: singleton violator fails to transfer"
                )
            transferred = h
            if config_verdict.is_semistable:
                # the candidate search missed this violator at the given depth
                consistent = False
        if (
            singleton_verdict.status == Status.STABLE
            and config_verdict.status == Status.UNSTABLE
        ):
            raise InternalSoundnessError(
                "dominant weight: stable singleton with unstable configuration"
            )
    return DominantWeightReport(
        index=i,
        threshold=threshold,
        ratio_bound=ratio_bound,
        is_dominant=is_dominant,
        config_verdict=config_verdict,
        singleton_verdict=singleton_verdict,
        consistent=consistent,
        transferred_certificate=transferred,
    )
